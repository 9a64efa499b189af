"""Construction records: provenance of a synthesized field.

A record remembers how a field was built: the construction case, the cyclic
indices, the slots (grid rectangles carrying congruent sub-constructions),
and the exact symmetries the construction promises.  Same-orbit slots are
always grid translates of each other, so a slot bijection is just the
translation between slot origins.

Symmetries are self-contained cell-level maps:

* ``GridTranslation(dx, dy)`` -- whole-torus translation (exact wrap),
* ``RectCycle(rects)``        -- cyclic translation among congruent grid
  rectangles, identity outside them.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import NamedTuple, Optional, Union

import numpy as np

from kronrod.errors import IncompleteRecord, InvalidField, NotAnAutomorphism
from kronrod.fields import ScalarField
from kronrod.terms import GroupTerm, json_int, term_from_json, term_to_json


class GridTranslation(NamedTuple):
    dx: int
    dy: int

    def to_json(self) -> dict:
        return {"kind": "translation", "dx": self.dx, "dy": self.dy}


class Rect(NamedTuple):
    """Axis-aligned vertex rectangle [x0, x0+w) x [y0, y0+h), wrapped on a torus."""

    x0: int
    y0: int
    w: int
    h: int

    def to_json(self) -> list[int]:
        return [self.x0, self.y0, self.w, self.h]


class RectCycle(NamedTuple):
    rects: tuple[Rect, ...]

    def to_json(self) -> dict:
        return {"kind": "rect_cycle", "rects": [r.to_json() for r in self.rects]}


SymmetrySpec = Union[GridTranslation, RectCycle]


def symmetry_from_json(obj: dict) -> SymmetrySpec:
    if not isinstance(obj, dict):
        raise ValueError(f"a symmetry must be a JSON object, not {type(obj).__name__}")
    if obj.get("kind") == "translation":
        return GridTranslation(json_int(obj["dx"]), json_int(obj["dy"]))
    if obj.get("kind") == "rect_cycle":
        return RectCycle(tuple(Rect(*map(json_int, r)) for r in obj["rects"]))
    raise ValueError(f"unknown symmetry kind {obj.get('kind')!r}")


class Slot:
    """A rectangle of grid vertices carrying one sub-construction copy of `term`."""

    __slots__ = ("rect", "orbit", "term")

    def __init__(self, rect: Rect, orbit: int, term: GroupTerm):
        self.rect, self.orbit, self.term = rect, orbit, term

    def to_json(self) -> dict:
        return {"rect": self.rect.to_json(), "orbit": self.orbit, "term": term_to_json(self.term)}


class ConstructionRecord:
    """What was built and which symmetries it promises.

    `case` is one of "disk", "circuit", "tree", "simple".  For torus cases
    `base` is the term carried by each band / orbit-one square.  The
    group term of the whole field is derived from the record by the
    wreath recursion in `kronrod.auts.record_term`.
    """

    __slots__ = (
        "case", "term", "base", "n", "m", "width", "height", "designed_counts",
        "slots", "symmetries", "disk_layout",
    )

    def __init__(
        self,
        case: str,
        term: GroupTerm,  # the normalized term the construction realizes
        base: GroupTerm,  # the sub-term painted into each band / square (Triv when none)
        n: int,
        m: int,
        width: int,
        height: int,
        designed_counts: tuple[int, int, int],  # (minima, saddles, maxima) the design promises
        slots: Optional[list[Slot]] = None,
        symmetries: Optional[list[SymmetrySpec]] = None,
        disk_layout: Optional[str] = None,  # "triv" | "prod" | "wrc" for disk records
    ):
        self.case, self.term, self.base, self.n, self.m = case, term, base, n, m
        self.width, self.height, self.designed_counts = width, height, designed_counts
        self.slots = [] if slots is None else slots
        self.symmetries = [] if symmetries is None else symmetries
        self.disk_layout = disk_layout

    def to_json(self) -> bytes:
        doc = {
            "case": self.case,
            "term": term_to_json(self.term),
            "base": term_to_json(self.base),
            "n": self.n,
            "m": self.m,
            "width": self.width,
            "height": self.height,
            "slots": [s.to_json() for s in self.slots],
            "symmetries": [s.to_json() for s in self.symmetries],
            "designed_counts": list(self.designed_counts),
            "disk_layout": self.disk_layout,
        }
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    @staticmethod
    def from_json(data: bytes) -> "ConstructionRecord":
        try:
            doc = json.loads(data.decode("utf-8"))
            counts = doc["designed_counts"]
            if not isinstance(counts, list) or [type(c) for c in counts] != [int] * 3:
                raise ValueError(f"designed_counts must be three integers, got {counts!r}")
            rec = ConstructionRecord(
                case=doc["case"],
                term=term_from_json(doc["term"]),
                base=term_from_json(doc["base"]),
                n=json_int(doc["n"]),
                m=json_int(doc["m"]),
                width=json_int(doc["width"]),
                height=json_int(doc["height"]),
                slots=[
                    Slot(
                        rect=Rect(*map(json_int, s["rect"])),
                        orbit=json_int(s["orbit"]),
                        term=term_from_json(s["term"]),
                    )
                    for s in doc["slots"]
                ],
                symmetries=[symmetry_from_json(s) for s in doc["symmetries"]],
                designed_counts=tuple(counts),
                disk_layout=doc.get("disk_layout"),
            )
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise IncompleteRecord(f"malformed record JSON: {exc}") from exc
        if rec.case not in ("disk", "circuit", "tree", "simple"):
            raise IncompleteRecord(f"unknown construction case {rec.case!r}")
        return rec


def _rect_points(f: ScalarField, r: Rect) -> np.ndarray:
    """The flat indices ``y * width + x`` of a rectangle's grid points, row by
    row.  NotAnAutomorphism unless it is nonempty, no larger than the grid,
    and inside the grid on a disk: only a torus wraps it."""
    w, h = f.width, f.height
    if min(r.w, r.h) < 1:
        raise NotAnAutomorphism(f"empty rectangle {r}")
    if not f.wraps and (min(r.x0, r.y0) < 0 or r.x0 + r.w > w or r.y0 + r.h > h):
        raise NotAnAutomorphism(f"rectangle {r} leaves the grid")
    if r.w > w or r.h > h:
        raise NotAnAutomorphism(f"rectangle {r} is larger than the torus")
    # origins reduced first: numpy reads no integer past the C long range
    return (r.y0 % h + np.arange(r.h))[:, None] % h * w + (r.x0 % w + np.arange(r.w)) % w


def moves(f: ScalarField, sym: SymmetrySpec) -> tuple[np.ndarray, np.ndarray]:
    """Where a symmetry sends each grid point, as two int32 arrays over the
    flat indices ``y * width + x``: each point's image, and the piece that
    moves it rigidly (0 everywhere for a translation; in a cycle the
    rectangle's index, -1 outside them).  NotAnAutomorphism unless the map is
    a bijection of the grid: a translation of a torus, or a cycle of equal,
    pairwise disjoint rectangles that `_rect_points` reads; each goes onto the
    next, so together they are their own image.  Made once per field and
    symmetry and kept on the field; a symmetry whose map raises keeps nothing.
    """
    if not isinstance(sym, (GridTranslation, RectCycle)):
        raise NotAnAutomorphism(f"unknown symmetry {sym!r}")
    if sym not in f._maps:
        f._maps[sym] = _point_map(f, sym)
    return f._maps[sym]


def _point_map(f: ScalarField, sym: SymmetrySpec) -> tuple[np.ndarray, np.ndarray]:
    w, h = f.width, f.height
    if isinstance(sym, GridTranslation):
        if not f.wraps:
            raise NotAnAutomorphism("grid translation on a non-torus field")
        xs = (np.arange(w, dtype=np.int32) + sym.dx % w) % w  # int32: kept on the field
        ys = (np.arange(h, dtype=np.int32) + sym.dy % h) % h
        return (ys[:, None] * w + xs).ravel(), np.zeros(h * w, dtype=np.int32)
    rects = sym.rects
    if not rects or any((r.w, r.h) != (rects[0].w, rects[0].h) for r in rects):
        raise NotAnAutomorphism("rect cycle with mismatched or empty rectangles")
    src = np.stack([_rect_points(f, r) for r in rects])
    rw, rh = rects[0].w, rects[0].h

    def apart(a: Rect, b: Rect) -> bool:  # disjoint, modulo the grid
        return rw <= (a.x0 - b.x0) % w <= w - rw or rh <= (a.y0 - b.y0) % h <= h - rh

    if not all(apart(a, b) for a, b in combinations(rects, 2)):
        raise NotAnAutomorphism("point map of the symmetry is not a bijection")
    image, piece = np.arange(h * w, dtype=np.int32), np.full(h * w, -1, dtype=np.int32)
    image[src] = np.concatenate([src[1:], src[:1]])
    piece[src] = np.arange(len(rects))[:, None, None]
    return image, piece


def check_record_against_field(rec: ConstructionRecord, f: ScalarField) -> None:
    """Exactness checks: congruence of slots that `_rect_points` reads, and
    that every symmetry is a bijection of the grid (see `moves`) that keeps
    each value, bit for bit."""
    if (rec.width, rec.height) != (f.width, f.height):
        raise IncompleteRecord(
            f"record grid {rec.width}x{rec.height} != field {f.width}x{f.height}"
        )
    flat = f.values.ravel()
    by_orbit: dict[int, list[Slot]] = {}
    for s in rec.slots:
        by_orbit.setdefault(s.orbit, []).append(s)
    for orbit, slots in by_orbit.items():
        try:
            ref, *rest = [flat[_rect_points(f, s.rect)] for s in slots]
        except NotAnAutomorphism as exc:
            raise IncompleteRecord(f"slot of orbit {orbit}: {exc}") from exc
        if not all(np.array_equal(ref, x) for x in rest):
            raise InvalidField(f"slots of orbit {orbit} are not value-congruent")
    for sym in rec.symmetries:
        if not np.array_equal(flat.take(moves(f, sym)[0]), flat):
            raise InvalidField(f"field is not invariant under {sym}")
