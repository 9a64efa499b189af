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
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Union

import numpy as np

from kronrod.errors import IncompleteRecord, InvalidField, NotAnAutomorphism
from kronrod.fields import ScalarField
from kronrod.terms import GroupTerm, json_int, term_from_json, term_to_json


@dataclass(frozen=True)
class GridTranslation:
    dx: int
    dy: int

    def to_json(self) -> dict:
        return {"kind": "translation", "dx": self.dx, "dy": self.dy}


@dataclass(frozen=True)
class Rect:
    """Axis-aligned vertex rectangle [x0, x0+w) x [y0, y0+h), wrapped on a torus."""

    x0: int
    y0: int
    w: int
    h: int

    def to_json(self) -> list[int]:
        return [self.x0, self.y0, self.w, self.h]


@dataclass(frozen=True)
class RectCycle:
    rects: tuple[Rect, ...]

    def to_json(self) -> dict:
        return {"kind": "rect_cycle", "rects": [r.to_json() for r in self.rects]}


SymmetrySpec = Union[GridTranslation, RectCycle]


def symmetry_from_json(obj: dict) -> SymmetrySpec:
    if obj.get("kind") == "translation":
        return GridTranslation(json_int(obj["dx"]), json_int(obj["dy"]))
    if obj.get("kind") == "rect_cycle":
        return RectCycle(tuple(Rect(*map(json_int, r)) for r in obj["rects"]))
    raise ValueError(f"unknown symmetry kind {obj.get('kind')!r}")


@dataclass
class Slot:
    """A rectangle of grid vertices carrying one sub-construction copy."""

    rect: Rect
    orbit: int
    term: GroupTerm  # group term realized inside the slot

    def to_json(self) -> dict:
        return {"rect": self.rect.to_json(), "orbit": self.orbit, "term": term_to_json(self.term)}


@dataclass
class ConstructionRecord:
    """What was built and which symmetries it promises.

    `case` is one of "disk", "circuit", "tree", "simple".  For torus cases
    `base` is the term carried by each band / orbit-one square.  The
    group term of the whole field is derived from the record by the
    wreath recursion in `kronrod.auts.record_term`.
    """

    case: str
    term: GroupTerm  # the normalized term the construction realizes
    base: GroupTerm  # the sub-term painted into each band / square (Triv when none)
    n: int
    m: int
    width: int
    height: int
    designed_counts: tuple[int, int, int]  # (minima, saddles, maxima) the design promises
    slots: list[Slot] = field(default_factory=list)
    symmetries: list[SymmetrySpec] = field(default_factory=list)
    disk_layout: Optional[str] = None  # "triv" | "prod" | "wrc" for disk records

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
    return (r.y0 + np.arange(r.h))[:, None] % h * w + (r.x0 + np.arange(r.w)) % w


def moves(f: ScalarField, sym: SymmetrySpec) -> tuple:
    """Where a symmetry sends the grid points it moves: their flat indices
    ``y * width + x`` (``slice(None)``, all of them, for a translation), their
    images, and the piece that moves each rigidly (the rectangle's index in a
    cycle, 0 for a translation).  NotAnAutomorphism unless the map is a
    bijection of the grid: a translation of a torus, or a cycle of equal,
    pairwise disjoint rectangles that `_rect_points` reads; each goes onto the
    next, so together they are their own image.
    """
    w, h = f.width, f.height
    if isinstance(sym, GridTranslation):
        if not f.wraps:
            raise NotAnAutomorphism("grid translation on a non-torus field")
        xs, ys = (np.arange(w) + sym.dx) % w, (np.arange(h) + sym.dy) % h
        return slice(None), (ys[:, None] * w + xs).ravel(), 0
    if not isinstance(sym, RectCycle):
        raise NotAnAutomorphism(f"unknown symmetry {sym!r}")
    rects = sym.rects
    if not rects or any((r.w, r.h) != (rects[0].w, rects[0].h) for r in rects):
        raise NotAnAutomorphism("rect cycle with mismatched or empty rectangles")
    src = np.stack([_rect_points(f, r) for r in rects])
    rw, rh = rects[0].w, rects[0].h

    def apart(a: Rect, b: Rect) -> bool:  # disjoint, modulo the grid
        return rw <= (a.x0 - b.x0) % w <= w - rw or rh <= (a.y0 - b.y0) % h <= h - rh

    if not all(apart(a, b) for a, b in combinations(rects, 2)):
        raise NotAnAutomorphism("point map of the symmetry is not a bijection")
    dst = np.concatenate([src[1:], src[:1]])
    return src.ravel(), dst.ravel(), np.repeat(np.arange(len(rects)), rw * rh)


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
        src, dst, _ = moves(f, sym)
        if not np.array_equal(flat[dst], flat[src]):
            raise InvalidField(f"field is not invariant under {sym}")
