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
from typing import Optional, Union

import numpy as np

from kronrod.errors import IncompleteRecord, InvalidField
from kronrod.fields import ScalarField
from kronrod.terms import GroupTerm, term_from_json, term_to_json


@dataclass(frozen=True)
class GridTranslation:
    dx: int
    dy: int

    def to_json(self) -> dict:
        return {"kind": "translation", "dx": self.dx, "dy": self.dy}


@dataclass(frozen=True)
class Rect:
    """Axis-aligned vertex rectangle [x0, x0+w) x [y0, y0+h), torus-wrapped."""

    x0: int
    y0: int
    w: int
    h: int

    def vertices(self, width: int, height: int) -> list[tuple[int, int]]:
        return [
            ((self.x0 + i) % width, (self.y0 + j) % height)
            for j in range(self.h)
            for i in range(self.w)
        ]

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
        return GridTranslation(int(obj["dx"]), int(obj["dy"]))
    if obj.get("kind") == "rect_cycle":
        return RectCycle(tuple(Rect(*map(int, r)) for r in obj["rects"]))
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
    structural group of the whole field is derived from the record by the
    wreath recursion in `kronrod.auts.structural_group`.
    """

    case: str
    term: GroupTerm  # the normalized term the construction realizes
    base: GroupTerm  # the sub-term painted into each band / square (Triv when none)
    n: int
    m: int
    width: int
    height: int
    slots: list[Slot] = field(default_factory=list)
    symmetries: list[SymmetrySpec] = field(default_factory=list)
    designed_counts: Optional[tuple[int, int, int]] = None
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
            "designed_counts": list(self.designed_counts) if self.designed_counts else None,
            "disk_layout": self.disk_layout,
        }
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    @staticmethod
    def from_json(data: bytes) -> "ConstructionRecord":
        try:
            doc = json.loads(data.decode("utf-8"))
            rec = ConstructionRecord(
                case=doc["case"],
                term=term_from_json(doc["term"]),
                base=term_from_json(doc["base"]),
                n=int(doc["n"]),
                m=int(doc["m"]),
                width=int(doc["width"]),
                height=int(doc["height"]),
                slots=[
                    Slot(
                        rect=Rect(*map(int, s["rect"])),
                        orbit=int(s["orbit"]),
                        term=term_from_json(s["term"]),
                    )
                    for s in doc["slots"]
                ],
                symmetries=[symmetry_from_json(s) for s in doc["symmetries"]],
                designed_counts=(
                    tuple(doc["designed_counts"]) if doc.get("designed_counts") else None
                ),
                disk_layout=doc.get("disk_layout"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise IncompleteRecord(f"malformed record JSON: {exc}") from exc
        if rec.case not in ("disk", "circuit", "tree", "simple"):
            raise IncompleteRecord(f"unknown construction case {rec.case!r}")
        return rec


def check_record_against_field(rec: ConstructionRecord, f: ScalarField) -> None:
    """Exactness checks: slot congruence and symmetry invariance, bit for bit."""
    if (rec.width, rec.height) != (f.width, f.height):
        raise IncompleteRecord(
            f"record grid {rec.width}x{rec.height} != field {f.width}x{f.height}"
        )
    vals = f.values
    by_orbit: dict[int, list[Slot]] = {}
    for s in rec.slots:
        by_orbit.setdefault(s.orbit, []).append(s)
    for orbit, slots in by_orbit.items():
        ref = _slot_values(vals, slots[0].rect, f)
        for s in slots[1:]:
            if not np.array_equal(ref, _slot_values(vals, s.rect, f)):
                raise InvalidField(f"slots of orbit {orbit} are not value-congruent")
    for sym in rec.symmetries:
        if isinstance(sym, GridTranslation):
            if f.kind != "torus":
                raise IncompleteRecord("grid translations only apply to torus fields")
            rolled = np.roll(vals, (-sym.dy, -sym.dx), axis=(0, 1))
            if not np.array_equal(rolled, vals):
                raise InvalidField(f"field is not invariant under {sym}")
        else:
            rects = sym.rects
            for a, b in zip(rects, rects[1:] + rects[:1]):
                if (a.w, a.h) != (b.w, b.h):
                    raise IncompleteRecord("rect cycle with mismatched rectangles")
                if not np.array_equal(_slot_values(vals, a, f), _slot_values(vals, b, f)):
                    raise InvalidField("rect cycle does not preserve values")


def _slot_values(vals: np.ndarray, rect: Rect, f: ScalarField) -> np.ndarray:
    xs = (rect.x0 + np.arange(rect.w)) % f.width
    ys = (rect.y0 + np.arange(rect.h)) % f.height
    return vals[np.ix_(ys, xs)]
