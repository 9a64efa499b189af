"""Piecewise-linear scalar fields on triangulated grids.

A field assigns one value per grid vertex on a torus (both axes wrap) or a
disk (no wrapping, constant outer frame).  Every unit grid square is split
along its lower-left to upper-right diagonal, so each interior vertex has
the six link neighbors

    E (+1,0), NE (+1,+1), N (0,+1), W (-1,0), SW (-1,-1), S (0,-1)

in this cyclic order.  A vertex is classified by its link code, whose bit
k is set when link neighbor k lies above it, through a 64-entry table made
from the sign-change rule: around the link, 0 changes is an extremum, 2
regular, 4 a saddle, 6 a degenerate (monkey) saddle which is rejected.
Interior vertices must differ from all their link neighbors; equal values
are allowed only between non-adjacent vertices and on the boundary.
"""

from __future__ import annotations

import json
from collections import Counter
from enum import Enum
from typing import NamedTuple

import numpy as np

from kronrod.errors import DegenerateVertex, InvalidField
from kronrod.terms import json_int

LINK_OFFSETS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))

TORUS = "torus"
DISK = "disk"
_KINDS = (TORUS, DISK)

# Euler characteristic by domain kind.
EULER = {TORUS: 0, DISK: 1}

MIN_SIDE = 8


class CritKind(str, Enum):
    MINIMUM = "minimum"
    SADDLE = "saddle"
    MAXIMUM = "maximum"


class CriticalPoint(NamedTuple):
    x: int
    y: int
    kind: CritKind
    value: float


class MorseCounts(NamedTuple):
    c0: int  # minima
    c1: int  # saddles
    c2: int  # maxima

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.c0, self.c1, self.c2)

    def morse_equality(self, kind: str) -> bool:
        """The Morse equality c0 - c1 + c2 = chi on a domain of this kind."""
        return self.c0 - self.c1 + self.c2 == EULER[kind]


class ScalarField:
    """Immutable PL field: kind plus an (H, W) array of vertex values, which
    keeps its link codes (`_code`, made by validation or else classification),
    critical points (`_crits`) and symmetries' point maps (`records.moves`)."""

    __slots__ = ("kind", "values", "_code", "_crits", "_maps")

    def __init__(self, kind: str, values: np.ndarray, validate: bool = True):
        if kind not in _KINDS:
            raise InvalidField(f"unknown field kind {kind!r}")
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise InvalidField("values must be a 2-d array")
        arr = arr.copy()
        arr.setflags(write=False)
        self.kind = kind
        self.values = arr
        self._code, self._crits, self._maps = None, None, {}
        if validate:
            _validate(self)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def wraps(self) -> bool:
        """Both axes wrap (a torus); neither does on a disk."""
        return self.kind == TORUS

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.values.shape, dtype=bool)
        if self.kind == DISK:
            mask[0, :] = True
            mask[-1, :] = True
            mask[:, 0] = True
            mask[:, -1] = True
        return mask

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScalarField)
            and self.kind == other.kind
            and self.values.shape == other.values.shape
            and bool(np.all(self.values == other.values))
        )

    def __repr__(self) -> str:
        return f"ScalarField({self.kind}, {self.width}x{self.height})"


def _link(vals: np.ndarray) -> tuple[np.ndarray, ...]:
    """Six (H, W) views of each vertex's link neighbors in LINK_OFFSETS order,
    read with wrap-around from one wrapped copy, so only an interior vertex's
    link lies in a disk."""
    h, w = vals.shape
    pad = np.empty((h + 2, w + 2), dtype=vals.dtype)  # pad[y + 1, x + 1] is (x, y)
    pad[1:-1, 1:-1], pad[0, 1:-1], pad[-1, 1:-1] = vals, vals[-1], vals[0]
    pad[:, 0], pad[:, -1] = pad[:, -2], pad[:, 1]
    return tuple(pad[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w] for dx, dy in LINK_OFFSETS)


def _link_code(vals: np.ndarray) -> np.ndarray:
    """The link code of each grid vertex: bit k is set where link neighbor k lies above it."""
    code = np.zeros(vals.shape, dtype=np.uint8)
    for k, nb in enumerate(_link(vals)):
        code |= np.greater(nb, vals).view(np.uint8) << k
    return code


def _validate(f: ScalarField) -> None:
    h, w = f.values.shape
    if w < MIN_SIDE or h < MIN_SIDE:
        raise InvalidField(f"grid {w}x{h} below minimum side {MIN_SIDE}")
    if not np.all(np.isfinite(f.values)):
        raise InvalidField("values must be finite")
    if f.kind == DISK:
        frame = np.concatenate(
            [f.values[0, :], f.values[-1, :], f.values[1:-1, 0], f.values[1:-1, -1]]
        )
        if not np.all(frame == frame[0]):
            raise InvalidField("disk frame is not constant")
        ring = np.concatenate(
            [f.values[1, 1:-1], f.values[-2, 1:-1], f.values[2:-2, 1], f.values[2:-2, -2]]
        )
        if not (np.all(ring > frame[0]) or np.all(ring < frame[0])):
            raise InvalidField("disk collar is not strictly one-sided")
    # Interior vertices must differ from every link neighbor.  Two neighbors tie
    # when neither lies above the other: bit k of `tied` marks one with link
    # neighbor k < 3 (E, NE, N), which see every pair but the frame's own.
    f._code = code = _link_code(f.values)
    back = _link(code)  # back[k] at a vertex: the code of its link neighbor k
    tied = 7 & ~(code | back[0] >> 3 & 1 | back[1] >> 3 & 2 | back[2] >> 3 & 4)
    if f.kind == DISK:
        tied[0] = tied[-1] = tied[:, 0] = tied[:, -1] = 0
    if tied.any():  # name the first tie of a scan over E, NE, N, W, SW, S, row by row
        back = _link(tied)
        hit = np.stack([(tied if k < 3 else back[k]) >> k % 3 & 1 for k in range(6)])
        k, y, x = np.unravel_index(hit.argmax(), hit.shape)
        dx, dy = LINK_OFFSETS[k]
        raise InvalidField(
            f"interior vertex ({x}, {y}) ties its link neighbor ({x + dx}, {y + dy})"
        )


# Vertex kinds by link code; 0 is a regular vertex.
_MINIMUM, _SADDLE, _MAXIMUM, _DEGENERATE = 1, 2, 3, 4
_CRIT_KINDS = (None, CritKind.MINIMUM, CritKind.SADDLE, CritKind.MAXIMUM)


def _kind_of_code(code: int) -> int:
    """The sign-change rule on a link code: a change is a bit that differs
    from the one before it, cyclically."""
    changes = bin(code ^ (code >> 1 | (code & 1) << 5)).count("1")
    if changes == 0:
        return _MINIMUM if code else _MAXIMUM
    return {4: _SADDLE, 6: _DEGENERATE}.get(changes, 0)


_KIND_OF_CODE = np.array([_kind_of_code(code) for code in range(64)], dtype=np.uint8)


def classify_vertices(f: ScalarField) -> list[CriticalPoint]:
    """Critical points of the field by the link sign-change rule, in
    (value, y, x) order.  A disk's frame vertices, whose links wrap around,
    are left unclassified.  The link codes are validation's, or made here on
    a field made with `validate=False`, where a tie reads as below.  Raises
    `DegenerateVertex` at the first degenerate vertex in row-major order."""
    if f._crits is not None:
        return f._crits
    if f._code is None:
        f._code = _link_code(f.values)
    vals = f.values
    kind = _KIND_OF_CODE.take(f._code)
    if f.kind == DISK:
        kind[f.boundary_mask()] = 0
    degen = kind == _DEGENERATE
    if degen.any():
        y, x = np.argwhere(degen)[0]
        raise DegenerateVertex(int(x), int(y))
    ys, xs = np.nonzero(kind)
    values = vals[ys, xs]
    order = np.lexsort((xs, ys, values))
    kinds = map(_CRIT_KINDS.__getitem__, kind[ys, xs][order].tolist())
    f._crits = list(
        map(CriticalPoint, xs[order].tolist(), ys[order].tolist(), kinds, values[order].tolist())
    )
    return f._crits


def morse_counts(f: ScalarField) -> MorseCounts:
    counts = Counter(c.kind for c in classify_vertices(f))
    return MorseCounts(counts[CritKind.MINIMUM], counts[CritKind.SADDLE], counts[CritKind.MAXIMUM])


def euler_check(f: ScalarField) -> bool:
    return morse_counts(f).morse_equality(f.kind)


def is_generic(f: ScalarField) -> bool:
    """True iff all critical values are pairwise distinct."""
    values = [c.value for c in classify_vertices(f)]
    return len(values) == len(set(values))


def is_simple(f: ScalarField, g) -> bool:
    """True iff every critical component of the Reeb graph `g` of `f`
    contains exactly one critical point."""
    return all(len(v.crits) <= 1 for v in g.vertices)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_field(f: ScalarField) -> bytes:
    doc = {
        "kind": f.kind,
        "width": f.width,
        "height": f.height,
        "values": [float(v) for v in f.values.ravel()],
    }
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def load_field(data: bytes) -> ScalarField:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also too many digits in an integer
        raise InvalidField(f"malformed field JSON: {exc}") from exc
    try:
        kind = doc["kind"]
        w, h = json_int(doc["width"]), json_int(doc["height"])
        values = doc["values"]
        if not isinstance(values, list) or len(values) != w * h:
            raise InvalidField(f"values length {len(values) if isinstance(values, list) else '?'} != {w}x{h}")
        kinds = set(map(type, values)) - {float, int}  # numpy reads "0.25" and true as numbers
        if kinds:
            raise InvalidField(f"values must be JSON numbers, got {min(t.__name__ for t in kinds)}")
        arr = np.asarray(values, dtype=np.float64).reshape(h, w)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # an integer past float range
        raise InvalidField(f"malformed field data: {exc}") from exc
    return ScalarField(kind, arr)


def export_pgm(f: ScalarField) -> bytes:
    """8-bit heightmap, minimum value to 0 and maximum to 255."""
    vals = f.values
    lo, hi = float(vals.min()), float(vals.max())
    span = hi - lo if hi > lo else 1.0
    img = np.round((vals - lo) / span * 255.0).astype(np.uint8)
    header = f"P5\n{f.width} {f.height}\n255\n".encode("ascii")
    return header + img.tobytes()


# ---------------------------------------------------------------------------
# deterministic tie repair for generated-from-samples fields
# ---------------------------------------------------------------------------


_TIE_ROUNDS = 8


def fix_ties(values: np.ndarray, kind: str) -> np.ndarray:
    """Perturb interior vertices that tie a link neighbor.

    Adds eps * rank(vertex index) with eps = 1e-9 of the value range, capped
    below half the smallest nonzero neighbor gap, so designed level structure
    away from the tie is untouched.  Used for fields sampled from smooth
    functions (the seeded trigonometric sums); the synthesized constructions
    are tie-free by design.
    """
    vals = np.array(values, dtype=np.float64)
    h, w = vals.shape
    interior = np.pad(np.ones((h - 2, w - 2), bool), 1) if kind == DISK else np.ones((h, w), bool)
    for _ in range(_TIE_ROUNDS):
        # a disk's link wraps only between frame vertices, equal on a valid frame
        nbs = np.stack(_link(vals))
        diffs = np.abs(nbs - vals)
        nonzero = diffs[diffs > 0]
        if nonzero.size == 0:
            raise InvalidField("constant field cannot be made PL-Morse")
        gap = float(nonzero.min())
        tie_mask = np.any(nbs == vals, axis=0) & interior
        if not tie_mask.any():
            return vals
        span = float(vals.max() - vals.min()) or 1.0
        eps = min(1e-9 * span, gap / 4.0)
        ys, xs = np.nonzero(tie_mask)
        ranks = ys * w + xs + 1
        vals[ys, xs] += eps * ranks / (w * h)
    raise InvalidField("could not remove neighbor ties")
