"""Synthesis of PL-Morse fields realizing group terms.

Disk realizations are driven by a one-dimensional integer profile: the
x-profile carries the whole nesting structure (bumps inside windows inside
bumps) and the y-direction multiplies by a power-of-two bathtub, so the
2-d field `R(x) * 2^e(y)` classifies exactly like the profile and two grid
vertices can only tie when the profile repeats a value between adjacent
columns, which the construction never does (profile values are odd, the
row factors are powers of two).

Layouts:

* trivial        -- one bump,
* product        -- factor profiles stacked in pairwise disjoint value
                    windows with connecting necks below all windows, so no
                    value-preserving automorphism can exchange factors,
* wreath         -- n identical petal copies in one shared window plus a
                    taller closing bump, with all necks at one value; the
                    petal subtrees then hang off a single graph vertex and
                    the cyclic petal rotation is a graph automorphism,
* wreath, simple -- two petal copies separated by a single neck (used by
                    the simple-variant torus construction, where every
                    critical component must hold exactly one critical
                    point).

Torus constructions build a product base field `C(y) * D(x)` from triangle
waves with odd rational steps (so no grid vertex ever ties a neighbor) and
paint the disk content into a rectangle at each band or lattice-square cap;
copies are exact translates, so the promised translations are bit-exact
field symmetries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from kronrod.errors import ConstructionError, GridCapExceeded, NotRealizable
from kronrod.fields import DISK, TORUS, ScalarField, euler_check, morse_counts
from kronrod.records import ConstructionRecord, GridTranslation, Rect, RectCycle, Slot
from kronrod.records import check_record_against_field
from kronrod.terms import GroupTerm, Prod, Triv, Wr, Wr2, class_of, format_term, normalize

# Window constants (dyadic so copies and comparisons are exact).
WINDOW_LO = 11.0 / 16.0
WINDOW_HI = 15.0 / 16.0
DISK_HEIGHT = 9
CONTENT_ROWS = 7
_E_PROFILE = (0, 1, 2, 3, 2, 1, 0)

DEFAULT_GRID_CAP = 2_000_000


def _grid_cap() -> int:
    env = os.environ.get("KR_GRID_CAP")
    if not env:
        return DEFAULT_GRID_CAP
    try:
        cap = int(env)
        if cap >= 1:
            return cap
    except ValueError:
        pass
    raise GridCapExceeded(f"KR_GRID_CAP must be a positive integer, got {env!r}")


# ---------------------------------------------------------------------------
# integer x-profiles
# ---------------------------------------------------------------------------


@dataclass
class Layout:
    """Integer x-profile of a disk realization plus its slot structure."""

    term: GroupTerm
    kind: str  # "triv" | "prod" | "wrc"
    cols: list[int]
    peak: int
    counts: tuple[int, int, int]
    slots: list[tuple[int, int, GroupTerm]] = field(default_factory=list)  # start, width, term
    gens: list[list[tuple[int, int]]] = field(default_factory=list)  # cycles of (start, width)


def _shift_gens(gens: list[list[tuple[int, int]]], offset: int) -> list[list[tuple[int, int]]]:
    return [[(s + offset, w) for s, w in cycle] for cycle in gens]


_TRIV_CORE = [1, 3, 7, 13, 7, 3, 1]


def layout_shape(t: GroupTerm) -> GroupTerm:
    """Collapse index-1 wreaths but keep the constructor shape otherwise, so
    a requested product of equal factors still gets separate value windows."""
    if isinstance(t, Triv):
        return t
    if isinstance(t, Wr):
        base = layout_shape(t.base)
        return base if t.n == 1 else Wr(base, t.n)
    if isinstance(t, Wr2):
        return Wr2(layout_shape(t.base), t.n, t.m)
    return Prod(*[layout_shape(f) for f in t.factors])


def build_layout(t: GroupTerm, simple: bool = False) -> Layout:
    """Profile recursion over the shape of a term."""
    t = layout_shape(t)
    if isinstance(t, Triv):
        return Layout(t, "triv", list(_TRIV_CORE), 13, (0, 0, 1))
    if isinstance(t, Wr):
        sub = build_layout(t.base, simple)
        lift = 2 * sub.peak
        petal = [v + lift for v in sub.cols]
        # buffer columns flank each petal below its whole value window, so
        # cells straddling a moved petal block and its surroundings never
        # reach a petal-internal critical level
        buf = lift - 1
        w = len(petal)
        if simple:
            if t.n != 2:
                raise NotRealizable(
                    f"simple wreath layouts need index 2, got {t.n}"
                )
            block = [buf] + petal + [buf]
            cols = block + [1] + block
            slots = [(1, w, t.base), (w + 4, w, t.base)]
            gens = [[(0, w + 2), (w + 3, w + 2)]] + _shift_gens(sub.gens, 1)
            counts = (0, 1 + 2 * sub.counts[1], 2 * sub.counts[2])
            return Layout(t, "wrc", cols, 3 * sub.peak, counts, slots, gens)
        top = 3 * sub.peak + 4
        bw = w + 3
        cols = [top]
        for _ in range(t.n):
            cols.append(1)
            cols.append(buf)
            cols.extend(petal)
            cols.append(buf)
        slots = [(3 + i * bw, w, t.base) for i in range(t.n)]
        gens = [[(1 + i * bw, bw) for i in range(t.n)]] + _shift_gens(sub.gens, 3)
        counts = (0, t.n + t.n * sub.counts[1], 1 + t.n * sub.counts[2])
        return Layout(t, "wrc", cols, top, counts, slots, gens)
    if isinstance(t, Prod):
        subs = [build_layout(f, simple) for f in t.factors]
        k = len(subs)
        offset = 2 * k
        cols: list[int] = []
        slots = []
        gens: list[list[tuple[int, int]]] = []
        c1 = k - 1
        c2 = 0
        for i, sub in enumerate(subs):
            if i > 0:
                cols.append(2 * i - 1)  # necks 1, 3, ... below every window
            start = len(cols)
            cols.extend(v + offset for v in sub.cols)
            slots.append((start, len(sub.cols), sub.term))
            gens.extend(_shift_gens(sub.gens, start))
            c1 += sub.counts[1]
            c2 += sub.counts[2]
            offset += sub.peak + 3
        peak = max(cols)
        return Layout(t, "prod", cols, peak, (0, c1, c2), slots, gens)
    raise NotRealizable(f"term {format_term(t)} has no disk layout")


def _content_values(layout: Layout) -> np.ndarray:
    """(CONTENT_ROWS, len(cols)) array of disk content in (0, 1]."""
    cols = np.asarray(layout.cols, dtype=np.float64)
    rows = np.asarray([1 << e for e in _E_PROFILE], dtype=np.float64)
    norm = float(layout.peak) * float(1 << max(_E_PROFILE))
    return np.outer(rows, cols) / norm


# ---------------------------------------------------------------------------
# disk realization
# ---------------------------------------------------------------------------


def realize_disk(t: GroupTerm, simple: bool = False) -> tuple[ScalarField, ConstructionRecord]:
    """Disk field whose Reeb-graph symmetry group realizes `t`."""
    norm = normalize(t)
    flags = class_of(norm)
    if simple and not flags.disk_realizable_simple:
        raise NotRealizable(f"{format_term(t)} is not simple-disk realizable")
    if not flags.disk_realizable:
        raise NotRealizable(f"{format_term(t)} is not disk realizable")
    layout = build_layout(layout_shape(t), simple)
    w = len(layout.cols) + 2
    h = DISK_HEIGHT
    if w * h > _grid_cap():
        raise GridCapExceeded(f"disk grid {w}x{h} exceeds cap")
    vals = np.zeros((h, w), dtype=np.float64)
    vals[1:-1, 1:-1] = _content_values(layout)
    f = ScalarField(DISK, vals)

    slots = []
    for i, (start, width, term) in enumerate(layout.slots):
        orbit = 0 if layout.kind == "wrc" else i
        slots.append(Slot(rect=Rect(1 + start, 0, width, h), orbit=orbit, term=term))
    symmetries = [
        RectCycle(tuple(Rect(1 + s, 0, cw, h) for s, cw in cycle)) for cycle in layout.gens
    ]
    rec = ConstructionRecord(
        case="disk",
        term=norm,
        base=norm,
        n=1,
        m=1,
        width=w,
        height=h,
        slots=slots,
        symmetries=symmetries,
        designed_counts=layout.counts,
        disk_layout=layout.kind,
    )
    _check_construction(f, rec)
    return f, rec


# ---------------------------------------------------------------------------
# torus base profiles
# ---------------------------------------------------------------------------


def _odd_range(lo: int, hi: int) -> list[int]:
    start = lo if lo % 2 != 0 else lo + 1
    return list(range(start, hi + 1, 2))


def _select_even(values: list[int], count: int) -> list[int]:
    if len(values) < count:
        raise ConstructionError("not enough odd steps for the band profile")
    if count == 1:
        return [values[-1]]
    idx = [round(j * (len(values) - 1) / (count - 1)) for j in range(count)]
    out = [values[i] for i in idx]
    if len(set(out)) != len(out):
        raise ConstructionError("band profile selection collided")
    return out


def _band_profile(P: int, capped: bool) -> np.ndarray:
    """Triangle-wave x-profile over one band: -1 at the seam, peak at the
    center.  All numerators odd, so no column value is zero and no two
    adjacent columns tie."""
    half = P // 2
    needed = half + 1
    if not capped:
        q = half if half % 2 == 1 else half + 1
        nums = _select_even(_odd_range(-q, q), needed)
    else:
        q = max(9, (2 * (int(0.63 * P) // 2)) + 1)
        while True:
            ktop = (5 * q) // 8
            if ktop % 2 == 0:
                ktop -= 1
            if len(_odd_range(-q, ktop)) >= needed:
                break
            q += 2
        nums = _select_even(_odd_range(-q, ktop), needed)
    D = np.empty(P, dtype=np.float64)
    for x in range(P):
        D[x] = nums[min(x, P - x)] / q
    return D


def _meridian_profile(H: int) -> np.ndarray:
    dy = np.minimum(np.arange(H), H - np.arange(H))
    return (H - dy) / float(H)


# ---------------------------------------------------------------------------
# circuit-case torus construction
# ---------------------------------------------------------------------------

CIRCUIT_HEIGHT = 32
_BAND_MARGIN = 6


def realize_torus_circuit(
    base: GroupTerm,
    n: int,
    simple: bool = False,
    min_band_width: int = 18,
    height: int = CIRCUIT_HEIGHT,
) -> tuple[ScalarField, ConstructionRecord]:
    """Torus field with a circuit-shaped graph realizing `base` wreathed by
    the cyclic band rotation of order `n`.

    The field is n copies of one vertical band.  A band carries one minimum
    and two saddles; its maximum cap is either the plain profile peak (for a
    trivial base, keeping the designed values 1, 1/2, -1/2, -1) or the disk
    content of `base` painted into a rectangle in the window (11/16, 15/16).
    """
    if n < 1:
        raise NotRealizable("cyclic index n must be >= 1")
    flags = class_of(normalize(base))
    if simple and not flags.disk_realizable_simple:
        raise NotRealizable(f"{format_term(base)} is not simple-disk realizable")
    if not flags.disk_realizable:
        raise NotRealizable(f"{format_term(base)} is not disk realizable")
    if height % 2 != 0 or height < 24:
        raise ConstructionError("circuit height must be even and at least 24")

    shape = layout_shape(base)
    layout = None if isinstance(shape, Triv) else build_layout(shape, simple)
    cw = len(layout.cols) if layout else 0
    P = max(min_band_width, cw + 2 * _BAND_MARGIN)
    P += P % 2
    W = n * P
    if W * height > _grid_cap():
        raise GridCapExceeded(f"torus grid {W}x{height} exceeds cap")

    D = _band_profile(P, capped=layout is not None)
    C = _meridian_profile(height)
    band = np.outer(C, D)

    slots: list[Slot] = []
    symmetries: list[GridTranslation | RectCycle] = [GridTranslation(P, 0)]
    counts = (1, 2, 1)
    if layout is not None:
        content = WINDOW_LO + (WINDOW_HI - WINDOW_LO) * _content_values(layout)
        rx0 = (P - cw) // 2
        ry0 = height - CONTENT_ROWS // 2
        rows = [(ry0 + j) % height for j in range(CONTENT_ROWS)]
        band[np.ix_(rows, range(rx0, rx0 + cw))] = content
        counts = (1, 2 + layout.counts[1], layout.counts[2])
        for i in range(n):
            slots.append(
                Slot(rect=Rect(i * P + rx0, ry0, cw, CONTENT_ROWS), orbit=0, term=shape)
            )
        for cycle in layout.gens:
            symmetries.append(
                RectCycle(tuple(Rect(rx0 + s, ry0, w_, CONTENT_ROWS) for s, w_ in cycle))
            )

    vals = np.tile(band, (1, n))
    f = ScalarField(TORUS, vals)
    term = normalize(Wr(base, n))
    rec = ConstructionRecord(
        case="simple" if simple else "circuit",
        term=term,
        base=normalize(base),
        n=n,
        m=1,
        width=W,
        height=height,
        slots=slots,
        symmetries=symmetries,
        designed_counts=(counts[0] * n, counts[1] * n, counts[2] * n),
    )
    _check_construction(f, rec)
    return f, rec


def realize_simple(base: GroupTerm, n: int) -> tuple[ScalarField, ConstructionRecord]:
    """Circuit construction whose field is simple: every critical component
    carries exactly one critical point (wreath layouts use two staggered-free
    petals with a single neck, and band copies never share components)."""
    return realize_torus_circuit(base, n, simple=True)


# ---------------------------------------------------------------------------
# tree-case torus construction
# ---------------------------------------------------------------------------

# amplitude per lattice-square parity; the checkerboard makes every lattice
# point a saddle of the 0-level and splits squares into four translation
# orbits: (0,0) +1, (1,1) +2, (1,0) -1, (0,1) -2
_AMPLITUDE = {(0, 0): 1.0, (1, 1): 2.0, (1, 0): -1.0, (0, 1): -2.0}
_LINE_EPS = 1.0 / 128.0


def _bump_knots(ring_r2: Optional[float]) -> list[tuple[float, float]]:
    if ring_r2 is None:
        return [(0.0, 1.0), (0.105, 0.6), (0.76, 1.0 / 32.0)]
    knot = min(0.98 * ring_r2, 0.74)
    return [(0.0, 1.0), (knot, 0.6), (0.76, 1.0 / 32.0)]


def _bump(r2: float, knots: list[tuple[float, float]]) -> float:
    for (r0, v0), (r1, v1) in zip(knots, knots[1:]):
        if r2 <= r1:
            return v0 + (v1 - v0) * (r2 - r0) / (r1 - r0)
    return knots[-1][1]


def realize_torus_tree(
    base: GroupTerm, n: int, m: int, subdivision: int = 4
) -> tuple[ScalarField, ConstructionRecord]:
    """Torus field with a tree-shaped graph: saddles at every lattice point
    of a 2n-by-2mn grid of unit squares (all at value 0, one level component),
    square extrema at +1, +2, -1, -2 by orbit, and the disk content of `base`
    painted into the cap of every +1-orbit square.  The two even-step lattice
    translations generate the promised symmetry group."""
    if n < 1 or m < 1:
        raise NotRealizable("tree indices n, m must be >= 1")
    if not class_of(normalize(base)).disk_realizable:
        raise NotRealizable(f"{format_term(base)} is not disk realizable")

    shape = layout_shape(base)
    layout = None if isinstance(shape, Triv) else build_layout(shape)
    cw = len(layout.cols) if layout else 0
    s = max(subdivision, 4)
    if layout is not None:
        s = max(s, cw + 3, CONTENT_ROWS + 3)
    s += s % 2
    W, H = 2 * n * s, 2 * m * n * s
    if W * H > _grid_cap():
        raise GridCapExceeded(f"torus grid {W}x{H} exceeds cap")

    # content rectangle inside a unit square (local coordinates)
    rx0 = (s - cw) // 2
    ry0 = (s - CONTENT_ROWS) // 2
    ring_r2 = None
    if layout is not None:
        pts = []
        for i in range(-1, cw + 1):
            for j in (-1, CONTENT_ROWS):
                pts.append((rx0 + i, ry0 + j))
        for j in range(-1, CONTENT_ROWS + 1):
            for i in (-1, cw):
                pts.append((rx0 + i, ry0 + j))
        ring_r2 = min(
            ((x / s) - 0.5) ** 2 + 2.0 * ((y / s) - 0.5) ** 2 for x, y in pts
        )
    knots = _bump_knots(ring_r2)

    vals = np.zeros((H, W), dtype=np.float64)
    for y in range(H):
        for x in range(W):
            on_vx = x % s == 0
            on_vy = y % s == 0
            k, l = x // s, y // s
            if on_vx and on_vy:
                vals[y, x] = 0.0
                continue
            if on_vy or on_vx:
                # lattice-line vertex between two saddles; sign follows the
                # square above (horizontal lines) or to the right (vertical)
                amp = _AMPLITUDE[(k % 2, l % 2)]
                sig = 1.0 if amp > 0 else -1.0
                tpos = x % s if on_vy else y % s
                vals[y, x] = sig * _LINE_EPS * (2 * tpos - s + 0.5) / s
                continue
            u, v = (x % s) / s, (y % s) / s
            r2 = (u - 0.5) ** 2 + 2.0 * (v - 0.5) ** 2
            vals[y, x] = _AMPLITUDE[(k % 2, l % 2)] * _bump(r2, knots)

    slots: list[Slot] = []
    if layout is not None:
        content = WINDOW_LO + (WINDOW_HI - WINDOW_LO) * _content_values(layout)
        for i in range(n):
            for j in range(m * n):
                gx = 2 * i * s + rx0
                gy = 2 * j * s + ry0
                vals[gy : gy + CONTENT_ROWS, gx : gx + cw] = content
                slots.append(Slot(rect=Rect(gx, gy, cw, CONTENT_ROWS), orbit=0, term=shape))

    symmetries: list[GridTranslation | RectCycle] = [
        GridTranslation(2 * s, 0),
        GridTranslation(0, 2 * s),
    ]
    if layout is not None:
        for cycle in layout.gens:
            symmetries.append(
                RectCycle(
                    tuple(Rect(rx0 + st, ry0, w_, CONTENT_ROWS) for st, w_ in cycle)
                )
            )

    f = ScalarField(TORUS, vals)
    blocks = n * m * n
    cc = layout.counts if layout else (0, 0, 1)
    counts = (
        2 * n * n * m,
        4 * n * n * m + blocks * cc[1],
        2 * n * n * m + blocks * (cc[2] - 1),
    )
    rec = ConstructionRecord(
        case="tree",
        term=normalize(Wr2(base, n, m)),
        base=normalize(base),
        n=n,
        m=m,
        width=W,
        height=H,
        slots=slots,
        symmetries=symmetries,
        designed_counts=counts,
    )
    _check_construction(f, rec)
    return f, rec


# ---------------------------------------------------------------------------
# post-construction checks
# ---------------------------------------------------------------------------


def _check_construction(f: ScalarField, rec: ConstructionRecord) -> None:
    mc = morse_counts(f)
    if rec.designed_counts and mc.as_tuple() != tuple(rec.designed_counts):
        raise ConstructionError(
            f"{rec.case} realization of {format_term(rec.term)}: "
            f"counts {mc.as_tuple()} != designed {rec.designed_counts}"
        )
    if not euler_check(f):
        raise ConstructionError(f"{rec.case} realization fails the Morse equality")
    check_record_against_field(rec, f)
