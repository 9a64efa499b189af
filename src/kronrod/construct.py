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

from typing import Optional

import numpy as np

from kronrod.errors import ConstructionError, GridCapExceeded, NotRealizable
from kronrod.fields import DISK, TORUS, ScalarField
from kronrod.records import ConstructionRecord, GridTranslation, Rect, RectCycle, Slot
from kronrod.terms import GroupTerm, Prod, Triv, Wr, Wr2, format_term, normalize

# Window constants (dyadic so copies and comparisons are exact).
WINDOW_LO = 11.0 / 16.0
WINDOW_HI = 15.0 / 16.0
DISK_HEIGHT = 9
CONTENT_ROWS = 7
_E_PROFILE = (0, 1, 2, 3, 2, 1, 0)

GRID_CAP = 2_000_000


def _check_grid(w: int, h: int, what: str) -> None:
    """GridCapExceeded when a w-by-h grid has more points than GRID_CAP."""
    if w * h > GRID_CAP:
        raise GridCapExceeded(f"{what} {w}x{h} exceeds cap {GRID_CAP}")


# ---------------------------------------------------------------------------
# integer x-profiles
# ---------------------------------------------------------------------------


class Layout:
    """Integer x-profile of a disk realization plus its slot structure."""

    __slots__ = ("term", "kind", "cols", "peak", "counts", "slots", "gens")

    def __init__(
        self,
        term: GroupTerm,
        kind: str,  # "triv" | "prod" | "wrc"
        cols: list[int],
        peak: int,
        counts: tuple[int, int, int],
        slots: list[tuple[int, int, GroupTerm]],  # start, width, term
        gens: list[list[tuple[int, int]]],  # cycles of (start, width)
    ):
        self.term, self.kind, self.cols, self.peak, self.counts = term, kind, cols, peak, counts
        self.slots, self.gens = slots, gens


def _shift_gens(gens: list[list[tuple[int, int]]], offset: int) -> list[list[tuple[int, int]]]:
    return [[(s + offset, w) for s, w in cycle] for cycle in gens]


_TRIV_CORE = [1, 3, 7, 13, 7, 3, 1]


def build_layout(t: GroupTerm, simple: bool = False) -> Layout:
    """Profile recursion over a term.  Index-1 wreaths collapse, but products
    keep their shape, so a requested product of equal factors still gets
    separate value windows; the layout's term is `t` so collapsed.

    The constructions' one realizability check: NotRealizable for a Wr2
    anywhere and, when `simple`, for a wreath index above 2.

    Every construction's grid holds the content rectangle, so each level
    checks its width against the grid cap before it builds its columns:
    widths only grow up the recursion, and no layout is built wider than the
    cap allows."""
    if isinstance(t, Triv):
        return Layout(t, "triv", list(_TRIV_CORE), 13, (0, 0, 1), [], [])
    if isinstance(t, Wr) and t.n == 1:
        return build_layout(t.base, simple)
    if isinstance(t, Wr):
        sub = build_layout(t.base, simple)
        shape = Wr(sub.term, t.n)
        lift = 2 * sub.peak
        petal = [v + lift for v in sub.cols]
        # buffer columns flank each petal below its whole value window, so
        # cells straddling a moved petal block and its surroundings never
        # reach a petal-internal critical level
        buf = lift - 1
        w = len(petal)
        if simple:
            if t.n != 2:
                raise NotRealizable(f"simple wreath layouts need index 2, got {t.n}")
            _check_grid(2 * w + 5, CONTENT_ROWS, "disk content")
            block = [buf] + petal + [buf]
            cols = block + [1] + block
            slots = [(1, w, sub.term), (w + 4, w, sub.term)]
            gens = [[(0, w + 2), (w + 3, w + 2)]] + _shift_gens(sub.gens, 1)
            counts = (0, 1 + 2 * sub.counts[1], 2 * sub.counts[2])
            return Layout(shape, "wrc", cols, 3 * sub.peak, counts, slots, gens)
        top = 3 * sub.peak + 4
        bw = w + 3
        _check_grid(1 + t.n * bw, CONTENT_ROWS, "disk content")
        cols = [top]
        for _ in range(t.n):
            cols.append(1)
            cols.append(buf)
            cols.extend(petal)
            cols.append(buf)
        slots = [(3 + i * bw, w, sub.term) for i in range(t.n)]
        gens = [[(1 + i * bw, bw) for i in range(t.n)]] + _shift_gens(sub.gens, 3)
        counts = (0, t.n + t.n * sub.counts[1], 1 + t.n * sub.counts[2])
        return Layout(shape, "wrc", cols, top, counts, slots, gens)
    if isinstance(t, Prod):
        subs = [build_layout(f, simple) for f in t.factors]
        k = len(subs)
        _check_grid(sum(len(sub.cols) for sub in subs) + k - 1, CONTENT_ROWS, "disk content")
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
        shape = Prod(*[sub.term for sub in subs])
        return Layout(shape, "prod", cols, max(cols), (0, c1, c2), slots, gens)
    raise NotRealizable(f"term {format_term(t)} has no disk layout")


def _content_values(layout: Layout) -> np.ndarray:
    """(CONTENT_ROWS, len(cols)) array of disk content in (0, 1]."""
    cols = np.asarray(layout.cols, dtype=np.float64)
    rows = np.asarray([1 << e for e in _E_PROFILE], dtype=np.float64)
    norm = float(layout.peak) * float(1 << max(_E_PROFILE))
    return np.outer(rows, cols) / norm


def _paint(vals: np.ndarray, layout: Layout, origins: list[tuple[int, int]]) -> list[Slot]:
    """Paint the disk content of `layout`, in the window (WINDOW_LO, WINDOW_HI),
    into `vals` with its corner at each origin (x0, y0), rows wrapping round
    the torus, and return one slot per copy.  A trivial layout paints nothing:
    the torus profile's own cap is then the maximum."""
    if layout.kind == "triv":
        return []
    content = WINDOW_LO + (WINDOW_HI - WINDOW_LO) * _content_values(layout)
    h, w = content.shape
    slots = []
    for x0, y0 in origins:
        vals[(y0 + np.arange(h)) % vals.shape[0], x0 : x0 + w] = content
        slots.append(Slot(rect=Rect(x0, y0, w, h), orbit=0, term=layout.term))
    return slots


def _rect_cycles(layout: Layout, x0: int, y0: int, rows: int) -> list[RectCycle]:
    """The layout's generators as rectangle cycles over `rows` rows, with the
    layout's column 0 at x0."""
    return [RectCycle(tuple(Rect(x0 + s, y0, w, rows) for s, w in cycle)) for cycle in layout.gens]


# ---------------------------------------------------------------------------
# disk realization
# ---------------------------------------------------------------------------


def realize_disk(t: GroupTerm) -> tuple[ScalarField, ConstructionRecord]:
    """Disk field whose Reeb-graph symmetry group realizes `t`."""
    layout = build_layout(t)
    norm = normalize(t)
    w = len(layout.cols) + 2
    h = DISK_HEIGHT
    _check_grid(w, h, "disk grid")
    vals = np.zeros((h, w), dtype=np.float64)
    vals[1:-1, 1:-1] = _content_values(layout)
    f = ScalarField(DISK, vals)

    slots = []
    for i, (start, width, term) in enumerate(layout.slots):
        orbit = 0 if layout.kind == "wrc" else i
        slots.append(Slot(rect=Rect(1 + start, 0, width, h), orbit=orbit, term=term))
    rec = ConstructionRecord(
        case="disk",
        term=norm,
        base=norm,
        n=1,
        m=1,
        width=w,
        height=h,
        slots=slots,
        symmetries=_rect_cycles(layout, 1, 0, h),
        designed_counts=layout.counts,
        disk_layout=layout.kind,
    )
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
    x = np.arange(P)
    return np.asarray(nums, dtype=np.float64)[np.minimum(x, P - x)] / q


def _meridian_profile(H: int) -> np.ndarray:
    dy = np.minimum(np.arange(H), H - np.arange(H))
    return (H - dy) / float(H)


# ---------------------------------------------------------------------------
# circuit-case torus construction
# ---------------------------------------------------------------------------

CIRCUIT_HEIGHT = 32
_MIN_BAND_WIDTH = 18
_BAND_MARGIN = 6


def realize_torus_circuit(
    base: GroupTerm,
    n: int,
    simple: bool = False,
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
    layout = build_layout(base, simple)
    painted = layout.kind != "triv"
    cw = len(layout.cols) if painted else 0
    P = max(_MIN_BAND_WIDTH, cw + 2 * _BAND_MARGIN)
    P += P % 2
    W = n * P
    _check_grid(W, CIRCUIT_HEIGHT, "torus grid")

    D = _band_profile(P, capped=painted)
    C = _meridian_profile(CIRCUIT_HEIGHT)
    vals = np.tile(np.outer(C, D), (1, n))
    rx0 = (P - cw) // 2
    ry0 = CIRCUIT_HEIGHT - CONTENT_ROWS // 2
    slots = _paint(vals, layout, [(i * P + rx0, ry0) for i in range(n)])
    symmetries = [GridTranslation(P, 0), *_rect_cycles(layout, rx0, ry0, CONTENT_ROWS)]

    f = ScalarField(TORUS, vals)
    term = normalize(Wr(base, n))
    rec = ConstructionRecord(
        case="simple" if simple else "circuit",
        term=term,
        base=normalize(base),
        n=n,
        m=1,
        width=W,
        height=CIRCUIT_HEIGHT,
        slots=slots,
        symmetries=symmetries,
        designed_counts=(n, (2 + layout.counts[1]) * n, layout.counts[2] * n),
    )
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
_AMPLITUDE = np.array([[1.0, -2.0], [-1.0, 2.0]])  # [x parity, y parity]
_LINE_EPS = 1.0 / 128.0


def _bump_knots(ring_r2: Optional[float]) -> list[tuple[float, float]]:
    if ring_r2 is None:
        return [(0.0, 1.0), (0.105, 0.6), (0.76, 1.0 / 32.0)]
    knot = min(0.98 * ring_r2, 0.74)
    return [(0.0, 1.0), (knot, 0.6), (0.76, 1.0 / 32.0)]


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
    layout = build_layout(base)
    painted = layout.kind != "triv"
    cw = len(layout.cols) if painted else 0
    s = max(subdivision, 4)
    if painted:
        s = max(s, cw + 3, CONTENT_ROWS + 3)
    s += s % 2
    W, H = 2 * n * s, 2 * m * n * s
    _check_grid(W, H, "torus grid")

    # one 2s-by-2s block of four unit squares, tiled over the torus
    ys, xs = np.mgrid[0 : 2 * s, 0 : 2 * s]
    (k, tx), (l, ty) = np.divmod(xs, s), np.divmod(ys, s)
    r2 = (tx / s - 0.5) ** 2 + 2.0 * (ty / s - 0.5) ** 2
    # content rectangle inside a unit square (local coordinates); the bump
    # knot stays inside the ring of vertices around it
    rx0 = (s - cw) // 2
    ry0 = (s - CONTENT_ROWS) // 2
    ring_r2 = None
    if painted:
        ring = r2[ry0 - 1 : ry0 + CONTENT_ROWS + 1, rx0 - 1 : rx0 + cw + 1]
        ring_r2 = float(min(ring[[0, -1]].min(), ring[:, [0, -1]].min()))
    knots = _bump_knots(ring_r2)
    bump = np.full(r2.shape, knots[-1][1])
    for (r0, v0), (r1, v1) in reversed(list(zip(knots, knots[1:]))):
        bump = np.where(r2 <= r1, v0 + (v1 - v0) * (r2 - r0) / (r1 - r0), bump)
    amp = _AMPLITUDE[k, l]
    # lattice-line vertex between two saddles; sign follows the square above
    # (horizontal lines) or to the right (vertical)
    line = np.sign(amp) * _LINE_EPS * (2 * np.where(ty == 0, tx, ty) - s + 0.5) / s
    on_x, on_y = tx == 0, ty == 0
    block = np.where(on_x & on_y, 0.0, np.where(on_x | on_y, line, amp * bump))
    vals = np.tile(block, (m * n, n))

    origins = [(2 * i * s + rx0, 2 * j * s + ry0) for i in range(n) for j in range(m * n)]
    slots = _paint(vals, layout, origins)
    symmetries = [
        GridTranslation(2 * s, 0),
        GridTranslation(0, 2 * s),
        *_rect_cycles(layout, rx0, ry0, CONTENT_ROWS),
    ]

    f = ScalarField(TORUS, vals)
    blocks = n * m * n
    counts = (
        2 * n * n * m,
        4 * n * n * m + blocks * layout.counts[1],
        2 * n * n * m + blocks * (layout.counts[2] - 1),
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
    return f, rec


def realize(
    case: str, base: GroupTerm, n: int = 1, m: int = 1
) -> tuple[ScalarField, ConstructionRecord]:
    """Realize `base` by the construction named `case`: "disk" (n and m
    unused), "circuit" or "simple" with n bands, or "tree" with lattice
    indices n and m."""
    if case == "disk":
        return realize_disk(base)
    if case == "circuit":
        return realize_torus_circuit(base, n)
    if case == "simple":
        return realize_simple(base, n)
    if case == "tree":
        return realize_torus_tree(base, n, m)
    raise NotRealizable(f"unknown case {case!r}")

