"""Kronrod-Reeb graphs of PL fields.

The graph of a field has one vertex per connected component of a critical
level set that carries a critical point (or a boundary curve), and one edge
per family of regular level components between consecutive vertex values.
Level sets change topology only at saddles and boundary curves, so the sweep
cuts the field only at saddle and boundary values and at its global extremes.
Only the slabs between consecutive cut values are labelled, on arrays of
nodes (see `_pieces`), one per (cell piece, slab) pair: a cell's two
triangles share one in every slab their diagonal meets.  `_label` roots
every component at its smallest node by hooking roots and jumping pointers,
and a node sits at its least triangle's place, a cell's lower triangle where
they share it, so that root is the node of the smallest triangle.  The
components of a cut level are classes of slab ends (see `_sweep`).  Every
other extremum lies inside a slab and caps a disk component there, whose
end on the extremum's side is empty: that end becomes the extremum's vertex.
Regular classes have one edge above and one below and are smoothed away on
arrays: one more `_label` call joins the slab components through them into
chains, and each chain becomes one edge.

Every grid is triangulated round the torus, each cell named by its first
corner, and a disk is the torus that glues its frame's opposite sides, whose
glue cells are flat at the frame's value (see `_pieces`).

A field whose cells span many cut levels is built in two passes instead:
the first labels the slabs between a few coarse cuts, and the sweep then
runs on virtual ranks that cut each coarse slab component only at the
values of its own saddles (see `_virtual_ranks`), so the nodes it labels
follow the saddles each region holds, not the number of cut values.

A construction tiles congruent bands and squares, so its rank grid repeats
whole rows and columns, and the sweep runs on the grid with every line
dropped whose ranks equal the next line's (see `_kept_lines`).  The cells
between a dropped line and the next are ramps: two opposite edges carry
equal ranks, so the cell's span is that of its bottom or left edge.  In
every slab a ramp meets, its pieces join the cell below it or left of it,
of a smaller triangle id, through that edge, so each block of cells between
two kept lines labels as its first cell, whose corners carry the kept
lines' ranks.  Components, level classes, witnesses and the order of
vertices and edges are then those of the smaller grid, read back onto the
field's triangles by a map that keeps their order; a grid vertex on a
dropped line lies in the level class of its image on the next kept line.
The extrema inside slabs take their points, values and smallest triangles
from the field itself, and with no line dropped both maps are identities.
The graph keeps its field, whose grid `slab_roots` and the push read.

The graph carries topology and critical points only.  The special vertex of
a tree is read off them: a level component with e extrema, s saddles and deg
edge ends has genus (2 - e + s - deg)/2, so it needs no triangulation.
Each edge keeps one witness triangle, its smallest, the least of its slab
components', which does not depend on the cuts, and edges are numbered by
(lo, witness).  A graph has at most one cycle, so two edges share both ends
only on a circuit of length two, and a symmetry push reads triangles only to
split that pair (see `ReebGraph.edge_images`).  One rule, `_pieces` with
`_slab_nodes`, says which nodes lie in a slab and how they join, for the
build and for the push's `slab_roots`.
"""

from __future__ import annotations

import json
from typing import Iterator, NamedTuple, Optional

import numpy as np

from kronrod.errors import (
    InvalidField,
    NotAnAutomorphism,
    NotATree,
    ReebError,
    ShapeViolation,
)
from kronrod.fields import TORUS, CriticalPoint, CritKind, ScalarField, _link, classify_vertices


# ---------------------------------------------------------------------------
# triangulation bookkeeping
# ---------------------------------------------------------------------------


# the cells (dx, dy) and triangles (upper) around a grid vertex, for `_star`
_STAR = np.array([[-1, -1, 0, -1, 0, 0], [-1, 0, 0, -1, -1, 0], [0, 0, 0, 1, 1, 1]])


def _star(shape: tuple[int, int], points: np.ndarray) -> np.ndarray:
    """The triangles (see `_pieces`) around each of the grid vertices `points`
    of an (H, W) grid, as a (len(points), 6) array: the lower triangles of the
    cells to the lower left, to the left and at the vertex, then the upper ones
    of the cells to the lower left, below and at it."""
    h, w = shape
    y, x = np.divmod(points, w)
    dx, dy, up = _STAR
    return 2 * ((y[:, None] + dy) % h * w + (x[:, None] + dx) % w) + up


def _cell_permutation(shape: tuple[int, int], point_map: tuple) -> np.ndarray:
    """Triangle-level map of a point map (see `records.moves`), each grid
    point's flat image and rigid piece (-1 where fixed): a cell whose four
    corners lie in one piece moves to the cell named by its first corner's
    image; every other cell stays put."""
    image, piece = point_map
    p00 = piece.reshape(shape)
    p10, p11, p01 = _link(p00)[:3]
    rigid = (p00 >= 0) & (p10 == p00) & (p11 == p00) & (p01 == p00)
    target = np.where(rigid.ravel(), image, np.arange(image.size))
    perm = np.empty(2 * image.size, dtype=np.int64)
    perm[0::2] = 2 * target
    perm[1::2] = 2 * target + 1
    return perm


def _label(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each of nodes 0..n-1, the smallest node of its component under edges a-b.

    Root hooking and pointer jumping (Shiloach & Vishkin 1982).  Each round
    drops the edges whose ends share a root and hooks the larger root of each
    other edge onto the smaller, so it lowers a root.  Only pointers that can
    still move are then jumped to a root: in the first round those that moved
    in one pass over all nodes, later the hooked roots, after which one gather
    `root[root]` settles every node, so edge ends move on from their roots.
    The result has the dtype of `a`; `take` gathers through int32 indices fast.
    """
    root, ra, rb, first = np.arange(n, dtype=a.dtype), a, b, True
    while True:
        live = ra != rb
        if not live.all():
            ra, rb = ra[live], rb[live]
        if not len(ra):
            return root
        hook = np.maximum(ra, rb)
        np.minimum.at(root, hook, np.minimum(ra, rb))
        if first:
            up = root.take(root)
            hook, root = (up != root).nonzero()[0], up
        while len(hook):
            rh = root[hook]
            up = root.take(rh)
            root[hook] = up
            hook = hook[up != rh]
        if not first:
            root = root.take(root)
        first = False
        ra, rb = root.take(ra), root.take(rb)


# ---------------------------------------------------------------------------
# graph types
# ---------------------------------------------------------------------------


class ReebVertex:
    __slots__ = ("id", "value", "crits", "boundary")

    def __init__(self, id: int, value: float, crits: list[CriticalPoint], boundary: bool = False):
        self.id, self.value, self.crits, self.boundary = id, value, crits, boundary


class ReebEdge:
    # `witness`: the smallest triangle of the edge, -1 on a graph without a field
    __slots__ = ("id", "u", "v", "lo", "hi", "witness")

    def __init__(self, id: int, u: int, v: int, lo: float, hi: float, witness: int = -1):
        self.id, self.u, self.v, self.lo, self.hi, self.witness = id, u, v, lo, hi, witness


class ShapeReport(NamedTuple):
    betti1: int
    shape: str  # "tree" | "circuit"
    cycle_vertices: tuple[int, ...] = ()
    cycle_edges: tuple[int, ...] = ()


class ReebGraph:
    """Kronrod-Reeb graph with its field (None on a graph made from parts),
    settled when it is made: the edge ends at each vertex (`incidence`), the
    leaf peel (`peeled`, `left`, see `_peel`), the shape report (`shape`, see
    `_walk`) and the edges of a circuit of length two (`parallel`)."""

    def __init__(
        self,
        vertices: list[ReebVertex],
        edges: list[ReebEdge],
        field: Optional[ScalarField] = None,
    ):
        self.vertices, self.edges, self.field = vertices, edges, field
        self.incidence: list[list[int]] = [[] for _ in vertices]
        for e in edges:
            for x in (e.u, e.v):
                self.incidence[x].append(e.id)
        self.peeled, self.left = _peel(self)
        self.shape = _walk(self)
        es = self.shape.cycle_edges if self.shape else ()
        self.parallel: Optional[tuple[int, int]] = es if len(es) == 2 else None
        self._tables: Optional[tuple[dict, dict, np.ndarray]] = None
        self._slabs: dict[tuple[float, float], np.ndarray] = {}

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def push_tables(self) -> tuple[dict, dict, np.ndarray]:
        """The lookups every push reads, built on the first and kept: edge
        ends -> edge, grid vertex -> (critical point there, its vertex), and
        the grid vertices of the vertices' critical points, in order."""
        if self._tables is None:
            w = self.field.width
            carried = [(c.y * w + c.x, (c, v.id)) for v in self.vertices for c in v.crits]
            self._tables = (
                {frozenset((e.u, e.v)): e.id for e in self.edges},
                dict(carried),
                np.array([p for p, _ in carried], dtype=np.intp),
            )
        return self._tables

    def edge_images(self, vperm: list[int], point_map: tuple) -> tuple[int, ...]:
        """Where a push with vertex map `vperm` and point map `point_map` (see
        `_cell_permutation`) sends each edge: to the edge between the
        images of its ends, so both edges of the parallel pair to one.  If
        that is one of the pair, each goes to the one whose witness's
        component in `slab_roots(lo, hi)` of the pair's open interval, where
        each edge of the pair is one component, holds the images of every
        triangle of its own; one image is not enough, as a cell that straddles
        the pieces of a rect cycle stays put."""
        between, eperm = self.push_tables()[0], []
        for e in self.edges:
            d = between.get(frozenset((vperm[e.u], vperm[e.v])))
            if d is None:
                raise NotAnAutomorphism(f"vertex map does not transport edge {e.id}")
            eperm.append(d)
        pair = self.parallel
        if pair and eperm[pair[0]] in pair:
            root = self.slab_roots(self.edges[pair[0]].lo, self.edges[pair[0]].hi)
            perm = _cell_permutation(self.field.values.shape, point_map)
            for e in pair:
                mapped = root[perm[root == root[self.edges[e].witness]]]
                hits = [d for d in pair if (mapped == root[self.edges[d].witness]).all()]
                if len(hits) != 1:
                    raise NotAnAutomorphism(f"edge {e} cells do not map onto one parallel edge")
                eperm[e] = hits[0]
        return tuple(eperm)

    def slab_roots(self, lo: float, hi: float) -> np.ndarray:
        """The smallest triangle of each triangle's component in the slab of
        the open interval (lo, hi), labelled on the build's own nodes and
        joins (`_pieces`, `_slab_nodes`): one node per (cell piece, slab)
        pair.  A triangle outside the slab is its own root.  Labelled once
        per interval and kept."""
        if (lo, hi) not in self._slabs:
            rank = _ranks(self.field, np.array([lo, hi]))
            t_hi, (t_lo, d_lo, d_hi, n_lo, n_hi), segs = _pieces(rank)
            base = np.zeros(2 * rank.size, dtype=np.int32)
            node_t, _, _, joins = _slab_nodes(1, 1, n_lo, n_hi, segs, base)
            root = np.arange(2 * rank.size)
            t = ((t_lo <= 2) & (2 <= t_hi)).nonzero()[0]
            on_diag = (d_lo[t] <= 1) & (1 <= d_hi[t])
            root[t] = node_t[_label(len(node_t), *joins)][base[t - on_diag] + 1]
            self._slabs[lo, hi] = root
        return self._slabs[lo, hi]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

# The two-pass rule of `build_reeb`.  One pass labels about one node per
# triangle and cut level it spans; `_levels_crossed` estimates those levels.
# Where it reaches TWO_PASS_LEVELS, the field is swept on virtual ranks (see
# `_virtual_ranks`), whose coarse cuts take every COARSE_STRIDE-th saddle
# value.  Both come from the size sweep of `scripts/build_cost.py --sweep`,
# 45 seeded trig-sum torus fields of side 32 to 160 on a 2-core x86-64 VM.
# Measured again with one node per (cell piece, slab) pair, at stride 24 in
# two runs, two passes took 1.11-1.74 times as long as one on all 16 fields
# below 8 levels, 0.86-1.28 times from 8 to 18 (3 and 4 of 13 won), and
# 0.59-0.98 times (all 16 won) above.  The summed build time was least at
# thresholds from 14.7 to 15.5 and 0.2% more at 14; in the second run, from
# 10.9 to 11.2 and 0.07% more at 14.  In a third run, strides 16 and 24
# summed within 0.5% of each other at 14.
TWO_PASS_LEVELS = 14
COARSE_STRIDE = 24


class _Batch(NamedTuple):
    """What one batch of `_sweep` settles.  Components and classes are
    numbered on from the last batch's, in the order `_sweep` gives them."""

    comp_slab: np.ndarray  # slab of each new component
    comp_t: np.ndarray  # smallest triangle of each new component
    bottom: np.ndarray  # class of each new component's bottom end
    tops: tuple[np.ndarray, np.ndarray]  # (component, class) of the top ends settled here
    levels: np.ndarray  # level of each new class
    least: np.ndarray  # smallest triangle meeting each new class, ntri for an empty one
    vertices: np.ndarray  # rows (grid vertex, class) for each vertex at a settled level
    extrema: np.ndarray  # rows (index in the caller's points, component) per extremum inside


def _ranks(f: ScalarField, cuts: np.ndarray) -> np.ndarray:
    """The (H, W) int32 grid of ranks of the values of `f` among the cut values:
    2j+1 at cut value j and 2j between cut values j-1 and j, so ranks order like
    values, and a span of ranks rlo..rhi lies in slabs (rlo+1)//2..rhi//2."""
    above = cuts.searchsorted(f.values, "right")  # cut values at or below each value
    return (2 * above - (cuts[above - 1] == f.values)).astype(np.int32)


def _pieces(rank: np.ndarray):
    """The one slab rule, for `_sweep` and `ReebGraph.slab_roots`, from one
    pass over the corners of the cells of an (H, W) grid of vertex ranks (see
    `_ranks`): the grid and its E, NE and N link views (see `fields._link`).

    The grid is triangulated round the torus.  Cell p = y*W + x is named by
    its first corner (x,y).  Triangle 2p is its lower triangle with corners
    (x,y), (x+1,y), (x+1,y+1); triangle 2p+1 is the upper one with corners
    (x,y), (x+1,y+1), (x,y+1), every corner read round the torus.  A disk is
    the torus that glues its frame's opposite sides.  Its glue cells, those of
    its last row and column, have all four corners on the constant frame:
    each is flat at the frame's cut value, lies in no slab and only joins
    frame vertices into the one boundary level component that they already
    form.

    Every cell has one node per (cell piece, slab) pair.  Per triangle: its
    rank span t_lo..t_hi, its cell's diagonal's slabs d_lo..d_hi, where an
    upper triangle takes the lower one's node (none for a lower one), and the
    slabs n_lo..n_hi of its own nodes.  The top and left grid edges become
    join segments (lower triangle, owner of the upper one's node, lo, hi),
    split where it changes, but for those that meet no slab."""
    h, w = rank.shape
    r00, (r10, r11, r01) = rank, _link(rank)[:3]
    lo, hi = np.minimum(r00, r11), np.maximum(r00, r11)  # on the diagonal
    t_hi = np.empty((h, w, 2), dtype=np.int32)
    t_hi[..., 0], t_hi[..., 1] = np.maximum(hi, r10), np.maximum(hi, r01)
    span = np.empty((5, h, w, 2), dtype=np.int32)
    low, up = span[..., 0], span[..., 1]  # the rows of the lower and the upper triangles
    low[0], up[0] = np.minimum(lo, r10), np.minimum(lo, r01)
    low[1], low[2], up[1], up[2] = 1, 0, (lo + 1) >> 1, hi >> 1
    span[3], span[4] = (span[0] + 1) >> 1, t_hi >> 1
    under = up[3] < up[1]  # the upper triangle's own slabs lie below the diagonal's
    up[3], up[4] = np.where(under, up[3], up[2] + 1), np.where(under, up[1] - 1, up[4])

    # the lower triangles of each cell and of the cells above and left of it
    lower = 2 * np.arange(h * w, dtype=np.int32).reshape(h, w)
    across = np.array([(lower + 2 * w) % (2 * h * w), lower - 2])
    across[1, :, 0] += 2 * w
    # by top or left edge, then by the diagonal's slabs or the upper triangle's own
    segs = np.empty((4, 2, 2, h, w), dtype=np.int32)
    segs[0], segs[1, :, 0], segs[1, :, 1] = across[:, None], lower, lower + 1
    for i, (p, q) in enumerate(((r01, r11), (r00, r01))):
        np.maximum((np.minimum(p, q) + 1) >> 1, up[1:4:2], out=segs[2, i])
        np.minimum(np.maximum(p, q) >> 1, up[2:5:2], out=segs[3, i])

    segs = segs.reshape(4, -1)
    segs = segs.compress(segs[2] <= segs[3], axis=1)
    return t_hi.reshape(-1), span.reshape(5, -1), segs


def _slab_nodes(k0: int, k1: int, n_lo, n_hi, segs, base: np.ndarray):
    """The nodes of slabs k0..k1 and the joins between them, from the
    per-triangle slabs n_lo..n_hi of own nodes and the join segments of
    `_pieces`: one node per (cell piece, slab) pair.  The nodes come in
    ascending order of triangle, and node base[t] + k is triangle t's own in
    slab k: `base` is set here for every triangle with own nodes in these
    slabs.  A segment joins its nodes in all its slabs.  Returns each node's
    triangle and slab, the first node of each triangle with own nodes, and
    the two join arrays."""
    seg_a, seg_b, seg_lo, seg_hi = segs
    tris = (np.maximum(n_lo, k0) <= np.minimum(n_hi, k1)).nonzero()[0]
    a = np.maximum(n_lo[tris], k0)
    cnt = np.minimum(n_hi[tris], k1) - a + 1
    start = cnt.cumsum() - cnt
    n = int(cnt.sum())
    base[tris] = start - a
    node_t = tris.repeat(cnt)
    node_k = (a - start).repeat(cnt) + np.arange(n)
    del tris, a, cnt
    sides = (np.maximum(seg_lo, k0) <= np.minimum(seg_hi, k1)).nonzero()[0]
    ea = np.maximum(seg_lo[sides], k0)
    ecnt = np.minimum(seg_hi[sides], k1) - ea + 1
    shift = ea - ecnt.cumsum(dtype=np.int32) + ecnt
    step = np.arange(int(ecnt.sum()), dtype=np.int32)
    joins = [(base.take(s[sides]) + shift).repeat(ecnt) + step for s in (seg_a, seg_b)]
    return node_t, node_k, start, joins


def _sweep(rank: np.ndarray, points: np.ndarray) -> Iterator[_Batch]:
    """Label slab components in batches, and group their ends into level classes.

    `rank` is an (H, W) grid of vertex ranks over K cut levels, 2j+1 at level
    j and 2j between levels j-1 and j (see `_ranks`), that orders the corners
    of every triangle and grid edge as the field does; the field's maximum
    has the top rank 2K-1.  Slab k (0 < k < K) holds the triangles whose rank
    span meets 2k, joined across grid edges whose span meets it too.  One
    `_label` call per batch of slabs k0..k1, over about `ntri` nodes, roots
    each component at its smallest triangle: a batch takes only the nodes and
    join segments (see `_pieces` and `_slab_nodes`) with a slab in k0..k1, in
    ascending order of triangle, and a node that a cell's two triangles share
    sits at the lower one's place.  The batch then settles levels k0-1..k1-1
    (the last batch the top level too): a level's components are classes of
    slab ends, joined by the triangles crossing the level, the grid vertices
    at it and the triangles with all corners at it.  No saddle lies inside an
    open slab, so an end is the limit of connected level curves: it lies in
    one level component, and no slab component can attach to two.  Components
    and classes are numbered by (slab or level, smallest triangle).  Only the
    components of the last slab carry over to the next batch.

    `points` are the grid vertices of the extrema inside slabs, those of even
    rank, repeats allowed.  Each lies in the component of the triangles
    around it, whose bottom (at a minimum) or top (at a maximum) is then the
    extremum's value; a batch gives each by its index in `points`.
    """
    ntri, i32 = 2 * rank.size, np.int32
    K = (int(rank.max()) + 1) >> 1
    t_hi, (t_lo, d_lo, d_hi, n_lo, n_hi), segs = _pieces(rank)
    shape = rank.shape
    rank = rank.ravel()
    verts = (rank & 1).nonzero()[0]
    verts = verts[rank[verts].argsort(kind="stable")]  # grid vertices at cut levels
    vlev = rank[verts] >> 1
    vindex = np.zeros(len(rank), dtype=i32)
    vindex[verts] = np.arange(len(verts))
    # (triangle, level, vertex index) for every triangle around a vertex at a
    # cut level, by level: every triangle that meets a level at a corner
    att_t, att_v = _star(shape, verts).ravel(), np.arange(len(verts)).repeat(6)
    att_j = vlev[att_v]
    # the end through which triangle t meets level j: the top of slab j, the
    # bottom of slab j+1, or for a flat triangle the vertex at its first corner
    att_lower = t_lo[att_t] < 2 * att_j + 1
    att_cross = att_lower | (t_hi[att_t] > 2 * att_j + 1)
    att_k = att_j + 1 - att_lower
    att_flat = vindex[att_t >> 1]  # at the cell's first corner

    # the extrema inside slabs by slab, with the smallest triangle around each
    order = rank[points].argsort(kind="stable")
    points = points[order]
    pk, pt = rank[points] >> 1, _star(shape, points).min(axis=1)
    del rank, t_hi, vindex  # read by the set-up only

    def on_diag(t: np.ndarray, k) -> np.ndarray:  # whether t takes its lower one's node in slab k
        return (d_lo[t] <= k) & (k <= d_hi[t])

    def node(t: np.ndarray, k) -> np.ndarray:  # the node of triangle t in slab k of the batch
        return base[t - on_diag(t, k)] + k

    # batches of about ntri nodes, planned when there are more; slab k holds size[k]
    total, bounds = int((n_hi - n_lo).sum()) + ntri, [(1, K - 1)]
    if round(total / ntri) > 1:
        size = np.bincount(n_lo, minlength=K + 1) - np.bincount(n_hi + 1, minlength=K + 1)
        size = np.cumsum(size)
        per = total / round(total / ntri)
        ends = (np.flatnonzero(np.diff(np.cumsum(size[1:K]) // per, prepend=0)[:-1]) + 1).tolist()
        bounds = list(zip([1, *(k + 1 for k in ends)], [*ends, K - 1]))

    below = np.full(ntri, -1, dtype=i32)  # component of each triangle in the slab under the batch
    base = np.zeros(ntri, dtype=i32)  # node base[t] + k is t's own in slab k, in the batch
    carried = first = n_cls = 0  # components carried..first-1 lie in that slab

    def settle(k0: int, k1: int) -> _Batch:
        nonlocal carried, first, n_cls
        node_t, node_k, start, joins = _slab_nodes(k0, k1, n_lo, n_hi, segs, base)
        n = len(node_t)
        lowest = start[2 * node_k[start] - 1 <= t_lo[node_t[start]]]  # their triangle's lowest
        del start
        root = _label(n, *joins)
        del joins
        r = (root == np.arange(n)).nonzero()[0]
        r = r[node_k[r].argsort(kind="stable")]
        last = first + len(r)
        comp = np.full(n + 1, -1)  # the -1 stands in for nodes outside the batch
        comp[r] = np.arange(first, last)
        comp[:n] = comp.take(root)  # root holds int32 ids, which `take` reads fast

        ext = slice(*pk.searchsorted([k0, k1 + 1]).tolist())  # the extrema inside these slabs
        extrema = np.array([order[ext], comp[node(pt[ext], pk[ext])]])

        # class graph: ends 2c (bottom) and 2c+1 (top) of component carried+c,
        # then the grid vertices at the settled levels
        done = k1 + (k1 == K - 1)  # levels k0-1..done-1 settle here
        slab = np.full(last - carried, k0 - 1, dtype=i32)  # per component
        slab[first - carried :] = node_k[r]
        v0, v1 = vlev.searchsorted([k0 - 1, done]).tolist()
        ne = 2 * (last - carried)
        vnode = ne - v0  # vertex index i is class graph node vnode + i
        p0, p1 = att_j.searchsorted([k0 - 1, done]).tolist()
        t, v, k, lower, cross = (x[p0:p1] for x in (att_t, att_v, att_k, att_lower, att_cross))
        inside = cross & (k >= k0)
        g = np.where(inside, comp.take(np.where(inside, node(t, k), n)), below[t])
        end = np.where(cross, 2 * (g - carried) + lower, vnode + att_flat[p0:p1])
        # a node crosses the level under its slab unless it is its triangle's
        # lowest, and meets it if it crosses or its triangle's minimum is
        # there.  A shared lowest node meets it also where the upper triangle
        # does; where that one crosses, so does its left or top neighbour.
        meets = np.ones(n, dtype=bool)
        meets[lowest] = False
        crossing = meets.nonzero()[0]
        lt, lk = node_t[lowest], node_k[lowest]
        meets[lowest] = t_lo[lt] & 1
        up_meets = lowest[on_diag(lt ^ 1, lk) & (t_lo[lt ^ 1] < 2 * lk)]  # lt ^ 1: its upper one
        # a crossing node joins the bottom end of its component to the top end
        # of the one under it.  One per component does: the level curves that
        # cross triangles and pass from one to the next through grid edges
        # meet the same two components, and where such a curve ends at a grid
        # vertex, that vertex is joined to the top end under it.
        rep = np.full(last - first, -1)
        rep[comp[crossing] - first] = crossing  # any crossing node of each component
        rep = rep[rep >= 0]
        rt, rk = node_t[rep], node_k[rep]
        within = rk > k0
        under = np.where(within, comp[np.where(within, node(rt, rk - 1), n)], below[rt])
        cls = _label(
            vnode + v1,
            np.concatenate([2 * (under - carried) + 1, vnode + v]),
            np.concatenate([2 * (comp[rep] - carried), end]),
        )
        # the smallest triangle meeting each class orders the classes of a level
        inc_t = np.concatenate([node_t[meets], t, node_t[up_meets] + 1])
        inc_e = np.concatenate(
            [2 * (comp[:n][meets] - carried), end, 2 * (comp[up_meets] - carried)]
        )
        least = np.full(len(cls), ntri)
        np.minimum.at(least, cls[inc_e], inc_t)
        level = np.empty(len(cls), dtype=i32)
        level[0:ne:2], level[1:ne:2], level[ne:] = slab - 1, slab, vlev[v0:v1]
        settled = np.ones(len(cls), dtype=bool)
        settled[0:ne:2] = slab >= k0  # bottom ends not settled before
        settled[1:ne:2] = top = slab < done  # top ends not left to the next batch
        roots = (settled & (cls == np.arange(len(cls)))).nonzero()[0]
        roots = roots[np.lexsort((least[roots], level[roots]))]
        cid = np.full(len(cls), -1)
        cid[roots] = np.arange(n_cls, n_cls + len(roots))
        cid = cid[cls]
        batch = _Batch(
            slab[first - carried :], node_t[r], cid[2 * (first - carried) : ne : 2],
            (np.arange(carried, last)[top], cid[1:ne:2][top]), level[roots], least[roots],
            np.array([verts[v0:v1], cid[ne:]]), extrema,
        )  # fmt: skip
        # under the next batch: the last slab's triangles with own nodes and the
        # upper ones that share them
        if k1 < K - 1:
            t1 = node_t[node_k == k1]
            t1 = np.concatenate([t1, t1[on_diag(t1 ^ 1, k1)] ^ 1])
            below[t1] = comp.take(node(t1, k1))
        carried, first, n_cls = last - int((slab == k1).sum()), last, n_cls + len(roots)
        return batch

    yield from (settle(k0, k1) for k0, k1 in bounds)


def _virtual_ranks(rank: np.ndarray, coarse: np.ndarray, saddles: np.ndarray) -> np.ndarray:
    """Ranks for a sweep that cuts each component of a coarse slab only at the
    values of the saddles inside it.

    `rank` holds the fine ranks of the field (see `_ranks`) over its K cut
    values, `coarse` marks the cut values kept as coarse cuts, and `saddles`
    are the saddles' grid vertices.  A lookup table turns fine ranks into
    coarse ones, and one `_label` call labels every coarse slab.  A grid vertex
    strictly inside coarse slab k lies in the component of any triangle around
    it, and component X of slab k holds its own saddle values own(X), as fine
    cut indices.  Slab k gets R_k virtual cuts, R_k the longest own(X) there,
    numbered on from the virtual index V of coarse cut k-1.  A vertex of X
    with i own values below it has rank 2(V+i+1), or 2(V+i+1)+1 at the
    (i+1)-th; above X's last own value it has the slab's top rank.  The corners
    of a grid edge strictly inside one coarse slab are joined along it, so the
    new ranks order the corners of every triangle and grid edge as the field
    does, and each component is cut exactly at its own saddle values.
    """
    K, nv = len(coarse), rank.size
    below = np.cumsum(coarse, dtype=np.int32)  # coarse cuts at or below each fine cut
    table = np.zeros(2 * K + 1, dtype=np.int32)
    table[1::2], table[2::2] = 2 * below - coarse, 2 * below
    crank = table[rank].ravel()
    _, (_, d_lo, d_hi, n_lo, n_hi), segs = _pieces(crank.reshape(rank.shape))
    base = np.zeros(2 * nv, dtype=np.int32)
    node_t, _, _, joins = _slab_nodes(1, int(below[-1]) - 1, n_lo, n_hi, segs, base)
    root = _label(len(node_t), *joins)
    del node_t, joins, segs, n_lo, n_hi
    # the component of each grid vertex strictly inside a coarse slab, read
    # off the lower triangle of its own cell
    inside = ((crank & 1) == 0).nonzero()[0]
    k = crank[inside] >> 1
    t = 2 * inside
    comp = np.full(nv, -1, dtype=np.int64)
    comp[inside] = root[base[t - ((d_lo[t] <= k) & (k <= d_hi[t]))] + k]
    del base, t, d_lo, d_hi
    # own(X) as rows of counts: under[row[X], j] own values of X below fine cut j
    fine = rank.ravel() >> 1
    saddles = saddles[(crank[saddles] & 1) == 0]
    holder, fine_at = comp[saddles], fine[saddles]
    row = np.zeros(len(root), dtype=np.int64)
    row[holder] = 1
    holders = row.nonzero()[0]
    row[:] = -1  # the last row, all zeros, for the components with no own values
    row[holders] = np.arange(len(holders))
    under = np.zeros((len(holders) + 1, K + 1), dtype=np.int64)
    under[row[holder], fine_at + 1] = 1
    under = under.cumsum(axis=1)
    longest = np.zeros(int(below[-1]), dtype=np.int64)  # R_k
    np.maximum.at(longest, below[fine_at], under[row[holder], K])
    virtual = np.arange(len(longest)) + np.cumsum(longest)  # virtual index of each coarse cut
    out = 2 * virtual[crank >> 1] + 1  # right at the coarse cuts
    r, j = row[comp[inside]], fine[inside]
    i, n_own = under[r, j], under[r, K]
    at_own = (under[r, j + 1] - i) & rank.ravel()[inside]  # 1 right at an own value
    v = virtual[k - 1]
    out[inside] = np.where(i < n_own, 2 * (v + i + 1) + at_own, 2 * (v + longest[k] + 1))
    return out.astype(np.int32).reshape(rank.shape)


def _levels_crossed(rank: np.ndarray) -> float:
    """The cut levels crossed by a grid step along x plus one along y, on
    average over the grid (round a disk too, whose frame is level): about the
    levels a cell spans, and at most 2(K-1) over K cut levels."""
    steps = (int(np.abs(r[1:] - r[:-1]).sum() + np.abs(r[0] - r[-1]).sum()) for r in (rank, rank.T))
    return sum(s / rank.size for s in steps) / 2


def _kept_lines(rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows and the columns of a rank grid that the sweep keeps, as
    ascending line indices: line 0 and every line whose ranks differ from the
    next line's, round the torus, so a disk drops its last frame line, which
    equals its first.  Line 0 stays so that every dropped line's cells have a
    smaller neighbour across the ramp (see the module docstring).  An axis
    that would keep fewer than 3 lines keeps them all: its cells would meet
    themselves or one neighbour twice across the wrap."""
    kept = []
    for r in (rank, rank.T):
        keep = np.append((r[:-1] != r[1:]).any(axis=1), (r[-1] != r[0]).any())
        keep[0] = True
        lines = keep.nonzero()[0]
        kept.append(lines if len(lines) >= 3 else np.arange(len(keep)))
    return kept[0], kept[1]


def build_reeb(f: ScalarField) -> ReebGraph:
    """Construct the Kronrod-Reeb graph of a PL-Morse field, in two passes
    where its cells span many cut levels (see TWO_PASS_LEVELS), sweeping the
    grid with its repeated rank lines dropped (see `_kept_lines`)."""
    crits = classify_vertices(f)
    vals = f.values.ravel()
    ntri = 2 * vals.size
    crits_at = {c.y * f.width + c.x: [c] for c in crits}  # at most one per grid vertex
    frame = [] if f.kind == TORUS else [0]  # the boundary curve, by a grid vertex on it
    if not crits and not frame:
        raise InvalidField("field has no critical points and no boundary")
    # cut at saddles, boundary curves and the extremes of the field (off the
    # frame, extremes are extrema), or in two passes at the coarse cuts first;
    # every other extremum lies inside a slab
    saddles = {c.value for c in crits if c.kind is CritKind.SADDLE}
    ends = [*vals[frame], *(c.value for c in crits[:1] + crits[-1:])]
    extremes = {*vals[frame], min(ends), max(ends)}
    cuts = np.array(sorted(saddles | extremes))
    rank = _ranks(f, cuts)
    if 2 * (len(cuts) - 1) >= TWO_PASS_LEVELS and _levels_crossed(rank) >= TWO_PASS_LEVELS:
        coarse = np.isin(cuts, [*extremes, *sorted(saddles)[COARSE_STRIDE - 1 :: COARSE_STRIDE]])
        sites = [c.y * f.width + c.x for c in crits if c.kind is CritKind.SADDLE]
        rank = _virtual_ranks(rank, coarse, np.array(sites, dtype=np.int64))
    sites = np.array(list(crits_at), dtype=np.int64)
    inside = sites[(rank.ravel()[sites] & 1) == 0]
    y, x = np.divmod(inside, f.width)
    maximum = vals[y * f.width + (x + 1) % f.width] < vals[inside]  # all neighbours on one side
    at = np.array(sorted({*crits_at, *frame}), dtype=np.int64)
    at = at[(rank.ravel()[at] & 1) == 1]
    at = at[rank.ravel()[at].argsort(kind="stable")]  # the marked ones at levels, by (level, y, x)

    # -- sweep the grid with repeated lines dropped (see `_kept_lines`): a
    # grid vertex goes to the next kept line, round the torus
    rows, cols = _kept_lines(rank)
    rank = rank[np.ix_(rows, cols)]
    ry = rows.searchsorted(np.arange(f.height)) % len(rows)
    cx = cols.searchsorted(np.arange(f.width)) % len(cols)
    sweep_at, sweep_inside = (ry[p // f.width] * len(cols) + cx[p % f.width] for p in (at, inside))

    # -- one sweep up the slabs: level classes become nodes and slab components
    # pre-edges, in the sweep's order.  Only classes with critical points or a
    # boundary curve are marked and survive the smoothing.
    parts, vcls = [], np.empty(rank.size, dtype=np.int64)
    for b in _sweep(rank, sweep_inside):
        vcls[b.vertices[0]] = b.vertices[1]
        parts.append((b.least, b.bottom, b.comp_t, *b.tops, *b.extrema))
    least, u, comp_t, top_g, top_c, ext_i, ext_g = map(np.concatenate, zip(*parts))
    # swept cell c is the field's cells[c], and the one past the last (holding
    # the sweep's ntri, an empty class's least) the field's one past its last
    cells = np.append(rows[:, None] * f.width + cols, vals.size)
    least, comp_t = (2 * cells[t >> 1] + (t & 1) for t in (least, comp_t))
    cls = vcls[sweep_at]
    n_cls, n_pre = len(least), len(u)
    v = np.empty(n_pre, dtype=np.int64)
    v[top_g] = top_c

    # -- hang each extremum inside a slab on its component's empty end: the
    # bottom at a minimum, the top at a maximum
    ext_p = inside[ext_i]
    ends = np.where(maximum[ext_i], v[ext_g], u[ext_g])
    hung = np.bincount(ends, minlength=n_cls)
    bad = (hung != (least == ntri)).nonzero()[0]
    if len(bad):
        n = int(hung[bad[0]])
        if n > 1:
            raise ReebError(f"slab component with {n} extrema inside")
        raise ReebError(
            "extremum inside a slab without an empty component end"
            if n
            else "empty component end without an extremum"
        )
    value = np.empty(n_cls)  # read at marked classes only
    value[cls], value[ends] = vals[at], vals[ext_p]
    least[ends] = _star(f.values.shape, ext_p).min(axis=1)
    marked = np.zeros(n_cls, dtype=bool)
    marked[cls] = marked[ends] = True

    # -- smooth the regular classes away: each has one pre-edge below and one
    # above, and pre-edges joined through them make a chain
    n_up, n_down = np.bincount(u, minlength=n_cls), np.bincount(v, minlength=n_cls)
    bad = (~marked & ((n_up != 1) | (n_down != 1))).nonzero()[0]
    if len(bad):
        degree = int(n_up[bad[0]] + n_down[bad[0]])
        if degree != 2:
            raise ReebError(f"regular level component with degree {degree} (expected 2)")
        raise ReebError("regular component with both edges on one side")
    up_of = np.empty(n_cls, dtype=np.int64)
    up_of[u] = np.arange(n_pre)
    # each pre-edge's chain, named by its lowest pre-edge since they are
    # ordered by slab: one that ends at a regular class joins the one above
    joined = (~marked[v]).nonzero()[0]
    chain = _label(n_pre, joined, up_of[v[joined]])
    # one edge per chain, from its lowest to its highest pre-edge, whose
    # witness is its smallest triangle, the least of its slab components'.
    # Edges with equal lo share no triangle: f runs monotonely along a segment
    # in a triangle, so the segment could pass from one edge to another only
    # through a vertex at lo.  So (lo, witness) orders them.
    hi_pre = marked[v].nonzero()[0]
    lo_pre = chain[hi_pre]
    least_t = np.full(n_pre, ntri, dtype=comp_t.dtype)
    np.minimum.at(least_t, chain, comp_t)
    order = np.lexsort((least_t[lo_pre], value[u[lo_pre]]))
    lo, hi, witness = u[lo_pre[order]], v[hi_pre[order]], least_t[lo_pre[order]]

    crits_of: dict[int, list[CriticalPoint]] = {}
    on_curve: set[int] = set()
    # marked grid vertices come in (level, y, x) order, so each class's crits do too
    for p, c in zip(np.concatenate([at, ext_p]).tolist(), np.concatenate([cls, ends]).tolist()):
        crits_of.setdefault(c, []).extend(crits_at.get(p, []))
        if p in frame:
            on_curve.add(c)
    # vertices by (value, smallest triangle meeting the level component)
    kept = marked.nonzero()[0]
    kept = kept[np.lexsort((least[kept], value[kept]))]
    vid = np.empty(n_cls, dtype=np.int64)
    vid[kept] = np.arange(len(kept))
    vertices = [
        ReebVertex(i, x, crits_of.get(c, []), c in on_curve)
        for i, (c, x) in enumerate(zip(kept.tolist(), value[kept].tolist()))
    ]
    columns = vid[lo], vid[hi], value[lo], value[hi], witness
    edges = [ReebEdge(i, *e) for i, e in enumerate(zip(*(a.tolist() for a in columns)))]

    if not vertices:
        raise ReebError("empty Reeb graph")
    if _label(len(vertices), *columns[:2]).any():
        raise ReebError("Reeb graph is disconnected")
    return ReebGraph(vertices, edges, f)


# ---------------------------------------------------------------------------
# shape
# ---------------------------------------------------------------------------


def _peel(g: ReebGraph) -> tuple[list[tuple[int, int]], list[int]]:
    """Peel the leaves of a connected graph layer by layer.

    Returns each peeled vertex with the edge it left by, children before
    their parents, and the vertices left: the circuit's, or a tree's one or
    two adjacent centres.
    """
    deg = [len(ends) for ends in g.incidence]
    gone = [False] * g.n_vertices
    peeled: list[tuple[int, int]] = []
    layer = [v for v in range(g.n_vertices) if deg[v] == 1]
    # a tree stops at its one or two centres, a circuit once no leaf is left
    while layer and (g.n_edges >= g.n_vertices or g.n_vertices - len(peeled) > 2):
        nxt = []
        for v in layer:
            gone[v] = True
            for ei in g.incidence[v]:
                e = g.edges[ei]
                w = e.v if e.u == v else e.u
                if not gone[w]:
                    peeled.append((v, ei))
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return peeled, [v for v in range(g.n_vertices) if not gone[v]]


def _walk(g: ReebGraph) -> Optional[ShapeReport]:
    """Tree / unique-circuit report of a graph from its leaf peel; None when
    betti1 > 1, or when the walk fails on a disconnected graph.  The circuit
    is walked from its smallest vertex, along that vertex's smallest-id
    circuit edge."""
    betti1 = g.n_edges - g.n_vertices + 1
    if betti1 == 0:
        return ShapeReport(0, "tree")
    if betti1 > 1 or not g.left:
        return None
    used = {ei for _, ei in g.peeled}
    vs, es, v = [], [], g.left[0]
    while not vs or v != vs[0]:
        ei = next((ei for ei in g.incidence[v] if ei not in used), None)
        if ei is None:
            return None
        used.add(ei)
        vs.append(v)
        es.append(ei)
        e = g.edges[ei]
        v = e.v if e.u == v else e.u
    return ShapeReport(1, "circuit", tuple(vs), tuple(es))


def classify_shape(g: ReebGraph) -> ShapeReport:
    """The report the graph was made with.  A graph without one raises on
    every call: a ShapeViolation on a torus field with betti1 above 1."""
    if g.shape is None:
        betti1 = g.n_edges - g.n_vertices + 1
        if betti1 > 1 and g.field is not None and g.field.kind == TORUS:
            raise ShapeViolation(f"torus Reeb graph with betti1 = {betti1}")
        raise ReebError(f"graph with betti1 = {betti1} has no unique circuit")
    return g.shape


# ---------------------------------------------------------------------------
# special vertex (tree case on the torus)
# ---------------------------------------------------------------------------


def find_special_vertex(g: ReebGraph, f: ScalarField) -> int:
    """The unique tree vertex whose complement consists of open disks.

    The complement of a level component is a union of open disks exactly when
    the component's regular neighbourhood carries the torus's genus.  That
    neighbourhood has Euler characteristic e - s for e extrema and s saddles
    on the component, and one boundary circle per edge end, so its genus is
    g = (2 - e + s - deg)/2, and the special vertex is the one with g = 1.
    """
    if f.kind != TORUS:
        raise ReebError("special vertices are defined for torus fields")
    report = classify_shape(g)
    if report.shape != "tree":
        raise NotATree("special vertex search requires a tree-shaped graph")
    found: list[int] = []
    for v in g.vertices:
        saddles = sum(c.kind is CritKind.SADDLE for c in v.crits)
        extrema = len(v.crits) - saddles
        if (2 - extrema + saddles - len(g.incidence[v.id])) / 2 == 1:
            found.append(v.id)
    if not found:
        raise ReebError("no vertex has an all-disk complement")
    if len(found) > 1:
        raise ReebError(f"vertices {found} all have all-disk complements")
    return found[0]


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def export_dot(g: ReebGraph) -> str:
    lines = ["graph reeb {"]
    for v in g.vertices:
        label = f"{v.value:.6g} ({len(v.crits)} crit)"
        if v.boundary:
            label += " [boundary]"
        lines.append(f'  v{v.id} [label="{label}"];')
    for e in g.edges:
        lines.append(f'  v{e.u} -- v{e.v} [label="({e.lo:.6g},{e.hi:.6g})"];')
    lines.append("}")
    return "\n".join(lines)


def export_json(g: ReebGraph) -> bytes:
    doc = {
        "vertices": [
            {
                "id": v.id,
                "value": v.value,
                "boundary": v.boundary,
                "crits": [
                    {"x": c.x, "y": c.y, "kind": c.kind.value, "value": c.value}
                    for c in v.crits
                ],
            }
            for v in g.vertices
        ],
        "edges": [{"id": e.id, "u": e.u, "v": e.v, "lo": e.lo, "hi": e.hi} for e in g.edges],
    }
    return json.dumps(doc, sort_keys=True).encode("utf-8")
