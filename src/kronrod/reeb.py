"""Kronrod-Reeb graphs of PL fields.

The graph of a field has one vertex per connected component of a critical
level set that carries a critical point (or a boundary curve), and one edge
per family of regular level components between consecutive vertex values.
Level sets change topology only at saddles and boundary curves, so the sweep
cuts the field only at saddle and boundary values and at its global extremes.
Only the slabs between consecutive cut values are labelled, on arrays of
(cell piece, slab) nodes: a cell's two triangles share one node in every slab
their diagonal meets.  `_label` roots every component at its smallest node by
hooking roots and jumping pointers, and a shared node sits at the lower
triangle's place, so that root is the node of the smallest triangle.  The
components of a cut level are classes of slab ends (see `_sweep`).  Every
other extremum lies inside a slab and caps a disk component there, whose end
on the extremum's side is empty: that end becomes the extremum's vertex.
Regular classes have one edge above and one below and are smoothed away on
arrays: one more `_label` call joins the slab components through them into
chains, and each chain becomes one edge.

The graph carries topology and critical points only.  The special vertex of
a tree is read off them: a level component with e extrema, s saddles and deg
edge ends has genus (2 - e + s - deg)/2, so it needs no triangulation.
Each edge keeps one witness triangle, the smallest triangle of its lowest
slab component, and edges are numbered by (lo, witness).  A graph has at
most one cycle, so two edges share both ends only on a circuit of length
two, and a symmetry push reads triangles only to split that pair (see
`ReebGraph.edge_images`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional

import numpy as np

from kronrod.errors import (
    InvalidField,
    NotAnAutomorphism,
    NotATree,
    ReebError,
    ShapeViolation,
)
from kronrod.fields import TORUS, CriticalPoint, CritKind, ScalarField, classify_vertices


# ---------------------------------------------------------------------------
# triangulation bookkeeping
# ---------------------------------------------------------------------------


# the cells (dx, dy) and triangles (upper) around a grid vertex, for `Triangulation.star`
_STAR = np.array([[-1, -1, 0, -1, 0, 0], [-1, 0, 0, -1, -1, 0], [0, 0, 0, 1, 1, 1]])


class Triangulation:
    """Index arithmetic for the diagonal-split grid of a field.

    Triangle 2*(cy*ncx + cx) is the lower triangle of cell (cx, cy) with
    corners (x,y), (x+1,y), (x+1,y+1); triangle 2*(...)+1 is the upper one
    with corners (x,y), (x+1,y+1), (x,y+1).  A build reads a grid's values at
    the corners once, through the shifted views of `cell_corners`, and the few
    corners it needs one by one through `star`.  The adjacency of `_sides` is
    read only by `ReebGraph.slab_roots` and the tests.
    """

    def __init__(self, f: ScalarField):
        self.field = f
        self.ncx = f.width if f.wraps else f.width - 1
        self.ncy = f.height if f.wraps else f.height - 1
        self.ntri = 2 * self.ncx * self.ncy

    def cell_corners(self, grid: np.ndarray) -> tuple[np.ndarray, ...]:
        """The values of an (H, W) grid at the corners (x,y), (x+1,y),
        (x+1,y+1) and (x,y+1) of every cell (cx, cy), as (ncy, ncx) views: of
        the grid with its first row and column appended on a torus, of the
        grid itself on a disk."""
        if self.field.wraps:
            h, w = grid.shape
            ext = np.empty((h + 1, w + 1), dtype=grid.dtype)
            ext[:h, :w], ext[h, :w] = grid, grid[0]
            ext[:, w] = ext[:, 0]
            grid = ext
        return grid[:-1, :-1], grid[:-1, 1:], grid[1:, 1:], grid[1:, :-1]

    @cached_property
    def corners(self) -> np.ndarray:
        """(ntri, 3) grid vertices y*w + x at the corners of every triangle."""
        f = self.field
        v00, v10, v11, v01 = self.cell_corners(
            np.arange(f.values.size, dtype=np.int32).reshape(f.values.shape)
        )
        lower, upper = np.stack([v00, v10, v11], axis=-1), np.stack([v00, v11, v01], axis=-1)
        return np.stack([lower, upper], axis=2).reshape(self.ntri, 3)

    def star(self, points: np.ndarray) -> np.ndarray:
        """The triangles around each of the grid vertices `points`, as a
        (len(points), 6) array: the lower triangles of the cells to the lower
        left, to the left and at the vertex, then the upper ones of the cells
        to the lower left, below and at it; ntri where a disk has no such
        cell."""
        w, h = self.field.width, self.field.height
        y, x = np.divmod(points, w)
        dx, dy, up = _STAR
        cx, cy = (x[:, None] + dx) % w, (y[:, None] + dy) % h
        star = 2 * (cy * self.ncx + cx) + up
        if not self.field.wraps:  # a disk's cells stop one short of the grid
            star[(cx == self.ncx) | (cy == self.ncy)] = self.ntri
        return star


def _sides(tri: Triangulation, grid: np.ndarray) -> tuple[np.ndarray, ...]:
    """The shared grid edges of a triangulation: arrays of the lower and upper
    triangle on each edge and of the values of an (H, W) `grid` at its two
    ends (the vertex-id grid gives the end vertices).  `ReebGraph.slab_roots`
    and the tests read it; a build works on cell pieces instead (`_pieces`).

    Each edge belongs to the cell of its upper triangle.  They are each
    cell's diagonal (the first ncx*ncy, by cell), then its top edge (with the
    lower triangle of the cell above) and its left edge (with the lower
    triangle of the cell to the left) where the grid has them.
    """
    g00, _, g11, g01 = tri.cell_corners(grid)
    lower, has = _across(tri)
    ends = np.array([(g00, g01, g00), (g11, g11, g01)])
    return lower[has], np.broadcast_to(lower[0] + 1, has.shape)[has], *ends[:, has]


def _across(tri: Triangulation) -> tuple[np.ndarray, np.ndarray]:
    """The lower triangles of each cell and of the cells above and left of it,
    as (3, ncy, ncx) arrays wrapping round a torus, and a mask of those a disk has."""
    lower = 2 * np.arange(tri.ncx * tri.ncy, dtype=np.int32).reshape(tri.ncy, tri.ncx)
    lower = np.array([lower, (lower + 2 * tri.ncx) % tri.ntri, lower - 2])
    lower[2, :, 0] += 2 * tri.ncx
    has = np.ones(lower.shape, dtype=bool)
    if not tri.field.wraps:
        has[1, -1] = has[2, :, 0] = False
    return lower, has


def _cell_permutation(tri: Triangulation, image: np.ndarray, piece: np.ndarray) -> np.ndarray:
    """Triangle-level map of a point map, given as each grid point's flat
    image and rigid piece (-1 where fixed): a cell whose four corners lie in
    one piece moves with them; every other cell stays put."""
    shape, w = tri.field.values.shape, tri.field.width
    p00, p10, p11, p01 = tri.cell_corners(piece.reshape(shape))
    rigid = (p00 >= 0) & (p10 == p00) & (p11 == p00) & (p01 == p00)
    ty, tx = np.divmod(tri.cell_corners(image.reshape(shape))[0], w)
    cells = np.arange(tri.ncx * tri.ncy).reshape(tri.ncy, tri.ncx)
    target = np.where(rigid, ty * tri.ncx + tx, cells).ravel()
    perm = np.empty(tri.ntri, dtype=np.int64)
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


@dataclass
class ReebVertex:
    id: int
    value: float
    crits: list[CriticalPoint]
    boundary: bool = False


@dataclass
class ReebEdge:
    id: int
    u: int
    v: int
    lo: float
    hi: float
    # smallest triangle of the edge's lowest component in the slab between
    # consecutive cut values that holds lo, -1 on a graph without a triangulation
    witness: int = -1


@dataclass(frozen=True)
class ShapeReport:
    betti1: int
    shape: str  # "tree" | "circuit"
    cycle_vertices: tuple[int, ...] = ()
    cycle_edges: tuple[int, ...] = ()


class ReebGraph:
    """Kronrod-Reeb graph with its triangulation and the values it was cut at."""

    def __init__(
        self,
        vertices: list[ReebVertex],
        edges: list[ReebEdge],
        tri: Optional[Triangulation] = None,
        cuts: Optional[np.ndarray] = None,
    ):
        self.vertices = vertices
        self.edges = edges
        self.tri = tri
        self.cuts = cuts
        self._incidence: Optional[list[list[int]]] = None
        self._peeled: Optional[tuple[list[tuple[int, int]], list[int]]] = None
        self._shape: Optional[ShapeReport] = None
        self._slabs: dict[int, np.ndarray] = {}

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def incident_edges(self, vid: int) -> list[int]:
        if self._incidence is None:
            inc: list[list[int]] = [[] for _ in self.vertices]
            for e in self.edges:
                inc[e.u].append(e.id)
                if e.v != e.u:
                    inc[e.v].append(e.id)
            self._incidence = inc
        return self._incidence[vid]

    def peel(self) -> tuple[list[tuple[int, int]], list[int]]:
        """The leaf peel of the graph (see `_peel`), computed once and kept."""
        if self._peeled is None:
            self._peeled = _peel(self)
        return self._peeled

    def parallel_pair(self) -> Optional[tuple[int, int]]:
        """The two edges of a circuit of length two, in id order, or None.
        With at most one cycle (see `classify_shape`), they are the only
        edges that share both ends."""
        es = classify_shape(self).cycle_edges
        return (es[0], es[1]) if len(es) == 2 else None

    def edge_images(
        self, vperm: list[int], image: np.ndarray, piece: np.ndarray
    ) -> tuple[int, ...]:
        """Where a push with vertex map `vperm` and point map `image`, `piece`
        (see `_cell_permutation`) sends each edge: to the edge between the
        images of its ends.  An edge of the parallel pair goes to the one
        whose witness's component in `slab_roots(lo)` holds the images of
        every triangle of its own; one image is not enough, as a cell that
        straddles the pieces of a rect cycle stays put."""
        between = {frozenset((e.u, e.v)): e.id for e in self.edges}
        eperm = []
        for e in self.edges:
            d = between.get(frozenset((vperm[e.u], vperm[e.v])))
            if d is None:
                raise NotAnAutomorphism(f"vertex map does not transport edge {e.id}")
            eperm.append(d)
        pair = self.parallel_pair()
        # a vertex map that moves the pair's ends sends both edges to one
        # edge, which no automorphism does
        if pair and eperm[pair[0]] in pair:
            root = self.slab_roots(self.edges[pair[0]].lo)
            perm = _cell_permutation(self.tri, image, piece)
            for e in pair:
                mapped = root[perm[root == root[self.edges[e].witness]]]
                hits = [d for d in pair if (mapped == root[self.edges[d].witness]).all()]
                if len(hits) != 1:
                    raise NotAnAutomorphism(f"edge {e} cells do not map onto one parallel edge")
                eperm[e] = hits[0]
        return tuple(eperm)

    def slab_roots(self, lo: float) -> np.ndarray:
        """The smallest triangle of each triangle's component in the sweep's
        slab that holds value `lo`, between consecutive cut values: the
        triangles and shared grid edges whose value span meets that open
        interval.  A triangle outside the slab is its own root.  Labelled
        once per slab and kept."""
        k = int(np.searchsorted(self.cuts, lo, "right"))
        if k not in self._slabs:
            lo, hi = self.cuts[k - 1], self.cuts[k]
            a, b, p, q = _sides(self.tri, self.tri.field.values)
            live = (np.maximum(p, q) > lo) & (np.minimum(p, q) < hi)
            self._slabs[k] = _label(self.tri.ntri, a[live], b[live])
        return self._slabs[k]

    def edges_spanning(self, value: float) -> list[int]:
        return [e.id for e in self.edges if e.lo < value < e.hi]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


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
    extrema: np.ndarray  # rows (grid vertex, bottom 2g or top 2g+1 it hangs on, least triangle)


def _pieces(tri: Triangulation, rank: np.ndarray):
    """The cell pieces of `_sweep`, from one `cell_corners` pass over the grid of
    vertex ranks.  Per triangle: its rank span t_lo..t_hi, its cell's diagonal's slabs
    d_lo..d_hi, where an upper triangle takes the lower one's node (none for a lower one),
    and the slabs n_lo..n_hi of its own nodes.  The top and left grid edges become join
    segments (lower triangle, owner of the upper one's node, lo, hi), split where it changes."""
    r00, r10, r11, r01 = tri.cell_corners(rank)
    lo, hi = np.minimum(r00, r11), np.maximum(r00, r11)  # on the diagonal
    t_hi = np.empty((tri.ncy, tri.ncx, 2), dtype=np.int32)
    t_hi[..., 0], t_hi[..., 1] = np.maximum(hi, r10), np.maximum(hi, r01)
    span = np.empty((5, tri.ncy, tri.ncx, 2), dtype=np.int32)
    low, up = span[..., 0], span[..., 1]  # the rows of the lower and the upper triangles
    low[0], up[0] = np.minimum(lo, r10), np.minimum(lo, r01)
    low[1], low[2], up[1], up[2] = 1, 0, (lo + 1) >> 1, hi >> 1
    span[3], span[4] = (span[0] + 1) >> 1, t_hi >> 1
    under = up[3] < up[1]  # the upper triangle's own slabs lie below the diagonal's
    up[3], up[4] = np.where(under, up[3], up[2] + 1), np.where(under, up[1] - 1, up[4])

    lower, has = _across(tri)
    # by top or left edge, then by the diagonal's slabs or the upper triangle's own
    segs = np.empty((4, 2, 2, tri.ncy, tri.ncx), dtype=np.int32)
    segs[0], segs[1, :, 0], segs[1, :, 1] = lower[1:, None], lower[0], lower[0] + 1
    for i, (p, q) in enumerate(((r01, r11), (r00, r01))):
        np.maximum((np.minimum(p, q) + 1) >> 1, up[1:4:2], out=segs[2, i])
        np.minimum(np.maximum(p, q) >> 1, up[2:5:2], out=segs[3, i])
    segs[3] *= has[1:, None]  # an edge with no cell across it lies in no slab
    segs = segs.reshape(4, -1)
    return t_hi.reshape(-1), span.reshape(5, -1), segs.compress(segs[2] <= segs[3], axis=1)


def _sweep(tri: Triangulation, cuts: np.ndarray, points: np.ndarray) -> Iterator[_Batch]:
    """Label slab components in batches, and group their ends into level classes.

    Slab k (0 < k < K) holds the triangles whose value span meets the open
    interval (cuts[k-1], cuts[k]), joined across grid edges whose span meets
    it too.  Which slabs a triangle or grid edge lies in is read off integer
    ranks of its corner values.  One `_label` call per batch of slabs k0..k1,
    over about `ntri` nodes, roots each component at its smallest triangle: a
    batch takes only the nodes and join segments (see `_pieces`) with a slab
    in k0..k1, in ascending order of triangle, and a node shared by a cell's
    two triangles sits at the lower one's place.  The batch then settles
    levels k0-1..k1-1 (the last batch the top level too): a level's components
    are classes of slab ends, joined by the triangles crossing the level, the
    grid vertices at it and the flat triangles at it.  No saddle lies inside
    an open slab, so an end is the limit of connected level curves: it lies in
    one level component, and no slab component can attach to two.  Components
    and classes are numbered by (slab or level, smallest triangle).  Only the
    components of the last slab carry over to the next batch.

    `points` are the grid vertices of the extrema inside slabs.  Each lies in
    the component of the triangles around it, whose bottom (at a minimum) or
    top (at a maximum) is then the extremum's value.
    """
    K, ntri, ncx, w, i32 = len(cuts), tri.ntri, tri.ncx, tri.field.width, np.int32
    vals = tri.field.values.ravel()
    # 2j+1 at cut value j and 2j between cut values j-1 and j, so ranks order
    # like values; a span of ranks rlo..rhi lies in slabs (rlo+1)//2..rhi//2
    above = cuts.searchsorted(vals, "right")  # cut values at or below each value
    rank = (2 * above - (cuts[above - 1] == vals)).astype(i32)
    del above
    t_hi, (t_lo, d_lo, d_hi, n_lo, n_hi), segs = _pieces(tri, rank.reshape(-1, w))
    seg_a, seg_b, seg_lo, seg_hi = segs
    verts = (rank & 1).nonzero()[0]
    verts = verts[rank[verts].argsort(kind="stable")]  # grid vertices at cut values
    vlev = rank[verts] >> 1
    vindex = np.zeros(len(vals), dtype=i32)
    vindex[verts] = np.arange(len(verts))
    # (triangle, level, vertex index) for every triangle around a vertex at a
    # cut value, by level: every triangle that meets a level at a corner
    star = tri.star(verts)
    on = star < ntri
    att_t, att_v = star[on], on.nonzero()[0]
    att_j = vlev[att_v]
    # the end through which triangle t meets level j: the top of slab j, the
    # bottom of slab j+1, or for a flat triangle the vertex at its first corner
    att_lower = t_lo[att_t] < 2 * att_j + 1
    att_cross = att_lower | (t_hi[att_t] > 2 * att_j + 1)
    att_k = att_j + 1 - att_lower
    att_flat = vindex[(att_t >> 1) + (w - ncx) * ((att_t >> 1) // ncx)]  # at the cell's (x,y)

    # the extrema inside slabs by slab: the smallest triangle around each, and
    # whether it is a maximum, hung on its component's top
    points = points[rank[points].argsort(kind="stable")]
    pk, pt = rank[points] >> 1, tri.star(points).min(axis=1)
    y, x = np.divmod(points, w)
    maximum = vals[y * w + (x + 1) % w] < vals[points]  # all its neighbours lie on one side
    del rank, t_hi, vindex, star, on  # read by the set-up only

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
        # the triangles with own nodes in slabs k0..k1 and the join segments
        # there, in ascending order; a segment joins its nodes in all its slabs
        tris = (np.maximum(n_lo, k0) <= np.minimum(n_hi, k1)).nonzero()[0]
        a = np.maximum(n_lo[tris], k0)
        cnt = np.minimum(n_hi[tris], k1) - a + 1
        start = cnt.cumsum() - cnt
        n = int(cnt.sum())
        base[tris] = start - a
        node_t = tris.repeat(cnt)
        node_k = (a - start).repeat(cnt) + np.arange(n)
        lowest = start[2 * a - 1 <= t_lo[tris]]  # the nodes that are their triangle's lowest
        del tris, a, cnt, start
        sides = (np.maximum(seg_lo, k0) <= np.minimum(seg_hi, k1)).nonzero()[0]
        ea = np.maximum(seg_lo[sides], k0)
        ecnt = np.minimum(seg_hi[sides], k1) - ea + 1
        shift = ea - ecnt.cumsum(dtype=i32) + ecnt
        run = np.arange(int(ecnt.sum()), dtype=i32)
        joins = [(base.take(s[sides]) + shift).repeat(ecnt) + run for s in (seg_a, seg_b)]
        del sides, ea, ecnt, shift, run
        root = _label(n, *joins)
        del joins
        r = (root == np.arange(n)).nonzero()[0]
        r = r[node_k[r].argsort(kind="stable")]
        last = first + len(r)
        comp = np.full(n + 1, -1)  # the -1 stands in for nodes outside the batch
        comp[r] = np.arange(first, last)
        comp[:n] = comp.take(root)  # root holds int32 ids, which `take` reads fast

        ext = slice(*pk.searchsorted([k0, k1 + 1]).tolist())  # the extrema inside these slabs
        extrema = np.array([points[ext], 2 * comp[node(pt[ext], pk[ext])] + maximum[ext], pt[ext]])

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
        if k1 < K - 1:  # the last slab's triangles and those that share their nodes
            t1 = node_t[node_k == k1]
            t1 = np.concatenate([t1, t1[on_diag(t1 ^ 1, k1)] ^ 1])
            below[t1] = comp.take(node(t1, k1))
        carried, first, n_cls = last - int((slab == k1).sum()), last, n_cls + len(roots)
        return batch

    yield from (settle(k0, k1) for k0, k1 in bounds)


def build_reeb(f: ScalarField) -> ReebGraph:
    """Construct the Kronrod-Reeb graph of a PL-Morse field."""
    crits = classify_vertices(f)
    tri = Triangulation(f)

    crits_at: dict[int, list[CriticalPoint]] = {}  # grid vertex -> its critical points
    for c in crits:
        crits_at.setdefault(c.y * f.width + c.x, []).append(c)
    # the boundary curve as (constant value, a grid vertex on it): the disk's frame
    boundary = [] if f.kind == TORUS else [(float(f.values[0, 0]), 0)]
    if not crits and not boundary:
        raise InvalidField("field has no critical points and no boundary")
    on_boundary = {p for _, p in boundary}
    # cut at saddles, boundary curves and the extremes of the field; every
    # other extremum lies inside a slab
    vals = f.values.ravel()
    cut_set = {*(c.value for c in crits if c.kind is CritKind.SADDLE), *(v for v, _ in boundary)}
    cut_set |= {float(vals.min()), float(vals.max())}
    cuts = np.array(sorted(cut_set))
    inside = np.array([c.y * f.width + c.x for c in crits if c.value not in cut_set], dtype=int)

    # -- one sweep up the slabs: level classes become nodes and slab components
    # pre-edges, in the sweep's order.  Only classes with critical points or a
    # boundary curve are marked and survive the smoothing.
    mark_v = np.zeros(f.values.size, dtype=bool)
    mark_v[[*crits_at, *on_boundary]] = True
    parts = []
    for b in _sweep(tri, cuts, inside):
        at, cls = b.vertices[:, mark_v[b.vertices[0]]]  # marked grid vertices and their classes
        parts.append((b.levels, b.least, b.bottom, b.comp_t, *b.tops, at, cls, *b.extrema))
    level, least, u, comp_t, top_g, top_c, at, cls, ext_p, ext_e, ext_t = map(
        np.concatenate, zip(*parts)
    )
    n_cls, n_pre = len(level), len(u)
    v = np.empty(n_pre, dtype=np.int64)
    v[top_g] = top_c

    # -- hang each extremum inside a slab on its component's empty end: the
    # bottom at a minimum, the top at a maximum
    ends = np.where(ext_e & 1, v[ext_e >> 1], u[ext_e >> 1])
    hung = np.bincount(ends, minlength=n_cls)
    bad = (hung != (least == tri.ntri)).nonzero()[0]
    if len(bad):
        n = int(hung[bad[0]])
        if n > 1:
            raise ReebError(f"slab component with {n} extrema inside")
        raise ReebError(
            "extremum inside a slab without an empty component end"
            if n
            else "empty component end without an extremum"
        )
    value = cuts[level]
    value[ends], least[ends] = vals[ext_p], ext_t
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
    # witness is the smallest triangle of its lowest.  Edges with equal lo
    # start in one slab, so (lo, witness) orders them.
    hi_pre = marked[v].nonzero()[0]
    lo_pre = chain[hi_pre]
    order = np.lexsort((comp_t[lo_pre], value[u[lo_pre]]))
    lo, hi, witness = u[lo_pre[order]], v[hi_pre[order]], comp_t[lo_pre[order]]

    crits_of: dict[int, list[CriticalPoint]] = {}
    on_curve: set[int] = set()
    # marked grid vertices come in (level, y, x) order, so each class's crits do too
    for p, c in zip(np.concatenate([at, ext_p]).tolist(), np.concatenate([cls, ends]).tolist()):
        crits_of.setdefault(c, []).extend(crits_at.get(p, []))
        if p in on_boundary:
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
    return ReebGraph(vertices, edges, tri, cuts)


# ---------------------------------------------------------------------------
# shape
# ---------------------------------------------------------------------------


def _peel(g: ReebGraph) -> tuple[list[tuple[int, int]], list[int]]:
    """Peel the leaves of a connected graph layer by layer.

    Returns each peeled vertex with the edge it left by, children before
    their parents, and the vertices left: the circuit's, or a tree's one or
    two adjacent centres.
    """
    deg = [0] * g.n_vertices
    for e in g.edges:
        deg[e.u] += 1
        deg[e.v] += 1
    gone = [False] * g.n_vertices
    peeled: list[tuple[int, int]] = []
    layer = [v for v in range(g.n_vertices) if deg[v] == 1]
    # a tree stops at its one or two centres, a circuit once no leaf is left
    while layer and (g.n_edges >= g.n_vertices or g.n_vertices - len(peeled) > 2):
        nxt = []
        for v in layer:
            gone[v] = True
            for ei in g.incident_edges(v):
                e = g.edges[ei]
                w = e.v if e.u == v else e.u
                if not gone[w]:
                    peeled.append((v, ei))
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return peeled, [v for v in range(g.n_vertices) if not gone[v]]


def classify_shape(g: ReebGraph) -> ShapeReport:
    """Tree / unique-circuit report, computed once per graph and kept.  betti1
    above 1 on a torus field is an error, raised on every call.

    The circuit is walked from its smallest vertex, along that vertex's
    smallest-id circuit edge.
    """
    if g._shape is not None:
        return g._shape
    betti1 = g.n_edges - g.n_vertices + 1
    if betti1 == 0:
        g._shape = ShapeReport(0, "tree")
        return g._shape
    if betti1 > 1:
        if g.tri is not None and g.tri.field.kind == TORUS:
            raise ShapeViolation(f"torus Reeb graph with betti1 = {betti1}")
        raise ReebError(f"graph with betti1 = {betti1} has no unique circuit")
    peeled, left = g.peel()
    used = {ei for _, ei in peeled}
    vs, es = [], []
    v = left[0]
    while not vs or v != vs[0]:
        ei = next((ei for ei in g.incident_edges(v) if ei not in used), None)
        if ei is None:
            raise ReebError("failed to walk the circuit")
        used.add(ei)
        vs.append(v)
        es.append(ei)
        e = g.edges[ei]
        v = e.v if e.u == v else e.u
    g._shape = ShapeReport(1, "circuit", tuple(vs), tuple(es))
    return g._shape


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
        if (2 - extrema + saddles - len(g.incident_edges(v.id))) / 2 == 1:  # a tree has no loops
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
