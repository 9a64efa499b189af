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
from dataclasses import dataclass, field
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


class Triangulation:
    """Index arithmetic for the diagonal-split grid of a field.

    Triangle 2*(cy*ncx + cx) is the lower triangle of cell (cx, cy) with
    corners (x,y), (x+1,y), (x+1,y+1); triangle 2*(...)+1 is the upper one
    with corners (x,y), (x+1,y+1), (x,y+1).  Graphs keep it for the corners;
    `_sides` works out the adjacency when a build or a slab labelling needs it.
    """

    def __init__(self, f: ScalarField):
        self.field = f
        w, h = f.width, f.height
        self.ncx = w if f.wraps else w - 1
        self.ncy = h if f.wraps else h - 1
        self.ntri = 2 * self.ncx * self.ncy

        cy, cx = np.divmod(np.arange(self.ncx * self.ncy, dtype=np.int32), self.ncx)
        v00, v01 = cy * w + cx, (cy + 1) % h * w + cx
        v10, v11 = v00 - cx + (cx + 1) % w, v01 - cx + (cx + 1) % w
        # grid vertices y*w + x at the corners of every triangle
        self.corners = np.empty((self.ntri, 3), dtype=np.int32)
        self.corners[0::2] = np.stack([v00, v10, v11], axis=1)
        self.corners[1::2] = np.stack([v00, v11, v01], axis=1)

    def first_triangles(self, points: np.ndarray) -> np.ndarray:
        """The smallest triangle around each of the interior grid vertices
        `points`: the least of the lower triangles of the cells to the lower
        left, to the left and at the vertex, and the upper one of the cell
        below.  The other two triangles around a vertex come after these."""
        w, h = self.field.width, self.field.height
        y, x = np.divmod(points, w)
        xl, yl = (x - 1) % w, (y - 1) % h
        below, row = yl * self.ncx, y * self.ncx
        first = [2 * (below + xl), 2 * (below + x) + 1, 2 * (row + xl), 2 * (row + x)]
        return np.minimum.reduce(first)


def _sides(tri: Triangulation) -> tuple[np.ndarray, ...]:
    """The shared grid edges of a triangulation, worked out from its corners:
    arrays of the lower and upper triangle on each edge and of its two vertices.

    They are each cell's diagonal (the first ncx*ncy, by cell), its bottom
    edge (with the upper triangle of the cell below) and its left edge (with
    the lower triangle of the cell to the left).
    """
    f, ncx, ncy = tri.field, tri.ncx, tri.ncy
    x0 = y0 = int(not f.wraps)  # first column and row with such edges
    lower = 2 * np.arange(ncx * ncy, dtype=np.int32).reshape(ncy, ncx)
    below, left = np.roll(lower, 1, axis=0) + 1, np.roll(lower, 1, axis=1)
    v00, v10, v11, _, _, v01 = tri.corners.reshape(ncy, ncx, 6).transpose(2, 0, 1)
    sides = ((lower, lower, left), (lower + 1, below, lower + 1), (v00, v00, v00), (v11, v10, v01))
    return tuple(
        np.concatenate([diag.ravel(), bot[y0:].ravel(), lft[:, x0:].ravel()])
        for diag, bot, lft in sides
    )


def _cell_permutation(tri: Triangulation, image: np.ndarray, piece: np.ndarray) -> np.ndarray:
    """Triangle-level map of a point map, given as each grid point's flat
    image and rigid piece (-1 where fixed): a cell whose four corners lie in
    one piece moves with them; every other cell stays put."""
    w, h = tri.field.width, tri.field.height
    cells = np.arange(tri.ncx * tri.ncy)
    cy, cx = np.divmod(cells, tri.ncx)
    x1, y1 = (cx + 1) % w, (cy + 1) % h
    p = piece[[cy * w + cx, cy * w + x1, y1 * w + x1, y1 * w + cx]]
    rigid = (p[0] >= 0) & (p == p[0]).all(axis=0)
    ty, tx = np.divmod(image[cy * w + cx], w)
    target = np.where(rigid, ty * tri.ncx + tx, cells)
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
    `root[root]` settles every node.  The result has the dtype of `a`.
    """
    root, ra, rb, first = np.arange(n, dtype=a.dtype), a, b, True
    while True:
        live = ra != rb
        if not live.all():
            a, b, ra, rb = a[live], b[live], ra[live], rb[live]
        if not len(a):
            return root
        hook = np.maximum(ra, rb)
        np.minimum.at(root, hook, np.minimum(ra, rb))
        if first:
            up = root[root]
            hook, root = np.flatnonzero(up != root), up
        while len(hook):
            rh = root[hook]
            up = root[rh]
            root[hook] = up
            hook = hook[up != rh]
        if not first:
            root = root[root]
        first = False
        ra, rb = root[a], root[b]


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


@dataclass
class ShapeReport:
    betti1: int
    shape: str  # "tree" | "circuit"
    cycle_vertices: list[int] = field(default_factory=list)
    cycle_edges: list[int] = field(default_factory=list)


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
            vals = self.tri.field.values.ravel()
            a, b, p, q = _sides(self.tri)
            p, q = vals[p], vals[q]
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


def _pieces(tri: Triangulation, rank: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray):
    """The nodes and joins of `_sweep`, from the ranks of the grid vertices and
    the rank spans t_lo..t_hi of the triangles.  The diagonal of cell c lies in
    slabs d_lo[c]..d_hi[c], where the upper triangle takes the lower one's
    node; triangle t has its own nodes in slabs n_lo[t]..n_hi[t].  The bottom
    and left grid edges become join segments, rows (lower triangle, owner of
    the upper triangle's node, lo, hi), split where that owner changes."""
    lows, ups, p, q = _sides(tri)
    p, q = rank[p], rank[q]
    e_lo, e_hi = (np.minimum(p, q) + 1) >> 1, np.maximum(p, q) >> 1  # grid edge in e_lo..e_hi
    del p, q
    m = len(t_lo) // 2
    d_lo, d_hi = e_lo[:m].copy(), e_hi[:m].copy()
    n_lo, n_hi = (t_lo + 1) >> 1, t_hi >> 1  # triangle in slabs n_lo..n_hi
    v01_below = n_lo[1::2] < d_lo  # the upper triangle's own slabs lie below the diagonal's
    n_lo[1::2] = np.where(v01_below, n_lo[1::2], d_hi + 1)
    n_hi[1::2] = np.where(v01_below, d_lo - 1, n_hi[1::2])
    ups, c = ups[m:], ups[m:] >> 1
    segs = np.empty((4, 2, len(ups)), dtype=np.int32)  # in the diagonal's slabs, then the rest
    segs[0], segs[1] = lows[m:], (ups - 1, ups)
    np.maximum(e_lo[m:], (d_lo[c], n_lo[ups]), out=segs[2])
    np.minimum(e_hi[m:], (d_hi[c], n_hi[ups]), out=segs[3])
    segs = segs.reshape(4, -1)
    return d_lo, d_hi, n_lo, n_hi, segs[:, segs[2] <= segs[3]]


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
    K, ntri, i32 = len(cuts), tri.ntri, np.int32
    vals = tri.field.values.ravel()
    # 2j+1 at cut value j and 2j between cut values j-1 and j, so ranks order
    # like values; a span of ranks rlo..rhi lies in slabs (rlo+1)//2..rhi//2
    rank = (np.searchsorted(cuts, vals) + np.searchsorted(cuts, vals, "right")).astype(i32)
    corners = np.ascontiguousarray(tri.corners.T)
    c0, c1, c2 = c = rank[corners]
    t_lo = np.minimum(np.minimum(c0, c1), c2)
    t_hi = np.maximum(np.maximum(c0, c1), c2)
    del c0, c1, c2
    vlevel = np.where(rank & 1, rank >> 1, -1)
    verts = np.flatnonzero(rank & 1)
    verts = verts[np.argsort(vlevel[verts], kind="stable")]  # grid vertices at cut values
    vlev = vlevel[verts]
    vindex = np.zeros(len(vals), dtype=i32)
    vindex[verts] = np.arange(len(verts))
    # (triangle, level, vertex index) for every triangle around a vertex at a
    # cut value, and (triangle, level, -1) for every triangle whose top corner
    # value is a cut value, by level
    star = np.flatnonzero(c & 1)
    star_t, star_p, top_t = star % ntri, corners.ravel()[star], np.flatnonzero(t_hi & 1)
    att_t = np.concatenate([star_t, top_t])
    att_j = np.concatenate([vlevel[star_p], t_hi[top_t] >> 1])
    att_v = np.concatenate([vindex[star_p], np.full(len(top_t), -1, dtype=i32)])
    o = np.argsort(att_j, kind="stable")
    att_t, att_j, att_v = att_t[o], att_j[o], att_v[o]

    # the extrema inside slabs by slab
    points = points[np.argsort(rank[points], kind="stable")]
    pk = rank[points] >> 1
    del c, corners

    d_lo, d_hi, n_lo, n_hi, (seg_a, seg_b, seg_lo, seg_hi) = _pieces(tri, rank, t_lo, t_hi)

    def on_diag(t: np.ndarray, k) -> np.ndarray:  # whether slab k meets t's cell's diagonal
        return (d_lo[t >> 1] <= k) & (k <= d_hi[t >> 1])

    def node(t: np.ndarray, k) -> np.ndarray:  # the node of triangle t in slab k of the batch
        return base[t - ((t & 1) & on_diag(t, k))] + k

    # batches of about ntri nodes; slab k holds size[k]
    size = np.cumsum(np.bincount(n_lo, minlength=K + 1) - np.bincount(n_hi + 1, minlength=K + 1))
    per = max(size[1:K].sum(), 1) / max(round(size[1:K].sum() / ntri), 1)
    ends = (np.flatnonzero(np.diff(np.cumsum(size[1:K]) // per, prepend=0)[:-1]) + 1).tolist()
    bounds = list(zip([1, *(k + 1 for k in ends)], [*ends, K - 1]))

    below = np.full(ntri, -1, dtype=i32)  # component of each triangle in the slab under the batch
    base = np.zeros(ntri, dtype=i32)  # node base[t] + k is t's own in slab k, in the batch
    carried = first = n_cls = 0  # components carried..first-1 lie in that slab

    def settle(k0: int, k1: int) -> _Batch:
        nonlocal carried, first, n_cls
        # the triangles with own nodes in slabs k0..k1 and the join segments
        # there, in ascending order; a segment joins its nodes in all its slabs
        tris = np.flatnonzero(np.maximum(n_lo, k0) <= np.minimum(n_hi, k1)).astype(i32)
        a = np.maximum(n_lo[tris], k0)
        cnt = np.minimum(n_hi[tris], k1) - a + 1
        start = np.cumsum(cnt, dtype=i32) - cnt
        n = int(cnt.sum())
        base[tris] = start - a
        node_t = np.repeat(tris, cnt)
        node_k = np.repeat(a - start, cnt) + np.arange(n, dtype=i32)
        sides = np.flatnonzero(np.maximum(seg_lo, k0) <= np.minimum(seg_hi, k1))
        ea = np.maximum(seg_lo[sides], k0)
        ecnt = np.minimum(seg_hi[sides], k1) - ea + 1
        shift = ea - np.cumsum(ecnt, dtype=i32) + ecnt
        run = np.arange(int(ecnt.sum()), dtype=i32)
        joins = [np.repeat(base[s[sides]] + shift, ecnt) + run for s in (seg_a, seg_b)]
        del ea, ecnt, shift, run
        root = _label(n, *joins)
        r = np.flatnonzero(root == np.arange(n, dtype=i32))
        r = r[np.argsort(node_k[r], kind="stable")]
        last = first + len(r)
        comp = np.empty(n, dtype=i32)
        comp[r] = np.arange(first, last, dtype=i32)
        comp = np.append(comp[root], -1)  # the -1 stands in for nodes outside the batch

        # the extrema inside these slabs: the smallest triangle around each,
        # and whether it is a maximum, hung on its component's top
        extrema = np.empty((3, 0), dtype=np.int64)
        mine = points[slice(*np.searchsorted(pk, [k0, k1 + 1]).tolist())]
        if len(mine):
            pt = tri.first_triangles(mine)
            up = vals[tri.corners[pt]].min(axis=1) < vals[mine]
            extrema = np.stack([mine, 2 * comp[node(pt, rank[mine] >> 1)] + up, pt])

        # class graph: ends 2c (bottom) and 2c+1 (top) of component carried+c,
        # then the grid vertices at the settled levels
        done = k1 + (k1 == K - 1)  # levels k0-1..done-1 settle here
        slab = np.concatenate([np.full(first - carried, k0 - 1, dtype=i32), node_k[r]])  # per comp
        v0, v1 = np.searchsorted(vlev, [k0 - 1, done]).tolist()
        ne = 2 * (last - carried)
        vnode = ne - v0  # vertex index i is class graph node vnode + i
        # the end through which triangle t meets level j: the top of slab j,
        # the bottom of slab j+1, or for a flat triangle its first corner
        p0, p1 = np.searchsorted(att_j, [k0 - 1, done])
        t, j, v = att_t[p0:p1], att_j[p0:p1], att_v[p0:p1]
        lower, upper = t_lo[t] < 2 * j + 1, t_hi[t] > 2 * j + 1
        k = np.where(lower, j, j + 1)
        inside = (k >= k0) & (lower | upper)
        g = np.where(inside, comp[np.where(inside, node(t, k), n)], below[t])
        end = np.where(lower | upper, 2 * (g - carried) + lower, vnode + vindex[tri.corners[t, 0]])
        # a node crosses the level under its slab unless it is its triangle's
        # lowest, and meets it if it crosses or its triangle's minimum is
        # there.  A shared lowest node meets it also where the upper triangle
        # does; where that one crosses, so does its left or top neighbour.
        lowest = start[2 * a - 1 <= t_lo[tris]]
        meets = np.ones(n, dtype=bool)
        meets[lowest] = False
        cross = np.flatnonzero(meets)
        lt, lk = node_t[lowest], node_k[lowest]
        meets[lowest] = t_lo[lt] & 1
        up_meets = lowest[((lt & 1) == 0) & on_diag(lt, lk) & (t_lo[lt | 1] < 2 * lk)]
        # a crossing node joins the bottom end of its component to the top end
        # of the one under it.  One per component does: the level curves that
        # cross triangles and pass from one to the next through grid edges
        # meet the same two components, and where such a curve ends at a grid
        # vertex, that vertex is joined to the top end under it.
        rep = np.full(last - first, -1)
        rep[comp[cross] - first] = cross  # any crossing node of each component
        rep = rep[rep >= 0]
        rt, rk = node_t[rep], node_k[rep]
        under = np.where(rk > k0, comp[np.where(rk > k0, node(rt, rk - 1), n)], below[rt])
        cls = _label(
            vnode + v1,
            np.concatenate([2 * (under - carried) + 1, vnode + v[v >= 0]]),
            np.concatenate([2 * (comp[rep] - carried), end[v >= 0]]),
        )
        # the smallest triangle meeting each class orders the classes of a level
        inc_t = np.concatenate([node_t[meets], t[v < 0]])
        inc_e = np.concatenate([2 * (comp[:-1][meets] - carried), end[v < 0]])
        least = np.full(len(cls), ntri)
        np.minimum.at(least, cls[inc_e], inc_t)
        np.minimum.at(least, cls[2 * (comp[up_meets] - carried)], node_t[up_meets] + 1)
        level = np.concatenate([np.stack([slab - 1, slab], axis=1).ravel(), vlevel[verts[v0:v1]]])
        settled = np.ones(len(cls), dtype=bool)
        settled[0:ne:2] = slab >= k0  # bottom ends not settled before
        settled[1:ne:2] = top = slab < done  # top ends not left to the next batch
        roots = np.flatnonzero(settled & (cls == np.arange(len(cls))))
        roots = roots[np.lexsort((least[roots], level[roots]))]
        cid = np.full(len(cls), -1)
        cid[roots] = np.arange(n_cls, n_cls + len(roots))
        cid = cid[cls]
        batch = _Batch(
            node_k[r], node_t[r], cid[2 * (first - carried) : ne : 2],
            (np.arange(carried, last)[top], cid[1:ne:2][top]), level[roots], least[roots],
            np.stack([verts[v0:v1], cid[ne:]]), extrema,
        )  # fmt: skip
        t1 = node_t[node_k == k1]  # and the upper triangles that share a node there
        t1 = np.concatenate([t1, t1[((t1 & 1) == 0) & on_diag(t1, k1)] + 1])
        below[t1] = comp[node(t1, k1)]
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
    bad = np.flatnonzero(hung != (least == tri.ntri))
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
    bad = np.flatnonzero(~marked & ((n_up != 1) | (n_down != 1)))
    if len(bad):
        degree = int(n_up[bad[0]] + n_down[bad[0]])
        if degree != 2:
            raise ReebError(f"regular level component with degree {degree} (expected 2)")
        raise ReebError("regular component with both edges on one side")
    up_of, down_of = np.empty(n_cls, dtype=np.int64), np.empty(n_cls, dtype=np.int64)
    up_of[u], down_of[v] = np.arange(n_pre), np.arange(n_pre)
    regular = np.flatnonzero(~marked)
    # each pre-edge's chain, named by its lowest pre-edge since they are ordered by slab
    chain = _label(n_pre, down_of[regular], up_of[regular])
    # one edge per chain, from its lowest to its highest pre-edge, whose
    # witness is the smallest triangle of its lowest.  Edges with equal lo
    # start in one slab, so (lo, witness) orders them.
    hi_pre = np.flatnonzero(marked[v])
    lo_pre = chain[hi_pre]
    order = np.lexsort((comp_t[lo_pre], value[u[lo_pre]]))
    lo_pre, hi_pre = lo_pre[order], hi_pre[order]

    crits_of: dict[int, list[CriticalPoint]] = {}
    on_curve: set[int] = set()
    # marked grid vertices come in (level, y, x) order, so each class's crits do too
    for p, c in zip(np.concatenate([at, ext_p]).tolist(), np.concatenate([cls, ends]).tolist()):
        crits_of.setdefault(c, []).extend(crits_at.get(p, []))
        if p in on_boundary:
            on_curve.add(c)
    # vertices by (value, smallest triangle meeting the level component)
    kept = np.flatnonzero(marked)
    kept = kept[np.lexsort((least[kept], value[kept]))]
    vid = np.empty(n_cls, dtype=np.int64)
    vid[kept] = np.arange(len(kept))
    vertices = [
        ReebVertex(i, x, crits_of.get(c, []), c in on_curve)
        for i, (c, x) in enumerate(zip(kept.tolist(), value[kept].tolist()))
    ]
    columns = vid[u[lo_pre]], vid[v[hi_pre]], value[u[lo_pre]], value[v[hi_pre]], comp_t[lo_pre]
    edges = [ReebEdge(i, *e) for i, e in enumerate(zip(*(a.tolist() for a in columns)))]

    if not vertices:
        raise ReebError("empty Reeb graph")

    graph = ReebGraph(vertices, edges, tri, cuts)
    _check_connected(graph)
    return graph


def _check_connected(g: ReebGraph) -> None:
    us = np.array([e.u for e in g.edges], dtype=np.int64)
    vs = np.array([e.v for e in g.edges], dtype=np.int64)
    if _label(g.n_vertices, us, vs).any():
        raise ReebError("Reeb graph is disconnected")


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
    """Tree / unique-circuit report.  betti1 above 1 on a torus field is an error.

    The circuit is walked from its smallest vertex, along that vertex's
    smallest-id circuit edge.
    """
    betti1 = g.n_edges - g.n_vertices + 1
    if betti1 == 0:
        return ShapeReport(betti1=0, shape="tree")
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
    return ShapeReport(betti1=1, shape="circuit", cycle_vertices=vs, cycle_edges=es)


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
