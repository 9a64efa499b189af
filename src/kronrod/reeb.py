"""Kronrod-Reeb graphs of PL fields.

The graph of a field has one vertex per connected component of a cut-level
set that carries a critical point (or a boundary curve), and one edge per
family of regular level components between consecutive cut values.  Only
the slabs between consecutive cut values are labelled, on arrays of
(triangle, slab) nodes; `_label` roots every component at its smallest node
by hooking roots and jumping pointers.  The components of a cut level are
classes of slab ends (see `_sweep`).  Regular ones have one edge above and
one below and are smoothed away on arrays: one more `_label` call joins the
slab components through them into chains, and each chain becomes one edge.

Each graph element keeps sorted triangles.  `ReebVertex.cells` are the
triangles that meet a vertex's level component, a closed neighbourhood whose
genus identifies the special vertex of a tree.  `ReebEdge.cells` are the
triangles of the edge's lowest slab component.  Both depend only on values
and components, so an exact field symmetry permutes them; symmetry pushes
read edge cells to tell apart parallel edges with equal intervals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from kronrod.errors import (
    InvalidField,
    MultipleSpecialVertices,
    NoSpecialVertex,
    NotATree,
    ReebError,
    ShapeViolation,
)
from kronrod.fields import (
    CYLINDER,
    TORUS,
    CriticalPoint,
    CritKind,
    ScalarField,
    classify_vertices,
)


# ---------------------------------------------------------------------------
# triangulation bookkeeping
# ---------------------------------------------------------------------------


class Triangulation:
    """Index arithmetic for the diagonal-split grid of a field.

    Triangle 2*(cy*ncx + cx) is the lower triangle of cell (cx, cy) with
    corners (x,y), (x+1,y), (x+1,y+1); triangle 2*(...)+1 is the upper one
    with corners (x,y), (x+1,y+1), (x,y+1).  Graphs keep it for the corners;
    `_sides` works out the adjacency when a build needs it.
    """

    def __init__(self, f: ScalarField):
        self.field = f
        w, h = f.width, f.height
        self.ncx = w if f.wraps_x else w - 1
        self.ncy = h if f.wraps_y else h - 1
        self.ntri = 2 * self.ncx * self.ncy

        cy, cx = np.divmod(np.arange(self.ncx * self.ncy, dtype=np.int32), self.ncx)
        v00, v01 = cy * w + cx, (cy + 1) % h * w + cx
        v10, v11 = v00 - cx + (cx + 1) % w, v01 - cx + (cx + 1) % w
        # grid vertices y*w + x at the corners of every triangle
        self.corners = np.empty((self.ntri, 3), dtype=np.int32)
        self.corners[0::2] = np.stack([v00, v10, v11], axis=1)
        self.corners[1::2] = np.stack([v00, v11, v01], axis=1)


def _sides(tri: Triangulation) -> tuple[np.ndarray, ...]:
    """The shared grid edges of a triangulation, worked out from its corners:
    arrays of the two triangles on each edge and of its two grid vertices.

    They are each cell's diagonal, its bottom edge (with the upper triangle of
    the cell below) and its left edge (with the lower triangle of the cell to
    the left).
    """
    f, ncx, ncy = tri.field, tri.ncx, tri.ncy
    x0, y0 = int(not f.wraps_x), int(not f.wraps_y)  # first column and row with such edges
    lower = 2 * np.arange(ncx * ncy, dtype=np.int32).reshape(ncy, ncx)
    below, left = np.roll(lower, 1, axis=0) + 1, np.roll(lower, 1, axis=1)
    v00, v10, v11, _, _, v01 = tri.corners.reshape(ncy, ncx, 6).transpose(2, 0, 1)
    sides = ((lower, lower, lower + 1), (lower + 1, below, left), (v00, v00, v00), (v11, v10, v01))
    return tuple(
        np.concatenate([diag.ravel(), bot[y0:].ravel(), lft[:, x0:].ravel()])
        for diag, bot, lft in sides
    )


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
    # sorted triangles meeting the level component
    cells: np.ndarray = field(compare=False)
    boundary: bool = False


@dataclass
class ReebEdge:
    id: int
    u: int
    v: int
    lo: float
    hi: float
    # sorted triangles of the lowest slab component
    cells: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64), compare=False)


@dataclass
class ShapeReport:
    betti1: int
    shape: str  # "tree" | "circuit"
    cycle_vertices: list[int] = field(default_factory=list)
    cycle_edges: list[int] = field(default_factory=list)
    special_vertex: Optional[int] = None


class ReebGraph:
    """Kronrod-Reeb graph with its triangulation."""

    def __init__(
        self,
        vertices: list[ReebVertex],
        edges: list[ReebEdge],
        tri: Optional[Triangulation] = None,
    ):
        self.vertices = vertices
        self.edges = edges
        self.tri = tri
        self._incidence: Optional[list[list[int]]] = None

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

    def edges_spanning(self, value: float) -> list[int]:
        return [e.id for e in self.edges if e.lo < value < e.hi]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


class _Batch(NamedTuple):
    """What one batch of `_sweep` settles.  Components and classes are
    numbered on from the last batch's, in the order `_sweep` gives them."""

    node_t: np.ndarray  # triangle of each (triangle, slab) node, triangle-major
    comp: np.ndarray  # component of each node
    comp_slab: np.ndarray  # slab of each new component
    bottom: np.ndarray  # class of each new component's bottom end
    tops: tuple[np.ndarray, np.ndarray]  # (component, class) of the top ends settled here
    levels: np.ndarray  # level of each new class
    inc: np.ndarray  # rows (triangle, class) for each triangle meeting a settled level
    vertices: np.ndarray  # rows (grid vertex, class) for each vertex at a settled level


def _sweep(tri: Triangulation, cuts: np.ndarray) -> Iterator[_Batch]:
    """Label slab components in batches, and group their ends into level classes.

    Slab k (0 < k < K) holds the triangles whose value span meets the open
    interval (cuts[k-1], cuts[k]), joined across grid edges whose span meets
    it too.  Which slabs a triangle or grid edge lies in is read off integer
    ranks of its corner values.  One `_label` call per batch of slabs k0..k1,
    over about `ntri` nodes, roots each component at its smallest triangle: a
    batch takes only the triangles and grid edges with a slab in k0..k1, in
    ascending order, so its nodes are triangle-major.  The batch then settles
    levels k0-1..k1-1 (the last batch the top level too): a level's components
    are classes of slab ends, joined by the triangles crossing the level, the
    grid vertices at it and the flat triangles at it.  No critical value lies
    inside an open slab, so an end is the limit of connected level curves: it
    lies in one level component, and no slab component can attach to two.
    Components and classes are numbered by (slab or level, smallest triangle).
    Only the components of the last slab carry over to the next batch.
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
    s_lo, s_hi = (t_lo + 1) >> 1, t_hi >> 1  # triangle in slabs s_lo..s_hi
    adj_a, adj_b, p, q = _sides(tri)
    p, q = rank[p], rank[q]
    e_lo, e_hi = (np.minimum(p, q) + 1) >> 1, np.maximum(p, q) >> 1  # grid edge in e_lo..e_hi
    del c0, c1, c2, p, q
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
    del c, corners
    att_t = np.concatenate([star_t, top_t])
    att_j = np.concatenate([vlevel[star_p], s_hi[top_t]])
    att_v = np.concatenate([vindex[star_p], np.full(len(top_t), -1, dtype=i32)])
    o = np.argsort(att_j, kind="stable")
    att_t, att_j, att_v = att_t[o], att_j[o], att_v[o]

    # batches of about ntri (triangle, slab) incidences; slab k holds size[k]
    size = np.cumsum(np.bincount(s_lo, minlength=K + 1) - np.bincount(s_hi + 1, minlength=K + 1))
    per = max(size[1:K].sum(), 1) / max(round(size[1:K].sum() / ntri), 1)
    ends = (np.flatnonzero(np.diff(np.cumsum(size[1:K]) // per, prepend=0)[:-1]) + 1).tolist()
    bounds = list(zip([1, *(k + 1 for k in ends)], [*ends, K - 1]))

    below = np.full(ntri, -1, dtype=i32)  # component of each triangle in the slab under the batch
    base = np.zeros(ntri, dtype=i32)  # node base[t] + k is (t, k) for the batch's triangles
    carried = first = n_cls = 0  # components carried..first-1 lie in that slab

    def settle(k0: int, k1: int) -> _Batch:
        nonlocal carried, first, n_cls
        # the triangles and grid edges in slabs k0..k1, in ascending order; a
        # grid edge joins the nodes of its two triangles in every slab it lies in
        tris = np.flatnonzero(np.maximum(s_lo, k0) <= np.minimum(s_hi, k1)).astype(i32)
        a = np.maximum(s_lo[tris], k0)
        cnt = np.minimum(s_hi[tris], k1) - a + 1
        start = np.cumsum(cnt, dtype=i32) - cnt
        n = int(cnt.sum())
        base[tris] = start - a
        node_t = np.repeat(tris, cnt)
        node_k = np.repeat(a - start, cnt) + np.arange(n, dtype=i32)
        sides = np.flatnonzero(np.maximum(e_lo, k0) <= np.minimum(e_hi, k1))
        ea = np.maximum(e_lo[sides], k0)
        ecnt = np.minimum(e_hi[sides], k1) - ea + 1
        shift = ea - np.cumsum(ecnt, dtype=i32) + ecnt
        run = np.arange(int(ecnt.sum()), dtype=i32)
        joins = [np.repeat(base[s[sides]] + shift, ecnt) + run for s in (adj_a, adj_b)]
        del ea, ecnt, shift, run
        root = _label(n, *joins)
        r = np.flatnonzero(root == np.arange(n, dtype=i32))
        r = r[np.argsort(node_k[r], kind="stable")]
        last = first + len(r)
        comp = np.empty(n, dtype=i32)
        comp[r] = np.arange(first, last, dtype=i32)
        comp = np.append(comp[root], -1)  # the -1 stands in for nodes outside the batch

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
        g = np.where(inside, comp[np.where(inside, base[t] + k, n)], below[t])
        end = np.where(lower | upper, 2 * (g - carried) + lower, vnode + vindex[tri.corners[t, 0]])
        # a node crosses the level under its slab unless it is its triangle's
        # lowest, and meets it if it crosses or its triangle's minimum is there
        lowest = start[a == s_lo[tris]]
        meets = np.ones(n, dtype=bool)
        meets[lowest] = False
        cross = np.flatnonzero(meets)
        meets[lowest] = t_lo[node_t[lowest]] & 1
        # a crossing node joins the bottom end of its component to the top end
        # of the one under it.  One per component does: the level curves that
        # cross triangles and pass from one to the next through grid edges
        # meet the same two components, and where such a curve ends at a grid
        # vertex, that vertex is joined to the top end under it.
        rep = np.full(last - first, -1)
        rep[comp[cross] - first] = cross  # any crossing node of each component
        rep = rep[rep >= 0]
        under = np.where(node_k[rep] > k0, comp[rep - 1], below[node_t[rep]])
        cls = _label(
            vnode + v1,
            np.concatenate([2 * (under - carried) + 1, vnode + v[v >= 0]]),
            np.concatenate([2 * (comp[rep] - carried), end[v >= 0]]),
        )
        inc_t = np.concatenate([node_t[meets], t[v < 0]])
        inc_e = np.concatenate([2 * (comp[:-1][meets] - carried), end[v < 0]])
        least = np.full(len(cls), ntri)
        np.minimum.at(least, cls[inc_e], inc_t)
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
            node_t, comp[:-1], node_k[r], cid[2 * (first - carried) : ne : 2],
            (np.arange(carried, last)[top], cid[1:ne:2][top]), level[roots],
            np.stack([inc_t, cid[inc_e]]), np.stack([verts[v0:v1], cid[ne:]]),
        )  # fmt: skip
        in_k1 = node_k == k1
        below[node_t[in_k1]] = comp[:-1][in_k1]
        carried, first, n_cls = last - int((slab == k1).sum()), last, n_cls + len(roots)
        return batch

    yield from (settle(k0, k1) for k0, k1 in bounds)


def _grouped(key: np.ndarray, t: np.ndarray, sel: np.ndarray, n: int) -> dict[int, np.ndarray]:
    """The sorted values of `t[sel]` (all below `n`) under each key."""
    o = np.flatnonzero(sel)
    key, t = key[o], t[o]
    o = np.argsort(key.astype(np.int64) * n + t)
    key, t = key[o], t[o]
    ends = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(t)]
    return {int(key[i]): t[i:j] for i, j in zip(ends, ends[1:]) if j > i}


def build_reeb(f: ScalarField) -> ReebGraph:
    """Construct the Kronrod-Reeb graph of a PL-Morse field."""
    crits = classify_vertices(f)
    tri = Triangulation(f)

    crits_at: dict[int, list[CriticalPoint]] = {}  # grid vertex -> its critical points
    for c in crits:
        crits_at.setdefault(c.y * f.width + c.x, []).append(c)
    # boundary curves as (constant value, a grid vertex on the curve): the
    # bottom row, on the disk's frame too, and the cylinder's top row
    boundary = [] if f.kind == TORUS else [(float(f.values[0, 0]), 0)]
    if f.kind == CYLINDER:
        boundary.append((float(f.values[-1, 0]), (f.height - 1) * f.width))
    cut_values = sorted({*(c.value for c in crits), *(v for v, _ in boundary)})
    if not cut_values:
        raise InvalidField("field has no critical points and no boundary")
    on_boundary = {p for _, p in boundary}

    # -- one sweep up the slabs: level classes become nodes and slab components
    # pre-edges, in the sweep's order.  Only classes with critical points or a
    # boundary curve are marked and survive the smoothing, and only pre-edges
    # that start at one keep cells.
    mark_v = np.zeros(f.values.size, dtype=bool)
    mark_v[[*crits_at, *on_boundary]] = True
    parts = []
    vcells: dict[int, np.ndarray] = {}
    ecells: dict[int, np.ndarray] = {}
    n_cls = n_pre = 0
    for b in _sweep(tri, np.array(cut_values)):
        at, cls = b.vertices[:, mark_v[b.vertices[0]]]  # marked grid vertices and their classes
        m = np.zeros(len(b.levels), dtype=bool)
        m[cls - n_cls] = True
        vcells.update(_grouped(b.inc[1], b.inc[0], m[b.inc[1] - n_cls], tri.ntri))
        ecells.update(_grouped(b.comp, b.node_t, m[b.bottom - n_cls][b.comp - n_pre], tri.ntri))
        parts.append((b.levels, m, b.bottom, b.comp_slab, *b.tops, at, cls))
        n_cls, n_pre = n_cls + len(m), n_pre + len(b.bottom)
    level, marked, u, slab, top_g, top_c, at, cls = (np.concatenate(x) for x in zip(*parts))
    v = np.empty(n_pre, dtype=np.int64)
    v[top_g] = top_c

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
    # edges: pre-edges between marked classes in sweep order, then one per
    # chain in the order of its topmost regular class, from its lowest to its
    # highest pre-edge
    highest = np.flatnonzero(~marked[u] & marked[v])
    highest = highest[np.argsort(u[highest])]
    direct = np.flatnonzero(marked[u] & marked[v])
    lo_pre, hi_pre = np.concatenate([direct, chain[highest]]), np.concatenate([direct, highest])

    crits_of: dict[int, list[CriticalPoint]] = {}
    on_curve: set[int] = set()
    # marked grid vertices come in (level, y, x) order, so each class's crits do too
    for p, c in zip(at.tolist(), cls.tolist()):
        crits_of.setdefault(c, []).extend(crits_at.get(p, []))
        if p in on_boundary:
            on_curve.add(c)
    kept = np.flatnonzero(marked)
    vid = (np.cumsum(marked) - 1).tolist()
    vertices = [
        ReebVertex(i, cut_values[j], crits_of.get(c, []), vcells[c], c in on_curve)
        for i, (c, j) in enumerate(zip(kept.tolist(), level[kept].tolist()))
    ]
    edges = [
        ReebEdge(i, vid[u[g]], vid[v[h]], cut_values[slab[g] - 1], cut_values[slab[h]], ecells[g])
        for i, (g, h) in enumerate(zip(lo_pre.tolist(), hi_pre.tolist()))
    ]

    if not vertices:
        raise ReebError("empty Reeb graph")

    graph = ReebGraph(vertices, edges, tri)
    _check_connected(graph)
    return graph


def _check_connected(g: ReebGraph) -> None:
    if not g.vertices:
        raise ReebError("graph has no vertices")
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for ei in g.incident_edges(v):
            e = g.edges[ei]
            for nb in (e.u, e.v):
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    if len(seen) != len(g.vertices):
        raise ReebError("Reeb graph is disconnected")


# ---------------------------------------------------------------------------
# shape
# ---------------------------------------------------------------------------


def classify_shape(g: ReebGraph) -> ShapeReport:
    """Tree / unique-circuit report.  betti1 above 1 on a torus field is an error."""
    betti1 = g.n_edges - g.n_vertices + 1
    if betti1 == 0:
        return ShapeReport(betti1=0, shape="tree")
    on_torus = g.tri is not None and g.tri.field.kind == TORUS
    if betti1 > 1:
        if on_torus:
            raise ShapeViolation(f"torus Reeb graph with betti1 = {betti1}")
        raise ReebError(f"graph with betti1 = {betti1} has no unique circuit")
    # peel leaves to expose the unique cycle
    alive_e = [True] * g.n_edges
    deg = [0] * g.n_vertices
    for e in g.edges:
        if e.u == e.v:
            deg[e.u] += 2
        else:
            deg[e.u] += 1
            deg[e.v] += 1
    queue = [v for v in range(g.n_vertices) if deg[v] == 1]
    alive_v = [True] * g.n_vertices
    while queue:
        v = queue.pop()
        alive_v[v] = False
        for ei in g.incident_edges(v):
            if not alive_e[ei]:
                continue
            e = g.edges[ei]
            alive_e[ei] = False
            other = e.v if e.u == v else e.u
            deg[other] -= 1
            deg[v] -= 1
            if deg[other] == 1:
                queue.append(other)
    cyc_v = [v for v in range(g.n_vertices) if alive_v[v] and deg[v] > 0]
    cyc_e = [ei for ei in range(g.n_edges) if alive_e[ei]]
    # order the cycle by walking it
    ordered_v: list[int] = []
    ordered_e: list[int] = []
    if cyc_e:
        start = cyc_v[0]
        v = start
        prev_e = -1
        while True:
            ordered_v.append(v)
            nxt = None
            for ei in g.incident_edges(v):
                if ei in ordered_e or not alive_e[ei] or ei == prev_e:
                    continue
                nxt = ei
                break
            if nxt is None:
                raise ReebError("failed to walk the circuit")
            ordered_e.append(nxt)
            e = g.edges[nxt]
            v = e.v if e.u == v else e.u
            prev_e = nxt
            if v == start:
                break
    return ShapeReport(betti1=1, shape="circuit", cycle_vertices=ordered_v, cycle_edges=ordered_e)


# ---------------------------------------------------------------------------
# special vertex (tree case on the torus)
# ---------------------------------------------------------------------------


def _region_euler(tri: Triangulation, tris: Iterable[int]) -> tuple[int, int]:
    """(Euler characteristic of the closed region, boundary curve count)."""
    corners = tri.corners[np.fromiter(tris, dtype=np.int64)].astype(np.int64)
    nv = tri.field.width * tri.field.height
    sides = np.sort(corners[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=1)
    keys, uses = np.unique(sides[:, 0] * nv + sides[:, 1], return_counts=True)
    chi = len(np.unique(corners)) - len(keys) + len(corners)
    # boundary sides bound exactly one region triangle; curves are their components
    ends, nodes = np.unique(np.divmod(keys[uses == 1], nv), return_inverse=True)
    root = _label(len(ends), *nodes.reshape(2, -1))
    return int(chi), int((root == np.arange(len(ends))).sum())


def find_special_vertex(g: ReebGraph, f: ScalarField) -> int:
    """The unique tree vertex whose complement consists of open disks.

    The complement of a level component is a union of open disks exactly when
    the component's closed neighbourhood carries the torus's genus, so the
    special vertex is the one whose `cells` region has g = (2 - chi - b)/2 = 1.
    """
    if g.tri is None:
        raise ReebError("graph carries no triangulation")
    if f.kind != TORUS:
        raise ReebError("special vertices are defined for torus fields")
    report = classify_shape(g)
    if report.shape != "tree":
        raise NotATree("special vertex search requires a tree-shaped graph")
    found: list[int] = []
    for v in g.vertices:
        # a component whose only critical points are extrema is an isolated
        # point, and the complement of a point in the torus is never a disk
        if not any(c.kind is CritKind.SADDLE for c in v.crits):
            continue
        chi, curves = _region_euler(g.tri, v.cells)
        genus = (2 - chi - curves) / 2
        if genus == 1:
            found.append(v.id)
    if not found:
        raise NoSpecialVertex("no vertex has an all-disk complement")
    if len(found) > 1:
        raise MultipleSpecialVertices(f"vertices {found} all have all-disk complements")
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


def import_json(data: bytes) -> ReebGraph:
    doc = json.loads(data.decode("utf-8"))
    vertices = [
        ReebVertex(
            id=v["id"],
            value=v["value"],
            crits=[
                CriticalPoint(c["x"], c["y"], CritKind(c["kind"]), c["value"])
                for c in v["crits"]
            ],
            cells=np.empty(0, dtype=np.int64),
            boundary=v["boundary"],
        )
        for v in doc["vertices"]
    ]
    edges = [ReebEdge(e["id"], e["u"], e["v"], e["lo"], e["hi"]) for e in doc["edges"]]
    return ReebGraph(vertices, edges)
