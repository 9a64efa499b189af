"""Kronrod-Reeb graphs of PL fields.

The graph of a field has one vertex per connected component of a cut-level
set that carries a critical point (or a boundary curve), and one edge per
family of regular level components between consecutive cut values.  Only
the slabs between consecutive cut values are labelled, on arrays of
(triangle, slab) nodes; `_label` roots every component at its smallest node
by hooking roots and compressing paths.  The components of a cut level are
classes of slab ends (see `_sweep`).  Regular ones have one edge above and
one below and are smoothed away.

Each graph element keeps sorted triangles.  `ReebVertex.cells` are the
triangles that meet a vertex's level component, a closed neighbourhood whose
genus identifies the special vertex of a tree.  `ReebEdge.cells` are the
triangles of the edge's lowest slab component.  Both depend only on values
and components, so an exact field symmetry permutes them; symmetry pushes
read edge cells to tell apart parallel edges with equal intervals.
"""

from __future__ import annotations

import json
from collections import namedtuple
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
    `spans` works out value spans and adjacency when a build needs them.
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


# value spans of the triangles, and the two triangles on each shared grid edge
# with the edge's value span
Spans = namedtuple("Spans", "tri_min tri_max adj_a adj_b edge_min edge_max")


def spans(tri: Triangulation) -> Spans:
    """The spans of a triangulation, worked out from its corners on each call.

    The shared grid edges are each cell's diagonal, its bottom edge (with the
    upper triangle of the cell below) and its left edge (with the lower
    triangle of the cell to the left).
    """
    f, ncx, ncy = tri.field, tri.ncx, tri.ncy
    vals = f.values.ravel()
    corner_values = vals[np.ascontiguousarray(tri.corners.T)]
    cy, cx = np.divmod(np.arange(ncx * ncy, dtype=np.int32), ncx)
    v00, v10, v11, _, _, v01 = np.ascontiguousarray(tri.corners.reshape(-1, 6).T)
    lower = 2 * np.arange(ncx * ncy, dtype=np.int32)
    below = 2 * ((cy - 1) % ncy * ncx + cx) + 1
    left = 2 * (cy * ncx + (cx - 1) % ncx)
    bot, lft = (cy > 0) | f.wraps_y, (cx > 0) | f.wraps_x
    p = vals[np.concatenate([v00, v00[bot], v00[lft]])]
    q = vals[np.concatenate([v11, v10[bot], v01[lft]])]
    adj_a = np.concatenate([lower, lower[bot], lower[lft] + 1])
    adj_b = np.concatenate([lower + 1, below[bot], left[lft]])
    tri_min, tri_max = corner_values.min(axis=0), corner_values.max(axis=0)
    return Spans(tri_min, tri_max, adj_a, adj_b, np.minimum(p, q), np.maximum(p, q))


def _label(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each of nodes 0..n-1, the smallest node of its component under edges a-b.

    Root hooking and path compression (Shiloach & Vishkin 1982): each round
    hooks the larger root of every edge onto the smaller one, then compresses
    paths until every node points at a root.  A round that changes nothing
    ends the loop, and every other round lowers at least one root.
    """
    root, ra, rb = np.arange(n, dtype=a.dtype), a, b
    while True:
        split = ra != rb
        if not split.any():
            return root
        ra, rb = ra[split], rb[split]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if (up == root).all():
                break
            root = up
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
    it too.  One `_label` call per batch of slabs k0..k1, over about `ntri`
    nodes in triangle-major order, roots each component at its smallest
    triangle.  The batch then settles levels k0-1..k1-1 (the last batch the
    top level too): a level's components are classes of slab ends, joined by
    the triangles crossing the level, the grid vertices at it and the flat
    triangles at it.  No critical value lies inside an open slab, so an end is
    the limit of connected level curves: it lies in one level component, and
    no slab component can attach to two.  Components and classes are numbered
    by (slab or level, smallest triangle).  Only the last slab's triangle ->
    component array carries over to the next batch.
    """
    K, ntri, i32, sp = len(cuts), tri.ntri, np.int32, spans(tri)
    s_lo = np.searchsorted(cuts, sp.tri_min, "right").astype(i32)  # triangle in slabs s_lo..s_hi
    s_hi = np.searchsorted(cuts, sp.tri_max, "left").astype(i32)
    e_lo = np.searchsorted(cuts, sp.edge_min, "right").astype(i32)  # grid edge in e_lo..e_hi
    e_hi = np.searchsorted(cuts, sp.edge_max, "left").astype(i32)
    vals = tri.field.values.ravel()
    j = np.minimum(np.searchsorted(cuts, vals), K - 1)
    vlevel = np.where(cuts[j] == vals, j, -1)
    verts = np.flatnonzero(vlevel >= 0)
    verts = verts[np.argsort(vlevel[verts], kind="stable")]  # grid vertices at cut values
    vindex = np.zeros(len(vals), dtype=i32)
    vindex[verts] = np.arange(len(verts))
    # (triangle, level, vertex index) for every triangle around a vertex at a
    # cut value, and (triangle, level, -1) for every triangle whose top corner
    # value is a cut value, by level
    star_t, corner = np.nonzero(vlevel[tri.corners] >= 0)
    star_p, top_t = tri.corners[star_t, corner], np.flatnonzero(cuts[s_hi] == sp.tri_max)
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
    carried = first = n_cls = 0  # components carried..first-1 lie in that slab

    def settle(k0: int, k1: int) -> _Batch:
        nonlocal below, carried, first, n_cls
        # node start[t] + k - a[t] is (t, k); a grid edge joins the nodes of
        # its two triangles in every slab it lies in
        a = np.maximum(s_lo, k0)
        cnt = np.maximum(np.minimum(s_hi, k1) - a + 1, 0)
        start = np.cumsum(cnt, dtype=i32) - cnt
        n = int(start[-1] + cnt[-1])
        node_t = np.repeat(np.arange(ntri, dtype=i32), cnt)
        node_k = np.repeat(a - start, cnt) + np.arange(n, dtype=i32)
        ea = np.maximum(e_lo, k0)
        ecnt = np.maximum(np.minimum(e_hi, k1) - ea + 1, 0)
        shift = ea - np.cumsum(ecnt, dtype=i32) + ecnt
        run = np.arange(int(ecnt.sum()), dtype=i32)
        joins = [np.repeat(start[s] - a[s] + shift, ecnt) + run for s in (sp.adj_a, sp.adj_b)]
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
        v0, v1 = np.searchsorted(vlevel[verts], [k0 - 1, done]).tolist()
        ne = 2 * (last - carried)
        vnode = ne - v0  # vertex index i is class graph node vnode + i
        # the end through which triangle t meets level j: the top of slab j,
        # the bottom of slab j+1, or for a flat triangle its first corner
        p0, p1 = np.searchsorted(att_j, [k0 - 1, done])
        t, j, v = att_t[p0:p1], att_j[p0:p1], att_v[p0:p1]
        lower, upper = sp.tri_min[t] < cuts[j], sp.tri_max[t] > cuts[j]
        k = np.where(lower, j, j + 1)
        g = np.where(k >= k0, comp[np.where(k >= k0, start[t] + k - a[t], n)], below[t])
        end = np.where(lower | upper, 2 * (g - carried) + lower, vnode + vindex[tri.corners[t, 0]])
        # a node crosses the level under its slab unless it is its triangle's
        # lowest, and meets it if it crosses or its triangle's minimum is there
        lowest = start[(cnt > 0) & (a == s_lo)]
        meets = np.ones(n, dtype=bool)
        meets[lowest] = False
        cross = np.flatnonzero(meets)
        meets[lowest] = cuts[s_lo[node_t[lowest]] - 1] == sp.tri_min[node_t[lowest]]
        under = np.where(node_k[cross] > k0, comp[cross - 1], below[node_t[cross]])
        cls = _label(
            vnode + v1,
            np.concatenate([2 * (under - carried) + 1, vnode + v[v >= 0]]),
            np.concatenate([2 * (comp[cross] - carried), end[v >= 0]]),
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
        below = np.full(ntri, -1, dtype=i32)
        below[node_t[node_k == k1]] = comp[:-1][node_k == k1]
        carried, first, n_cls = last - int((slab == k1).sum()), last, n_cls + len(roots)
        return batch

    yield from (settle(k0, k1) for k0, k1 in bounds)


def _grouped(key: np.ndarray, t: np.ndarray, sel: np.ndarray, n: int) -> dict[int, np.ndarray]:
    """The sorted values of `t[sel]` (all below `n`) under each key."""
    o = np.flatnonzero(sel)[np.argsort(key[sel].astype(np.int64) * n + t[sel])]
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
    # edges, in the sweep's order.  Only nodes with critical points or a boundary
    # curve survive the smoothing, and only edges that start at one keep cells.
    nodes: list[dict] = []
    pedges: list[dict] = []
    for b in _sweep(tri, np.array(cut_values)):
        first = len(nodes)
        nodes += [dict(value=cut_values[j], crits=[], boundary=False) for j in b.levels.tolist()]
        # vertices come in (level, y, x) order, so each node's crits do too
        for p, c in b.vertices.T.tolist():
            nodes[c]["crits"] += crits_at.get(p, [])
            nodes[c]["boundary"] |= p in on_boundary
        marked = np.array([bool(node["crits"] or node["boundary"]) for node in nodes[first:]])
        for c, tris in _grouped(b.inc[1], b.inc[0], marked[b.inc[1] - first], tri.ntri).items():
            nodes[c]["cells"] = tris
        starts = marked[b.bottom - first][b.comp - len(pedges)]
        cells = _grouped(b.comp, b.node_t, starts, tri.ntri)
        for g, (u, k) in enumerate(zip(b.bottom.tolist(), b.comp_slab.tolist()), len(pedges)):
            pedges.append(dict(u=u, lo=cut_values[k - 1], hi=cut_values[k], cells=cells.get(g)))
        for g, v in zip(*(x.tolist() for x in b.tops)):
            pedges[g]["v"] = v

    # -- smooth regular degree-2 pass-through nodes.  Nodes are numbered by
    # cut value, so the edge below a node is final when the node is reached
    # and one pass merges every regular node.
    incident: list[list[int]] = [[] for _ in nodes]
    for ei, e in enumerate(pedges):
        incident[e["u"]].append(ei)
        incident[e["v"]].append(ei)

    kept: dict[int, int] = {}  # node -> vertex id
    merged: set[int] = set()  # edges replaced by their merge
    for ni, node in enumerate(nodes):
        if node["crits"] or node["boundary"]:
            kept[ni] = len(kept)
            continue
        live = [ei for ei in incident[ni] if ei not in merged]
        if len(live) != 2:
            raise ReebError(f"regular level component with degree {len(live)} (expected 2)")
        e1, e2 = (pedges[live[0]], pedges[live[1]])
        # orient: e1 below the node, e2 above
        if e1["hi"] != node["value"]:
            e1, e2 = e2, e1
        if e1["hi"] != node["value"] or e2["lo"] != node["value"]:
            raise ReebError("regular component with both edges on one side")
        incident[e1["u"]].append(len(pedges))
        incident[e2["v"]].append(len(pedges))
        pedges.append(dict(e1, v=e2["v"], hi=e2["hi"]))
        merged.update(live)

    vertices = [ReebVertex(id=vid, **nodes[ni]) for ni, vid in kept.items()]
    live = [e for ei, e in enumerate(pedges) if ei not in merged]
    edges = [ReebEdge(i, **dict(e, u=kept[e["u"]], v=kept[e["v"]])) for i, e in enumerate(live)]

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
