"""Kronrod-Reeb graphs of PL fields.

The graph of a field has one vertex per connected component of a cut-level
set that carries a critical point (or a boundary curve), and one edge per
family of regular level components between consecutive cut values.  Both
kinds of component are labelled on arrays indexed by the triangles of the
grid: a triangle meets level c when its value span contains c, and two
triangles meeting c are joined when their shared grid edge also meets c.
`_label` gives every triangle the smallest triangle of its component by
hooking roots and compressing paths.  Regular components at cut levels have
one neighbor above and one below and are smoothed into single edges.

Each graph element keeps the sorted triangles of its component.
`ReebVertex.cells` are the triangles that meet a vertex's level component: a
closed neighbourhood of the component, whose genus identifies the special
vertex of a tree.  `ReebEdge.cells` are the triangles of the edge's lowest
slab component.  Both depend only on values and component structure, so an
exact field symmetry permutes them; symmetry pushes read edge cells to tell
apart parallel edges with equal intervals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

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
    DISK,
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
    with corners (x,y), (x+1,y+1), (x,y+1).
    """

    def __init__(self, f: ScalarField):
        self.field = f
        w, h = f.width, f.height
        self.ncx = w if f.wraps_x else w - 1
        self.ncy = h if f.wraps_y else h - 1
        self.ntri = 2 * self.ncx * self.ncy

        cy, cx = np.divmod(np.arange(self.ncx * self.ncy), self.ncx)
        x1 = (cx + 1) % w
        y1 = (cy + 1) % h
        vals = f.values
        v00 = vals[cy, cx]
        v10 = vals[cy, x1]
        v11 = vals[y1, x1]
        v01 = vals[y1, cx]
        lower = np.stack([v00, v10, v11], axis=1)
        upper = np.stack([v00, v11, v01], axis=1)
        corners = np.empty((self.ntri, 3), dtype=np.float64)
        corners[0::2] = lower
        corners[1::2] = upper
        self.tri_min = corners.min(axis=1)
        self.tri_max = corners.max(axis=1)

        self._cx = cx
        self._cy = cy
        self.adj_a, self.adj_b, self.edge_min, self.edge_max = self._adjacency()

    def _adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        f = self.field
        w, h = f.width, f.height
        vals = f.values
        ncx, ncy = self.ncx, self.ncy
        cells = np.arange(ncx * ncy)
        cx, cy = self._cx, self._cy
        lower = 2 * cells
        upper = lower + 1

        pairs_a = []
        pairs_b = []
        emin = []
        emax = []

        # diagonal (x,y)-(x+1,y+1): lower(c) with upper(c)
        a = vals[cy, cx]
        b = vals[(cy + 1) % h, (cx + 1) % w]
        pairs_a.append(lower)
        pairs_b.append(upper)
        emin.append(np.minimum(a, b))
        emax.append(np.maximum(a, b))

        # bottom edge (x,y)-(x+1,y): lower(cx,cy) with upper(cx,cy-1)
        if f.wraps_y:
            mask = np.ones(len(cells), dtype=bool)
        else:
            mask = cy > 0
        nb = 2 * (((cy - 1) % ncy) * ncx + cx) + 1
        a = vals[cy, cx]
        b = vals[cy, (cx + 1) % w]
        pairs_a.append(lower[mask])
        pairs_b.append(nb[mask])
        emin.append(np.minimum(a, b)[mask])
        emax.append(np.maximum(a, b)[mask])

        # left edge (x,y)-(x,y+1): upper(cx,cy) with lower(cx-1,cy)
        if f.wraps_x:
            mask = np.ones(len(cells), dtype=bool)
        else:
            mask = cx > 0
        nb = 2 * (cy * ncx + (cx - 1) % ncx)
        a = vals[cy, cx]
        b = vals[(cy + 1) % h, cx]
        pairs_a.append(upper[mask])
        pairs_b.append(nb[mask])
        emin.append(np.minimum(a, b)[mask])
        emax.append(np.maximum(a, b)[mask])

        return (
            np.concatenate(pairs_a),
            np.concatenate(pairs_b),
            np.concatenate(emin),
            np.concatenate(emax),
        )


def _label(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each of nodes 0..n-1, the smallest node of its component under edges a-b.

    Root hooking and path compression (Shiloach & Vishkin 1982): each round
    hooks the larger root of every edge onto the smaller one, then compresses
    paths until every node points at a root.  A round that changes nothing
    ends the loop, and every other round lowers at least one root.
    """
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
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


def _components(
    tri: Triangulation, sel_mask: np.ndarray, pair_mask: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Components of the selected triangles joined by the selected pairs.

    Returns the component of every triangle (-1 where not selected) and each
    component's sorted triangles.  Components are numbered by their smallest
    triangle.
    """
    tris = np.nonzero(sel_mask)[0]
    # label the selected triangles by their rank; ranks keep the order of ids
    rank = np.empty(tri.ntri, dtype=np.int64)
    rank[tris] = np.arange(len(tris))
    root = _label(len(tris), rank[tri.adj_a[pair_mask]], rank[tri.adj_b[pair_mask]])
    _, comp = np.unique(root, return_inverse=True)
    comp_of = np.full(tri.ntri, -1, dtype=np.int64)
    comp_of[tris] = comp
    ends = np.cumsum(np.bincount(comp))
    grouped = tris[np.argsort(comp, kind="stable")]
    members = [m.copy() for m in np.split(grouped, ends[:-1])] if len(tris) else []
    return comp_of, members


def _boundary_curves(tri: Triangulation) -> list[tuple[float, int]]:
    """Boundary curves as (constant value, one triangle touching the curve)."""
    f = tri.field
    if f.kind == TORUS:
        return []
    # triangle 0 touches the bottom row, which is on the disk's frame too
    curves = [(float(f.values[0, 0]), 0)]
    if f.kind != DISK:
        # the upper triangle of cell (0, h-2) touches the cylinder's top row
        curves.append((float(f.values[-1, 0]), 2 * (f.height - 2) * tri.ncx + 1))
    return curves


def _attach(
    slab_of: np.ndarray, level_of: np.ndarray, touches: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each slab component, how many level components its touching
    triangles lie in, and those level components in slab order (one per slab
    component when every count is 1)."""
    t = np.nonzero((slab_of >= 0) & touches)[0]
    n = int(level_of.max()) + 1
    slab, level = np.divmod(np.unique(slab_of[t] * n + level_of[t]), n)
    return np.bincount(slab, minlength=int(slab_of.max()) + 1), level


def build_reeb(f: ScalarField) -> ReebGraph:
    """Construct the Kronrod-Reeb graph of a PL-Morse field."""
    crits = classify_vertices(f)
    tri = Triangulation(f)

    crits_at: dict[float, list[CriticalPoint]] = {}
    for c in crits:
        crits_at.setdefault(c.value, []).append(c)
    boundary = _boundary_curves(tri)
    cut_values = sorted({*crits_at, *(v for v, _ in boundary)})
    if not cut_values:
        raise InvalidField("field has no critical points and no boundary")

    # -- one pass up the cut levels: the components of each level become
    # nodes, and the slab components below it become edges that attach to
    # the level below through its triangle -> component array, then dropped
    nodes: list[dict] = []
    pedges: list[dict] = []
    below: Optional[tuple[float, np.ndarray, int]] = None  # value, comp_of, first node
    for b in cut_values:
        comp_of, members = _components(
            tri, (tri.tri_min <= b) & (tri.tri_max >= b), (tri.edge_min <= b) & (tri.edge_max >= b)
        )
        level = [{"value": b, "crits": [], "boundary": False, "cells": m} for m in members]
        for c in crits_at.get(b, ()):
            # every grid edge at a critical vertex ends at the cut value, so it
            # joins the triangles on both of its sides: they all lie in the
            # component of the lower triangle of the vertex's own cell
            level[comp_of[2 * (c.y * tri.ncx + c.x)]]["crits"].append(c)
        for value, t in boundary:
            if value == b:
                level[comp_of[t]]["boundary"] = True
        for node in level:
            node["crits"].sort(key=lambda c: (c.y, c.x))
        first = len(nodes)
        nodes.extend(level)

        if below is not None:
            a, comp_a, first_a = below
            slab_of, slab_members = _components(
                tri, (tri.tri_max > a) & (tri.tri_min < b), (tri.edge_max > a) & (tri.edge_min < b)
            )
            n_lo, lo = _attach(slab_of, comp_a, tri.tri_min <= a)
            n_hi, hi = _attach(slab_of, comp_of, tri.tri_max >= b)
            bad = np.nonzero((n_lo != 1) | (n_hi != 1))[0]
            if len(bad):
                raise ReebError(
                    f"slab component over ({a}, {b}) attaches to "
                    f"{n_lo[bad[0]]} lower / {n_hi[bad[0]]} upper level components"
                )
            for u, v, cells in zip(lo.tolist(), hi.tolist(), slab_members):
                pedges.append({"u": first_a + u, "v": first + v, "lo": a, "hi": b, "cells": cells})
        below = (b, comp_of, first)

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
    t = np.fromiter(tris, dtype=np.int64)
    w, h = tri.field.width, tri.field.height
    cy, cx = np.divmod(t // 2, tri.ncx)
    x1, y1 = (cx + 1) % w, (cy + 1) % h
    # corner vertex ids y*w + x, in the order of the Triangulation docstring
    third = np.where(t % 2 == 1, y1 * w + cx, cy * w + x1)
    corners = np.stack([cy * w + cx, third, y1 * w + x1], axis=1)
    sides = np.sort(corners[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=1)
    keys, uses = np.unique(sides[:, 0] * (w * h) + sides[:, 1], return_counts=True)
    chi = len(np.unique(corners)) - len(keys) + len(t)
    # boundary sides bound exactly one region triangle; curves are their components
    ends, nodes = np.unique(np.divmod(keys[uses == 1], w * h), return_inverse=True)
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
