"""Kronrod-Reeb graphs of PL fields.

The graph of a field has one vertex per connected component of a cut-level
set that carries a critical point (or a boundary curve), and one edge per
family of regular level components between consecutive cut values.  Both
kinds of component are found by union-find sweeps over the triangles of the
grid: a triangle meets level c when its value span contains c, and two
triangles meeting c are joined when their shared grid edge also meets c.
Regular components at cut levels have one neighbor above and one below and
are smoothed into single edges.

Each graph element keeps the triangles of the component union-find found
for it.  `ReebVertex.cells` are the triangles that meet a vertex's level
component: a closed neighbourhood of the component, whose genus identifies
the special vertex of a tree.  `ReebEdge.cells` are the triangles of the
edge's lowest slab component, as a sorted array.  Both depend only on values
and component structure, so an exact field symmetry permutes them; symmetry
pushes read edge cells to tell apart parallel edges with equal intervals.
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

    def corners_of(self, t: int) -> list[tuple[int, int]]:
        cell, which = divmod(t, 2)
        cy, cx = divmod(cell, self.ncx)
        w, h = self.field.width, self.field.height
        x1 = (cx + 1) % w
        y1 = (cy + 1) % h
        if which == 0:
            return [(cx, cy), (x1, cy), (x1, y1)]
        return [(cx, cy), (x1, y1), (cx, y1)]

    def tris_at_vertex(self, x: int, y: int) -> list[int]:
        """All triangles having (x, y) as a corner."""
        f = self.field
        w, h = f.width, f.height
        out = []
        for cdx, cdy, which in (
            (0, 0, 0),
            (0, 0, 1),
            (-1, 0, 0),
            (0, -1, 1),
            (-1, -1, 0),
            (-1, -1, 1),
            (-1, 0, 1),
            (0, -1, 0),
        ):
            cx, cy = x + cdx, y + cdy
            if f.wraps_x:
                cx %= w
            elif not (0 <= cx < self.ncx):
                continue
            if f.wraps_y:
                cy %= h
            elif not (0 <= cy < self.ncy):
                continue
            t = 2 * (cy * self.ncx + cx) + which
            if (x % w, y % h) in [(a % w, b % h) for a, b in self.corners_of(t)]:
                out.append(t)
        return sorted(set(out))


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, items: np.ndarray):
        self.parent = {int(i): int(i) for i in items}

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


# ---------------------------------------------------------------------------
# graph types
# ---------------------------------------------------------------------------


@dataclass
class ReebVertex:
    id: int
    value: float
    crits: list[CriticalPoint]
    cells: frozenset[int]  # triangles meeting the level component
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

    def degree(self, vid: int) -> int:
        # counts edge-ends, so a loop would contribute two
        return sum(2 if e.u == e.v else 1 for e in (self.edges[i] for i in self.incident_edges(vid)))

    def edges_spanning(self, value: float) -> list[int]:
        return [e.id for e in self.edges if e.lo < value < e.hi]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _components(
    tri: Triangulation, sel_mask: np.ndarray, pair_mask: np.ndarray
) -> tuple[dict[int, int], list[list[int]]]:
    """Union-find pass.  Returns (triangle -> component index, members)."""
    sel = np.nonzero(sel_mask)[0]
    uf = _UnionFind(sel)
    a = tri.adj_a[pair_mask]
    b = tri.adj_b[pair_mask]
    for x, y in zip(a.tolist(), b.tolist()):
        uf.union(x, y)
    comp_of: dict[int, int] = {}
    members: list[list[int]] = []
    roots: dict[int, int] = {}
    for t in sel.tolist():
        r = uf.find(t)
        idx = roots.get(r)
        if idx is None:
            idx = len(members)
            roots[r] = idx
            members.append([])
        comp_of[t] = idx
        members[idx].append(t)
    return comp_of, members


def _boundary_curves(f: ScalarField) -> list[tuple[float, list[tuple[int, int]]]]:
    """Boundary curves as (constant value, vertex list)."""
    if f.kind == TORUS:
        return []
    if f.kind == DISK:
        w, h = f.width, f.height
        ring = (
            [(x, 0) for x in range(w)]
            + [(x, h - 1) for x in range(w)]
            + [(0, y) for y in range(1, h - 1)]
            + [(w - 1, y) for y in range(1, h - 1)]
        )
        return [(float(f.values[0, 0]), ring)]
    w, h = f.width, f.height
    return [
        (float(f.values[0, 0]), [(x, 0) for x in range(w)]),
        (float(f.values[h - 1, 0]), [(x, h - 1) for x in range(w)]),
    ]


def build_reeb(f: ScalarField) -> ReebGraph:
    """Construct the Kronrod-Reeb graph of a PL-Morse field."""
    crits = classify_vertices(f)
    tri = Triangulation(f)

    crit_values = sorted({c.value for c in crits})
    boundary = _boundary_curves(f)
    cut_values = sorted({*crit_values, *(v for v, _ in boundary)})
    if not cut_values:
        raise InvalidField("field has no critical points and no boundary")

    # -- components of each cut level ------------------------------------
    level_comp_of: list[dict[int, int]] = []
    level_members: list[list[list[int]]] = []
    level_meta: list[list[dict]] = []
    for c in cut_values:
        sel = (tri.tri_min <= c) & (tri.tri_max >= c)
        pairs = (tri.edge_min <= c) & (tri.edge_max >= c)
        comp_of, members = _components(tri, sel, pairs)
        level_comp_of.append(comp_of)
        level_members.append(members)
        level_meta.append([{"crits": [], "boundary": False} for _ in members])

    for c in crits:
        li = cut_values.index(c.value)
        ts = tri.tris_at_vertex(c.x, c.y)
        comp = level_comp_of[li][ts[0]]
        # all triangles around a vertex at the cut value join one component
        for t in ts[1:]:
            if level_comp_of[li][t] != comp:
                raise ReebError("critical vertex split across level components")
        level_meta[li][comp]["crits"].append(c)

    for value, ring in boundary:
        li = cut_values.index(value)
        t0 = tri.tris_at_vertex(*ring[0])[0]
        comp = level_comp_of[li][t0]
        level_meta[li][comp]["boundary"] = True

    # -- slab components between consecutive cut values -------------------
    intervals: list[tuple[float, float]] = []
    slab_members: list[list[list[int]]] = []
    slab_attach: list[list[tuple[set[int], set[int]]]] = []
    for a, b in zip(cut_values[:-1], cut_values[1:]):
        sel_mask = (tri.tri_max > a) & (tri.tri_min < b)
        if not sel_mask.any():
            intervals.append((a, b))
            slab_members.append([])
            slab_attach.append([])
            continue
        pairs = (tri.edge_max > a) & (tri.edge_min < b)
        comp_of, members = _components(tri, sel_mask, pairs)
        li_a = cut_values.index(a)
        li_b = cut_values.index(b)
        attach: list[tuple[set[int], set[int]]] = [(set(), set()) for _ in members]
        for t, comp in comp_of.items():
            if tri.tri_min[t] <= a:
                attach[comp][0].add(level_comp_of[li_a][t])
            if tri.tri_max[t] >= b:
                attach[comp][1].add(level_comp_of[li_b][t])
        intervals.append((a, b))
        slab_members.append(members)
        slab_attach.append(attach)

    # -- assemble nodes and provisional edges ------------------------------
    node_id: dict[tuple[int, int], int] = {}
    nodes: list[dict] = []
    for li, members in enumerate(level_members):
        for ci in range(len(members)):
            node_id[(li, ci)] = len(nodes)
            meta = level_meta[li][ci]
            nodes.append(
                {
                    "value": cut_values[li],
                    "crits": sorted(meta["crits"], key=lambda c: (c.y, c.x)),
                    "boundary": meta["boundary"],
                    "cells": level_members[li][ci],
                }
            )

    pedges: list[dict] = []
    for si, members in enumerate(slab_members):
        a, b = intervals[si]
        li_a = cut_values.index(a)
        li_b = cut_values.index(b)
        for ci in range(len(members)):
            lo_set, hi_set = slab_attach[si][ci]
            if len(lo_set) != 1 or len(hi_set) != 1:
                raise ReebError(
                    f"slab component over ({a}, {b}) attaches to "
                    f"{len(lo_set)} lower / {len(hi_set)} upper level components"
                )
            pedges.append(
                {
                    "u": node_id[(li_a, next(iter(lo_set)))],
                    "v": node_id[(li_b, next(iter(hi_set)))],
                    "lo": a,
                    "hi": b,
                    "cells": np.asarray(members[ci], dtype=np.int64),
                    "alive": True,
                }
            )

    # -- smooth regular degree-2 pass-through nodes ------------------------
    incident: list[list[int]] = [[] for _ in nodes]
    for ei, e in enumerate(pedges):
        incident[e["u"]].append(ei)
        incident[e["v"]].append(ei)

    node_alive = [True] * len(nodes)
    changed = True
    while changed:
        changed = False
        for ni, node in enumerate(nodes):
            if not node_alive[ni] or node["crits"] or node["boundary"]:
                continue
            live = [ei for ei in incident[ni] if pedges[ei]["alive"]]
            if len(live) != 2:
                raise ReebError(
                    f"regular level component with degree {len(live)} (expected 2)"
                )
            e1, e2 = (pedges[live[0]], pedges[live[1]])
            # orient: e1 below the node, e2 above
            if e1["hi"] != node["value"]:
                e1, e2 = e2, e1
            if e1["hi"] != node["value"] or e2["lo"] != node["value"]:
                raise ReebError("regular component with both edges on one side")
            other_u = e1["u"]
            other_v = e2["v"]
            merged = {
                "u": other_u,
                "v": other_v,
                "lo": e1["lo"],
                "hi": e2["hi"],
                "cells": e1["cells"],
                "alive": True,
            }
            e1["alive"] = False
            e2["alive"] = False
            node_alive[ni] = False
            ei_new = len(pedges)
            pedges.append(merged)
            incident[other_u].append(ei_new)
            incident[other_v].append(ei_new)
            changed = True

    # renumber
    vmap: dict[int, int] = {}
    vertices: list[ReebVertex] = []
    for ni, node in enumerate(nodes):
        if not node_alive[ni]:
            continue
        vid = len(vertices)
        vmap[ni] = vid
        vertices.append(
            ReebVertex(
                id=vid,
                value=node["value"],
                crits=node["crits"],
                cells=frozenset(node["cells"]),
                boundary=node["boundary"],
            )
        )
    edges: list[ReebEdge] = []
    for e in pedges:
        if e["alive"]:
            edges.append(ReebEdge(len(edges), vmap[e["u"]], vmap[e["v"]], e["lo"], e["hi"], e["cells"]))

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
    tris = list(tris)
    f = tri.field
    w, h = f.width, f.height
    verts: set[tuple[int, int]] = set()
    edge_count: dict[tuple[tuple[int, int], tuple[int, int]], int] = {}
    for t in tris:
        cs = [(x % w, y % h) for x, y in tri.corners_of(t)]
        verts.update(cs)
        for i in range(3):
            a, b = cs[i], cs[(i + 1) % 3]
            key = (a, b) if a <= b else (b, a)
            edge_count[key] = edge_count.get(key, 0) + 1
    V = len(verts)
    E = len(edge_count)
    F = len(tris)
    chi = V - E + F
    # boundary edges bound exactly one region triangle
    bedges = [k for k, n in edge_count.items() if n == 1]
    if not bedges:
        return chi, 0
    adj: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for a, b in bedges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen: set[tuple[int, int]] = set()
    curves = 0
    for start in adj:
        if start in seen:
            continue
        curves += 1
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for nb in adj[v]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    return chi, curves


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
# level-set components
# ---------------------------------------------------------------------------


def level_set_components(f: ScalarField, value: float, tri: Optional[Triangulation] = None):
    """Connected components of a level set as triangle lists (flood fill)."""
    if tri is None:
        tri = Triangulation(f)
    sel = (tri.tri_min <= value) & (tri.tri_max >= value)
    pairs = (tri.edge_min <= value) & (tri.edge_max >= value)
    _, members = _components(tri, sel, pairs)
    return members


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
            cells=frozenset(),
            boundary=v["boundary"],
        )
        for v in doc["vertices"]
    ]
    edges = [ReebEdge(e["id"], e["u"], e["v"], e["lo"], e["hi"]) for e in doc["edges"]]
    return ReebGraph(vertices, edges)
