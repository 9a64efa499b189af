"""The per-level Kronrod-Reeb builder, kept as a differential oracle for
`kronrod.reeb.build_reeb`.

It labels the components of every cut level and of every slab between two
cut levels separately, each over the whole grid, and attaches every slab
component to the level components its triangles touch.  It raises when a
slab component touches other than one level component on either side.
Each slab component's witness is its smallest triangle, and an edge merged
from several keeps the least of theirs: the smallest triangle of the edge.
Edges are ordered by (lo, witness).  Node order, edge order, witness
triangles and the smoothing are then those `build_reeb` promises, so the two
graphs must have equal digests.
Components come from a plain union-find, which shares no code with the
library's labeller, and shared grid edges from the triangles' corners, as
in `_region_euler`.  The corners come from `corpus.triangle_corners`, which
shares no code with the library's triangulation.  `_region_euler` reads the
topology of a set of triangles, for the special-vertex oracle in the tests.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Optional

import numpy as np

from kronrod.corpus import triangle_corners
from kronrod.errors import InvalidField, ReebError
from kronrod.fields import TORUS, CriticalPoint, ScalarField, classify_vertices
from kronrod.reeb import ReebEdge, ReebGraph, ReebVertex, Triangulation

# value spans of the triangles, and the two triangles on each shared grid edge
# with the edge's value span
Spans = namedtuple("Spans", "tri_min tri_max adj_a adj_b edge_min edge_max")


_CORNERS: dict[tuple, np.ndarray] = {}


def corner_table(f: ScalarField) -> np.ndarray:
    """`corpus.triangle_corners(f)` as a read-only (ntri, 3) int64 array,
    built once per grid kind and shape, the only things it depends on."""
    key = (f.kind, f.values.shape)
    if key not in _CORNERS:
        _CORNERS[key] = np.array(triangle_corners(f), dtype=np.int64)
        _CORNERS[key].setflags(write=False)
    return _CORNERS[key]


def spans(tri: Triangulation) -> Spans:
    """The value spans of the triangles and shared grid edges of `tri`.

    A grid edge is shared when two triangles have its sorted corner pair
    among their sides.
    """
    vals = tri.field.values.ravel()
    corners = corner_table(tri.field)
    corner_values = vals[corners]
    sides = np.sort(corners[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=1)
    keys = sides[:, 0] * len(vals) + sides[:, 1]
    order = np.argsort(keys, kind="stable")
    shared = np.flatnonzero(keys[order[1:]] == keys[order[:-1]])
    adj_a, adj_b = order[shared] // 3, order[shared + 1] // 3
    p, q = np.divmod(keys[order[shared]], len(vals))
    return Spans(
        corner_values.min(axis=1),
        corner_values.max(axis=1),
        adj_a,
        adj_b,
        np.minimum(vals[p], vals[q]),
        np.maximum(vals[p], vals[q]),
    )


def union_find_roots(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The smallest node of the component of each of nodes 0..n-1 under `pairs`.

    A plain union-find with path halving that always links the larger root
    under the smaller one, so every root is its component's smallest node.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(n)]


def _components(
    sp: Spans, sel_mask: np.ndarray, pair_mask: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Components of the selected triangles joined by the selected pairs.

    Returns the component of every triangle (-1 where not selected) and each
    component's sorted triangles.  Components are numbered by their smallest
    triangle.
    """
    tris, ntri = np.nonzero(sel_mask)[0], len(sel_mask)
    # label the selected triangles by their rank; ranks keep the order of ids
    rank = np.empty(ntri, dtype=np.int64)
    rank[tris] = np.arange(len(tris))
    pairs = zip(rank[sp.adj_a[pair_mask]].tolist(), rank[sp.adj_b[pair_mask]].tolist())
    root = union_find_roots(len(tris), pairs)
    _, comp = np.unique(root, return_inverse=True)
    comp_of = np.full(ntri, -1, dtype=np.int64)
    comp_of[tris] = comp
    ends = np.cumsum(np.bincount(comp))
    grouped = tris[np.argsort(comp, kind="stable")]
    members = [m.copy() for m in np.split(grouped, ends[:-1])] if len(tris) else []
    return comp_of, members


def _boundary_curves(tri: Triangulation) -> list[tuple[float, int]]:
    """Boundary curves as (constant value, one triangle touching the curve)."""
    f = tri.field
    # triangle 0 touches the bottom row, which is on the disk's frame
    return [] if f.kind == TORUS else [(float(f.values[0, 0]), 0)]


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


def build_reeb_per_level(f: ScalarField) -> ReebGraph:
    """The Kronrod-Reeb graph of a PL-Morse field, one level at a time."""
    crits = classify_vertices(f)
    tri = Triangulation(f)
    sp = spans(tri)

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
            sp, (sp.tri_min <= b) & (sp.tri_max >= b), (sp.edge_min <= b) & (sp.edge_max >= b)
        )
        level = [{"value": b, "crits": [], "boundary": False} for _ in members]
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
                sp, (sp.tri_max > a) & (sp.tri_min < b), (sp.edge_max > a) & (sp.edge_min < b)
            )
            n_lo, lo = _attach(slab_of, comp_a, sp.tri_min <= a)
            n_hi, hi = _attach(slab_of, comp_of, sp.tri_max >= b)
            bad = np.nonzero((n_lo != 1) | (n_hi != 1))[0]
            if len(bad):
                raise ReebError(
                    f"slab component over ({a}, {b}) attaches to "
                    f"{n_lo[bad[0]]} lower / {n_hi[bad[0]]} upper level components"
                )
            for u, v, cells in zip(lo.tolist(), hi.tolist(), slab_members):
                pedges.append(
                    {"u": first_a + u, "v": first + v, "lo": a, "hi": b, "witness": int(cells[0])}
                )
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
        witness = min(e1["witness"], e2["witness"])
        pedges.append(dict(e1, v=e2["v"], hi=e2["hi"], witness=witness))
        merged.update(live)

    vertices = [ReebVertex(id=vid, **nodes[ni]) for ni, vid in kept.items()]
    live = [e for ei, e in enumerate(pedges) if ei not in merged]

    # -- order the edges by (lo, witness)
    live.sort(key=lambda e: (e["lo"], e["witness"]))
    edges = [ReebEdge(i, **dict(e, u=kept[e["u"]], v=kept[e["v"]])) for i, e in enumerate(live)]

    if not vertices:
        raise ReebError("empty Reeb graph")

    if len(set(union_find_roots(len(vertices), ((e.u, e.v) for e in edges)))) != 1:
        raise ReebError("Reeb graph is disconnected")
    return ReebGraph(vertices, edges, tri)


def _region_euler(tri: Triangulation, tris: Iterable[int]) -> tuple[int, int]:
    """(Euler characteristic of the closed region of triangles `tris`, number
    of its boundary curves)."""
    corners = corner_table(tri.field)[np.fromiter(tris, dtype=np.int64)]
    nv = tri.field.width * tri.field.height
    sides = np.sort(corners[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=1)
    keys, uses = np.unique(sides[:, 0] * nv + sides[:, 1], return_counts=True)
    chi = len(np.unique(corners)) - len(keys) + len(corners)
    # boundary sides bound exactly one region triangle; curves are their components
    ends, nodes = np.unique(np.divmod(keys[uses == 1], nv), return_inverse=True)
    root = union_find_roots(len(ends), zip(*nodes.reshape(2, -1).tolist()))
    return int(chi), len(set(root))
