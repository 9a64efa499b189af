"""Oracles for `kronrod.reeb.build_reeb`, and the random fields they run on.

`random_torus_field` draws seeded trigonometric sums on a torus grid, and
`random_disk_field` on a disk's interior inside a constant frame, made
PL-Morse by the library's tie repair.  `level_set_components` labels the
components of one level set by a flood fill over `triangle_corners`, and
`reeb_level_oracle` compares their number at random regular values with the
number of graph edges that span the value.

The per-level Kronrod-Reeb builder, `build_reeb_per_level`, is a
differential oracle.  It labels the components of every cut level and of
every slab between two cut levels separately, each over the whole grid, and
attaches every slab component to the level components its triangles touch.
It raises when a slab component touches other than one level component on
either side.  Each slab component's witness is its smallest triangle, and an
edge merged from several keeps the least of theirs: the smallest triangle
of the edge.  Edges are ordered by (lo, witness).  Node order, edge order,
witness triangles and the smoothing are then those `build_reeb` promises,
so the two graphs must have equal digests, a disk's witnesses read as the
library's ids of its cells (see `triangle_corners`).

Components come from a plain union-find, which shares no code with the
library's labeller, and shared grid edges from the triangles' corners, as
in `_region_euler`.  The corners come from `triangle_corners`, which shares
no code with the library's triangulation.  `_region_euler` reads the
topology of a set of triangles, for the special-vertex oracle in the tests.
"""

from __future__ import annotations

from collections import deque, namedtuple
from typing import Iterable, Optional

import numpy as np

from kronrod.errors import DegenerateVertex, InvalidField, ReebError
from kronrod.fields import TORUS, CriticalPoint, ScalarField, classify_vertices, fix_ties
from kronrod.reeb import ReebEdge, ReebGraph, ReebVertex, build_reeb


def random_torus_field(seed: int, size: int = 16) -> ScalarField:
    """Seeded trigonometric sum on a torus grid, tie-repaired to PL-Morse.

    Draws are retried deterministically (seed chaining) until the sampled
    field has no degenerate vertex.
    """
    attempt = seed
    while True:
        rng = np.random.default_rng(attempt)
        xs = np.arange(size) * (2 * np.pi / size)
        ys = np.arange(size) * (2 * np.pi / size)
        X, Y = np.meshgrid(xs, ys)
        vals = np.zeros((size, size))
        for kx in (1, 2):
            for ky in (1, 2):
                amp = rng.normal() / (kx + ky)
                phx = rng.uniform(0, 2 * np.pi)
                phy = rng.uniform(0, 2 * np.pi)
                vals += amp * np.cos(kx * X + phx) * np.cos(ky * Y + phy)
        try:
            vals = fix_ties(vals, "torus")
            f = ScalarField("torus", vals)
            classify_vertices(f)
            return f
        except (DegenerateVertex, InvalidField):
            attempt += 7919  # deterministic retry chain
            continue


def random_disk_field(seed: int, size: int = 16, freq: int = 2, below: bool = False) -> ScalarField:
    """Seeded trigonometric sum, with frequencies up to `freq` on each axis,
    over a disk's interior, scaled into [1, 2] inside a frame at 0, negated
    when `below` (the collar then lies below the frame), and tie-repaired to
    PL-Morse.  Draws are retried as in `random_torus_field`."""
    attempt, n = seed, size - 2
    xs = np.arange(n) * (2 * np.pi / n)
    X, Y = np.meshgrid(xs, xs)
    while True:
        rng = np.random.default_rng([attempt, size, freq])
        inner = np.zeros((n, n))
        for kx in range(freq + 1):
            for ky in range(freq + 1):
                if kx or ky:
                    amp = rng.normal() / (1 + kx + ky)
                    inner += amp * np.cos(kx * X + ky * Y + rng.uniform(0, 2 * np.pi))
        vals = np.pad(1 + (inner - inner.min()) / np.ptp(inner), 1)
        try:
            vals = fix_ties(-vals if below else vals, "disk")
            f = ScalarField("disk", vals)
            classify_vertices(f)
            return f
        except (DegenerateVertex, InvalidField):
            attempt += 7919
            continue


def triangle_corners(f: ScalarField) -> list[tuple[int, int, int]]:
    """Grid corners (y*width + x) of every triangle, by triangle id.

    2*(cy*ncx + cx) is the lower triangle of cell (cx, cy), with corners
    (x,y), (x+1,y), (x+1,y+1), and the next id is the upper one, with corners
    (x,y), (x+1,y+1), (x,y+1).  A torus has a cell at every grid vertex, and
    its ids are those of `reeb.Triangulation`.  A disk's cells stop one short
    of its frame (ncx = width - 1), where the library sweeps the disk as the
    torus that glues its frame and names cell (cx, cy) cy*width + cx.  Worked
    out here, so the oracle shares no adjacency code with `build_reeb`.
    """
    w, h = f.width, f.height
    ncx = w if f.wraps else w - 1
    ncy = h if f.wraps else h - 1

    def corner(x: int, y: int) -> int:
        return (y % h) * w + x % w

    out = []
    for t in range(2 * ncx * ncy):
        cy, cx = divmod(t // 2, ncx)
        third = corner(cx, cy + 1) if t % 2 else corner(cx + 1, cy)
        out.append((corner(cx, cy), corner(cx + 1, cy + 1), third))
    return out


def level_set_components(f: ScalarField, value: float) -> list[list[int]]:
    """Connected components of a level set as sorted triangle lists (flood fill).

    A triangle meets the level when its corner values span it, and two such
    triangles are joined when they share two grid corners whose values span
    it too.  The components come in the order of their smallest triangles.
    """
    flat = f.values.ravel().tolist()

    def spans(*pts: int) -> bool:
        return min(flat[p] for p in pts) <= value <= max(flat[p] for p in pts)

    nbrs: dict[int, list[int]] = {}
    sharing: dict[tuple[int, int], list[int]] = {}
    for t, pts in enumerate(triangle_corners(f)):
        if not spans(*pts):
            continue
        nbrs[t] = []
        for i in range(3):
            p, q = sorted((pts[i], pts[i - 1]))
            if spans(p, q):
                for u in sharing.setdefault((p, q), []):
                    nbrs[u].append(t)
                    nbrs[t].append(u)
                sharing[(p, q)].append(t)
    seen: set[int] = set()
    comps = []
    for start in nbrs:
        if start in seen:
            continue
        seen.add(start)
        queue, comp = deque([start]), []
        while queue:
            t = queue.popleft()
            comp.append(t)
            for u in nbrs[t]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        comps.append(sorted(comp))
    return comps


def reeb_level_oracle(f: ScalarField, seed: int, samples: int = 20) -> list[tuple[float, int, int]]:
    """Compare, at random regular values, the number of graph edges spanning
    the value with the flood-fill count of level-set components."""
    g = build_reeb(f)
    crit_values = sorted({c.value for c in classify_vertices(f)})
    lo, hi = crit_values[0], crit_values[-1]
    rng = np.random.default_rng(seed)
    rows = []
    found = 0
    while found < samples:
        t = float(rng.uniform(lo, hi))
        if any(t == c for c in crit_values):
            continue
        edges = sum(e.lo < t < e.hi for e in g.edges)
        flood = len(level_set_components(f, t))
        rows.append((t, edges, flood))
        found += 1
    return rows


# value spans of the triangles, and the two triangles on each shared grid edge
# with the edge's value span
Spans = namedtuple("Spans", "tri_min tri_max adj_a adj_b edge_min edge_max")


_CORNERS: dict[tuple, np.ndarray] = {}


def corner_table(f: ScalarField) -> np.ndarray:
    """`triangle_corners(f)` as a read-only (ntri, 3) int64 array,
    built once per grid kind and shape, the only things it depends on."""
    key = (f.kind, f.values.shape)
    if key not in _CORNERS:
        _CORNERS[key] = np.array(triangle_corners(f), dtype=np.int64)
        _CORNERS[key].setflags(write=False)
    return _CORNERS[key]


def spans(f: ScalarField) -> Spans:
    """The value spans of the triangles and shared grid edges of `f`.

    A grid edge is shared when two triangles have its sorted corner pair
    among their sides.
    """
    vals = f.values.ravel()
    corners = corner_table(f)
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


def _boundary_curves(f: ScalarField) -> list[tuple[float, int]]:
    """Boundary curves as (constant value, one triangle touching the curve)."""
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
    sp = spans(f)
    ncx = f.width if f.wraps else f.width - 1

    crits_at: dict[float, list[CriticalPoint]] = {}
    for c in crits:
        crits_at.setdefault(c.value, []).append(c)
    boundary = _boundary_curves(f)
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
            level[comp_of[2 * (c.y * ncx + c.x)]]["crits"].append(c)
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
    return ReebGraph(vertices, edges, f)


def _region_euler(f: ScalarField, tris: Iterable[int]) -> tuple[int, int]:
    """(Euler characteristic of the closed region of triangles `tris` of
    `f`'s grid, number of its boundary curves)."""
    corners = corner_table(f)[np.fromiter(tris, dtype=np.int64)]
    nv = f.width * f.height
    sides = np.sort(corners[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=1)
    keys, uses = np.unique(sides[:, 0] * nv + sides[:, 1], return_counts=True)
    chi = len(np.unique(corners)) - len(keys) + len(corners)
    # boundary sides bound exactly one region triangle; curves are their components
    ends, nodes = np.unique(np.divmod(keys[uses == 1], nv), return_inverse=True)
    root = union_find_roots(len(ends), zip(*nodes.reshape(2, -1).tolist()))
    return int(chi), len(set(root))
