"""Value-preserving automorphisms of Reeb graphs.

An automorphism is a pair of permutations (vertices, edges) preserving
incidence, vertex values, and edge value intervals exactly.  The order of
the full group is read off canonical forms (Aho, Hopcroft & Ullman): the
graph is a tree or has one circuit, so the group is built from symmetric
groups permuting equal subtrees and, on a circuit, the rotations and
reflections of the cycle that preserve its hanging trees.

Construction symmetries (grid translations and rectangle cycles) are pushed
to graph automorphisms through the critical points: every vertex is a
critical level component (or a boundary curve), so a vertex goes to the
vertex carrying the images of its critical points, and an edge goes to the
edge with the mapped endpoints and the same interval.  Edge triangles are
read only to split a class of parallel equal-interval edges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import factorial, prod
from typing import Iterable

import numpy as np

from kronrod.errors import AutOverflow, IncompleteRecord, NotAnAutomorphism
from kronrod.fields import ScalarField
from kronrod.permgroups import PermGroup, enumerate_elements
from kronrod.records import ConstructionRecord, GridTranslation, RectCycle, SymmetrySpec
from kronrod.reeb import ReebGraph, Triangulation, classify_shape
from kronrod.terms import GroupTerm, Prod, Triv, Wr, Wr2, normalize

DEFAULT_AUT_CAP = 10_000


@dataclass(frozen=True)
class GraphAut:
    """Automorphism of a Reeb graph: permutations of vertex and edge ids."""

    vperm: tuple[int, ...]
    eperm: tuple[int, ...]

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.vperm)) and all(
            i == j for i, j in enumerate(self.eperm)
        )

    def compose(self, other: "GraphAut") -> "GraphAut":
        """Apply self, then other."""
        return GraphAut(
            tuple(other.vperm[i] for i in self.vperm),
            tuple(other.eperm[i] for i in self.eperm),
        )


def validate_graph_aut(g: ReebGraph, aut: GraphAut) -> None:
    """Raise NotAnAutomorphism unless `aut` preserves values and incidence."""
    nv, ne = g.n_vertices, g.n_edges
    if sorted(aut.vperm) != list(range(nv)) or sorted(aut.eperm) != list(range(ne)):
        raise NotAnAutomorphism("not a permutation of the element ids")
    for v in g.vertices:
        w = g.vertices[aut.vperm[v.id]]
        if v.value != w.value:
            raise NotAnAutomorphism(f"vertex {v.id} value {v.value} -> {w.value}")
        if len(v.crits) != len(w.crits) or v.boundary != w.boundary:
            raise NotAnAutomorphism(f"vertex {v.id} critical structure changes")
    for e in g.edges:
        f_ = g.edges[aut.eperm[e.id]]
        if (e.lo, e.hi) != (f_.lo, f_.hi):
            raise NotAnAutomorphism(f"edge {e.id} interval changes")
        if {aut.vperm[e.u], aut.vperm[e.v]} != {f_.u, f_.v}:
            raise NotAnAutomorphism(f"edge {e.id} incidence changes")


# ---------------------------------------------------------------------------
# full value-preserving automorphism group
# ---------------------------------------------------------------------------


@dataclass
class AutGroup:
    """Full f-hat-preserving automorphism group of a Reeb graph, by its order;
    its elements are the pairs of permutations `validate_graph_aut` accepts."""

    carrier: ReebGraph
    order: int

    def contains(self, aut: GraphAut) -> bool:
        try:
            validate_graph_aut(self.carrier, aut)
        except NotAnAutomorphism:
            return False
        return True


def _tree_centre(g: ReebGraph) -> int:
    """A centre of a tree, found by peeling leaves layer by layer."""
    deg = [len(g.incident_edges(v)) for v in range(g.n_vertices)]
    layer = [v for v in range(g.n_vertices) if deg[v] <= 1]
    left = g.n_vertices
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for ei in g.incident_edges(v):
                e = g.edges[ei]
                w = e.v if e.u == v else e.u
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        layer = nxt
    return layer[0]


def _hanging_forms(g: ReebGraph, roots: list[int], skip: set[int]) -> tuple[list[int], list[int]]:
    """AHU labels and automorphism counts of the trees hanging from `roots`
    once the edges in `skip` are left out.

    A vertex's form is (value, boundary, critical point count, sorted child
    entries (lo, hi, child label)); equal forms get equal integer labels.
    Its count is the product of its children's counts and k! for every k
    equal child entries.  Vertices are labelled in reverse BFS order, so
    children come before their parents.
    """
    children: list[list[tuple[int, int]]] = [[] for _ in g.vertices]
    seen = set(roots)
    order = list(roots)
    for v in order:
        for ei in g.incident_edges(v):
            e = g.edges[ei]
            w = e.v if e.u == v else e.u
            if ei not in skip and w not in seen:
                seen.add(w)
                order.append(w)
                children[v].append((ei, w))
    labels: dict[tuple, int] = {}
    label = [0] * g.n_vertices
    count = [1] * g.n_vertices
    for v in reversed(order):
        entries = sorted((g.edges[ei].lo, g.edges[ei].hi, label[w]) for ei, w in children[v])
        count[v] = prod(count[w] for _, w in children[v])
        for k in Counter(entries).values():
            count[v] *= factorial(k)
        vx = g.vertices[v]
        form = (vx.value, vx.boundary, len(vx.crits), tuple(entries))
        label[v] = labels.setdefault(form, len(labels))
    return label, count


def _full_order(g: ReebGraph) -> int:
    """Order of the full value-preserving automorphism group, uncapped.

    A tree is counted from a centre: two centres are adjacent, so their
    values differ and every automorphism fixes both.  A circuit multiplies
    the counts of the trees hanging from its vertices by the number of its
    rotations and reflections that map the cyclic sequence v_0, c_0, v_1,
    c_1, ... of vertex labels and edge intervals onto itself; for a circuit
    of two parallel edges the one such map besides the identity swaps them.
    """
    shape = classify_shape(g)
    if shape.shape == "tree":
        root = _tree_centre(g)
        return _hanging_forms(g, [root], set())[1][root]
    vs, es = shape.cycle_vertices, shape.cycle_edges
    label, count = _hanging_forms(g, vs, set(es))
    seq = [x for v, e in zip(vs, es) for x in (label[v], (g.edges[e].lo, g.edges[e].hi))]
    n = len(seq)
    # vertex slots sit at even positions, so only even shifts and
    # reflections about even positions keep them there
    symmetries = sum(
        all(seq[(s + sign * i) % n] == seq[i] for i in range(n))
        for s in range(0, n, 2)
        for sign in (1, -1)
    )
    return prod(count[v] for v in vs) * symmetries


def value_preserving_auts(g: ReebGraph) -> AutGroup:
    """The group of all automorphisms preserving values and incidence;
    AutOverflow when its order exceeds DEFAULT_AUT_CAP."""
    order = _full_order(g)
    if order > DEFAULT_AUT_CAP:
        raise AutOverflow(DEFAULT_AUT_CAP)
    return AutGroup(carrier=g, order=order)


# ---------------------------------------------------------------------------
# induced automorphisms from construction symmetries
# ---------------------------------------------------------------------------


def _edge_classes(g: ReebGraph) -> dict[tuple, list[int]]:
    """Parallel-edge classes keyed by (endpoints, interval)."""
    classes: dict[tuple, list[int]] = {}
    for e in g.edges:
        key = (min(e.u, e.v), max(e.u, e.v), e.lo, e.hi)
        classes.setdefault(key, []).append(e.id)
    return classes


def _canonical_eperm(g: ReebGraph, vperm: tuple[int, ...], eclasses) -> tuple[int, ...]:
    """One edge permutation compatible with a vertex permutation: map each
    parallel class to its image class in id order."""
    eperm = [0] * g.n_edges
    for (u, v, lo, hi), ids in eclasses.items():
        tu, tv = vperm[u], vperm[v]
        target = eclasses.get((min(tu, tv), max(tu, tv), lo, hi))
        if target is None or len(target) != len(ids):
            raise NotAnAutomorphism("vertex map does not transport edge classes")
        for a, b in zip(sorted(ids), sorted(target)):
            eperm[a] = b
    return tuple(eperm)


def _point_map(f: ScalarField, sym: SymmetrySpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where a symmetry sends each grid point, as three (height, width) arrays:
    the image x, the image y, and the piece that moves the point rigidly (the
    rectangle's index in a cycle, 0 for a translation, -1 where fixed)."""
    w, h = f.width, f.height
    ys, xs = np.mgrid[0:h, 0:w]
    if isinstance(sym, GridTranslation):
        if f.kind != "torus":
            raise NotAnAutomorphism("grid translation on a non-torus field")
        return (xs + sym.dx) % w, (ys + sym.dy) % h, np.zeros((h, w), dtype=np.int64)
    if not isinstance(sym, RectCycle):
        raise NotAnAutomorphism(f"unknown symmetry {sym!r}")
    tx, ty = xs.copy(), ys.copy()
    piece = np.full((h, w), -1, dtype=np.int64)
    rects = sym.rects
    for k, (r, r_next) in enumerate(zip(rects, rects[1:] + rects[:1])):
        if (r.w, r.h) != (r_next.w, r_next.h) or min(r.w, r.h) < 1:
            raise NotAnAutomorphism("rect cycle with mismatched or empty rectangles")
        sx, dx = r.x0 + np.arange(r.w), r_next.x0 + np.arange(r.w)
        sy, dy = r.y0 + np.arange(r.h), r_next.y0 + np.arange(r.h)
        if f.wraps_x:
            sx, dx = sx % w, dx % w
        if f.wraps_y:
            sy, dy = sy % h, dy % h
        if not all(0 <= a.min() and a.max() < n for a, n in ((sx, w), (dx, w), (sy, h), (dy, h))):
            raise NotAnAutomorphism("rect cycle leaves the grid")
        block = np.ix_(sy, sx)
        tx[block] = dx[None, :]
        ty[block] = dy[:, None]
        piece[block] = k
    if np.unique(ty * w + tx).size != w * h:
        raise NotAnAutomorphism("point map of the symmetry is not a bijection")
    return tx, ty, piece


def _cell_permutation(
    tri: Triangulation, tx: np.ndarray, ty: np.ndarray, piece: np.ndarray
) -> np.ndarray:
    """Triangle-level map of a point map: a cell whose four corners lie in one
    piece moves with them; every other cell stays put."""
    w, h = tri.field.width, tri.field.height
    cells = np.arange(tri.ncx * tri.ncy)
    cy, cx = np.divmod(cells, tri.ncx)
    x1, y1 = (cx + 1) % w, (cy + 1) % h
    p = piece[cy, cx]
    moves = (p >= 0) & (piece[cy, x1] == p) & (piece[y1, x1] == p) & (piece[y1, cx] == p)
    target = np.where(moves, ty[cy, cx] * tri.ncx + tx[cy, cx], cells)
    perm = np.empty(tri.ntri, dtype=np.int64)
    perm[0::2] = 2 * target
    perm[1::2] = 2 * target + 1
    return perm


def induced_graph_aut(g: ReebGraph, sym: SymmetrySpec) -> GraphAut:
    """Push a grid symmetry to a GraphAut through the critical points.

    A vertex goes to the vertex carrying the images of its critical points,
    which must be critical points of the same kind and value on one vertex.
    A boundary vertex carries none and goes to the boundary vertex of its
    value.  An edge goes to the edge with the mapped endpoints and the same
    interval; within a class of parallel edges with equal intervals, an edge
    goes to the one edge of the image class whose cells contain the images
    of its own.
    """
    tri = g.tri
    if tri is None:
        raise NotAnAutomorphism("graph carries no triangulation")
    tx, ty, piece = _point_map(tri.field, sym)
    carrier = {(c.x, c.y): (c, v.id) for v in g.vertices for c in v.crits}
    boundary = {v.value: v.id for v in g.vertices if v.boundary and not v.crits}

    vperm = []
    for v in g.vertices:
        if v.boundary and not v.crits:
            vperm.append(boundary[v.value])
            continue
        images = set()
        for c in v.crits:
            hit = carrier.get((int(tx[c.y, c.x]), int(ty[c.y, c.x])))
            if hit is None or (hit[0].kind, hit[0].value) != (c.kind, c.value):
                raise NotAnAutomorphism(
                    f"critical point ({c.x}, {c.y}) maps to no critical point of its kind and value"
                )
            images.add(hit[1])
        if len(images) != 1:
            raise NotAnAutomorphism(f"vertex {v.id} critical points map to {len(images)} vertices")
        vperm.append(images.pop())

    eclasses = _edge_classes(g)
    eperm = list(_canonical_eperm(g, vperm, eclasses))
    parallel = [ids for ids in eclasses.values() if len(ids) > 1]
    if parallel:
        perm = _cell_permutation(tri, tx, ty, piece)
        for ids in parallel:
            target = {eperm[e] for e in ids}
            for e in ids:
                image = perm[g.edges[e].cells]
                hits = [d for d in target if np.isin(image, g.edges[d].cells).all()]
                if len(hits) != 1:
                    raise NotAnAutomorphism(f"edge {e} cells do not map onto one parallel edge")
                eperm[e] = hits[0]

    aut = GraphAut(tuple(vperm), tuple(eperm))
    validate_graph_aut(g, aut)
    return aut


# ---------------------------------------------------------------------------
# generated permutation groups and the structural recursion
# ---------------------------------------------------------------------------


def generated_group(g: ReebGraph, gens: Iterable[GraphAut], cap: int = 5000) -> PermGroup:
    """Permutation group on vertex + edge ids generated by graph automorphisms."""
    nv = g.n_vertices
    degree = nv + g.n_edges
    perms = []
    for a in gens:
        perms.append(tuple(list(a.vperm) + [nv + e for e in a.eperm]))
    group = PermGroup(degree=degree, generators=perms)
    if enumerate_elements(group, cap) is None:
        raise AutOverflow(cap)
    return group


def structural_group(rec: ConstructionRecord) -> GroupTerm:
    """Group term of a construction record via the wreath recursion.

    Circuit and simple cases wreathe the per-cylinder group with the cyclic
    band rotation; the tree case wreathes the product of the orbit
    representative groups with the two lattice translations; disk records
    recurse over their slot layout.
    """
    if rec.case in ("circuit", "simple"):
        if rec.n < 1:
            raise IncompleteRecord("circuit record needs n >= 1")
        cylinder_terms = {s.term for s in rec.slots}
        if len(cylinder_terms) > 1:
            raise IncompleteRecord("circuit slots carry different terms")
        base = cylinder_terms.pop() if cylinder_terms else Triv()
        return normalize(Wr(base, rec.n))
    if rec.case == "tree":
        if rec.n < 1 or rec.m < 1:
            raise IncompleteRecord("tree record needs n, m >= 1")
        orbit_terms: dict[int, GroupTerm] = {}
        for s in rec.slots:
            orbit_terms[s.orbit] = s.term
        reps = [orbit_terms.get(r, Triv()) for r in range(4)]
        return normalize(Wr2(normalize(Prod(*reps)), rec.n, rec.m))
    if rec.case == "disk":
        layout = rec.disk_layout
        if layout == "triv" or layout is None and not rec.slots:
            return Triv()
        if layout == "prod":
            if not rec.slots:
                raise IncompleteRecord("prod disk record without slots")
            return normalize(Prod(*[s.term for s in rec.slots]))
        if layout == "wrc":
            if not rec.slots:
                raise IncompleteRecord("wreath disk record without slots")
            terms = {s.term for s in rec.slots}
            if len(terms) != 1:
                raise IncompleteRecord("wreath disk slots carry different terms")
            return normalize(Wr(terms.pop(), len(rec.slots)))
        raise IncompleteRecord(f"unknown disk layout {layout!r}")
    raise IncompleteRecord(f"unknown case {rec.case!r}")
