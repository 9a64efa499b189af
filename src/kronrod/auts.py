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
vertex carrying the images of its critical points.  The graph carries the
push onto its edges (`ReebGraph.edge_images`); this module reads no
triangle, witness or slab.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import factorial, prod
from typing import Iterable

import numpy as np

from kronrod.errors import AutOverflow, IncompleteRecord, NotAnAutomorphism
from kronrod.permgroups import PermGroup, group_order
from kronrod.records import ConstructionRecord, SymmetrySpec, moves
from kronrod.reeb import ReebGraph, classify_shape
from kronrod.terms import GroupTerm, Prod, Triv, Wr, Wr2

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

    order: int


def _hanging_forms(
    g: ReebGraph, peeled: list[tuple[int, int]], roots: list[int]
) -> tuple[list[int], list[int]]:
    """AHU labels and automorphism counts of the trees that the leaf peel
    `peeled` hangs from `roots`.

    A vertex's form is (value, boundary, critical point count, sorted child
    entries (lo, hi, child label)); equal forms get equal integer labels.
    Its count is the product of its children's counts and k! for every k
    equal child entries.  The peel lists children before their parents.
    """
    children: list[list[tuple[int, int]]] = [[] for _ in g.vertices]
    for v, ei in peeled:
        e = g.edges[ei]
        children[e.v if e.u == v else e.u].append((ei, v))
    labels: dict[tuple, int] = {}
    label = [0] * g.n_vertices
    count = [1] * g.n_vertices
    for v in [v for v, _ in peeled] + roots:
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

    The leaf peel leaves the circuit or a tree's centres, and every
    automorphism maps what it leaves onto itself.  Two centres are adjacent,
    so their values differ and every automorphism fixes both.  The order is
    the product of the counts of the trees hanging from what is left, times,
    on a circuit, the number of its rotations and reflections that map the
    cyclic sequence v_0, c_0, v_1, c_1, ... of vertex labels and edge
    intervals onto itself; for a circuit of two parallel edges the one such
    map besides the identity swaps them.
    """
    shape = classify_shape(g)
    peeled, left = g.peel()
    label, count = _hanging_forms(g, peeled, left)
    order = prod(count[v] for v in left)
    if shape.shape == "tree":
        return order
    vs, es = shape.cycle_vertices, shape.cycle_edges
    seq = [x for v, e in zip(vs, es) for x in (label[v], (g.edges[e].lo, g.edges[e].hi))]
    n = len(seq)
    # vertex slots sit at even positions, so only even shifts and
    # reflections about even positions keep them there
    symmetries = sum(
        all(seq[(s + sign * i) % n] == seq[i] for i in range(n))
        for s in range(0, n, 2)
        for sign in (1, -1)
    )
    return order * symmetries


def value_preserving_auts(g: ReebGraph) -> AutGroup:
    """The group of all automorphisms preserving values and incidence;
    AutOverflow when its order exceeds DEFAULT_AUT_CAP."""
    order = _full_order(g)
    if order > DEFAULT_AUT_CAP:
        raise AutOverflow(DEFAULT_AUT_CAP)
    return AutGroup(order=order)


# ---------------------------------------------------------------------------
# induced automorphisms from construction symmetries
# ---------------------------------------------------------------------------


def induced_graph_aut(g: ReebGraph, sym: SymmetrySpec) -> GraphAut:
    """Push a grid symmetry to a GraphAut through the critical points.

    A vertex goes to the vertex carrying the images of its critical points,
    which must be critical points of the same kind and value on one vertex.
    A boundary vertex carries none and goes to the boundary vertex of its
    value.  The edges go where `g.edge_images` sends them.
    """
    if g.tri is None:
        raise NotAnAutomorphism("graph carries no triangulation")
    f = g.tri.field
    w, n = f.width, f.values.size
    src, dst, pieces = moves(f, sym)
    image, piece = np.arange(n), np.full(n, -1)
    image[src], piece[src] = dst, pieces
    carrier = {c.y * w + c.x: (c, v.id) for v in g.vertices for c in v.crits}
    boundary = {v.value: v.id for v in g.vertices if v.boundary and not v.crits}

    vperm = []
    for v in g.vertices:
        if v.boundary and not v.crits:
            vperm.append(boundary[v.value])
            continue
        images = set()
        for c in v.crits:
            hit = carrier.get(int(image[c.y * w + c.x]))
            if hit is None or (hit[0].kind, hit[0].value) != (c.kind, c.value):
                raise NotAnAutomorphism(
                    f"critical point ({c.x}, {c.y}) maps to no critical point of its kind and value"
                )
            images.add(hit[1])
        if len(images) != 1:
            raise NotAnAutomorphism(f"vertex {v.id} critical points map to {len(images)} vertices")
        vperm.append(images.pop())

    aut = GraphAut(tuple(vperm), g.edge_images(vperm, image, piece))
    validate_graph_aut(g, aut)
    return aut


# ---------------------------------------------------------------------------
# generated permutation groups and the structural recursion
# ---------------------------------------------------------------------------


def generated_group(g: ReebGraph, gens: Iterable[GraphAut]) -> PermGroup:
    """Permutation group generated by graph automorphisms, with its order
    computed.  It acts on the vertex ids, then on the parallel pair of a
    circuit of length two.

    The action is faithful: no other two edges share both ends, so every
    other edge goes wherever its ends go."""
    nv = g.n_vertices
    pair = g.parallel_pair() or ()
    point = {e: nv + k for k, e in enumerate(pair)}
    perms = [np.array(a.vperm + tuple([point[a.eperm[e]] for e in pair]), np.int32) for a in gens]
    group = PermGroup(degree=nv + len(pair), generators=perms)
    group_order(group)
    return group


def record_term(rec: ConstructionRecord) -> GroupTerm:
    """Group term of a construction record via the wreath recursion, built
    from its slot terms and not normalized, so that the generators of its
    `perm_rep` come in the order of `rec.symmetries` once identities drop.

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
        return Wr(base, rec.n)
    if rec.case == "tree":
        if rec.n < 1 or rec.m < 1:
            raise IncompleteRecord("tree record needs n, m >= 1")
        orbit_terms: dict[int, GroupTerm] = {}
        for s in rec.slots:
            orbit_terms[s.orbit] = s.term
        reps = [orbit_terms.get(r, Triv()) for r in range(4)]
        return Wr2(Prod(*reps), rec.n, rec.m)
    if rec.case == "disk":
        layout = rec.disk_layout
        if layout == "triv" or layout is None and not rec.slots:
            return Triv()
        if layout == "prod":
            if not rec.slots:
                raise IncompleteRecord("prod disk record without slots")
            return Prod(*[s.term for s in rec.slots])
        if layout == "wrc":
            if not rec.slots:
                raise IncompleteRecord("wreath disk record without slots")
            terms = {s.term for s in rec.slots}
            if len(terms) != 1:
                raise IncompleteRecord("wreath disk slots carry different terms")
            return Wr(terms.pop(), len(rec.slots))
        raise IncompleteRecord(f"unknown disk layout {layout!r}")
    raise IncompleteRecord(f"unknown case {rec.case!r}")
