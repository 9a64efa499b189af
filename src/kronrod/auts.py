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

from math import prod
from typing import Iterable, NamedTuple

import numpy as np

from kronrod.errors import AutOverflow, IncompleteRecord, NotAnAutomorphism
from kronrod.permgroups import PermGroup, group_order
from kronrod.records import ConstructionRecord, SymmetrySpec, moves
from kronrod.reeb import ReebGraph, classify_shape
from kronrod.terms import GroupTerm, Prod, Triv, Wr, Wr2

DEFAULT_AUT_CAP = 10_000


class GraphAut(NamedTuple):
    """Automorphism of a Reeb graph: permutations of vertex and edge ids."""

    vperm: tuple[int, ...]
    eperm: tuple[int, ...]


# ---------------------------------------------------------------------------
# full value-preserving automorphism group
# ---------------------------------------------------------------------------


class AutGroup:
    """Full f-hat-preserving automorphism group of a Reeb graph, by its order;
    its elements are the vertex and edge permutations that keep incidence,
    vertex values, critical point counts and boundary flags, and edge intervals."""

    __slots__ = ("order",)

    def __init__(self, order: int):
        self.order = order


def _hanging_forms(
    g: ReebGraph, peeled: list[tuple[int, int]], roots: list[int]
) -> tuple[list[int], list[int]]:
    """AHU labels and automorphism counts of the trees that the leaf peel
    `peeled` hangs from `roots`.

    A vertex's form is (value, boundary, critical point count, sorted child
    entries (lo, hi, child label)); equal forms get equal integer labels.
    Its count is the product of its children's counts and k! for every run
    of k equal entries in the sorted list.  The peel lists children before
    their parents.
    """
    children: list[list[tuple[float, float, int]]] = [[] for _ in g.vertices]
    for v, ei in peeled:
        e = g.edges[ei]
        children[e.v if e.u == v else e.u].append((e.lo, e.hi, v))
    labels: dict[tuple, int] = {}
    label = [0] * g.n_vertices
    count = [1] * g.n_vertices
    for v in [v for v, _ in peeled] + roots:
        entries = ()
        if children[v]:
            entries = tuple(sorted([(lo, hi, label[w]) for lo, hi, w in children[v]]))
            count[v] = prod([count[w] for _, _, w in children[v]])
            run = 1
            for a, b in zip(entries, entries[1:]):
                run = run + 1 if a == b else 1  # the j-th equal entry multiplies by j
                count[v] *= run
        vx = g.vertices[v]
        form = (vx.value, vx.boundary, len(vx.crits), entries)
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
    label, count = _hanging_forms(g, g.peeled, g.left)
    order = prod(count[v] for v in g.left)
    if shape.shape == "tree":
        return order
    vs, es = shape.cycle_vertices, shape.cycle_edges
    seq = [x for v, e in zip(vs, es) for x in (label[v], (g.edges[e].lo, g.edges[e].hi))]
    # vertex slots sit at even positions, so only even rotations of the
    # sequence and of its reflection about position 0 keep them there
    reflected = seq[:1] + seq[:0:-1]
    shifts = range(0, len(seq), 2)
    return order * sum(s[k:] + s[:k] == seq for s in (seq, reflected) for k in shifts)


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
    A disk's collar lies on one side of its frame, so its boundary vertex
    carries none, and it goes to itself.  An edge goes where `g.edge_images`
    sends it: to the edge between the images of its ends.

    Only that both maps are permutations is checked; the rest follows.  A
    vertex has the value of its critical points.  `moves` is a bijection of
    the grid, so the image of a vertex carries at least as many critical
    points, and exactly as many once the vertex map is a permutation.  An
    edge's interval is its ends' values.  With one cycle at most (more raise
    in `classify_shape`), only the parallel pair shares both ends, and
    `edge_images` maps it onto itself one-to-one.
    """
    if g.tri is None:
        raise NotAnAutomorphism("graph carries no triangulation")
    classify_shape(g)
    point_map = moves(g.tri.field, sym)
    _, carrier, points = g.push_tables()
    image = np.arange(g.tri.field.values.size)
    image[point_map[0]] = point_map[1]
    hits = map(carrier.get, image[points].tolist())  # the critical points', vertex by vertex

    vperm = []
    for v in g.vertices:
        if v.boundary and not v.crits:
            vperm.append(v.id)
            continue
        images = set()
        for c, hit in zip(v.crits, hits):  # takes from `hits` only while v.crits lasts
            if hit is None or (hit[0].kind, hit[0].value) != (c.kind, c.value):
                raise NotAnAutomorphism(
                    f"critical point ({c.x}, {c.y}) maps to no critical point of its kind and value"
                )
            images.add(hit[1])
        if len(images) != 1:
            raise NotAnAutomorphism(f"vertex {v.id} critical points map to {len(images)} vertices")
        vperm.append(images.pop())
    eperm = g.edge_images(vperm, point_map)
    if len(set(vperm)) < len(vperm) or len(set(eperm)) < len(eperm):
        raise NotAnAutomorphism("vertex or edge map is not a permutation")
    return GraphAut(tuple(vperm), eperm)


# ---------------------------------------------------------------------------
# generated permutation groups and the structural recursion
# ---------------------------------------------------------------------------


def generated_group(g: ReebGraph, gens: Iterable[GraphAut]) -> PermGroup:
    """Permutation group generated by graph automorphisms, acting on the edge
    ids, with its order computed.  The action is faithful: the ends of an
    edge have different values, so an automorphism that fixes every edge
    fixes every vertex of the connected graph."""
    group = PermGroup(g.n_edges, [a.eperm for a in gens])
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
