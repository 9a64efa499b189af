from math import factorial

import numpy as np
import pytest

from kronrod.auts import (
    GraphAut,
    _edge_classes,
    _full_order,
    generated_group,
    induced_graph_aut,
    structural_group,
    validate_graph_aut,
    value_preserving_auts,
)
from kronrod.construct import (
    realize_disk,
    realize_simple,
    realize_torus_circuit,
    realize_torus_tree,
)
from kronrod.corpus import random_torus_field
from kronrod.errors import AutOverflow, NotAnAutomorphism
from kronrod.fields import CriticalPoint, CritKind
from kronrod.permgroups import is_isomorphic, perm_rep
from kronrod.records import GridTranslation, Rect, RectCycle
from kronrod.reeb import ReebEdge, ReebGraph, ReebVertex, build_reeb
from kronrod.terms import Prod, Triv, Wr, Wr2, format_term, normalize


def star_graph(branches: int, same_values: bool = True):
    """Root at 0 with `branches` leaf edges; leaves share a value when asked."""
    crit = CriticalPoint(0, 0, CritKind.SADDLE, 0.0)
    vertices = [ReebVertex(id=0, value=0.0, crits=[crit] * 2, cells=frozenset())]
    edges = []
    for i in range(branches):
        val = 1.0 if same_values else 1.0 + i
        leaf = CriticalPoint(i + 1, 0, CritKind.MAXIMUM, val)
        vertices.append(
            ReebVertex(id=i + 1, value=val, crits=[leaf], cells=frozenset())
        )
        edges.append(ReebEdge(id=i, u=0, v=i + 1, lo=0.0, hi=val))
    return ReebGraph(vertices, edges)


def path_graph(values):
    vertices = [
        ReebVertex(
            id=i,
            value=v,
            crits=[CriticalPoint(i, 0, CritKind.SADDLE, v)],
            cells=frozenset(),
        )
        for i, v in enumerate(values)
    ]
    edges = [
        ReebEdge(id=i, u=i, v=i + 1, lo=min(values[i], values[i + 1]),
                 hi=max(values[i], values[i + 1]))
        for i in range(len(values) - 1)
    ]
    return ReebGraph(vertices, edges)


def backtrack_order(g: ReebGraph, cap: int = 10_000) -> int:
    """Differential oracle, the enumerator `value_preserving_auts` used to be:
    count every vertex permutation that preserves refined colours and the
    edge multiset between each vertex pair, times k! per class of k parallel
    equal-interval edges.  Raises AutOverflow past `cap`."""
    fresh: dict[tuple, int] = {}
    colors = [
        fresh.setdefault(
            (v.value, v.boundary, len(v.crits),
             tuple(sorted((g.edges[ei].lo, g.edges[ei].hi) for ei in g.incident_edges(v.id)))),
            len(fresh),
        )
        for v in g.vertices
    ]
    while True:
        sig = []
        for v in g.vertices:
            nb = []
            for ei in g.incident_edges(v.id):
                e = g.edges[ei]
                other = e.v if e.u == v.id else e.u
                nb.append((e.lo, e.hi, colors[other]))
            sig.append((colors[v.id], tuple(sorted(nb))))
        fresh = {}
        refined = [fresh.setdefault(s, len(fresh)) for s in sig]
        if refined == colors:
            break
        colors = refined
    eclasses = _edge_classes(g)
    multiplier = 1
    adjacency: dict[tuple[int, int], list] = {}
    for (u, v, lo, hi), ids in eclasses.items():
        multiplier *= factorial(len(ids))
        adjacency.setdefault((u, v), []).append((lo, hi, len(ids)))
    for k in adjacency:
        adjacency[k].sort()
    nv = g.n_vertices
    assign = sorted(range(nv), key=lambda v: (colors[v], v))
    found = 0

    def backtrack(i: int, p: dict[int, int], used: set[int]) -> None:
        nonlocal found
        if found * multiplier > cap:
            raise AutOverflow(cap)
        if i == nv:
            found += 1
            return
        a = assign[i]
        for b in range(nv):
            if b in used or colors[a] != colors[b]:
                continue
            if any(
                adjacency.get((min(a, c), max(a, c)), []) != adjacency.get((min(b, d), max(b, d)), [])
                for c, d in p.items()
            ):
                continue
            p[a] = b
            used.add(b)
            backtrack(i + 1, p, used)
            used.remove(b)
            del p[a]

    backtrack(0, {}, set())
    if found * multiplier > cap:
        raise AutOverflow(cap)
    return found * multiplier


class TestValuePreservingAuts:
    def test_path_distinct_values_trivial(self):
        g = path_graph([0.0, 1.0, 2.0, 3.0])
        assert value_preserving_auts(g).order == 1

    def test_star_with_equal_branches(self):
        g = star_graph(3, same_values=True)
        assert value_preserving_auts(g).order == 6  # full S3 on the branches

    def test_star_with_distinct_branches(self):
        g = star_graph(3, same_values=False)
        assert value_preserving_auts(g).order == 1

    def test_circuit_contains_rotation(self):
        f, _ = realize_torus_circuit(Triv(), 3)
        g = build_reeb(f)
        group = value_preserving_auts(g)
        assert group.order % 3 == 0

    def test_overflow(self):
        g = star_graph(8, same_values=True)  # 8! = 40320
        assert _full_order(g) == 40320
        with pytest.raises(AutOverflow):
            value_preserving_auts(g)

    def test_parallel_edges_counted(self):
        f, _ = realize_torus_circuit(Triv(), 1)
        g = build_reeb(f)
        # two parallel circuit edges with equal intervals are swappable
        assert value_preserving_auts(g).order % 2 == 0

    @pytest.mark.parametrize(
        "graph",
        [star_graph(3), star_graph(5), star_graph(4, same_values=False),
         path_graph([0.0, 1.0, 2.0, 3.0]), path_graph([0.0, 1.0, 0.0]),
         path_graph([1.0, 0.0, 2.0, 0.0, 1.0])],
        ids=["star3", "star5", "star4-distinct", "path4", "path-vee", "path-mirror"],
    )
    def test_hand_built_match_backtracking(self, graph):
        assert value_preserving_auts(graph).order == backtrack_order(graph)

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_random_fields_match_backtracking(self, seed):
        g = build_reeb(random_torus_field(seed))
        assert value_preserving_auts(g).order == backtrack_order(g)

    def test_long_path_without_recursion(self):
        g = path_graph([float(i) for i in range(2000)])
        assert value_preserving_auts(g).order == 1

    def test_contains_is_validation(self):
        g = star_graph(3)
        group = value_preserving_auts(g)
        assert group.contains(GraphAut((0, 2, 1, 3), (1, 0, 2)))
        assert not group.contains(GraphAut((1, 0, 2, 3), (0, 1, 2)))


class TestInducedAuts:
    def test_identity_translation(self):
        f, rec = realize_torus_circuit(Triv(), 1)
        g = build_reeb(f)
        aut = induced_graph_aut(g, GridTranslation(f.width, 0))
        assert aut.is_identity()

    def test_band_shift_order(self):
        for n in (2, 3, 4):
            f, rec = realize_torus_circuit(Triv(), n)
            g = build_reeb(f)
            aut = induced_graph_aut(g, rec.symmetries[0])
            power = aut
            k = 1
            while not power.is_identity():
                power = power.compose(aut)
                k += 1
            assert k == n

    def test_tree_translations_commute(self):
        f, rec = realize_torus_tree(Triv(), 2, 1)
        g = build_reeb(f)
        a = induced_graph_aut(g, rec.symmetries[0])
        b = induced_graph_aut(g, rec.symmetries[1])
        assert a.compose(b) == b.compose(a)

    def test_corrupted_cycle_rejected(self):
        f, rec = realize_torus_circuit(Wr(Triv(), 2), 2)
        g = build_reeb(f)
        cyc = next(s for s in rec.symmetries if isinstance(s, RectCycle))
        bad = RectCycle(tuple(Rect(r.x0 + 1, r.y0, r.w, r.h) for r in cyc.rects[:1]) + cyc.rects[1:])
        with pytest.raises(NotAnAutomorphism):
            induced_graph_aut(g, bad)

    def test_one_cell_translation_rejected(self):
        f, _ = realize_torus_circuit(Triv(), 2)
        g = build_reeb(f)
        with pytest.raises(NotAnAutomorphism):
            induced_graph_aut(g, GridTranslation(1, 0))

    def test_translation_on_disk_rejected(self):
        f, _ = realize_disk(Wr(Triv(), 2))
        g = build_reeb(f)
        with pytest.raises(NotAnAutomorphism):
            induced_graph_aut(g, GridTranslation(f.width, 0))

    def test_parallel_class_split_by_cells(self):
        f, rec = realize_torus_circuit(Wr(Triv(), 2), 1)
        g = build_reeb(f)
        cyc = next(s for s in rec.symmetries if isinstance(s, RectCycle))
        aut = induced_graph_aut(g, cyc)
        assert not aut.is_identity()  # the two cap maxima and their edges swap
        classes: dict[tuple, list[int]] = {}
        for e in g.edges:
            classes.setdefault((e.u, e.v, e.lo, e.hi), []).append(e.id)
        [(a, b)] = [ids for ids in classes.values() if len(ids) > 1]
        assert (aut.eperm[a], aut.eperm[b]) == (a, b)
        # only the edge cells tell the two circuit edges apart: once one
        # edge's triangles are handed to the other, the push cannot place it
        own = {e: g.edges[e].cells for e in (a, b)}
        for x, y in ((a, b), (b, a)):
            g.edges[x].cells = np.union1d(own[x], own[y])
            with pytest.raises(NotAnAutomorphism):
                induced_graph_aut(g, cyc)
            g.edges[x].cells = own[x]

    def test_validation(self):
        g = star_graph(2, same_values=False)
        with pytest.raises(NotAnAutomorphism):
            validate_graph_aut(g, GraphAut((0, 2, 1), (0, 1)))


class TestGeneratedGroup:
    def test_empty(self):
        f, _ = realize_torus_circuit(Triv(), 2)
        g = build_reeb(f)
        assert generated_group(g, []).order == 1

    def test_tree_translations_klein(self):
        f, rec = realize_torus_tree(Triv(), 2, 1)
        g = build_reeb(f)
        gens = [induced_graph_aut(g, s) for s in rec.symmetries]
        grp = generated_group(g, gens)
        assert grp.order == 4
        assert is_isomorphic(grp, perm_rep(Wr2(Triv(), 2, 1)), 100) is True

    def test_rotation_cyclic(self):
        f, rec = realize_torus_circuit(Triv(), 4)
        g = build_reeb(f)
        grp = generated_group(g, [induced_graph_aut(g, rec.symmetries[0])])
        assert grp.order == 4
        assert is_isomorphic(grp, perm_rep(Wr(Triv(), 4)), 100) is True


class TestStructuralGroup:
    def test_circuit(self):
        _, rec = realize_torus_circuit(Triv(), 3)
        assert structural_group(rec) == Wr(Triv(), 3)

    def test_tree(self):
        _, rec = realize_torus_tree(Triv(), 2, 1)
        assert structural_group(rec) == Wr2(Triv(), 2, 1)

    def test_tree_with_base(self):
        _, rec = realize_torus_tree(Wr(Triv(), 2), 1, 1)
        assert structural_group(rec) == Wr2(Wr(Triv(), 2), 1, 1)

    def test_disk_layouts(self):
        _, rec = realize_disk(Prod(Wr(Triv(), 2), Wr(Triv(), 3)))
        assert structural_group(rec) == normalize(Prod(Wr(Triv(), 2), Wr(Triv(), 3)))
        _, rec = realize_disk(Wr(Triv(), 3))
        assert structural_group(rec) == Wr(Triv(), 3)
        _, rec = realize_disk(Triv())
        assert structural_group(rec) == Triv()

    def test_simple(self):
        _, rec = realize_simple(Wr(Triv(), 2), 2)
        assert format_term(structural_group(rec)) == "wr(wr(1,2),2)"
