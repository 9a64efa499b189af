from collections import Counter
from math import factorial

import pytest

from kronrod.auts import (
    GraphAut,
    _full_order,
    generated_group,
    induced_graph_aut,
    record_term,
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
from kronrod.records import GridTranslation, Rect, RectCycle, moves
from kronrod.reeb import ReebEdge, ReebGraph, ReebVertex, build_reeb
from kronrod.terms import Prod, Triv, Wr, Wr2, format_term, normalize


def star_graph(branches: int, same_values: bool = True):
    """Root at 0 with `branches` leaf edges; leaves share a value when asked."""
    crit = CriticalPoint(0, 0, CritKind.SADDLE, 0.0)
    vertices = [ReebVertex(id=0, value=0.0, crits=[crit] * 2)]
    edges = []
    for i in range(branches):
        val = 1.0 if same_values else 1.0 + i
        leaf = CriticalPoint(i + 1, 0, CritKind.MAXIMUM, val)
        vertices.append(ReebVertex(id=i + 1, value=val, crits=[leaf]))
        edges.append(ReebEdge(id=i, u=0, v=i + 1, lo=0.0, hi=val))
    return ReebGraph(vertices, edges)


def path_graph(values):
    vertices = [
        ReebVertex(
            id=i,
            value=v,
            crits=[CriticalPoint(i, 0, CritKind.SADDLE, v)],
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
    eclasses = Counter((min(e.u, e.v), max(e.u, e.v), e.lo, e.hi) for e in g.edges)
    multiplier = 1
    adjacency: dict[tuple[int, int], list] = {}
    for (u, v, lo, hi), k in eclasses.items():
        multiplier *= factorial(k)
        adjacency.setdefault((u, v), []).append((lo, hi, k))
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
         path_graph([1.0, 0.0, 2.0, 0.0, 1.0]), path_graph([1.0, 0.0, 2.0, 3.0, 0.0, 1.0])],
        ids=["star3", "star5", "star4-distinct", "path4", "path-vee", "path-mirror",
             "path-two-centres"],
    )
    def test_hand_built_match_backtracking(self, graph):
        """path4 and path-two-centres have two centres, path-vee and
        path-mirror one."""
        assert _full_order(graph) == backtrack_order(graph)
        assert value_preserving_auts(graph).order == backtrack_order(graph)

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_random_fields_match_backtracking(self, seed):
        g = build_reeb(random_torus_field(seed))
        assert value_preserving_auts(g).order == backtrack_order(g)

    def test_long_path_without_recursion(self):
        g = path_graph([float(i) for i in range(2000)])
        assert value_preserving_auts(g).order == 1


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
        # only the witnesses tell the two circuit edges apart: once one edge's
        # witness is handed to the other, both name one component, whose
        # images then lie in the component of both
        own = {e: g.edges[e].witness for e in (a, b)}
        for x, y in ((a, b), (b, a)):
            g.edges[x].witness = own[y]
            with pytest.raises(NotAnAutomorphism, match="onto one parallel edge"):
                induced_graph_aut(g, cyc)
            g.edges[x].witness = own[x]

    def test_partial_swap_of_parallel_components_rejected(self):
        """The push maps every triangle of a witness's component, not just the
        witness: swapping a block of one circuit edge's lowest slab component
        with a block of the other's, both away from the witnesses and the
        critical points, leaves every witness in place but splits the images."""
        f, _ = realize_torus_circuit(Triv(), 1)
        g = build_reeb(f)
        a, b = g.parallel_pair()
        assert [g.edges[e].witness for e in (a, b)] == [4, 22]  # cells (2, 0) and (11, 0)
        swap = RectCycle((Rect(3, 4, 3, 3), Rect(12, 4, 3, 3)))
        with pytest.raises(NotAnAutomorphism, match="onto one parallel edge"):
            induced_graph_aut(g, swap)

    def test_overlapping_cycle_not_a_bijection(self):
        f, _ = realize_torus_tree(Triv(), 1, 1)
        sym = RectCycle((Rect(0, 0, 2, 2), Rect(1, 0, 2, 2)))
        with pytest.raises(NotAnAutomorphism, match="not a bijection"):
            moves(f, sym)

    def test_cycle_leaving_disk_grid(self):
        f, _ = realize_disk(Wr(Triv(), 2))
        sym = RectCycle((Rect(0, 0, 2, 2), Rect(f.width - 1, 0, 2, 2)))
        with pytest.raises(NotAnAutomorphism, match="leaves the grid"):
            moves(f, sym)

    def test_cycle_with_mismatched_rects(self):
        f, _ = realize_torus_tree(Triv(), 1, 1)
        sym = RectCycle((Rect(0, 0, 2, 2), Rect(4, 0, 3, 2)))
        with pytest.raises(NotAnAutomorphism, match="mismatched"):
            moves(f, sym)

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
        assert is_isomorphic(grp, perm_rep(Wr2(Triv(), 2, 1)))

    def test_rotation_cyclic(self):
        f, rec = realize_torus_circuit(Triv(), 4)
        g = build_reeb(f)
        grp = generated_group(g, [induced_graph_aut(g, rec.symmetries[0])])
        assert grp.order == 4
        assert is_isomorphic(grp, perm_rep(Wr(Triv(), 4)))


class TestStructuralGroup:
    def test_circuit(self):
        _, rec = realize_torus_circuit(Triv(), 3)
        assert normalize(record_term(rec)) == Wr(Triv(), 3)

    def test_tree(self):
        _, rec = realize_torus_tree(Triv(), 2, 1)
        assert normalize(record_term(rec)) == Wr2(Triv(), 2, 1)

    def test_tree_with_base(self):
        _, rec = realize_torus_tree(Wr(Triv(), 2), 1, 1)
        assert normalize(record_term(rec)) == Wr2(Wr(Triv(), 2), 1, 1)

    def test_disk_layouts(self):
        _, rec = realize_disk(Prod(Wr(Triv(), 2), Wr(Triv(), 3)))
        assert normalize(record_term(rec)) == normalize(Prod(Wr(Triv(), 2), Wr(Triv(), 3)))
        _, rec = realize_disk(Wr(Triv(), 3))
        assert normalize(record_term(rec)) == Wr(Triv(), 3)
        _, rec = realize_disk(Triv())
        assert normalize(record_term(rec)) == Triv()

    def test_simple(self):
        _, rec = realize_simple(Wr(Triv(), 2), 2)
        assert format_term(normalize(record_term(rec))) == "wr(wr(1,2),2)"
