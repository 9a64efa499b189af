import numpy as np
import pytest

from kronrod.auts import (
    GraphAut,
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
        with pytest.raises(AutOverflow):
            value_preserving_auts(g, cap=10_000)

    def test_parallel_edges_counted(self):
        f, _ = realize_torus_circuit(Triv(), 1)
        g = build_reeb(f)
        # two parallel circuit edges with equal intervals are swappable
        assert value_preserving_auts(g).order % 2 == 0


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
        # only the cell map tells the two circuit edges apart: once b's
        # triangles are handed to a, the push cannot place b
        g.cell_map = np.where(g.cell_map == -b - 1, -a - 1, g.cell_map)
        with pytest.raises(NotAnAutomorphism):
            induced_graph_aut(g, cyc)

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


class TestAutGroupExport:
    def test_json_shape(self):
        g = star_graph(3, same_values=True)
        group = value_preserving_auts(g)
        doc = group.to_json()
        assert doc["order"] == 6
        assert all(
            sorted(gen["vertices"]) == list(range(4)) for gen in doc["generators"]
        )
