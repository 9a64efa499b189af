import numpy as np
import pytest

from kronrod.construct import realize_torus_circuit, realize_torus_tree
from kronrod.errors import NotACircuit, NotATree
from kronrod.fields import classify_vertices, morse_counts
from kronrod.reeb import (
    build_reeb,
    classify_shape,
    decompose_cylinders,
    export_dot,
    export_json,
    find_special_vertex,
    import_json,
    level_set_components,
)
from kronrod.terms import Triv, Wr

from test_fields import bump_disk


def complement_components(g, vid):
    """Flood fill of the triangles the cell map does not give to vertex `vid`.

    An oracle for `find_special_vertex`, which reads the genus of the vertex's
    neighbourhood instead and shares no code with this.
    """
    tri = g.tri
    free = np.asarray(g.cell_map) != vid
    nbrs: list[list[int]] = [[] for _ in range(tri.ntri)]
    for a, b in zip(tri.adj_a.tolist(), tri.adj_b.tolist()):
        if free[a] and free[b]:
            nbrs[a].append(b)
            nbrs[b].append(a)
    seen = ~free
    comps = []
    for start in np.nonzero(free)[0].tolist():
        if seen[start]:
            continue
        seen[start] = True
        stack, comp = [start], []
        while stack:
            t = stack.pop()
            comp.append(t)
            for u in nbrs[t]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(comp)
    return comps


class TestBuildReeb:
    def test_single_bump_path(self):
        g = build_reeb(bump_disk())
        assert g.n_vertices == 2
        assert g.n_edges == 1
        kinds = {(v.boundary, len(v.crits)) for v in g.vertices}
        assert kinds == {(True, 0), (False, 1)}

    def test_circuit_base(self):
        f, _ = realize_torus_circuit(Triv(), 1)
        g = build_reeb(f)
        assert g.n_vertices == 4
        assert g.n_edges == 4
        assert classify_shape(g).betti1 == 1

    def test_tree_base(self):
        f, _ = realize_torus_tree(Triv(), 1, 1)
        g = build_reeb(f)
        rep = classify_shape(g)
        assert rep.shape == "tree"
        zero = [v for v in g.vertices if v.value == 0.0]
        assert len(zero) == 1
        assert len(zero[0].crits) == 4
        leaf_values = sorted(v.value for v in g.vertices if v.id != zero[0].id)
        assert leaf_values == [-2.0, -1.0, 1.0, 2.0]

    def test_crit_total(self):
        f, _ = realize_torus_circuit(Wr(Triv(), 2), 2)
        g = build_reeb(f)
        mc = morse_counts(f)
        assert sum(len(v.crits) for v in g.vertices) == mc.c0 + mc.c1 + mc.c2

    def test_vertex_edge_euler(self):
        for maker in (
            lambda: realize_torus_circuit(Triv(), 3)[0],
            lambda: realize_torus_tree(Triv(), 2, 1)[0],
            bump_disk,
        ):
            g = build_reeb(maker())
            rep = classify_shape(g)
            assert g.n_vertices - g.n_edges == 1 - rep.betti1

    def test_cell_map_total_and_consistent(self):
        f, _ = realize_torus_circuit(Wr(Triv(), 2), 2)
        g = build_reeb(f)
        tri = g.tri
        for t in range(0, tri.ntri, 7):
            kind, idx = g.element_of_cell(t)
            lo, hi = tri.tri_min[t], tri.tri_max[t]
            if kind == "edge":
                e = g.edges[idx]
                assert e.lo <= lo and hi <= e.hi
            else:
                v = g.vertices[idx]
                assert lo <= v.value <= hi


class TestShape:
    def test_path_graph_tree(self):
        g = build_reeb(bump_disk())
        rep = classify_shape(g)
        assert rep.shape == "tree" and rep.betti1 == 0

    def test_circuit_cycle_edges(self):
        f, _ = realize_torus_circuit(Triv(), 3)
        g = build_reeb(f)
        rep = classify_shape(g)
        assert rep.shape == "circuit"
        assert len(rep.cycle_edges) == 6  # two circuit edges per band
        assert len(rep.cycle_vertices) == 6  # the saddles


class TestSpecialVertex:
    def test_lattice_special(self):
        f, _ = realize_torus_tree(Triv(), 1, 1)
        g = build_reeb(f)
        sv = find_special_vertex(g, f)
        assert g.vertices[sv].value == 0.0

    def test_complement_count(self):
        for n, m in ((1, 1), (2, 1), (2, 2)):
            f, _ = realize_torus_tree(Triv(), n, m)
            g = build_reeb(f)
            sv = find_special_vertex(g, f)
            comps = complement_components(g, sv)
            assert len(comps) == 4 * n * n * m

    def test_circuit_graph_rejected(self):
        f, _ = realize_torus_circuit(Triv(), 2)
        g = build_reeb(f)
        with pytest.raises(NotATree):
            find_special_vertex(g, f)


class TestCylinders:
    def test_three_bands(self):
        f, _ = realize_torus_circuit(Triv(), 3)
        g = build_reeb(f)
        rep = classify_shape(g)
        cyls = decompose_cylinders(g, f, rep.cycle_edges[0])
        assert len(cyls) == 3
        tri = g.tri
        for cyl in cyls:
            cylset = set(cyl)
            kinds = []
            for c in classify_vertices(f):
                if any(t in cylset for t in tri.tris_at_vertex(c.x, c.y)):
                    kinds.append(c.kind)
            assert sorted(k.value for k in kinds) == [
                "maximum",
                "minimum",
                "saddle",
                "saddle",
            ]

    def test_single_band_whole_torus(self):
        f, _ = realize_torus_circuit(Triv(), 1)
        g = build_reeb(f)
        rep = classify_shape(g)
        cyls = decompose_cylinders(g, f, rep.cycle_edges[0])
        assert len(cyls) == 1

    def test_cut_curve_count_oracle(self):
        # cutting keeps every second curve: the flood-fill count of
        # circuit-crossing components at the cut value is twice the number
        # of cylinders
        f, _ = realize_torus_circuit(Triv(), 2)
        g = build_reeb(f)
        rep = classify_shape(g)
        e = g.edges[rep.cycle_edges[0]]
        c = (e.lo + e.hi) / 2
        crossing = [
            comp
            for comp in level_set_components(f, c)
            if any(g.element_of_cell(t)[0] == "edge" for t in comp)
        ]
        cyls = decompose_cylinders(g, f, rep.cycle_edges[0])
        assert len(crossing) == 2 * len(cyls)

    def test_requires_circuit(self):
        f, _ = realize_torus_tree(Triv(), 1, 1)
        g = build_reeb(f)
        with pytest.raises(NotACircuit):
            decompose_cylinders(g, f, 0)


class TestLevelOracle:
    def test_edges_spanning_matches_flood(self):
        f, _ = realize_torus_circuit(Triv(), 2)
        g = build_reeb(f)
        rng = np.random.default_rng(11)
        crit_values = sorted({c.value for c in classify_vertices(f)})
        for _ in range(20):
            t = float(rng.uniform(crit_values[0], crit_values[-1]))
            if t in crit_values:
                continue
            assert len(g.edges_spanning(t)) == len(level_set_components(f, t, g.tri))


class TestExports:
    def test_dot(self):
        g = build_reeb(bump_disk())
        dot = export_dot(g)
        assert dot.startswith("graph reeb {")
        assert dot.count(" -- ") == 1

    def test_json_round_trip(self):
        g = build_reeb(bump_disk())
        h = import_json(export_json(g))
        assert h.n_vertices == g.n_vertices
        assert h.n_edges == g.n_edges
        assert [(e.u, e.v, e.lo, e.hi) for e in h.edges] == [
            (e.u, e.v, e.lo, e.hi) for e in g.edges
        ]

    def test_json_cells_elided(self):
        g = build_reeb(bump_disk())
        import json

        doc = json.loads(export_json(g))
        assert "cells" not in doc["vertices"][0]
