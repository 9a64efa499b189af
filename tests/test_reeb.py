import hashlib
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import kronrod
from kronrod.construct import realize_disk, realize_torus_circuit, realize_torus_tree
from kronrod.corpus import (
    corpus_grid,
    level_set_components,
    random_torus_field,
    realize_member,
    triangle_corners,
)
from kronrod.errors import NotATree, ReebError
from kronrod.fields import classify_vertices, morse_counts
from kronrod.reeb import (
    Triangulation,
    _label,
    spans,
    _sweep,
    build_reeb,
    classify_shape,
    export_dot,
    export_json,
    find_special_vertex,
    import_json,
)
from kronrod.terms import Triv, Wr, parse_term

from reeb_oracle import build_reeb_per_level
from test_cylinder import tube_field
from test_fields import bump_disk


def flood_fill(tri, free, joins=None):
    """Components of the `free` triangles, joined across the adjacencies in
    `joins` (all of them by default), in the order of their smallest triangles.

    A plain stack flood fill that shares no code with the library's labeller.
    """
    sp = spans(tri)
    if joins is None:
        joins = np.ones(len(sp.adj_a), dtype=bool)
    nbrs: list[list[int]] = [[] for _ in range(tri.ntri)]
    for a, b, j in zip(sp.adj_a.tolist(), sp.adj_b.tolist(), joins.tolist()):
        if j and free[a] and free[b]:
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


def complement_components(g, vid):
    """Flood fill of the triangles outside vertex `vid`'s level component cells.

    An oracle for `find_special_vertex`, which reads the genus of the vertex's
    neighbourhood instead and shares no code with this.
    """
    free = np.ones(g.tri.ntri, dtype=bool)
    free[g.vertices[vid].cells] = False
    return flood_fill(g.tri, free)


def graph_digest(g):
    """SHA-256 over ids, values, boundary flags, crits, intervals and cells."""
    h = hashlib.sha256()
    for v in g.vertices:
        crits = [(c.x, c.y, c.kind.value, float(c.value)) for c in v.crits]
        cells = [int(t) for t in sorted(v.cells)]
        h.update(repr((v.id, float(v.value), bool(v.boundary), crits, cells)).encode())
    for e in g.edges:
        cells = [int(t) for t in e.cells]
        h.update(repr((e.id, e.u, e.v, float(e.lo), float(e.hi), cells)).encode())
    return h.hexdigest()


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

    def test_edge_cells_in_slab_and_disjoint_per_class(self):
        for n in (1, 2):
            f, _ = realize_torus_circuit(Wr(Triv(), 2), n)
            g = build_reeb(f)
            sp = spans(g.tri)
            classes: dict[tuple, list[int]] = {}
            for e in g.edges:
                assert len(e.cells) > 0
                assert (sp.tri_max[e.cells] > e.lo).all()
                assert (sp.tri_min[e.cells] < e.hi).all()
                classes.setdefault((e.u, e.v, e.lo, e.hi), []).append(e.id)
            parallel = [ids for ids in classes.values() if len(ids) > 1]
            if n == 1:
                assert parallel  # the two circuit edges
            for ids in parallel:
                cells = np.concatenate([g.edges[e].cells for e in ids])
                assert len(np.unique(cells)) == len(cells)


class TestLabel:
    @pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
    def test_long_path_is_one_component(self, order):
        n = 200_000
        nodes = {
            "increasing": np.arange(n),
            "decreasing": np.arange(n)[::-1],
            "shuffled": np.random.default_rng(0).permutation(n),
        }[order]
        root = _label(n, nodes[:-1], nodes[1:])
        assert len(root) == n and not root.any()

    def test_no_nodes(self):
        none = np.empty(0, dtype=np.int64)
        assert len(_label(0, none, none)) == 0

    def test_components_match_flood_fill(self):
        """Every slab's components, and every cut level's classes of slab ends
        with their cells, against flood fills that share no code with the
        sweep."""
        fields = [random_torus_field(s) for s in (0, 1, 2)]
        fields += [realize_disk(parse_term("wr(1,3)"))[0], tube_field()]
        for f in fields:
            tri = Triangulation(f)
            sp = spans(tri)
            cuts = sorted({v.value for v in build_reeb(f).vertices})
            slabs: dict[int, list[list[int]]] = {}
            levels: dict[int, list[list[int]]] = {}
            comps: list[list[int]] = []
            classes: list[list[int]] = []
            for b in _sweep(tri, np.array(cuts)):
                first_comp, first_class = len(comps), len(classes)
                comps += [[] for _ in b.comp_slab]
                for t, c in zip(b.node_t.tolist(), b.comp.tolist()):
                    comps[c].append(t)
                for k, m in zip(b.comp_slab.tolist(), comps[first_comp:]):
                    slabs.setdefault(k, []).append(m)
                classes += [[] for _ in b.levels]
                for t, c in b.inc.T.tolist():
                    classes[c].append(t)
                for j, m in zip(b.levels.tolist(), classes[first_class:]):
                    levels.setdefault(j, []).append(sorted(m))
            assert sorted(levels) == list(range(len(cuts)))
            for j, c in enumerate(cuts):
                assert levels[j] == level_set_components(f, c)
            assert sorted(slabs) == list(range(1, len(cuts)))
            for k in range(1, len(cuts)):
                sel = (sp.tri_max > cuts[k - 1]) & (sp.tri_min < cuts[k])
                joins = (sp.edge_max > cuts[k - 1]) & (sp.edge_min < cuts[k])
                assert slabs[k] == [sorted(m) for m in flood_fill(tri, sel, joins)]


def bench_field(side):
    """A `fields-analyze` benchmark field of the given side, unplaced."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    lib = types.SimpleNamespace(fields=kronrod.fields, errors=kronrod.errors)
    values = workloads.make_field(lib, *next(s for s in workloads.FIELD_SPECS if s[0] == side))
    return kronrod.fields.ScalarField("torus", values)


ORACLE_FIELDS = {
    **{m.label: (lambda m=m: realize_member(m)[0]) for m in corpus_grid()},
    **{
        f"random-{s}-{n}": (lambda s=s, n=n: random_torus_field(s, n))
        for s in range(12)
        for n in (16, 24)
    },
    "disk-wr(1,3)": lambda: realize_disk(parse_term("wr(1,3)"))[0],
    "disk-prod(wr(1,2),wr(1,3))": lambda: realize_disk(parse_term("prod(wr(1,2),wr(1,3))"))[0],
    "tube": tube_field,
    "bench-32": lambda: bench_field(32),
    "bench-64": lambda: bench_field(64),
}


@pytest.mark.parametrize("name", list(ORACLE_FIELDS))
def test_matches_per_level_builder(name):
    """The sweep gives the graph of the per-level builder it replaced, with
    the same ids, values, crits, intervals and cells."""
    f = ORACLE_FIELDS[name]()
    assert graph_digest(build_reeb(f)) == graph_digest(build_reeb_per_level(f))


class TestPinnedGraphs:
    """Graph digests taken before the component labeller was rewritten on
    triangle arrays; any change to ids, values, crits, intervals or cells
    shows here."""

    DIGESTS = {
        "tree-wr(1,2)-1-2": "ed7fbb2297878fd94404e7d859bfaf2c436e2aedb00168e5826cb5c9ec09a4a7",
        "circuit-wr(1,2)-2": "d6ecb60bdb9cddb1af2c684f464f682dfbe87a8eef8a5c1b637c59fc146716de",
        "simple-wr(wr(1,2),2)-2": "1659ba9aa0cfb97a11f54135944cc543be78cfabfe11c933514e24a84cd62fea",
        "disk-wr(1,3)": "0843a028f766a9c168c9301e8b6a3f75b2a3468006c97e0cfabd1d9db5b2ac0c",
        "tube": "9fb3cfc8d0c6c50edef6f342b49ef62585c1216cd91064d132026d3744f830cc",
        "random-3-24": "6ab8722727317017d20a4aa02097bcc8a58bf1d38784cdef9ae4a4c91ede6ade",
    }

    @staticmethod
    def field(name):
        members = {m.label: m for m in corpus_grid()}
        if name in members:
            return realize_member(members[name])[0]
        return {
            "disk-wr(1,3)": lambda: realize_disk(parse_term("wr(1,3)"))[0],
            "tube": tube_field,
            "random-3-24": lambda: random_torus_field(3, 24),
        }[name]()

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_graph_digest(self, name):
        assert graph_digest(build_reeb(self.field(name))) == self.DIGESTS[name]


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

    def test_no_triangulation_rejected(self):
        f, _ = realize_torus_tree(Triv(), 1, 1)
        g = import_json(export_json(build_reeb(f)))
        with pytest.raises(ReebError, match="no triangulation"):
            find_special_vertex(g, f)

    def test_circuit_graph_rejected(self):
        f, _ = realize_torus_circuit(Triv(), 2)
        g = build_reeb(f)
        with pytest.raises(NotATree):
            find_special_vertex(g, f)


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
            assert len(g.edges_spanning(t)) == len(level_set_components(f, t))

    @pytest.mark.parametrize("name", ["random-4", "disk-wr(1,3)", "tube"])
    def test_adjacency_is_shared_corners(self, name):
        """Every adjacency of the triangulation joins the two triangles that
        share a grid edge, with that edge's value span, and every interior
        grid edge has one; the oracle's corners come from its own code."""
        f = {
            "random-4": lambda: random_torus_field(4),
            "disk-wr(1,3)": lambda: realize_disk(parse_term("wr(1,3)"))[0],
            "tube": tube_field,
        }[name]()
        flat = f.values.ravel().tolist()
        sharing: dict[tuple[int, int], list[int]] = {}
        for t, pts in enumerate(triangle_corners(f)):
            for i in range(3):
                sharing.setdefault(tuple(sorted((pts[i], pts[i - 1]))), []).append(t)
        want = sorted(
            (ts[0], ts[1], min(flat[p], flat[q]), max(flat[p], flat[q]))
            for (p, q), ts in sharing.items()
            if len(ts) == 2
        )
        sp = spans(Triangulation(f))
        lo, hi = np.minimum(sp.adj_a, sp.adj_b), np.maximum(sp.adj_a, sp.adj_b)
        got = sorted(zip(lo.tolist(), hi.tolist(), sp.edge_min.tolist(), sp.edge_max.tolist()))
        assert got == want


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
