import dataclasses
import hashlib
import importlib.util
import json
import sys
import types
from bisect import bisect_right
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronrod
from kronrod.construct import realize_disk, realize_torus_circuit, realize_torus_tree
from kronrod.corpus import (
    corpus_grid,
    level_set_components,
    random_torus_field,
    realize_member,
    triangle_corners,
)
from kronrod.errors import NotATree, ReebError, ShapeViolation
from kronrod.fields import CritKind, ScalarField, classify_vertices, morse_counts
from kronrod.reeb import (
    ReebEdge,
    ReebGraph,
    ReebVertex,
    Triangulation,
    _label,
    _sides,
    _sweep,
    build_reeb,
    classify_shape,
    export_dot,
    export_json,
    find_special_vertex,
)
from kronrod.terms import Triv, Wr, parse_term
from kronrod.verify import verify_realization

from reeb_oracle import _region_euler, build_reeb_per_level, spans, union_find_roots
from test_fields import bump_disk


def flood_fill(tri, free, joins=None, starts=None):
    """Components of the `free` triangles, joined across the adjacencies in
    `joins` (all of them by default), in the order of their smallest triangles;
    only the components of the triangles in `starts`, when given.

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
    for start in (np.nonzero(free)[0] if starts is None else starts).tolist():
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
    """Flood fill of the triangles outside vertex `vid`'s level component.

    The level component is itself flood-filled from the triangles at the
    vertex's first critical point, over the triangles and shared grid edges
    whose value span holds the vertex's value.  An oracle for
    `find_special_vertex`, which reads the genus off the graph instead and
    shares no code with this.
    """
    tri, v = g.tri, g.vertices[vid]
    sp = spans(tri)
    c = v.crits[0]
    at_crit = np.flatnonzero((tri.corners == c.y * tri.field.width + c.x).any(axis=1))
    meets = (sp.tri_min <= v.value) & (sp.tri_max >= v.value)
    joins = (sp.edge_min <= v.value) & (sp.edge_max >= v.value)
    [level] = flood_fill(tri, meets, joins, at_crit)
    free = np.ones(tri.ntri, dtype=bool)
    free[level] = False
    return flood_fill(tri, free)


def graph_digest(g):
    """SHA-256 over ids, values, boundary flags, crits, intervals and witnesses."""
    h = hashlib.sha256()
    for v in g.vertices:
        crits = [(c.x, c.y, c.kind.value, float(c.value)) for c in v.crits]
        h.update(repr((v.id, float(v.value), bool(v.boundary), crits)).encode())
    for e in g.edges:
        h.update(repr((e.id, e.u, e.v, float(e.lo), float(e.hi), int(e.witness))).encode())
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

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda p: p[1:], "empty component end without an extremum"),
            (lambda p: np.repeat(p, 2), "slab component with 2 extrema inside"),
        ],
    )
    def test_extrema_inside_slabs_pair_with_empty_ends(self, change, message, monkeypatch):
        """An empty slab end needs an extremum to hang on it, and no slab
        component holds two."""
        f = random_torus_field(0)
        monkeypatch.setattr(
            kronrod.reeb, "_sweep", lambda tri, cuts, points: _sweep(tri, cuts, change(points))
        )
        with pytest.raises(ReebError, match=message):
            build_reeb(f)

    def test_edge_witness_in_lowest_slab_apart_per_class(self):
        """Each witness is the smallest triangle of its component in the slab
        between consecutive cut values (saddles and the field's extremes) that
        holds its edge's lo, and the witnesses of a parallel class lie in
        different components of that slab.  On every oracle field, edges come
        in strictly increasing (lo, witness) and `slab_roots` roots each
        witness at itself."""
        for n in (1, 2):
            f, _ = realize_torus_circuit(Wr(Triv(), 2), n)
            g = build_reeb(f)
            sp = spans(g.tri)
            saddles = {c.value for c in classify_vertices(f) if c.kind is CritKind.SADDLE}
            cuts = sorted(saddles | {float(f.values.min()), float(f.values.max())})
            classes: dict[tuple, list[int]] = {}
            roots = {}
            for e in g.edges:
                k = bisect_right(cuts, e.lo)
                lo, hi = cuts[k - 1], cuts[k]
                assert sp.tri_max[e.witness] > lo and sp.tri_min[e.witness] < hi
                if k not in roots:
                    joins = (sp.edge_max > lo) & (sp.edge_min < hi)
                    pairs = zip(sp.adj_a[joins].tolist(), sp.adj_b[joins].tolist())
                    roots[k] = union_find_roots(g.tri.ntri, pairs)
                assert roots[k][e.witness] == e.witness
                classes.setdefault((e.u, e.v, e.lo, e.hi), []).append(e.id)
            parallel = [ids for ids in classes.values() if len(ids) > 1]
            if n == 1:
                assert parallel  # the two circuit edges
            for ids in parallel:
                comps = [roots[bisect_right(cuts, g.edges[e].lo)][g.edges[e].witness] for e in ids]
                assert len(set(comps)) == len(comps)
        for name, make in ORACLE_FIELDS.items():
            g = build_reeb(make())
            keys = [(e.lo, e.witness) for e in g.edges]
            assert all(a < b for a, b in zip(keys, keys[1:])), name
            assert all(g.slab_roots(e.lo)[e.witness] == e.witness for e in g.edges), name


@st.composite
def label_inputs(draw):
    """(n, a, b) for `_label`: random edge lists with duplicates and
    self-loops, or shuffled paths and combs, which need several hook rounds;
    n = 0 and 1 and isolated nodes included, in int32 or int64."""
    n = draw(st.integers(0, 60))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    shape = draw(st.sampled_from(["random", "path", "comb"]))
    node = st.integers(0, max(n - 1, 0))
    if n == 0:
        edges = []
    elif shape == "random":
        edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    else:
        # leave some nodes isolated, and take the rest in a random order
        order = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
        if shape == "path":
            edges = list(zip(order, order[1:]))
        else:
            spine, teeth = order[: (len(order) + 1) // 2], order[(len(order) + 1) // 2 :]
            edges = list(zip(spine, spine[1:])) + list(zip(spine, teeth))
        edges += draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
        edges = draw(st.permutations(edges))
        flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
    a = np.array([u for u, _ in edges], dtype=dtype)
    b = np.array([v for _, v in edges], dtype=dtype)
    return n, a, b


class _CountingMinimum:
    """`np.minimum` that counts its `at` calls, one per hook round of `_label`."""

    def __init__(self):
        self.rounds = 0

    def __call__(self, *args, **kwargs):
        return np.minimum(*args, **kwargs)

    def at(self, *args):
        self.rounds += 1
        return np.minimum.at(*args)


class TestLabel:
    @settings(max_examples=300, deadline=None)
    @given(label_inputs())
    def test_matches_union_find(self, inputs):
        """Every node maps to the smallest node of its component, in the dtype
        of the input."""
        n, a, b = inputs
        root = _label(n, a, b)
        assert root.dtype == a.dtype
        assert root.tolist() == union_find_roots(n, zip(a.tolist(), b.tolist()))

    @pytest.mark.parametrize("shape", ["path", "comb"])
    def test_shuffled_shapes_take_several_rounds(self, shape, monkeypatch):
        """The shapes the property test draws do reach the later rounds, where
        only hooked roots are jumped."""
        n = 1000
        order = np.random.default_rng(1).permutation(n)
        if shape == "path":
            a, b = order[:-1], order[1:]
        else:
            spine, teeth = order[: n // 2], order[n // 2 :]
            a, b = np.concatenate([spine[:-1], spine]), np.concatenate([spine[1:], teeth])
        counting = _CountingMinimum()
        patched = types.SimpleNamespace(**{**vars(np), "minimum": counting})
        monkeypatch.setattr(kronrod.reeb, "np", patched)
        root = _label(n, a, b)
        assert counting.rounds >= 3
        assert root.tolist() == union_find_roots(n, zip(a.tolist(), b.tolist()))

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

    def test_components_match_flood_fill(self, monkeypatch):
        """The sweep against flood fills (see `check_sweep`), first with a cut
        at every vertex value, then with the builder's cuts, which leave the
        extrema between saddles and the field's extremes inside slabs.  The
        last field has its minimum moved to (0, 1), where the smallest
        triangle around it is the upper one of cell (0, 0): that triangle
        shares its node in the lowest slab with its cell's lower triangle,
        which does not meet the minimum's level."""
        fields = [random_torus_field(s) for s in (0, 1, 2)]
        fields.append(realize_disk(parse_term("wr(1,3)"))[0])
        v = random_torus_field(0).values
        y, x = np.unravel_index(v.argmin(), v.shape)
        fields.append(ScalarField("torus", np.roll(v, (1 - y, -x), axis=(0, 1))))
        hung = []
        for f in fields:
            cuts = sorted({v.value for v in build_reeb(f).vertices})
            assert check_sweep(f, cuts, np.empty(0, dtype=np.int64)) == 0
            [(cuts, points)] = record_sweeps(f, monkeypatch)
            hung.append(check_sweep(f, cuts, points))
            assert hung[-1] == len(points)
        assert all(hung[:3])  # the random fields have extrema inside slabs


def record_sweeps(f, monkeypatch):
    """The cuts (as a list) and the other arguments of every `_sweep` call
    that `build_reeb(f)` makes."""
    calls = []

    def recording(tri, cuts, *rest):
        calls.append((cuts.tolist(), *rest))
        return _sweep(tri, cuts, *rest)

    monkeypatch.setattr(kronrod.reeb, "_sweep", recording)
    build_reeb(f)
    return calls


def check_sweep(f, cuts, points):
    """Check `_sweep(tri, cuts, points)` against flood fills that share no
    code with it, and return the number of extrema it hung.

    Every slab's components are named by their smallest triangles.  Every
    cut level's classes of slab ends, but the empty ones, are its level
    components: a class holds the triangles that meet its level in the slab
    components whose bottom or top end it is, and every triangle around its
    grid vertices.  Each extremum inside a slab lies in the component that
    holds the triangles around it, and the empty ends are exactly the bottoms
    of the minima's components and the tops of the maxima's.
    """
    tri = Triangulation(f)
    sp = spans(tri)
    comp_slab: list[int] = []
    comp_t: list[int] = []
    ends: list[tuple[int, int, int]] = []  # (class, component, level)
    bottom_of: dict[int, int] = {}
    top_of: dict[int, int] = {}
    class_level: list[int] = []
    class_least: list[int] = []
    vertex_class: dict[int, int] = {}
    extrema: list[tuple[int, int, int]] = []  # (grid vertex, end, smallest triangle)
    for b in _sweep(tri, np.array(cuts), points):
        first = len(comp_slab)
        comp_slab += b.comp_slab.tolist()
        comp_t += b.comp_t.tolist()
        bottoms = zip(b.bottom.tolist(), b.comp_slab.tolist())
        ends += [(c, first + i, k - 1) for i, (c, k) in enumerate(bottoms)]
        ends += [(c, g, comp_slab[g]) for g, c in zip(*b.tops)]
        bottom_of.update(enumerate(b.bottom.tolist(), first))
        top_of.update(zip(*b.tops))
        class_level += b.levels.tolist()
        class_least += b.least.tolist()
        vertex_class.update(zip(*b.vertices.tolist()))
        extrema += map(tuple, b.extrema.T.tolist())
    assert sorted(set(comp_slab)) == list(range(1, len(cuts)))
    members: dict[tuple[int, int], list[int]] = {}  # by (slab, smallest triangle)
    for k in range(1, len(cuts)):
        sel = (sp.tri_max > cuts[k - 1]) & (sp.tri_min < cuts[k])
        joins = (sp.edge_max > cuts[k - 1]) & (sp.edge_min < cuts[k])
        comps = flood_fill(tri, sel, joins)
        assert [t for t, j in zip(comp_t, comp_slab) if j == k] == [m[0] for m in comps]
        members.update(((k, m[0]), m) for m in comps)
    classes: list[set[int]] = [set() for _ in class_level]
    for c, g, j in ends:
        m = members[comp_slab[g], comp_t[g]]
        classes[c].update(t for t in m if sp.tri_min[t] <= cuts[j] <= sp.tri_max[t])
    for p, c in vertex_class.items():
        classes[c].update(np.flatnonzero((tri.corners == p).any(axis=1)).tolist())
    assert class_level == sorted(class_level)
    assert class_least == [min(m, default=tri.ntri) for m in classes]
    for j, c in enumerate(cuts):
        level = [sorted(m) for m, k in zip(classes, class_level) if k == j and m]
        assert level == level_set_components(f, c)

    kinds = {c.y * f.width + c.x: c.kind for c in classify_vertices(f)}
    hung = []
    assert sorted(p for p, _, _ in extrema) == sorted(np.asarray(points).tolist())
    for p, e, t in extrema:
        g = e >> 1
        star = np.flatnonzero((tri.corners == p).any(axis=1)).tolist()
        assert t == star[0]
        assert set(star) <= set(members[comp_slab[g], comp_t[g]])
        assert e & 1 == (kinds[p] is CritKind.MAXIMUM)
        hung.append(top_of[g] if e & 1 else bottom_of[g])
    assert sorted(hung) == [c for c, m in enumerate(classes) if not m]
    return len(hung)


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
    # two edges that end at one saddle pass the cut just below it in bands
    # whose smallest triangles, across the seam at row 0, come in the other
    # order than the smallest triangles at the cut
    "random-1-16-rolled": lambda: ScalarField(
        "torus", np.roll(random_torus_field(1, 16).values, 9, axis=0)
    ),
    "disk-wr(1,3)": lambda: realize_disk(parse_term("wr(1,3)"))[0],
    "disk-prod(wr(1,2),wr(1,3))": lambda: realize_disk(parse_term("prod(wr(1,2),wr(1,3))"))[0],
    "bench-32": lambda: bench_field(32),
    "bench-64": lambda: bench_field(64),
}


@pytest.mark.parametrize("name", ["bench-32", "tree-wr(1,2)-1-2", "disk-wr(1,3)"])
def test_cuts_at_saddles_boundaries_and_extremes(name, monkeypatch):
    """The builder cuts at the saddle and boundary values and at the field's
    minimum and maximum only; every other extremum lies inside a slab."""
    f = ORACLE_FIELDS[name]()
    [(cuts, *_)] = record_sweeps(f, monkeypatch)
    saddles = {c.value for c in classify_vertices(f) if c.kind is CritKind.SADDLE}
    boundary = set(f.values[f.boundary_mask()].tolist())
    assert cuts == sorted(saddles | boundary | {float(f.values.min()), float(f.values.max())})


def record_batches(f, monkeypatch):
    """The cuts of the sweep that `build_reeb(f)` makes, and per batch its
    slabs (first, last) and the node count of its first `_label` call, the
    one that labels its slab components."""
    counts, batches = [], []

    def label(n, a, b):
        counts.append(n)
        return _label(n, a, b)

    def sweep(tri, cuts, points):
        for b in _sweep(tri, cuts, points):
            batches.append((int(b.comp_slab.min()), int(b.comp_slab.max()), counts[0]))
            counts.clear()
            yield b

    [(cuts, *_)] = record_sweeps(f, monkeypatch)
    monkeypatch.setattr(kronrod.reeb, "_label", label)
    monkeypatch.setattr(kronrod.reeb, "_sweep", sweep)
    build_reeb(f)
    return cuts, batches


def cell_slabs(f, cuts):
    """Per cell, the slabs (first, last) of its lower triangle, of its
    diagonal and of its upper triangle, from corner values: slab k meets a
    value span lo..hi when cuts[k-1] < hi and lo < cuts[k]."""
    tri = Triangulation(f)
    vals = f.values.ravel()[tri.corners]
    lower, upper = vals[0::2], vals[1::2]
    diag = lower[:, [0, 2]]  # corners (x,y) and (x+1,y+1)
    return [
        (np.searchsorted(cuts, v.min(axis=1), "right"), np.searchsorted(cuts, v.max(axis=1)))
        for v in (lower, diag, upper)
    ]


@pytest.mark.parametrize("name", ["bench-64", "disk-wr(1,3)", "random-1-16-rolled"])
def test_sweep_labels_one_node_per_cell_piece_and_slab(name, monkeypatch):
    """A cell's two triangles share one node in every slab that their
    diagonal meets, so the sweep labels each triangle's slabs less its
    diagonal's, and no more."""
    f = ORACLE_FIELDS[name]()
    cuts, batches = record_batches(f, monkeypatch)
    ranges = cell_slabs(f, cuts)
    lower, diag, upper = (np.maximum(last - first + 1, 0).sum() for first, last in ranges)
    assert diag > 0
    assert sum(n for _, _, n in batches) == lower + upper - diag


def test_oracle_fields_cover_every_cell_case(monkeypatch):
    """Between them, the oracle fields have cells whose upper triangle has
    its own slabs below its diagonal's, above them or none, and cells whose
    diagonal meets no slab; and a field swept in several batches has a cell
    that shares its node in a batch's last slab while its upper triangle
    goes on into the next batch, which must then find that node's component
    under it."""
    cases, handed = set(), False
    for name, make in ORACLE_FIELDS.items():
        f = make()
        cuts, batches = record_batches(f, monkeypatch)
        _, (d0, d1), (u0, u1) = cell_slabs(f, cuts)
        on = d0 <= d1
        cases |= {
            case
            for case, cells in [
                ("below", on & (u0 < d0)),
                ("above", on & (u1 > d1)),
                ("inside", on & (u0 == d0) & (u1 == d1)),
                ("empty", ~on),
            ]
            if cells.any()
        }
        handed |= any(((d0 <= k1) & (k1 <= d1) & (u1 > k1)).any() for _, k1, _ in batches[:-1])
    assert cases == {"below", "above", "inside", "empty"}
    assert handed


@pytest.mark.parametrize("name", list(ORACLE_FIELDS))
def test_matches_per_level_builder(name):
    """The sweep gives the graph of the per-level builder it replaced, with
    the same ids, values, crits, intervals and witnesses once the oracle names
    its witnesses by the sweep's slabs."""
    f = ORACLE_FIELDS[name]()
    assert graph_digest(build_reeb(f)) == graph_digest(build_reeb_per_level(f))


class TestPinnedGraphs:
    """Graph digests over ids, values, boundary flags, crits, intervals and
    edge witnesses, taken while the graph still carried triangle sets (the
    witness was then the first of an edge's sorted cells), and re-taken
    where edges came to be named and ordered by their witnesses in the
    sweep's slabs; any change to them shows here."""

    DIGESTS = {
        "tree-wr(1,2)-1-2": "13bb14b1f6a47d32dc3cb51dc9678a54f6daff6a713c4e7b990373dcf7cbaa4f",
        "circuit-wr(1,2)-2": "3afba67c25dd3a72c1cee3951e0e0833d2376df41df226779ff47c11be4bb275",
        "simple-wr(wr(1,2),2)-2": "05876bdbf352918a2317a37cf4caf84b7cdcd49d61dba9915fbf7bfcc6c5ebfb",
        "disk-wr(1,3)": "8e881c84094f37ed7ed9941843152d8c587f335876ef113a86e77b5bffa7550b",
        "random-3-24": "67d3fb37807c0a034f233f8fccec0b06d95e01b327facd6c36d130b87a74023a",
    }

    @staticmethod
    def field(name):
        members = {m.label: m for m in corpus_grid()}
        if name in members:
            return realize_member(members[name])[0]
        return {
            "disk-wr(1,3)": lambda: realize_disk(parse_term("wr(1,3)"))[0],
            "random-3-24": lambda: random_torus_field(3, 24),
        }[name]()

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_graph_digest(self, name):
        assert graph_digest(build_reeb(self.field(name))) == self.DIGESTS[name]


def hand_graph(values, ends, tri=None):
    """A graph with the given vertex values and edges between the given ends."""
    vertices = [ReebVertex(i, v, []) for i, v in enumerate(values)]
    edges = [
        ReebEdge(i, u, v, min(values[u], values[v]), max(values[u], values[v]))
        for i, (u, v) in enumerate(ends)
    ]
    return ReebGraph(vertices, edges, tri)


class TestShape:
    def test_theta_graph_has_no_unique_circuit(self):
        """On every call: a report is kept, an error is not."""
        ends = [(0, 1), (0, 1), (0, 1)]
        g = hand_graph([0.0, 1.0], ends)
        for _ in range(2):
            with pytest.raises(ReebError, match="no unique circuit"):
                classify_shape(g)
        g = hand_graph([0.0, 1.0], ends, Triangulation(random_torus_field(4)))
        for _ in range(2):
            with pytest.raises(ShapeViolation):
                classify_shape(g)

    @pytest.mark.parametrize("n", [1, 3])
    def test_report_is_kept_and_frozen(self, n):
        """Every caller gets the one report of a graph, so none can change it."""
        g = build_reeb(realize_torus_circuit(Triv(), n)[0])
        rep = classify_shape(g)
        assert classify_shape(g) is rep
        assert rep.shape == "circuit" and len(rep.cycle_edges) == 2 * n
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.cycle_edges = ()
        tree = build_reeb(realize_torus_tree(Triv(), 1, 1)[0])
        assert classify_shape(tree) is classify_shape(tree)

    def test_loop_circuit(self):
        # a loop at vertex 1 with a leaf on either side
        rep = classify_shape(hand_graph([0.0, 1.0, 2.0], [(0, 1), (1, 1), (1, 2)]))
        assert (rep.betti1, rep.shape) == (1, "circuit")
        assert (rep.cycle_vertices, rep.cycle_edges) == ((1,), (1,))

    def test_two_vertex_circuit_walks_from_smallest_vertex_and_edge(self):
        # parallel edges 1 and 2 between vertices 3 and 1; leaves 0 on 3, 2 on 1
        ends = [(0, 3), (3, 1), (1, 3), (1, 2)]
        rep = classify_shape(hand_graph([0.0, 1.0, 2.0, 3.0], ends))
        assert (rep.cycle_vertices, rep.cycle_edges) == ((1, 3), (1, 2))

    def test_only_a_two_edge_circuit_has_parallel_edges(self):
        """Edges that share both ends occur exactly as `parallel_pair()`, over
        72 graphs: the 26 corpus members, 30 random torus fields and the 16
        converse-sweep bases on the disk.  22 of them have the pair."""
        path = Path(__file__).resolve().parents[1] / "scripts" / "converse_sweep.py"
        spec = importlib.util.spec_from_file_location("converse_sweep", path)
        sweep = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sweep)
        fields = [realize_member(m)[0] for m in corpus_grid()]
        fields += [random_torus_field(s, 24) for s in range(30)]
        fields += [realize_disk(parse_term(base))[0] for base in sweep.BASES]
        pairs = 0
        for f in fields:
            g = build_reeb(f)
            ends = Counter(frozenset((e.u, e.v)) for e in g.edges)
            shared = [e.id for e in g.edges if ends[frozenset((e.u, e.v))] > 1]
            assert shared == list(g.parallel_pair() or ())
            pairs += bool(shared)
        assert (len(fields), pairs) == (72, 22)

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


# the 9 corpus trees and 5 more: (label, base, n, m)
SPECIAL_TREES = [(m.label, m.base, m.n, m.m) for m in corpus_grid() if m.case == "tree"] + [
    ("tree-1-3-1", "1", 3, 1),
    ("tree-1-2-3", "1", 2, 3),
    ("tree-wr(1,3)-1-1", "wr(1,3)", 1, 1),
    ("tree-prod(wr(1,2),wr(1,3))-1-2", "prod(wr(1,2),wr(1,3))", 1, 2),
    ("tree-wr(1,2)-3-1", "wr(1,2)", 3, 1),
]


class TestSpecialVertex:
    def test_lattice_special(self):
        f, _ = realize_torus_tree(Triv(), 1, 1)
        g = build_reeb(f)
        sv = find_special_vertex(g, f)
        assert g.vertices[sv].value == 0.0

    def test_complement_count(self):
        """The complement of the special vertex's level component is 4n^2 m
        open disks, on every tree realization."""
        for label, base, n, m in SPECIAL_TREES:
            f, _ = realize_torus_tree(parse_term(base), n, m)
            g = build_reeb(f)
            comps = complement_components(g, find_special_vertex(g, f))
            assert len(comps) == 4 * n * n * m, label
            assert all(_region_euler(g.tri, c) == (1, 1) for c in comps), label

    def test_imported_graph_same_answer(self):
        """The genus is read off the graph alone, so the same vertices and
        edges with no triangulation give the same special vertex."""
        for member in corpus_grid():
            if member.case != "tree":
                continue
            f, _ = realize_member(member)
            g = build_reeb(f)
            h = ReebGraph(g.vertices, g.edges)
            assert h.tri is None
            assert find_special_vertex(h, f) == find_special_vertex(g, f), member.label

    def test_random_fields_have_no_genus_one_vertex(self):
        """Random torus fields have circuit graphs: the search rejects them, and
        no level component has genus (2 - e + s - deg)/2 = 1."""
        for s in range(12):
            f = random_torus_field(s, 24)
            g = build_reeb(f)
            with pytest.raises(NotATree):
                find_special_vertex(g, f)
            deg = Counter(x for e in g.edges for x in (e.u, e.v))
            for v in g.vertices:
                saddles = sum(c.kind is CritKind.SADDLE for c in v.crits)
                extrema = len(v.crits) - saddles
                assert 2 - extrema + saddles - deg[v.id] != 2

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

    @pytest.mark.parametrize("name", ["random-4", "disk-wr(1,3)"])
    def test_adjacency_is_shared_corners(self, name):
        """Every adjacency of the triangulation, the library's and the
        oracle's, joins the two triangles that share a grid edge, with that
        edge's value span, and every interior grid edge has one; the corners
        compared with come from the corpus's own code."""
        f = {
            "random-4": lambda: random_torus_field(4),
            "disk-wr(1,3)": lambda: realize_disk(parse_term("wr(1,3)"))[0],
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
        tri = Triangulation(f)
        sp = spans(tri)
        a, b, p, q = _sides(tri, np.arange(f.values.size).reshape(f.values.shape))
        vals = f.values.ravel()
        for adj_a, adj_b, e_min, e_max in (
            (sp.adj_a, sp.adj_b, sp.edge_min, sp.edge_max),
            (a, b, np.minimum(vals[p], vals[q]), np.maximum(vals[p], vals[q])),
        ):
            lo, hi = np.minimum(adj_a, adj_b), np.maximum(adj_a, adj_b)
            got = sorted(zip(lo.tolist(), hi.tolist(), e_min.tolist(), e_max.tolist()))
            assert got == want


class TestCellCorners:
    @pytest.mark.parametrize("kind", ["torus", "disk"])
    @pytest.mark.parametrize("shape", [(8, 11), (11, 8)])
    def test_views_match_the_corpus_corners(self, kind, shape):
        """`Triangulation.cell_corners` of the vertex-id grid, and the corner
        table built from it, against `corpus.triangle_corners`, which works
        out the corners (x,y), (x+1,y+1) and the third one by itself.  Grids
        with w != h at the minimum side pin the appended wrap row and column."""
        f = ScalarField(kind, np.zeros(shape), validate=False)
        tri = Triangulation(f)
        ids = np.arange(f.values.size).reshape(shape)
        v00, v10, v11, v01 = (v.ravel().tolist() for v in tri.cell_corners(ids))
        got = [t for c in zip(v00, v10, v11, v01) for t in ((c[0], c[2], c[1]), (c[0], c[2], c[3]))]
        want = triangle_corners(f)
        assert got == want
        assert tri.corners[:, [0, 2, 1]][0::2].tolist() == [list(t) for t in want[0::2]]
        assert tri.corners[1::2].tolist() == [list(t) for t in want[1::2]]

    @pytest.mark.parametrize("kind", ["torus", "disk"])
    @pytest.mark.parametrize("shape", [(8, 11), (11, 8)])
    def test_star_matches_the_corpus_corners(self, kind, shape):
        """`Triangulation.star` of every grid point, in a random order and the
        disk's frame included, against the triangles whose
        `corpus.triangle_corners` hold the point, in the order its docstring
        gives: the lower triangles that have it as their corner (x+1,y+1),
        (x+1,y) and (x,y), then the upper ones that have it as (x+1,y+1),
        (x,y+1) and (x,y), and ntri where a disk has none.  A triangle is an
        upper one when its third corner lies off its first corner's row."""
        f = ScalarField(kind, np.zeros(shape), validate=False)
        h, w = shape
        tri = Triangulation(f)
        at = {}
        for t, corners in enumerate(triangle_corners(f)):
            upper = corners[2] // w != corners[0] // w
            at.update(((p, upper, i), t) for i, p in enumerate(corners))
        points = np.random.default_rng(w).permutation(w * h)
        order = [(up, i) for up in (False, True) for i in (1, 2, 0)]
        want = [[at.get((p, up, i), tri.ntri) for up, i in order] for p in points]
        assert tri.star(points).tolist() == want

    def test_build_reads_the_cell_corners_once(self, monkeypatch):
        """A build reads the grid at the cell corners in one `cell_corners`
        pass and never works out the adjacency of `_sides`, on a torus, on a
        disk and on a field swept in several batches."""
        calls = []
        cell_corners = Triangulation.cell_corners

        def counting(tri, grid):
            calls.append(grid.shape)
            return cell_corners(tri, grid)

        def no_sides(tri, grid):
            raise AssertionError("the build read _sides")

        monkeypatch.setattr(Triangulation, "cell_corners", counting)
        monkeypatch.setattr(kronrod.reeb, "_sides", no_sides)
        for name in ("random-3-16", "disk-wr(1,3)", "bench-64"):
            f = ORACLE_FIELDS[name]()
            calls.clear()
            build_reeb(f)
            assert calls == [f.values.shape], name
        _, batches = record_batches(f, monkeypatch)
        assert len(batches) > 1

    def test_slab_roots_is_the_one_reader_of_sides(self):
        """No function of the library but `ReebGraph.slab_roots` names
        `_sides`, so the build and a push never work out the adjacency."""
        readers = set()

        def walk(code):
            if "_sides" in code.co_names and code.co_name != "<module>":
                readers.add(code.co_name)
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    walk(const)

        for path in Path(kronrod.__file__).parent.glob("*.py"):
            walk(compile(path.read_text(), str(path), "exec"))
        assert readers == {"slab_roots"}

    def test_build_reads_no_corner_table(self, monkeypatch):
        """The build and a push read corners through shifted views and index
        arithmetic only; the (ntri, 3) table is kept for tests and oracles."""

        def no_table(tri):
            raise AssertionError("the corner table was read")

        monkeypatch.setattr(Triangulation, "corners", property(no_table))
        for name in ("random-3-16", "random-1-16-rolled", "disk-wr(1,3)", "tree-wr(1,2)-1-2"):
            build_reeb(ORACLE_FIELDS[name]())
        members = {m.label: m for m in corpus_grid()}  # its push splits the parallel pair
        assert verify_realization(*realize_member(members["circuit-wr(1,2)-1"])).ok


class TestExports:
    def test_dot(self):
        g = build_reeb(bump_disk())
        dot = export_dot(g)
        assert dot.startswith("graph reeb {")
        assert dot.count(" -- ") == 1

    def test_json_round_trip(self):
        g = build_reeb(bump_disk())
        doc = json.loads(export_json(g))
        assert [v["id"] for v in doc["vertices"]] == [v.id for v in g.vertices]
        assert [(e["u"], e["v"], e["lo"], e["hi"]) for e in doc["edges"]] == [
            (e.u, e.v, e.lo, e.hi) for e in g.edges
        ]

    def test_json_cells_elided(self):
        g = build_reeb(bump_disk())
        doc = json.loads(export_json(g))
        assert "cells" not in doc["vertices"][0]
