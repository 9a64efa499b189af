import functools
import hashlib
import importlib.util
import json
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronrod
from kronrod.construct import realize_disk, realize_torus_circuit, realize_torus_tree
from kronrod.corpus import corpus_grid, realize_member
from kronrod.errors import NotATree, ReebError, ShapeViolation
from kronrod.fields import CritKind, ScalarField, classify_vertices, fix_ties, morse_counts
from kronrod.reeb import (
    ReebEdge,
    ReebGraph,
    ReebVertex,
    Triangulation,
    _kept_lines,
    _label,
    _levels_crossed,
    _ranks,
    _sweep,
    build_reeb,
    classify_shape,
    export_dot,
    export_json,
    find_special_vertex,
)
from kronrod.terms import Triv, Wr, parse_term
from kronrod.verify import verify_realization

from reeb_oracle import (
    _components,
    _region_euler,
    build_reeb_per_level,
    corner_table,
    level_set_components,
    random_disk_field,
    random_torus_field,
    spans,
    triangle_corners,
    union_find_roots,
)
from test_fields import bump_disk


def flood_fill(f, free, joins=None, starts=None):
    """Components of the `free` triangles of `f`'s grid, joined across the
    adjacencies in `joins` (all of them by default), in the order of their
    smallest triangles; only the components of the triangles in `starts`,
    when given.

    A plain stack flood fill that shares no code with the library's labeller.
    """
    sp = spans(f)
    if joins is None:
        joins = np.ones(len(sp.adj_a), dtype=bool)
    nbrs: list[list[int]] = [[] for _ in free]
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
    f, v = g.field, g.vertices[vid]
    sp = spans(f)
    c = v.crits[0]
    corners = corner_table(f)
    at_crit = np.flatnonzero((corners == c.y * f.width + c.x).any(axis=1))
    meets = (sp.tri_min <= v.value) & (sp.tri_max >= v.value)
    joins = (sp.edge_min <= v.value) & (sp.edge_max >= v.value)
    [level] = flood_fill(f, meets, joins, at_crit)
    free = np.ones(g.tri.ntri, dtype=bool)
    free[level] = False
    return flood_fill(f, free)


def graph_digest(g, ids=None):
    """SHA-256 over ids, values, boundary flags, crits, intervals and
    witnesses, each witness read as `ids[witness]` when `ids` is given."""
    h = hashlib.sha256()
    for v in g.vertices:
        crits = [(c.x, c.y, c.kind.value, float(c.value)) for c in v.crits]
        h.update(repr((v.id, float(v.value), bool(v.boundary), crits)).encode())
    for e in g.edges:
        witness = int(e.witness if ids is None else ids[e.witness])
        h.update(repr((e.id, e.u, e.v, float(e.lo), float(e.hi), witness)).encode())
    return h.hexdigest()


def glued(f):
    """The library's id of each of the oracle's triangles of `f`.

    The oracle's triangles 2c and 2c+1 have their cell's first corner first,
    and the library names a cell by that corner, y*W + x.  So the ids agree
    on a torus.  A disk's oracle cells stop one short of its frame, and its
    cell (x, y) is the library's y*W + x, which keeps their order."""
    corners = corner_table(f)
    return 2 * corners[:, 0] + np.arange(len(corners)) % 2


def glue_triangles(f):
    """The library's triangles that no oracle triangle of `f` maps to: none
    on a torus, and on a disk those of the glue cells, its last row and
    column, which cross the join of its frame's opposite sides."""
    return np.setdiff1d(np.arange(2 * f.values.size), glued(f))


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
            (lambda e: e[:, 1:], "empty component end without an extremum"),
            (lambda e: np.repeat(e, 2, axis=1), "slab component with 2 extrema inside"),
        ],
    )
    def test_extrema_inside_slabs_pair_with_empty_ends(self, change, message, monkeypatch):
        """An empty slab end needs an extremum to hang on it, and no slab
        component holds two: the sweep's extrema, (index in its points,
        component) rows, with the first left out or each given twice."""
        f = random_torus_field(0)

        def sweep(tri, rank, points):
            for b in _sweep(tri, rank, points):
                yield b._replace(extrema=change(b.extrema))

        monkeypatch.setattr(kronrod.reeb, "_sweep", sweep)
        with pytest.raises(ReebError, match=message):
            build_reeb(f)

    def test_edge_witness_is_its_smallest_triangle(self):
        """Each witness is the smallest triangle of its edge: of the edge's
        component among the triangles and shared grid edges whose value spans
        meet the open interval (lo, hi), where every edge is one component,
        worked out by the oracle's union-find.  So the witnesses of a parallel
        pair differ, and on every oracle field edges come in strictly
        increasing (lo, witness), with `slab_roots(lo, hi)` rooting each
        witness at itself."""
        for n in (1, 2):
            f, _ = realize_torus_circuit(Wr(Triv(), 2), n)
            g = build_reeb(f)
            sp = spans(g.field)
            for e in g.edges:
                joins = (sp.edge_max > e.lo) & (sp.edge_min < e.hi)
                pairs = zip(sp.adj_a[joins].tolist(), sp.adj_b[joins].tolist())
                root = union_find_roots(g.tri.ntri, pairs)
                assert sp.tri_max[e.witness] > e.lo and sp.tri_min[e.witness] < e.hi
                assert root[e.witness] == e.witness
            if n == 1:
                a, b = (g.edges[e] for e in g.parallel)  # the two circuit edges
                assert (a.lo, a.hi) == (b.lo, b.hi) and a.witness != b.witness
        for name, make in ORACLE_FIELDS.items():
            g = build_reeb(make())
            keys = [(e.lo, e.witness) for e in g.edges]
            assert all(a < b for a, b in zip(keys, keys[1:])), name
            assert all(g.slab_roots(e.lo, e.hi)[e.witness] == e.witness for e in g.edges), name


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
            [(g, cuts, points)] = record_sweeps(f, monkeypatch)
            hung.append(check_sweep(g, cuts, points))
            assert hung[-1] == len(points)
        assert all(hung[:3])  # the random fields have extrema inside slabs


def record_sweeps(f, monkeypatch):
    """The field that each `_sweep` call of `build_reeb(f)`, made in one
    pass, sweeps, `f` with its repeated rank lines dropped (its values on
    the lines `_kept_lines` keeps), its cut values (as a list) and its
    extrema inside slabs; the cut values are read off the grid vertices of
    odd rank, which a one-pass build puts at its cuts.  The swept field is a
    torus, as `_sweep` labels every grid round the torus: a disk's sweep has
    dropped its last frame row and column, which equal its first."""
    calls, kept = [], []
    kept_lines = kronrod.reeb._kept_lines

    def keeping(rank):
        kept.append(kept_lines(rank))
        return kept[-1]

    def recording(tri, rank, points):
        values = f.values[np.ix_(*kept[-1])]
        cuts = sorted(set(values[(rank & 1) == 1].tolist()))
        calls.append((ScalarField("torus", values, validate=False), cuts, points))
        return _sweep(tri, rank, points)

    with monkeypatch.context() as mp:  # `recording` reads this `f` only
        passes(mp)
        mp.setattr(kronrod.reeb, "_kept_lines", keeping)
        mp.setattr(kronrod.reeb, "_sweep", recording)
        build_reeb(f)
    return calls


def check_sweep(f, cuts, points):
    """Check `_sweep` on the ranks of `cuts` against flood fills that share no
    code with it, and return the number of extrema it hung.

    Every slab's components are named by their smallest triangles.  Every
    cut level's classes of slab ends, but the empty ones, are its level
    components: a class holds the triangles that meet its level in the slab
    components whose bottom or top end it is, and every triangle around its
    grid vertices.  Each extremum inside a slab is given once, by its index
    in `points`, with the component that holds the triangles around it, and
    the empty ends are exactly one end of each of those components.  The
    flood fills run on the oracle's triangles, whose ids the sweep's are
    compared with through `glued`.
    """
    tri = Triangulation(f.height, f.width)
    sp, corners, ids = spans(f), corner_table(f), glued(f)
    comp_slab: list[int] = []
    comp_t: list[int] = []
    ends: list[tuple[int, int, int]] = []  # (class, component, level)
    bottom_of: dict[int, int] = {}
    top_of: dict[int, int] = {}
    class_level: list[int] = []
    class_least: list[int] = []
    vertex_class: dict[int, int] = {}
    extrema: list[tuple[int, int]] = []  # (index in points, component)
    for b in _sweep(tri, _ranks(f, np.array(cuts)), points):
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
        comps = flood_fill(f, sel, joins)
        assert [t for t, j in zip(comp_t, comp_slab) if j == k] == [ids[m[0]] for m in comps]
        members.update(((k, ids[m[0]]), m) for m in comps)
    classes: list[set[int]] = [set() for _ in class_level]
    for c, g, j in ends:
        m = members[comp_slab[g], comp_t[g]]
        classes[c].update(t for t in m if sp.tri_min[t] <= cuts[j] <= sp.tri_max[t])
    for p, c in vertex_class.items():
        classes[c].update(np.flatnonzero((corners == p).any(axis=1)).tolist())
    assert class_level == sorted(class_level)
    assert class_least == [min(ids[list(m)], default=tri.ntri) for m in classes]
    for j, c in enumerate(cuts):
        level = [sorted(m) for m, k in zip(classes, class_level) if k == j and m]
        assert level == level_set_components(f, c)

    hung = []
    assert sorted(i for i, _ in extrema) == list(range(len(points)))
    for i, g in extrema:
        star = np.flatnonzero((corners == points[i]).any(axis=1)).tolist()
        assert set(star) <= set(members[comp_slab[g], comp_t[g]])
        [end] = [c for c in (bottom_of[g], top_of[g]) if not classes[c]]
        hung.append(end)
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


def converse_bases():
    """The 16 disk-class base terms of `scripts/converse_sweep.py`."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "converse_sweep.py"
    spec = importlib.util.spec_from_file_location("converse_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep.BASES


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
    # constructions rolled so that row 0 and column 0 lie inside runs of
    # repeated rank lines, which the sweep drops but for line 0
    "circuit-1-2-rolled": lambda: ScalarField(
        "torus", np.roll(realize_torus_circuit(parse_term("1"), 2)[0].values, (7, 4), axis=(0, 1))
    ),
    "tree-wr(1,2)-1-1-rolled": lambda: ScalarField(
        "torus",
        np.roll(realize_torus_tree(parse_term("wr(1,2)"), 1, 1)[0].values, (30, 32), axis=(0, 1)),
    ),
    # the disk realizations of the converse sweep, and seeded disks with
    # their collar above or below the frame; the last takes two passes
    **{f"disk-{b}": (lambda b=b: realize_disk(parse_term(b))[0]) for b in converse_bases()},
    **{
        f"random-disk-{s}-{n}{'-below' * below}": (
            lambda s=s, n=n, below=below: random_disk_field(s, n, below=below)
        )
        for s in range(3)
        for n in (12, 20)
        for below in (False, True)
    },
    "random-disk-1-48": lambda: random_disk_field(1, 48, freq=6),
    "bench-32": lambda: bench_field(32),
    "bench-64": lambda: bench_field(64),
    # constructions beyond the corpus, whose sweeps run on grids with
    # repeated rank lines dropped: the largest `circuit-scale` circuit and a
    # tree of n*m = 3 lattice squares
    "circuit-1-8": lambda: realize_torus_circuit(parse_term("1"), 8)[0],
    "tree-wr(1,2)-3-1": lambda: realize_torus_tree(parse_term("wr(1,2)"), 3, 1)[0],
}


def cut_values(f):
    """The saddle and boundary values of `f` and its minimum and maximum, sorted."""
    saddles = {c.value for c in classify_vertices(f) if c.kind is CritKind.SADDLE}
    boundary = set(f.values[f.boundary_mask()].tolist())
    return sorted(saddles | boundary | {float(f.values.min()), float(f.values.max())})


@pytest.mark.parametrize("name", ["bench-32", "tree-wr(1,2)-1-2", "disk-wr(1,3)"])
def test_cuts_at_saddles_boundaries_and_extremes(name, monkeypatch):
    """The builder cuts at the saddle and boundary values and at the field's
    minimum and maximum only; every other extremum lies inside a slab."""
    f = ORACLE_FIELDS[name]()
    [(_, cuts, _)] = record_sweeps(f, monkeypatch)
    assert cuts == cut_values(f)


def record_batches(f, monkeypatch):
    """The field, cuts and points of the sweep that `build_reeb(f)` makes
    in one pass (see `record_sweeps`), and per batch its slabs (first, last)
    and the node count of its first `_label` call, the one that labels its
    slab components."""
    counts, batches = [], []
    passes(monkeypatch)

    def label(n, a, b):
        counts.append(n)
        return _label(n, a, b)

    def sweep(tri, rank, points):
        for b in _sweep(tri, rank, points):
            batches.append((int(b.comp_slab.min()), int(b.comp_slab.max()), counts[0]))
            counts.clear()
            yield b

    [swept] = record_sweeps(f, monkeypatch)
    monkeypatch.setattr(kronrod.reeb, "_label", label)
    monkeypatch.setattr(kronrod.reeb, "_sweep", sweep)
    build_reeb(f)
    return (*swept, batches)


def cell_slabs(f, cuts):
    """Per cell, the slabs (first, last) of its lower triangle, of its
    diagonal and of its upper triangle, from corner values: slab k meets a
    value span lo..hi when cuts[k-1] < hi and lo < cuts[k]."""
    vals = f.values.ravel()[corner_table(f)]
    lower, upper = vals[0::2], vals[1::2]
    diag = lower[:, :2]  # corners (x,y) and (x+1,y+1)
    return [
        (np.searchsorted(cuts, v.min(axis=1), "right"), np.searchsorted(cuts, v.max(axis=1)))
        for v in (lower, diag, upper)
    ]


@pytest.mark.parametrize("name", list(ORACLE_FIELDS))
def test_sweep_labels_one_node_per_cell_piece_and_slab(name, monkeypatch):
    """A cell's two triangles share one node in every slab that their
    diagonal meets, so the sweep labels each triangle's slabs less its
    diagonal's, and no more, on the grid it sweeps: the constructions' with
    repeated lines dropped."""
    f = ORACLE_FIELDS[name]()
    g, cuts, _, batches = record_batches(f, monkeypatch)
    ranges = cell_slabs(g, cuts)
    lower, diag, upper = (np.maximum(last - first + 1, 0).sum() for first, last in ranges)
    assert diag > 0
    assert sum(n for _, _, n in batches) == lower + upper - diag


def test_oracle_fields_cover_every_cell_case(monkeypatch):
    """Between them, the grids that the oracle fields' sweeps are given have
    cells whose upper triangle has its own slabs below its diagonal's, above
    them or none, and cells whose diagonal meets no slab; and a field swept
    in several batches has a cell that shares its node in a batch's last
    slab while its upper triangle goes on into the next batch, which must
    then find that node's component under it."""
    cases, handed = set(), False
    for name, make in ORACLE_FIELDS.items():
        g, cuts, _, batches = record_batches(make(), monkeypatch)
        _, (d0, d1), (u0, u1) = cell_slabs(g, cuts)
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


def test_torus_column_of_run_heads():
    """A torus field of x but for a small wave in y: the saddle at x = 0
    cuts every cell of column 0, and every cell of column 1 lies strictly
    inside the middle slab.  Column 0's pieces in that slab reach column 1
    only across its left edges, down the whole torus column.  The sweep, on
    the field's own grid, against flood fills."""
    x, y = np.meshgrid(np.arange(16), np.arange(16))
    values = np.cos(x * np.pi / 8) + 0.03 * np.cos(y * np.pi / 8)
    f = ScalarField("torus", fix_ties(values, "torus"))
    cuts = cut_values(f)
    rank = _ranks(f, np.array(cuts))
    assert ((rank[:, 0] & 1) == 1).any()  # the saddle's column
    assert (rank[:, 1:3] == 4).all()  # column 1's corners, inside slab 2
    assert check_sweep(f, cuts, np.empty(0, dtype=np.int64)) == 0


@pytest.mark.parametrize(
    "pattern, kept",
    [
        ("aabbbc", [0, 1, 4, 5]),  # line 0, and the last line of each run
        ("abbcaa", [0, 2, 3]),  # lines 4 and 5 equal line 0 round the torus
        ("abbb", [0, 1, 2, 3]),  # two lines would be left
        ("aaaa", [0, 1, 2, 3]),
    ],
    # the ids the rows had when a row also said whether its axis wraps
    ids=["True-aabbbc-kept0", "True-abbcaa-kept1", "True-abbb-kept3", "True-aaaa-kept4"],
)
def test_kept_lines(pattern, kept):
    """`_kept_lines` keeps line 0 and the last line of each run of lines
    with equal ranks, compared round the torus, and keeps every line of an
    axis that would keep fewer than 3; rows and columns alike, each whatever
    the other axis holds."""
    rows = np.array([ord(c) for c in pattern])
    cols = np.arange(8)  # no two columns equal
    rank = (2 * (100 * rows[:, None] + cols)).astype(np.int32)
    r, c = _kept_lines(rank)
    assert (r.tolist(), c.tolist()) == (kept, list(range(8)))
    r, c = _kept_lines(rank.T.copy())
    assert (r.tolist(), c.tolist()) == (list(range(8)), kept)


def test_kept_grid_points(monkeypatch):
    """The grid points the sweep keeps: every one of the four
    `fields-analyze` fields, 2,880 of the 17,280 of the five `circuit-scale`
    circuits and 21,284 of the 80,592 of the 26 corpus members."""
    sizes = []
    kept_lines = kronrod.reeb._kept_lines

    def spy(rank):
        rows, cols = kept_lines(rank)
        sizes.append((len(rows) * len(cols), rank.size))
        return rows, cols

    monkeypatch.setattr(kronrod.reeb, "_kept_lines", spy)
    workloads = {
        "fields": [bench_field(side) for side in (32, 64, 96, 128)],
        "circuits": [realize_torus_circuit(parse_term("1"), n)[0] for n in range(4, 9)],
        "corpus": [realize_member(m)[0] for m in corpus_grid()],
    }
    got = {}
    for name, fields in workloads.items():
        sizes.clear()
        for f in fields:
            build_reeb(f)
        got[name] = tuple(map(sum, zip(*sizes)))
        if name == "fields":
            assert all(kept == size for kept, size in sizes)
    assert got == {"fields": (30720, 30720), "circuits": (2880, 17280), "corpus": (21284, 80592)}


@functools.lru_cache(maxsize=None)
def checked_fields():
    """(label, field) for the 26 corpus members, the four `fields-analyze`
    fields and `random_torus_field(s, 24)` for s = 0..9."""
    return (
        [(m.label, realize_member(m)[0]) for m in corpus_grid()]
        + [(f"field-{side}", bench_field(side)) for side in (32, 64, 96, 128)]
        + [(f"random-{s}-24", random_torus_field(s, 24)) for s in range(10)]
    )


def test_validation_keeps_the_link_codes_classification_computes():
    """A validated field keeps the link codes validation made, and
    classification reads them; an unvalidated copy has none until it is
    classified, and then the same codes and critical points."""
    for label, f in checked_fields():
        valid, copy = ScalarField(f.kind, f.values), ScalarField(f.kind, f.values, validate=False)
        assert valid._code is not None and copy._code is None, label
        assert classify_vertices(valid) == classify_vertices(copy), label
        assert valid._code.dtype == np.uint8 and np.array_equal(valid._code, copy._code), label


def test_build_cuts_at_the_values_of_a_grid_scan(monkeypatch):
    """`build_reeb` reads the field's extremes off its sorted critical points
    and the frame's value, and cuts where a scan of the grid would: at the
    saddle values, the frame's, and the least and greatest grid values.  The
    fields above and three disks, one with its collar below the frame."""
    cuts, ranks = [], kronrod.reeb._ranks
    monkeypatch.setattr(kronrod.reeb, "_ranks", lambda f, c: cuts.append(c) or ranks(f, c))
    disk = realize_disk(parse_term("wr(1,2)"))[0]
    disks = [
        ("disk-wr(1,2)", disk),
        ("disk-wr(1,2)-negated", ScalarField("disk", -disk.values)),
        ("disk-prod(wr(1,2),wr(1,3))", realize_disk(parse_term("prod(wr(1,2),wr(1,3))"))[0]),
    ]
    for label, f in checked_fields() + disks:
        cuts.clear()
        build_reeb(ScalarField(f.kind, f.values))
        vals = f.values
        scan = {c.value for c in classify_vertices(f) if c.kind is CritKind.SADDLE}
        scan |= {*vals[f.boundary_mask()].tolist(), float(vals.min()), float(vals.max())}
        assert cuts[0].tolist() == sorted(scan), label
    assert disks[1][1].values.max() == 0.0 < disk.values.max()  # the negated frame is on top


@functools.lru_cache(maxsize=None)
def per_level_digest(name):
    """The digest of the per-level builder's graph of an oracle field, its
    witnesses read as the library's triangles (see `glued`)."""
    f = ORACLE_FIELDS[name]()
    return graph_digest(build_reeb_per_level(f), glued(f))


@pytest.mark.parametrize("name", list(ORACLE_FIELDS))
def test_matches_per_level_builder(name):
    """The sweep gives the graph of the per-level builder it replaced, with
    the same ids, values, crits, intervals and witnesses, the smallest
    triangle of each edge; on a disk, swept as the torus that glues its
    frame, no witness is a glue triangle."""
    f = ORACLE_FIELDS[name]()
    g = build_reeb(f)
    assert graph_digest(g) == per_level_digest(name)
    assert not np.isin([e.witness for e in g.edges], glue_triangles(f)).any()


def test_a_disk_takes_two_passes(monkeypatch):
    """The module's rule sends the 48 x 48 seeded disk to two passes, so the
    per-level comparison covers a disk swept on virtual ranks."""
    calls = spy_two_passes(monkeypatch)
    build_reeb(ORACLE_FIELDS["random-disk-1-48"]())
    assert calls == [1]


def spy_two_passes(monkeypatch):
    """The list that each call of `_virtual_ranks`, the first of two passes,
    appends to."""
    calls = []
    virtual_ranks = kronrod.reeb._virtual_ranks
    monkeypatch.setattr(
        kronrod.reeb, "_virtual_ranks", lambda *args: calls.append(1) or virtual_ranks(*args)
    )
    return calls


def passes(monkeypatch, stride=None):
    """Make every build take two passes at `stride`, or (None) one pass; the
    calls of `_virtual_ranks` as `spy_two_passes` gives them."""
    monkeypatch.setattr(kronrod.reeb, "TWO_PASS_LEVELS", 10**9 if stride is None else 0)
    monkeypatch.setattr(kronrod.reeb, "COARSE_STRIDE", stride)
    return spy_two_passes(monkeypatch)


def count_nodes(f, monkeypatch):
    """The (cell piece, slab) nodes that `build_reeb(f)` labels, per
    `_slab_nodes` call: in the coarse pass and in each batch of the sweep."""
    nodes = []
    slab_nodes = kronrod.reeb._slab_nodes

    def counting(*args):
        out = slab_nodes(*args)
        nodes.append(len(out[0]))
        return out

    monkeypatch.setattr(kronrod.reeb, "_slab_nodes", counting)
    build_reeb(f)
    return nodes


class TestTwoPasses:
    """A build on virtual ranks (`_virtual_ranks`) gives the graph of one
    pass: every digest here must match the one-pass build's."""

    @pytest.mark.parametrize("name", list(ORACLE_FIELDS))
    def test_matches_per_level_builder(self, name, monkeypatch):
        """Every oracle field, each build forced into two passes at stride 2,
        where most coarse slabs hold one fine cut."""
        f = ORACLE_FIELDS[name]()
        calls = passes(monkeypatch, 2)
        assert graph_digest(build_reeb(f)) == per_level_digest(name)
        assert calls == [1]

    EQUAL = {
        **{f"bench-{side}": (lambda side=side: bench_field(side)) for side in (32, 64, 96, 128)},
        **{
            f"random-{s}-{n}": (lambda s=s, n=n: random_torus_field(s, n))
            for n in (16, 24, 40)
            for s in range(4)
        },
        "disk-wr(1,3)": ORACLE_FIELDS["disk-wr(1,3)"],
        "disk-prod(wr(1,2),wr(1,3))": ORACLE_FIELDS["disk-prod(wr(1,2),wr(1,3))"],
    }

    @pytest.mark.parametrize("name", list(EQUAL))
    def test_two_passes_equal_one(self, name, monkeypatch):
        """The `fields-analyze` benchmark fields, random torus fields of side
        16 to 40 and two disks give one digest in one pass and in two, at
        strides 2, 3, 8 and the module's own."""
        f = self.EQUAL[name]()
        with monkeypatch.context() as mp:
            assert passes(mp) == []
            one = graph_digest(build_reeb(f))
        for stride in (2, 3, 8, kronrod.reeb.COARSE_STRIDE):
            with monkeypatch.context() as mp:
                calls = passes(mp, stride)
                assert graph_digest(build_reeb(f)) == one, stride
                assert calls == [1]

    def test_constructions_keep_one_pass(self, monkeypatch):
        """The rule sends no corpus member and no field of the
        `circuit-scale` benchmark (circuit `1`, n = 4..8) to two passes: their
        cells span few cut levels."""

        def barred(*args):
            raise AssertionError("a construction took two passes")

        monkeypatch.setattr(kronrod.reeb, "_virtual_ranks", barred)
        for m in corpus_grid():
            build_reeb(realize_member(m)[0])
        for n in range(4, 9):
            build_reeb(realize_torus_circuit(parse_term("1"), n)[0])

    def test_two_passes_label_fewer_nodes(self, monkeypatch):
        """On the 96 x 96 benchmark field the module's rule takes two passes,
        which label a fifth fewer nodes together than one pass does."""
        f = bench_field(96)
        with monkeypatch.context() as mp:
            calls = spy_two_passes(mp)
            two = count_nodes(f, mp)
            assert calls == [1]
        with monkeypatch.context() as mp:
            passes(mp)
            one = count_nodes(f, mp)
        assert sum(two) < 0.8 * sum(one)

    @pytest.mark.parametrize("name", ["random-3-16", "disk-wr(1,3)", "bench-32", "simple-1-1"])
    def test_levels_crossed_by_grid_steps(self, name):
        """`_levels_crossed` against a loop over the grid steps along x and
        along y, round the grid, each crossing |rank difference| / 2 cut
        levels; it is at most 2(K-1) over K cut levels."""
        f = ORACLE_FIELDS[name]()
        cuts = cut_values(f)
        rank = _ranks(f, np.array(cuts)).tolist()
        h, w = f.values.shape
        steps = [
            abs(rank[y][x] - rank[(y + dy) % h][(x + dx) % w])
            for y in range(h)
            for x in range(w)
            for dx, dy in ((1, 0), (0, 1))
        ]
        want = sum(steps) / (2 * h * w)
        got = _levels_crossed(np.array(rank))
        assert got == pytest.approx(want) and got <= 2 * (len(cuts) - 1)


class TestPinnedGraphs:
    """Graph digests over ids, values, boundary flags, crits, intervals and
    edge witnesses, taken while the graph still carried triangle sets (the
    witness was then the first of an edge's sorted cells), and re-taken
    where edges came to be named and ordered by their witnesses in the
    sweep's slabs.  The witness is now again the edge's smallest triangle,
    which moved four witnesses of `random-3-24` and none of the
    constructions'.  Sweeping a disk as the torus that glues its frame
    renamed the cells off its row 0, which hold none of the witnesses of
    `disk-wr(1,3)`.  Any change to them shows here."""

    DIGESTS = {
        "tree-wr(1,2)-1-2": "13bb14b1f6a47d32dc3cb51dc9678a54f6daff6a713c4e7b990373dcf7cbaa4f",
        "circuit-wr(1,2)-2": "3afba67c25dd3a72c1cee3951e0e0833d2376df41df226779ff47c11be4bb275",
        "simple-wr(wr(1,2),2)-2": "05876bdbf352918a2317a37cf4caf84b7cdcd49d61dba9915fbf7bfcc6c5ebfb",
        "disk-wr(1,3)": "8e881c84094f37ed7ed9941843152d8c587f335876ef113a86e77b5bffa7550b",
        "random-3-24": "277ce9813187bcb4e79bbccb2d962970e357f370dbb21219df70261c27b69bcf",
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


def hand_graph(values, ends, field=None):
    """A graph with the given vertex values and edges between the given ends."""
    vertices = [ReebVertex(i, v, []) for i, v in enumerate(values)]
    edges = [
        ReebEdge(i, u, v, min(values[u], values[v]), max(values[u], values[v]))
        for i, (u, v) in enumerate(ends)
    ]
    return ReebGraph(vertices, edges, field)


class TestShape:
    def test_theta_graph_has_no_unique_circuit(self):
        """On every call: a report is kept, an error is not."""
        ends = [(0, 1), (0, 1), (0, 1)]
        g = hand_graph([0.0, 1.0], ends)
        for _ in range(2):
            with pytest.raises(ReebError, match="no unique circuit"):
                classify_shape(g)
        g = hand_graph([0.0, 1.0], ends, random_torus_field(4))
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
        with pytest.raises(AttributeError):
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
        """Edges that share both ends occur exactly as `parallel`, over
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
            assert shared == list(g.parallel or ())
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
            assert all(_region_euler(g.field, c) == (1, 1) for c in comps), label

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
            assert sum(e.lo < t < e.hi for e in g.edges) == len(level_set_components(f, t))

    @pytest.mark.parametrize("name", ["random-4", "disk-wr(1,3)"])
    def test_adjacency_is_shared_corners(self, name):
        """Every adjacency of the oracle's `spans` joins the two triangles
        that share a grid edge, with that edge's value span, and every
        interior grid edge has one; the corners compared with come from
        `triangle_corners`, worked out one triangle at a time."""
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
        sp = spans(f)
        lo, hi = np.minimum(sp.adj_a, sp.adj_b), np.maximum(sp.adj_a, sp.adj_b)
        got = sorted(zip(lo.tolist(), hi.tolist(), sp.edge_min.tolist(), sp.edge_max.tolist()))
        assert got == want


class TestCellCorners:
    @pytest.mark.parametrize("kind", ["torus", "disk"])
    @pytest.mark.parametrize("shape", [(8, 11), (11, 8)])
    def test_views_match_the_corpus_corners(self, kind, shape):
        """`Triangulation.cell_corners` of the vertex-id grid against
        `reeb_oracle.triangle_corners`, which works out the corners (x,y),
        (x+1,y+1) and the third one by itself, read through `glued`.  Grids
        with w != h at the minimum side pin the wrap row and column.  Every
        triangle of a disk's H + W - 1 glue cells, the cells that no oracle
        cell maps to, has all its corners on the frame."""
        f = ScalarField(kind, np.zeros(shape), validate=False)
        tri = Triangulation(*shape)
        ids = np.arange(f.values.size).reshape(shape)
        v00, v10, v11, v01 = (v.ravel().tolist() for v in tri.cell_corners(ids))
        got = [t for c in zip(v00, v10, v11, v01) for t in ((c[0], c[2], c[1]), (c[0], c[2], c[3]))]
        assert [got[t] for t in glued(f)] == triangle_corners(f)
        glue, frame = glue_triangles(f), np.flatnonzero(f.boundary_mask())
        assert len(glue) == (0 if f.wraps else 2 * (sum(shape) - 1))
        assert np.isin([got[t] for t in glue], frame).all()

    @pytest.mark.parametrize("kind", ["torus", "disk"])
    @pytest.mark.parametrize("shape", [(8, 11), (11, 8)])
    def test_star_matches_the_corpus_corners(self, kind, shape):
        """`Triangulation.star` of every grid point, in a random order and the
        disk's frame included, against the triangles whose
        `reeb_oracle.triangle_corners` hold the point, read through `glued`,
        in the order its docstring gives: the lower triangles that have it as
        their corner (x+1,y+1), (x+1,y) and (x,y), then the upper ones that
        have it as (x+1,y+1), (x,y+1) and (x,y).  A triangle is an upper one
        when its third corner lies off its first corner's row.  Where a
        disk's oracle has no such triangle, the point is on the frame and the
        star holds a glue triangle."""
        f = ScalarField(kind, np.zeros(shape), validate=False)
        h, w = shape
        tri = Triangulation(h, w)
        at = {}
        for t, corners in zip(glued(f).tolist(), triangle_corners(f)):
            upper = corners[2] // w != corners[0] // w
            at.update(((p, upper, i), t) for i, p in enumerate(corners))
        points = np.random.default_rng(w).permutation(w * h)
        order = [(up, i) for up in (False, True) for i in (1, 2, 0)]
        want = np.array([[at.get((p, up, i), -1) for up, i in order] for p in points])
        got = tri.star(points)
        own = want >= 0
        assert (got[own] == want[own]).all()
        assert np.isin(got[~own], glue_triangles(f)).all()
        assert f.boundary_mask().ravel()[points[(~own).any(axis=1)]].all()

    def test_build_reads_the_cell_corners_once(self, monkeypatch):
        """A build reads the grid it sweeps at the cell corners in one
        `cell_corners` pass, on a torus, on a disk, whose repeated rank lines
        are dropped first, and on a field swept in several batches."""
        calls = []
        cell_corners = Triangulation.cell_corners

        def counting(tri, grid):
            calls.append(grid.shape)
            return cell_corners(tri, grid)

        shapes = {}
        for name in ("random-3-16", "disk-wr(1,3)", "bench-64"):
            f = ORACLE_FIELDS[name]()
            with monkeypatch.context() as mp:
                [(g, *_)] = record_sweeps(f, mp)
                mp.setattr(Triangulation, "cell_corners", counting)
                calls.clear()
                build_reeb(f)
            assert calls == [g.values.shape], name
            shapes[name] = g.values.shape == f.values.shape
        # the disk's grid is swept with repeated lines dropped
        assert shapes == {"random-3-16": True, "disk-wr(1,3)": False, "bench-64": True}
        *_, batches = record_batches(f, monkeypatch)
        assert len(batches) > 1


class TestSlabRoots:
    PARALLEL = ["circuit-1-1", "circuit-wr(1,2)-1", "simple-1-1", "simple-wr(1,2)-1"]

    def test_parallel_pairs_of_the_corpus(self):
        """The corpus members whose graph has a parallel pair, the ones whose
        pushes read `slab_roots`."""
        pairs = [m.label for m in corpus_grid() if build_reeb(realize_member(m)[0]).parallel]
        assert pairs == self.PARALLEL

    @pytest.mark.parametrize(
        "name",
        ["random-1-16-rolled", "disk-wr(1,3)", "disk-prod(wr(1,2),wr(1,3))", "bench-32", *PARALLEL],
    )
    def test_slab_roots_match_the_union_find(self, name, monkeypatch):
        """`slab_roots` of the interval between each two consecutive cut
        values and of a parallel pair's interval, on a torus, a disk, a field
        swept in several batches and every corpus member with a parallel
        pair, against the oracle's union-find over the triangles and shared
        grid edges whose value spans meet the open interval, worked out with
        `_pieces`, `_ranks` and `_label` barred and read through `glued`.
        Every other triangle is its own root, a disk's glue triangles among
        them, and each edge of a parallel pair is one component, rooted at its
        witness."""
        f = ORACLE_FIELDS[name]()
        g = build_reeb(f)
        cuts = cut_values(f)
        intervals = list(zip(cuts[:-1], cuts[1:]))
        if g.parallel:
            pair = [g.edges[e] for e in g.parallel]
            intervals.append((pair[0].lo, pair[0].hi))
        sp, ids, want = spans(g.field), glued(f), []

        def barred(*args):
            raise AssertionError("the oracle called the library's slab rule")

        with monkeypatch.context() as mp:
            for fn in ("_pieces", "_ranks", "_label"):
                mp.setattr(kronrod.reeb, fn, barred)
            for a, b in intervals:
                comp_of, members = _components(
                    sp, (sp.tri_max > a) & (sp.tri_min < b), (sp.edge_max > a) & (sp.edge_min < b)
                )
                root, inside = np.arange(g.tri.ntri), comp_of >= 0
                root[ids[inside]] = ids[np.array([m[0] for m in members])[comp_of[inside]]]
                want.append(root)
        glue = glue_triangles(f)
        for (a, b), root in zip(intervals, want):
            assert g.slab_roots(a, b).tolist() == root.tolist(), (a, b)
            assert (g.slab_roots(a, b)[glue] == glue).all(), (a, b)
        if g.parallel:
            root = want[-1]
            assert [root[e.witness] for e in pair] == [e.witness for e in pair]
            assert pair[0].witness != pair[1].witness

    def test_pieces_is_the_one_reader_of_the_cell_adjacency(self, monkeypatch):
        """No function of the library but `_pieces` works out which cells lie
        above and left of a cell (its `across`), and both the build and a
        push's `slab_roots` take their slabs from `_pieces`: one call each on
        a corpus member whose pushes split a parallel pair."""
        readers = set()

        def walk(code):
            if {"across", "_across"} & {*code.co_names, *code.co_varnames}:
                readers.add(code.co_name)
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    walk(const)

        for path in Path(kronrod.__file__).parent.glob("*.py"):
            walk(compile(path.read_text(), str(path), "exec"))
        assert readers == {"_pieces"}

        calls = []
        pieces = kronrod.reeb._pieces
        monkeypatch.setattr(kronrod.reeb, "_pieces", lambda *a: calls.append(1) or pieces(*a))
        members = {m.label: m for m in corpus_grid()}
        assert verify_realization(*realize_member(members["circuit-wr(1,2)-1"])).ok
        assert len(calls) == 2


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
