import random
from collections import Counter
from math import factorial, gcd, lcm

import numpy as np
import pytest

from kronrod.auts import (
    GraphAut,
    _full_order,
    generated_group,
    induced_graph_aut,
    record_term,
    value_preserving_auts,
)
from kronrod.construct import (
    realize_disk,
    realize_simple,
    realize_torus_circuit,
    realize_torus_tree,
)
from kronrod.corpus import corpus_grid, realize_member
from kronrod.errors import AutOverflow, NotAnAutomorphism, ShapeViolation
from kronrod.fields import CriticalPoint, CritKind
from kronrod.permgroups import is_isomorphic, perm_rep
from kronrod.records import GridTranslation, Rect, RectCycle, moves
from kronrod.reeb import ReebEdge, ReebGraph, ReebVertex, build_reeb
from kronrod.terms import Prod, Triv, Wr, Wr2, format_term, normalize, parse_term

from aut_oracle import validate_graph_aut
from reeb_oracle import random_torus_field


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


def circuit_graph(values, leaves):
    """A circuit through vertices of the given values, in order, with a leaf
    of value `leaves[i]` hung on vertex i unless that is None.  Neighbours
    on the circuit need distinct values."""
    vertices, edges = [], []
    for i, v in enumerate(values):
        crit = CriticalPoint(i, 0, CritKind.SADDLE, v)
        vertices.append(ReebVertex(id=i, value=v, crits=[crit]))
    for i, (a, b) in enumerate(zip(values, values[1:] + values[:1])):
        edges.append(ReebEdge(id=i, u=i, v=(i + 1) % len(values), lo=min(a, b), hi=max(a, b)))
    for i, leaf in enumerate(leaves):
        if leaf is not None:
            w = len(vertices)
            crit = CriticalPoint(w, 1, CritKind.MAXIMUM, leaf)
            vertices.append(ReebVertex(id=w, value=leaf, crits=[crit]))
            lo, hi = sorted((leaf, values[i]))
            edges.append(ReebEdge(id=len(edges), u=i, v=w, lo=lo, hi=hi))
    return ReebGraph(vertices, edges)


def cycle_symmetries(seq) -> int:
    """Element-by-element count of the rotations and reflections of the
    cyclic sequence v_0, c_0, v_1, c_1, ... that keep vertex slots at even
    positions and map it onto itself: the oracle for `_full_order`'s
    whole-sequence compares."""
    n = len(seq)
    return sum(
        all(seq[(s + sign * i) % n] == seq[i] for i in range(n))
        for s in range(0, n, 2)
        for sign in (1, -1)
    )


def random_circuit(rng: random.Random, kind: str):
    """Vertex values and leaves of a random circuit; "periodic" repeats a
    pattern and "palindromic" mirrors one."""
    def pattern(length, closed):
        while True:
            vs = [float(rng.randrange(3)) for _ in range(length)]
            pairs = zip(vs, vs[1:] + vs[:1] if closed else vs[1:])
            if all(a != b for a, b in pairs):
                return vs, [rng.choice([None, None, -1.0, 3.0]) for _ in vs]

    if kind == "periodic":
        vs, ls = pattern(rng.randint(2, 4), closed=True)
        k = rng.randint(2, 4)
        return vs * k, ls * k
    if kind == "palindromic":
        vs, ls = pattern(rng.randint(2, 6), closed=False)
        return vs + vs[-2:0:-1], ls + ls[-2:0:-1]
    return pattern(rng.randint(2, 12), closed=True)


def backtrack_order(g: ReebGraph, cap: int = 10_000) -> int:
    """Differential oracle, the enumerator `value_preserving_auts` used to be:
    count every vertex permutation that preserves refined colours and the
    edge multiset between each vertex pair, times k! per class of k parallel
    equal-interval edges.  Raises AutOverflow past `cap`."""
    fresh: dict[tuple, int] = {}
    colors = [
        fresh.setdefault(
            (v.value, v.boundary, len(v.crits),
             tuple(sorted((g.edges[ei].lo, g.edges[ei].hi) for ei in g.incidence[v.id]))),
            len(fresh),
        )
        for v in g.vertices
    ]
    while True:
        sig = []
        for v in g.vertices:
            nb = []
            for ei in g.incidence[v.id]:
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

    @pytest.mark.parametrize("kind", ["random", "periodic", "palindromic"])
    def test_circuit_count_matches_element_by_element(self, kind):
        rng = random.Random(f"circuits-{kind}")
        counts = Counter()
        for _ in range(60):
            values, leaves = random_circuit(rng, kind)
            g = circuit_graph(values, leaves)
            seq = []
            for a, b, leaf in zip(values, values[1:] + values[:1], leaves):
                seq += [(a, leaf), (min(a, b), max(a, b))]
            want = cycle_symmetries(seq)
            assert _full_order(g) == want == backtrack_order(g), (values, leaves)
            counts[want] += 1
        if kind == "random":  # rigid circuits and symmetric ones
            assert counts[1] and max(counts) >= 2
        else:  # rotations by the period, or the mirror
            assert min(counts) >= 2 and max(counts) >= 4

    def test_equal_children_in_runs(self):
        # leaves of values 1, 1, 1, 2, 2, 3 on one root: 3! * 2! * 1!
        g = star_graph(6, same_values=False)
        for e, v in zip(g.edges, (1.0, 1.0, 1.0, 2.0, 2.0, 3.0)):
            e.hi = g.vertices[e.v].value = v
            g.vertices[e.v].crits = [CriticalPoint(e.v, 0, CritKind.MAXIMUM, v)]
        assert _full_order(g) == 12 == backtrack_order(g)

    def test_long_path_without_recursion(self):
        g = path_graph([float(i) for i in range(2000)])
        assert value_preserving_auts(g).order == 1


class TestInducedAuts:
    def test_identity_translation(self):
        f, rec = realize_torus_circuit(Triv(), 1)
        g = build_reeb(f)
        aut = induced_graph_aut(g, GridTranslation(f.width, 0))
        assert aut.vperm == tuple(range(g.n_vertices))
        assert aut.eperm == tuple(range(g.n_edges))

    def test_band_shift_order(self):
        for n in (2, 3, 4):
            f, rec = realize_torus_circuit(Triv(), n)
            g = build_reeb(f)
            aut = induced_graph_aut(g, rec.symmetries[0])
            assert generated_group(g, [aut]).order == n

    def test_tree_translations_commute(self):
        f, rec = realize_torus_tree(Triv(), 2, 1)
        g = build_reeb(f)
        a = induced_graph_aut(g, rec.symmetries[0])
        b = induced_graph_aut(g, rec.symmetries[1])
        for p, q in ((a.vperm, b.vperm), (a.eperm, b.eperm)):
            assert [q[i] for i in p] == [p[i] for i in q]

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
        assert aut.vperm != tuple(range(g.n_vertices))  # the two cap maxima and their edges swap
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
        a, b = g.parallel
        assert [g.edges[e].witness for e in (a, b)] == [4, 22]  # cells (2, 0) and (11, 0)
        swap = RectCycle((Rect(3, 4, 3, 3), Rect(12, 4, 3, 3)))
        with pytest.raises(NotAnAutomorphism, match="onto one parallel edge"):
            induced_graph_aut(g, swap)

    @pytest.mark.parametrize("label", ["circuit-wr(1,2)-1", "tree-wr(1,2)-1-2", "disk"])
    def test_push_tables_are_built_once(self, label):
        """A graph builds the lookups of its pushes on the first and keeps
        them, and a push gives the same automorphism on a graph that has
        pushed before as on a fresh one.  Its vertex map is the one found by
        scanning every vertex's critical points, or, for a boundary vertex
        without any, the boundary vertex of its value."""
        if label == "disk":
            f, rec = realize_disk(Prod(Wr(Triv(), 2), Wr(Triv(), 3)))
        else:
            f, rec = realize_member(next(m for m in corpus_grid() if m.label == label))
        g = build_reeb(f)
        first = [induced_graph_aut(g, s) for s in rec.symmetries]
        tables = g.push_tables()
        again = [induced_graph_aut(g, s) for s in rec.symmetries]
        assert g.push_tables() is tables
        assert all(a is b for a, b in zip(g.push_tables(), tables))
        assert first == again == [induced_graph_aut(build_reeb(f), s) for s in rec.symmetries]
        w = f.width
        for s, aut in zip(rec.symmetries, first):
            image, _ = moves(f, s)
            for v in g.vertices:
                if v.crits:
                    p = image[v.crits[0].y * w + v.crits[0].x]
                    [to] = [u.id for u in g.vertices if any(d.y * w + d.x == p for d in u.crits)]
                else:
                    [to] = [u.id for u in g.vertices if u.boundary and u.value == v.value]
                assert aut.vperm[v.id] == to

    def test_graph_with_two_cycles_is_refused(self):
        """A push relies on the graph having at most one cycle: a theta
        graph on a torus field raises even under the identity."""
        crits = [CriticalPoint(0, 0, CritKind.MINIMUM, 0.0), CriticalPoint(1, 0, CritKind.MAXIMUM, 1.0)]
        vertices = [ReebVertex(i, c.value, [c]) for i, c in enumerate(crits)]
        edges = [ReebEdge(i, 0, 1, 0.0, 1.0) for i in range(3)]
        g = ReebGraph(vertices, edges, random_torus_field(4))
        with pytest.raises(ShapeViolation):
            induced_graph_aut(g, GridTranslation(0, 0))

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


def push_cases():
    """Graphs with the symmetries to push on each: the 26 corpus members and
    three disk realizations, each with its recorded symmetries, every
    multiple of each recorded translation, and seeded random translations,
    rect cycles and sub-cycles of its recorded rect cycles."""
    rng = random.Random("every push")
    realized = [realize_member(m) for m in corpus_grid()]
    realized += [realize_disk(parse_term(t)) for t in ("wr(1,2)", "prod(wr(1,2),wr(1,3))", "wr(wr(1,2),3)")]
    for f, rec in realized:
        w, h = f.width, f.height
        syms = list(rec.symmetries)
        for s in rec.symmetries:
            if isinstance(s, GridTranslation):
                period = lcm(w // gcd(s.dx, w), h // gcd(s.dy, h))
                syms += [GridTranslation(k * s.dx % w, k * s.dy % h) for k in range(2, period + 1)]
        cycles = [s.rects for s in rec.symmetries if isinstance(s, RectCycle)]
        for _ in range(20):
            syms.append(GridTranslation(rng.randrange(w), rng.randrange(h)))
            rw, rh = rng.randint(1, w // 2), rng.randint(1, h // 2)
            corners = [(rng.randrange(w - rw + 1), rng.randrange(h - rh + 1)) for _ in range(rng.randint(2, 3))]
            syms.append(RectCycle(tuple(Rect(x, y, rw, rh) for x, y in corners)))
            if cycles:
                rects = rng.choice(cycles)
                syms.append(RectCycle(tuple(rng.sample(rects, rng.randint(2, len(rects))))))
        yield build_reeb(f), syms


def test_every_accepted_push_passes_the_oracle():
    """A push checks only that its vertex and edge maps are permutations;
    every other property of an automorphism follows from its construction
    (see `induced_graph_aut`).  The oracle checks them all on each push the
    library accepts, and the pinned counts catch a change in what it accepts."""
    accepted = refused = 0
    for g, syms in push_cases():
        for s in syms:
            try:
                aut = induced_graph_aut(g, s)
            except NotAnAutomorphism:
                refused += 1
                continue
            validate_graph_aut(g, aut)
            accepted += 1
    assert (accepted, refused) == (600, 1013)


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

    def test_permutations_are_intp(self):
        f, rec = realize_torus_circuit(Wr(Triv(), 2), 1)  # with a parallel pair
        g = build_reeb(f)
        grp = generated_group(g, [induced_graph_aut(g, s) for s in rec.symmetries])
        assert grp.degree == g.n_edges and grp.generators
        assert all(p.dtype == np.intp for p in grp.generators)

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
