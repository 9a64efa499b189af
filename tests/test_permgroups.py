import random

import numpy as np
import pytest
from hypothesis import given, settings

from kronrod import permgroups
from kronrod.permgroups import (
    PermGroup,
    compose,
    group_order,
    identity,
    inverse,
    is_isomorphic,
    perm_rep,
    rep_degree,
)
from kronrod.terms import Prod, Triv, Wr, Wr2, normalize, order, parse_term

from test_terms import terms_strategy


def power(p, k):
    out = identity(len(p))
    for _ in range(k):
        out = compose(out, p)
    return out


def cyclic_order(p):
    return group_order(PermGroup(len(p), [p]))


class TestPermBasics:
    def test_compose(self):
        p = np.array([1, 2, 0], np.int32)
        q = np.array([0, 2, 1], np.int32)
        assert compose(p, q).tolist() == [2, 1, 0]

    def test_inverse(self):
        p = np.array([2, 0, 1], np.int32)
        assert compose(p, inverse(p)).tolist() == [0, 1, 2]

    def test_perm_order(self):
        assert cyclic_order((1, 2, 0, 4, 3)) == 6

    def test_int32_inputs_give_the_same_results(self):
        rng = random.Random(2)
        for degree in (1, 2, 9, 57, 300):
            p, q = (np.array(rng.sample(range(degree), degree)) for _ in range(2))
            assert p.dtype == np.intp
            p32, q32 = p.astype(np.int32), q.astype(np.int32)
            assert np.array_equal(compose(p32, q32), compose(p, q))
            assert np.array_equal(inverse(p32), inverse(p))
            assert np.array_equal(compose(p, inverse(p)), identity(degree))


class TestPermGroupInput:
    def test_generators_are_kept_as_intp(self):
        gens = [(1, 2, 0), np.array([1, 0, 2], np.int32), np.array([0, 2, 1], np.uint8)]
        g = PermGroup(3, gens)
        assert all(p.dtype == np.intp for p in g.generators)
        assert [p.tolist() for p in g.generators] == [[1, 2, 0], [1, 0, 2], [0, 2, 1]]
        assert identity(4).dtype == np.intp

    def test_perm_rep_is_intp(self):
        for text in ("wr(1,3)", "prod(wr(1,2),1,wr(wr(1,3),2))", "wr2(prod(wr(1,2),1),2,3)"):
            assert all(p.dtype == np.intp for p in perm_rep(parse_term(text)).generators)

    @pytest.mark.parametrize(
        "degree, gen",
        [
            (3, [0.5, 1.7, 2.2]),  # truncates to the identity
            (2, [1.0, 0.0]),
            (2, [2**32, 0]),  # past int32
            (2, [2**63, 0]),
            (2, [2**64, 0]),
            (2, [-1, 0]),
            (2, [True, False]),
            (2, ["1", "0"]),
            (3, [0, 1]),
            (2, [0, 0]),
        ],
    )
    def test_non_permutations_are_refused(self, degree, gen):
        with pytest.raises(ValueError, match="is not a permutation of degree"):
            PermGroup(degree, [gen])


class TestPermRep:
    def test_trivial(self):
        g = perm_rep(Triv())
        assert g.degree == 1 and g.generators == []

    def test_regular_cyclic(self):
        g = perm_rep(Wr(Triv(), 4))
        assert g.degree == 4
        assert len(g.generators) == 1
        assert cyclic_order(g.generators[0]) == 4

    def test_wr2_blocks(self):
        g = perm_rep(Wr2(Triv(), 2, 1))
        assert g.degree == 4
        assert len(g.generators) == 2
        assert all(cyclic_order(p) == 2 for p in g.generators)
        a, b = g.generators
        assert np.array_equal(compose(a, b), compose(b, a))
        assert group_order(g) == 4

    def test_block_shifts_come_first(self):
        # the constructions list the block shift before the base symmetries
        shift, base = (p.tolist() for p in perm_rep(Wr(Wr(Triv(), 2), 3)).generators)
        assert shift == [2, 3, 4, 5, 0, 1]
        assert base == [1, 0, 2, 3, 4, 5]
        rows, cols, base = (p.tolist() for p in perm_rep(Wr2(Wr(Triv(), 2), 2, 1)).generators)
        assert rows == [4, 5, 6, 7, 0, 1, 2, 3]
        assert cols == [2, 3, 0, 1, 6, 7, 4, 5]
        assert base == [1, 0, 2, 3, 4, 5, 6, 7]

    def test_degree_without_building(self):
        for text in ("1", "wr(1,5)", "prod(wr(1,2),1,wr(wr(1,3),2))", "wr2(prod(wr(1,2),1),2,3)"):
            t = parse_term(text)
            assert rep_degree(t) == perm_rep(t).degree, text
        assert rep_degree(Wr(Triv(), 10**9)) == 10**9


class TestOrder:
    def test_small(self):
        assert group_order(perm_rep(Wr(Triv(), 3))) == 3

    def test_wreath_closure(self):
        g = perm_rep(Wr(Wr(Triv(), 2), 3))
        assert group_order(g) == 24 == order(Wr(Wr(Triv(), 2), 3))

    def test_large_orders_need_no_cap(self):
        for t in (Wr(Wr(Triv(), 2), 12), Wr(Wr(Wr(Triv(), 2), 2), 4), Wr2(Wr(Triv(), 2), 3, 1)):
            assert group_order(perm_rep(t)) == order(t)  # 49,152, 16,384 and 4,608

    def test_identity_generators(self):
        assert group_order(PermGroup(3, [])) == 1
        assert group_order(PermGroup(3, [(0, 1, 2), (1, 0, 2)])) == 2

    @given(terms_strategy(max_leaves=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_order_formula(self, t):
        n = order(t)
        if n > 10**6:
            return
        assert group_order(perm_rep(t)) == n

    def test_matches_sympy(self):
        from sympy.combinatorics import Permutation, PermutationGroup

        rng = random.Random(7)
        # 200 groups of degree <= 10 on <= 3 generators, then 100 of degree
        # <= 40 on <= 4, whose shuffles of a few points give chains up to
        # 19 levels deep that many residues join
        for max_degree, max_gens, count in ((10, 3, 200), (40, 4, 100)):
            for _ in range(count):
                degree = rng.randint(1, max_degree)
                gens = []
                for _ in range(rng.randint(0, max_gens)):
                    p = list(range(degree))
                    shuffle = rng.random() < 0.5
                    if shuffle and max_degree <= 10:
                        rng.shuffle(p)
                    elif shuffle:  # of a few points only
                        support = rng.sample(range(degree), min(degree, rng.randint(2, 12)))
                        for i, j in zip(support, rng.sample(support, len(support))):
                            p[i] = j
                    else:  # transpositions give many small, intransitive groups
                        i, j = rng.randrange(degree), rng.randrange(degree)
                        p[i], p[j] = p[j], p[i]
                    gens.append(tuple(p))
                want = PermutationGroup(
                    [Permutation(list(p)) for p in gens] or [Permutation(degree - 1)]
                )
                assert group_order(PermGroup(degree, gens)) == want.order(), gens

    def test_each_schreier_generator_is_sifted_once(self, monkeypatch):
        # rescanning a level and rebuilding its transversal after every
        # residue took 1,209 compositions here; sifting each (orbit point,
        # strong generator) pair once takes 356
        calls = []
        compose_ = permgroups.compose
        monkeypatch.setattr(permgroups, "compose", lambda p, q: calls.append(1) or compose_(p, q))
        assert group_order(perm_rep(parse_term("wr2(prod(wr(1,2),1,1,1),2,2)"))) == 2048
        assert len(calls) <= 600


def random_gens(rng, degree, count):
    out = []
    for _ in range(count):
        p = list(range(degree))
        rng.shuffle(p)
        out.append(p)
    return out


def sympy_order(degree, gens):
    from sympy.combinatorics import Permutation, PermutationGroup

    group = PermutationGroup([Permutation(list(p)) for p in gens] or [Permutation(degree - 1)])
    return group.order()


class TestOneOrbitPerClass:
    """A chain acts on one orbit of each isomorphism class of orbits."""

    def test_copies_of_one_orbit(self):
        # each copy lies on its own shuffled points, so the copies' least
        # points need not correspond and some copies stay
        rng = random.Random(3)
        for _ in range(80):
            d, copies = rng.randint(1, 8), rng.randint(2, 4)
            gens = random_gens(rng, d, rng.randint(1, 3))
            points = list(range(d * copies))
            rng.shuffle(points)
            big = []
            for g in gens:
                p = [0] * len(points)
                for c in range(copies):
                    for i in range(d):
                        p[points[c * d + i]] = points[c * d + g[i]]
                big.append(p)
            want = sympy_order(d, gens)
            assert group_order(PermGroup(len(points), big)) == want == sympy_order(len(points), big)

    def test_orbits_with_different_kernels(self):
        # a 2-cycle on one orbit and a 4-cycle on another: the first orbit
        # alone gives order 2
        assert group_order(PermGroup(6, [(1, 0, 3, 4, 5, 2)])) == 4
        rng = random.Random(5)
        for _ in range(80):  # generators paired across two random groups
            a, b = rng.randint(1, 6), rng.randint(1, 6)
            count = rng.randint(1, 3)
            gens = [
                p + [a + j for j in q]
                for p, q in zip(random_gens(rng, a, count), random_gens(rng, b, count))
            ]
            assert group_order(PermGroup(a + b, gens)) == sympy_order(a + b, gens), gens

    def test_regular_action_above_16384_points(self):
        # Z_16 x Z_272 on four copies of its regular orbit, as tree `1` at
        # (16, 17) lays out its orbit representatives
        t = parse_term("wr2(prod(1,1,1,1),16,17)")
        g = perm_rep(t)
        assert g.degree == 17_408
        ((p, images), *_), kept, _ = permgroups._walk(g)
        assert len(p) == len(images) == 4_352
        assert kept == list(range(0, 17_408, 4))  # the first point of every block
        assert group_order(g) == order(t) == 4_352


def pairing_orders(g_gens, g_degree, h_gens, h_degree):
    """sympy's orders of <g>, <h> and the diagonal of the pairing."""
    k = max(len(g_gens), len(h_gens))
    g_gens = g_gens + [list(range(g_degree))] * (k - len(g_gens))
    h_gens = h_gens + [list(range(h_degree))] * (k - len(h_gens))
    diagonal = [list(p) + [g_degree + x for x in q] for p, q in zip(g_gens, h_gens)]
    return (
        sympy_order(g_degree, g_gens),
        sympy_order(h_degree, h_gens),
        sympy_order(g_degree + h_degree, diagonal),
    )


class TestBoundedChains:
    """`is_isomorphic` runs the chain of a side whose order is unknown only
    until its orbit lengths multiply to the diagonal's order."""

    def test_bound_stops_the_scan(self, monkeypatch):
        gens = permgroups._walk(perm_rep(Wr(Triv(), 8)))[0]
        calls = []
        compose_ = permgroups.compose
        monkeypatch.setattr(permgroups, "compose", lambda p, q: calls.append(1) or compose_(p, q))
        assert permgroups._basic_orbit_lengths(gens) == [8]
        unbounded, calls[:] = len(calls), []
        assert permgroups._basic_orbit_lengths(gens, 8) == [8]
        assert len(calls) == 7 < unbounded  # the transversal only
        assert permgroups._basic_orbit_lengths(gens, 16) == [8]  # never reached
        assert len(calls) == 7 + unbounded

    def test_orders_match_sympy(self):
        rng = random.Random(17)
        cases = {"equal": 0, "g below": 0, "h below": 0, "both below": 0}
        for trial in range(160):
            degree = rng.randint(1, 7)
            gens = random_gens(rng, degree, rng.randint(0, 3))
            kind = trial % 3
            if kind == 0:  # a relabelled copy with extra fixed points: an isomorphism
                extra = rng.randint(0, 3)
                sigma = rng.sample(range(degree + extra), degree + extra)
                h_degree, h_gens = degree + extra, []
                for p in gens:
                    q = list(range(h_degree))
                    for x in range(degree):
                        q[sigma[x]] = sigma[p[x]]
                    h_gens.append(q)
            elif kind == 1:  # the action on one orbit: a homomorphic image
                orbit = {rng.randrange(degree)}
                for _ in range(degree):
                    orbit |= {p[x] for p in gens for x in orbit}
                points = sorted(orbit)
                h_degree = len(points)
                h_gens = [[points.index(p[x]) for x in points] for p in gens]
            else:  # an unrelated group
                h_degree = rng.randint(1, 7)
                h_gens = random_gens(rng, h_degree, rng.randint(0, 3))
            g, h = PermGroup(degree, gens), PermGroup(h_degree, h_gens)
            iso = is_isomorphic(g, h)
            want = pairing_orders(gens, degree, h_gens, h_degree)
            assert (iso.g, iso.h, iso.diagonal) == want, (gens, h_gens)
            assert (g.order, h.order) == want[:2]
            below = (iso.g < iso.diagonal, iso.h < iso.diagonal)
            names = {(0, 0): "equal", (1, 0): "g below", (0, 1): "h below", (1, 1): "both below"}
            cases[names[below]] += 1
        assert min(cases.values()) >= 5, cases

    def test_known_order_is_kept(self, monkeypatch):
        g = perm_rep(Wr(Wr(Triv(), 2), 3))
        assert group_order(g) == 24
        seen = []
        lengths = permgroups._basic_orbit_lengths
        monkeypatch.setattr(
            permgroups, "_basic_orbit_lengths", lambda *a: seen.append(a[1:]) or lengths(*a)
        )
        iso = is_isomorphic(g, perm_rep(Wr(Wr(Triv(), 2), 3)))
        assert iso and (iso.g, iso.h, iso.diagonal) == (24, 24, 24)
        # the reduced diagonal keeps g's points only, so its order is g's
        # and no diagonal chain runs; the term side is bounded by it
        assert seen == [(24,)]

    def test_diagonal_chain_runs_on_points_of_both_sides(self, monkeypatch):
        """Z4 paired with Z2: the diagonal's orbits on the two sides are not
        isomorphic, so it keeps points of both and its chain runs, on the
        reduced generators, before both sides' chains bounded by it."""
        g, h = perm_rep(Wr(Triv(), 4)), perm_rep(Wr(Triv(), 2))
        seen = []
        lengths = permgroups._basic_orbit_lengths
        monkeypatch.setattr(
            permgroups,
            "_basic_orbit_lengths",
            lambda gens, *a: seen.append((len(gens[0][1]), *a)) or lengths(gens, *a),
        )
        iso = is_isomorphic(g, h)
        assert not iso and (iso.g, iso.h, iso.diagonal) == (4, 2, 4)
        assert seen == [(6,), (4, 4), (2, 4)]  # points acted on, then the bound


class TestIsomorphism:
    def test_same_term(self):
        iso = is_isomorphic(perm_rep(Wr(Triv(), 6)), perm_rep(Wr(Triv(), 6)))
        assert iso and (iso.g, iso.h, iso.diagonal) == (6, 6, 6)

    def test_klein_vs_cyclic(self):
        iso = is_isomorphic(perm_rep(Wr2(Triv(), 2, 1)), perm_rep(Wr(Triv(), 4)))
        assert not iso and (iso.g, iso.h, iso.diagonal) == (4, 4, 8)

    def test_chinese_remainder(self):
        # Z2 x Z3 is Z6, certified by a -> c^3, b -> c^2; Z6's single
        # generator is paired with a alone, and b with the identity
        a = perm_rep(Prod(Wr(Triv(), 2), Wr(Triv(), 3)))
        (c,) = perm_rep(Wr(Triv(), 6)).generators
        assert is_isomorphic(a, PermGroup(6, [power(c, 3), power(c, 2)]))
        iso = is_isomorphic(a, PermGroup(6, [c]))
        assert not iso and (iso.g, iso.h, iso.diagonal) == (6, 6, 18)

    def test_nonabelian_vs_abelian(self):
        d4 = perm_rep(Wr(Wr(Triv(), 2), 2))  # dihedral of order 8
        (c,) = perm_rep(Wr(Triv(), 8)).generators
        assert group_order(d4) == 8
        for i in range(8):
            for j in range(8):
                assert not is_isomorphic(d4, PermGroup(8, [power(c, i), power(c, j)]))

    def test_large_groups_are_decided(self):
        big = perm_rep(Wr(Wr(Triv(), 2), 12))
        iso = is_isomorphic(big, perm_rep(Wr(Wr(Triv(), 2), 12)))
        assert iso and iso.diagonal == 49_152

    def test_swapped_generators(self):
        g = perm_rep(Wr(Wr(Triv(), 2), 3))
        swapped = PermGroup(g.degree, g.generators[::-1])
        iso = is_isomorphic(g, swapped)
        assert not iso and iso.g == iso.h == 24 < iso.diagonal

    def test_identity_generators_drop_out(self):
        (c,) = perm_rep(Wr(Triv(), 4)).generators
        assert is_isomorphic(PermGroup(4, [identity(4), c]), PermGroup(4, [c]))

    def test_missing_generator_pairs_with_identity(self):
        g = perm_rep(Wr(Wr(Triv(), 2), 3))
        iso = is_isomorphic(PermGroup(g.degree, g.generators[:1]), g)
        assert not iso and (iso.g, iso.h) == (3, 24)

    def test_normalized_term_same_group(self):
        t = Prod(Wr(Wr(Triv(), 2), 1), Triv())
        assert is_isomorphic(perm_rep(t), perm_rep(normalize(t)))
