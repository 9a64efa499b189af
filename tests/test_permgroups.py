import random

import numpy as np
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
        (p, images), *_ = permgroups._one_orbit_per_class([(p, p.tolist()) for p in g.generators])
        assert len(p) == len(images) == 4_352
        assert group_order(g) == order(t) == 4_352


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
