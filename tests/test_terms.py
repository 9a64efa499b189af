import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronrod.errors import ParseError
from kronrod.terms import (
    Prod,
    Triv,
    Wr,
    Wr2,
    class_of,
    format_term,
    normalize,
    order,
    parse_term,
    term_from_json,
    term_to_json,
)


def terms_strategy(max_leaves: int = 6):
    return st.recursive(
        st.just(Triv()),
        lambda children: st.one_of(
            st.builds(Wr, children, st.integers(min_value=1, max_value=4)),
            st.builds(
                Wr2,
                children,
                st.integers(min_value=1, max_value=2),
                st.integers(min_value=1, max_value=2),
            ),
            st.lists(children, min_size=2, max_size=3).map(lambda fs: Prod(*fs)),
        ),
        max_leaves=max_leaves,
    )


class TestParse:
    def test_unit(self):
        assert parse_term("1") == Triv()

    def test_sugar(self):
        assert parse_term("wr(1,3)") == Wr(Triv(), 3)
        assert parse_term("cyc(3)") == Wr(Triv(), 3)

    def test_nested(self):
        assert parse_term("wr2(wr(1,2),2,1)") == Wr2(Wr(Triv(), 2), 2, 1)

    def test_whitespace(self):
        assert parse_term(" prod( wr(1,2) , 1 ) ") == Prod(Wr(Triv(), 2), Triv())

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_term("wr(1 3)")
        assert err.value.position == 5

    def test_zero_index_rejected(self):
        with pytest.raises(ParseError):
            parse_term("wr(1,0)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_term("1 1")

    def test_prod_needs_two(self):
        with pytest.raises(ParseError):
            parse_term("prod(1)")

    def test_deep_nesting_is_a_parse_error(self, shallow_stack):
        deep = "wr(" * 300 + "1" + ",2)" * 300
        with shallow_stack, pytest.raises(ParseError, match="nested too deeply"):
            parse_term(deep)

    def test_deep_json_nesting_is_a_value_error(self, shallow_stack):
        """`ConstructionRecord.from_json` reports a ValueError as an incomplete record."""
        obj = {"k": "triv"}
        for _ in range(300):
            obj = {"k": "wr", "b": obj, "n": 2}
        with shallow_stack, pytest.raises(ValueError, match="nested too deeply"):
            term_from_json(obj)

    @pytest.mark.parametrize("n", [2.0, 2.5, "2", True])
    def test_json_indices_are_json_integers(self, n):
        """`int()` would read each of these as an index."""
        with pytest.raises(ValueError, match="expected an integer"):
            term_from_json({"k": "wr", "b": {"k": "triv"}, "n": n})
        with pytest.raises(ValueError, match="expected an integer"):
            term_from_json({"k": "wr2", "b": {"k": "triv"}, "n": 1, "m": n})


class TestFormat:
    def test_examples(self):
        assert format_term(Triv()) == "1"
        assert format_term(Wr(Triv(), 3)) == "wr(1,3)"
        assert format_term(Prod(Wr(Triv(), 2), Wr(Triv(), 3))) == "prod(wr(1,2),wr(1,3))"

    @given(terms_strategy())
    def test_round_trip(self, t):
        assert parse_term(format_term(t)) == t

    @given(terms_strategy())
    def test_json_round_trip(self, t):
        assert term_from_json(term_to_json(t)) == t


class TestOrder:
    def test_cyclic(self):
        assert order(Wr(Triv(), 3)) == 3

    def test_wreath(self):
        # |Z2 wr Z3| = 2^3 * 3
        assert order(Wr(Wr(Triv(), 2), 3)) == 24

    def test_wr2(self):
        assert order(Wr2(Triv(), 2, 1)) == 4
        # |A|^(n*mn) * n * mn with |A| = 2, n = 1, mn = 2
        assert order(Wr2(Wr(Triv(), 2), 1, 2)) == 8

    def test_overflow(self):
        """Orders are exact at any size: no bound cuts them off."""
        assert order(Wr(Wr(Triv(), 2), 64)) == 2**64 * 64


class TestNormalize:
    def test_wreath_one_collapses(self):
        assert normalize(Wr(Wr(Triv(), 2), 1)) == Wr(Triv(), 2)

    def test_trivial_product(self):
        assert normalize(Prod(Triv(), Triv())) == Triv()

    def test_flatten(self):
        a, b, c = Wr(Triv(), 2), Wr(Triv(), 3), Wr(Triv(), 5)
        flat = normalize(Prod(Prod(a, b), c))
        assert isinstance(flat, Prod)
        assert len(flat.factors) == 3

    @given(terms_strategy())
    def test_idempotent(self, t):
        assert normalize(normalize(t)) == normalize(t)

    @given(terms_strategy())
    @settings(max_examples=60)
    def test_preserves_order(self, t):
        assert order(normalize(t)) == order(t)

    @given(terms_strategy())
    def test_invariants(self, t):
        n = normalize(t)
        for s in _subterms(n):
            if isinstance(s, Wr):
                assert s.n >= 2
            if isinstance(s, Prod):
                assert len(s.factors) >= 2
                assert all(not isinstance(f, (Prod, Triv)) for f in s.factors)


def _subterms(t):
    yield t
    if isinstance(t, Prod):
        for f in t.factors:
            yield from _subterms(f)
    elif isinstance(t, (Wr, Wr2)):
        yield from _subterms(t.base)


class TestClassOf:
    def test_plain_cyclic(self):
        flags = class_of(normalize(Wr(Triv(), 5)))
        assert flags.disk_realizable
        assert not flags.disk_realizable_simple
        assert flags.circuit_realizable
        assert not flags.tree_realizable
        # the trivial group is a simple disk base, so Z5 arises from a
        # simple circuit realization with five bands
        assert flags.simple_realizable

    def test_index_two_tower(self):
        flags = class_of(normalize(Wr(Wr(Triv(), 2), 2)))
        assert flags.disk_realizable_simple
        assert flags.simple_realizable

    def test_wr2(self):
        flags = class_of(normalize(Wr2(Triv(), 2, 1)))
        assert flags.tree_realizable
        assert not flags.disk_realizable

    @given(terms_strategy())
    def test_monotonicity(self, t):
        flags = class_of(normalize(t))
        if flags.disk_realizable_simple:
            assert flags.disk_realizable
        # every disk-realizable term is a circuit case via a trivial wreath
        if flags.disk_realizable:
            assert flags.circuit_realizable
