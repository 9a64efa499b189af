import numpy as np
import pytest

from kronrod.auts import generated_group, induced_graph_aut, record_term, structural_group
from kronrod.construct import (
    build_layout,
    realize_disk,
    realize_simple,
    realize_torus_circuit,
    realize_torus_tree,
)
from kronrod.errors import NotRealizable
from kronrod.fields import (
    CritKind,
    classify_vertices,
    euler_check,
    is_generic,
    is_simple,
    morse_counts,
)
from kronrod.permgroups import is_isomorphic, perm_rep
from kronrod.records import GridTranslation, check_record_against_field
from kronrod.reeb import build_reeb, classify_shape
from kronrod.terms import Prod, Triv, Wr, Wr2, normalize, parse_term


class TestDisk:
    def test_trivial(self):
        f, rec = realize_disk(Triv())
        assert morse_counts(f).as_tuple() == (0, 0, 1)
        g = build_reeb(f)
        assert (g.n_vertices, g.n_edges) == (2, 1)

    def test_petals(self):
        f, rec = realize_disk(Wr(Triv(), 3))
        assert morse_counts(f).as_tuple() == (0, 3, 4)
        assert euler_check(f)

    def test_product_windows(self):
        from kronrod.auts import value_preserving_auts

        f, rec = realize_disk(Prod(Triv(), Triv()))
        assert morse_counts(f).as_tuple() == (0, 1, 2)
        g = build_reeb(f)
        assert value_preserving_auts(g).order == 1

    def test_wr2_rejected(self):
        with pytest.raises(NotRealizable):
            realize_disk(Wr2(Triv(), 2, 1))

    def test_values_in_unit_interval(self):
        f, _ = realize_disk(Wr(Wr(Triv(), 2), 2))
        interior = f.values[1:-1, 1:-1]
        assert interior.min() > 0
        assert interior.max() == 1.0
        assert np.all(f.values[0, :] == 0)


class TestCircuit:
    def test_trivial_base_designed_values(self):
        f, _ = realize_torus_circuit(Triv(), 1)
        crits = {c.kind: c.value for c in classify_vertices(f)}
        assert crits[CritKind.MAXIMUM] == 1.0
        assert crits[CritKind.MINIMUM] == -1.0
        saddles = sorted(c.value for c in classify_vertices(f) if c.kind is CritKind.SADDLE)
        assert saddles == [-0.5, 0.5]

    def test_counts_scale_with_bands(self):
        for n in (1, 2, 3, 4):
            f, _ = realize_torus_circuit(Triv(), n)
            assert morse_counts(f).as_tuple() == (n, 2 * n, n)

    def test_not_generic_for_two_bands(self):
        f, _ = realize_torus_circuit(Triv(), 2)
        assert not is_generic(f)

    def test_band_translation_bit_exact(self):
        f, rec = realize_torus_circuit(Wr(Triv(), 2), 3)
        t = next(s for s in rec.symmetries if isinstance(s, GridTranslation))
        rolled = np.roll(f.values, (-t.dy, -t.dx), axis=(0, 1))
        assert np.array_equal(rolled, f.values)

    def test_slot_congruence(self):
        f, rec = realize_torus_circuit(Wr(Triv(), 2), 4)
        check_record_against_field(rec, f)  # raises on any mismatch

    def test_class_check(self):
        with pytest.raises(NotRealizable):
            realize_torus_circuit(Wr2(Triv(), 2, 1), 2)


class TestTree:
    def test_counts(self):
        assert morse_counts(realize_torus_tree(Triv(), 1, 1)[0]).as_tuple() == (2, 4, 2)
        assert morse_counts(realize_torus_tree(Triv(), 2, 1)[0]).as_tuple() == (8, 16, 8)

    def test_shape_tree(self):
        for n, m in ((1, 1), (2, 1), (1, 2)):
            f, _ = realize_torus_tree(Triv(), n, m)
            assert classify_shape(build_reeb(f)).shape == "tree"

    def test_never_simple(self):
        for n, m in ((1, 1), (2, 1)):
            f, _ = realize_torus_tree(Triv(), n, m)
            assert not is_simple(f, build_reeb(f))

    def test_lattice_translations_bit_exact(self):
        f, rec = realize_torus_tree(Wr(Triv(), 2), 2, 1)
        for sym in rec.symmetries:
            if isinstance(sym, GridTranslation):
                rolled = np.roll(f.values, (-sym.dy, -sym.dx), axis=(0, 1))
                assert np.array_equal(rolled, f.values)

    def test_saddles_share_value_not_generic(self):
        f, _ = realize_torus_tree(Triv(), 2, 1)
        assert not is_generic(f)


class TestSimple:
    def test_simple_and_circuit(self):
        for n in (1, 2, 3):
            f, _ = realize_simple(Triv(), n)
            g = build_reeb(f)
            assert classify_shape(g).shape == "circuit"
            assert is_simple(f, g)

    def test_nested_base(self):
        f, rec = realize_simple(Wr(Wr(Triv(), 2), 2), 2)
        g = build_reeb(f)
        assert is_simple(f, g)

    def test_rejects_large_wreath_base(self):
        with pytest.raises(NotRealizable):
            realize_simple(Wr(Triv(), 3), 2)


def _roundtrip_ok(f, rec):
    g = build_reeb(f)
    gens = [induced_graph_aut(g, s) for s in rec.symmetries]
    grp = generated_group(g, gens)
    if not is_isomorphic(grp, perm_rep(record_term(rec))):
        return False
    return structural_group(rec) == normalize(rec.term)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "base,n",
        [("1", 1), ("1", 4), ("wr(1,2)", 3), ("prod(wr(1,2),wr(1,3))", 2), ("wr(1,3)", 2)],
    )
    def test_circuit(self, base, n):
        f, rec = realize_torus_circuit(parse_term(base), n)
        assert _roundtrip_ok(f, rec)

    @pytest.mark.parametrize(
        "base,n,m", [("1", 1, 1), ("1", 2, 1), ("wr(1,2)", 1, 2), ("wr(1,2)", 2, 1)]
    )
    def test_tree(self, base, n, m):
        f, rec = realize_torus_tree(parse_term(base), n, m)
        assert _roundtrip_ok(f, rec)

    @pytest.mark.parametrize(
        "term",
        ["1", "wr(1,3)", "wr(wr(1,2),2)", "prod(wr(1,2),wr(1,3))", "wr(wr(1,2),3)"],
    )
    def test_disk(self, term):
        f, rec = realize_disk(parse_term(term))
        assert _roundtrip_ok(f, rec)

    @pytest.mark.parametrize("base,n", [("1", 2), ("wr(1,2)", 2), ("wr(wr(1,2),2)", 3)])
    def test_simple(self, base, n):
        f, rec = realize_simple(parse_term(base), n)
        assert _roundtrip_ok(f, rec)


class TestLayoutInternals:
    def test_all_columns_odd(self):
        for term in ("1", "wr(1,3)", "prod(wr(1,2),1)", "wr(wr(1,2),2)"):
            layout = build_layout(parse_term(term))
            assert all(v % 2 == 1 for v in layout.cols)

    def test_adjacent_columns_distinct(self):
        layout = build_layout(parse_term("wr(prod(wr(1,2),1),3)"))
        assert all(a != b for a, b in zip(layout.cols, layout.cols[1:]))

    def test_euler_by_construction(self):
        for term in ("1", "wr(1,4)", "prod(wr(1,2),wr(1,3))", "wr(wr(1,2),2)"):
            c0, c1, c2 = build_layout(parse_term(term)).counts
            assert c0 - c1 + c2 == 1
