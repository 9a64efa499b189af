import os

import numpy as np
import pytest
from hypothesis import given, settings

from kronrod.construct import realize_disk, realize_simple, realize_torus_circuit, realize_torus_tree
from kronrod.errors import GridCapExceeded, IncompleteRecord, InvalidField
from kronrod.fields import ScalarField, classify_vertices, euler_check, morse_counts
from kronrod.permgroups import is_isomorphic, perm_rep
from kronrod.records import (
    ConstructionRecord,
    GridTranslation,
    RectCycle,
    check_record_against_field,
)
from kronrod.terms import Triv, Wr, normalize, order, parse_term

from test_terms import terms_strategy


class TestExpectedSymmetries:
    def test_single_band_is_full_wrap(self):
        f, rec = realize_torus_circuit(Triv(), 1)
        syms = rec.symmetries
        assert syms == [GridTranslation(f.width, 0)]

    def test_tree_lattice_steps(self):
        f, rec = realize_torus_tree(Triv(), 2, 1, subdivision=4)
        syms = rec.symmetries
        assert GridTranslation(8, 0) in syms
        assert GridTranslation(0, 8) in syms

    def test_disk_wreath_cycle(self):
        _, rec = realize_disk(Wr(Triv(), 3))
        cycles = [s for s in rec.symmetries if isinstance(s, RectCycle)]
        assert len(cycles) == 1
        assert len(cycles[0].rects) == 3


class TestRecordJson:
    def test_round_trip(self):
        _, rec = realize_torus_circuit(Wr(Triv(), 2), 2)
        again = ConstructionRecord.from_json(rec.to_json())
        assert again.case == rec.case
        assert again.term == rec.term
        assert again.symmetries == rec.symmetries
        assert [s.rect for s in again.slots] == [s.rect for s in rec.slots]

    def test_malformed(self):
        with pytest.raises(IncompleteRecord):
            ConstructionRecord.from_json(b'{"case": "circus"}')

    def test_congruence_check_catches_tampering(self):
        f, rec = realize_torus_circuit(Wr(Triv(), 2), 2)
        vals = np.array(f.values)
        s = rec.slots[1].rect
        vals[s.y0 % f.height, s.x0] += 1e-9
        tampered = ScalarField("torus", vals, validate=False)
        with pytest.raises(InvalidField):
            check_record_against_field(rec, tampered)


class TestGridCap:
    def test_env_cap(self):
        os.environ["KR_GRID_CAP"] = "512"
        try:
            with pytest.raises(GridCapExceeded):
                realize_torus_tree(Wr(Triv(), 2), 2, 2)
        finally:
            del os.environ["KR_GRID_CAP"]


class TestEulerFailureModes:
    def test_corruption_cannot_unbalance_a_valid_field(self):
        # the link-rule index sum is a combinatorial identity, so flattening
        # a saddle re-balances the counts rather than breaking the equality
        f, _ = realize_torus_circuit(Triv(), 1)
        vals = np.array(f.values)
        saddle = next(c for c in classify_vertices(f) if c.value == 0.5)
        nbs = [
            vals[(saddle.y + dy) % f.height, (saddle.x + dx) % f.width]
            for dx, dy in [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
        ]
        vals[saddle.y, saddle.x] = max(nbs) + 0.125
        broken = ScalarField("torus", vals)
        assert euler_check(broken)
        before = morse_counts(f)
        after = morse_counts(broken)
        assert after.as_tuple() != before.as_tuple()

    def test_mislabeled_kind_fails(self):
        # a monotone patch carries no critical points, which cannot happen
        # on a disk; the equality is the consistency check that catches it
        xs = np.arange(12)
        X, Y = np.meshgrid(xs, xs)
        plane = ScalarField("disk", 0.11 * X + 0.06 * Y, validate=False)
        assert not euler_check(plane)


class TestNormalizeIsomorphism:
    @given(terms_strategy(max_leaves=4))
    @settings(max_examples=25, deadline=None)
    def test_perm_reps_isomorphic(self, t):
        if order(t, bound=1 << 200) > 500:
            return
        assert is_isomorphic(perm_rep(t), perm_rep(normalize(t)), 500) is True


class TestMixedCaseDispatch:
    def test_simple_nested_order(self):
        f, rec = realize_simple(parse_term("wr(wr(1,2),2)"), 2)
        assert order(normalize(rec.term)) == 8 ** 2 * 2
        assert euler_check(f)
        assert morse_counts(f).c1 > 0
