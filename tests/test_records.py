import json

import numpy as np
import pytest
from hypothesis import given, settings

from kronrod import construct
from kronrod.construct import realize_disk, realize_simple, realize_torus_circuit, realize_torus_tree
from kronrod.corpus import corpus_grid, realize_member
from kronrod.errors import GridCapExceeded, IncompleteRecord, InvalidField
from kronrod.fields import ScalarField, classify_vertices, euler_check, morse_counts
from kronrod.permgroups import group_order, is_isomorphic, perm_rep
from kronrod.records import (
    ConstructionRecord,
    GridTranslation,
    RectCycle,
    check_record_against_field,
    moves,
    symmetry_from_json,
)
from kronrod.terms import Prod, Triv, Wr, Wr2, _sort_key, normalize, order, parse_term

from test_terms import terms_strategy


class TestExpectedSymmetries:
    def test_single_band_is_full_wrap(self):
        f, rec = realize_torus_circuit(Triv(), 1)
        syms = rec.symmetries
        assert syms == [GridTranslation(f.width, 0)]

    def test_tree_lattice_steps(self):
        f, rec = realize_torus_tree(Triv(), 2, 1)
        syms = rec.symmetries
        assert GridTranslation(8, 0) in syms
        assert GridTranslation(0, 8) in syms

    def test_disk_wreath_cycle(self):
        _, rec = realize_disk(Wr(Triv(), 3))
        cycles = [s for s in rec.symmetries if isinstance(s, RectCycle)]
        assert len(cycles) == 1
        assert len(cycles[0].rects) == 3


def set_at(doc, path, value):
    """Set the item of a JSON document at a path of keys and indices."""
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


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

    @pytest.mark.parametrize(
        "counts", [None, [], [2, 4], [2, 4, 2, 0], [2, 4, "2"], [2.0, 4, 2], [True, 2, 1], "drop"]
    )
    def test_designed_counts_are_three_integers(self, counts):
        """A record without its designed counts would let `euler` compare the
        field's counts with themselves."""
        doc = json.loads(realize_torus_circuit(Triv(), 1)[1].to_json())
        if counts == "drop":
            del doc["designed_counts"]
        else:
            doc["designed_counts"] = counts
        with pytest.raises(IncompleteRecord, match="designed_counts"):
            ConstructionRecord.from_json(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "path, value",
        [
            (["n"], 3.7),
            (["n"], "3"),
            (["m"], 1.0),
            (["width"], 102.0),
            (["height"], "32"),
            (["slots", 0, "rect", 2], 21.0),
            (["slots", 1, "orbit"], False),
            (["symmetries", 0, "dx"], 34.0),
            (["symmetries", 1, "rects", 0, 0], "7"),
            (["term", "n"], 3.0),
            (["base", "n"], "2"),
        ],
        ids=[
            "n-fraction", "n-string", "m-float", "width-float", "height-string",
            "rect-float", "orbit-bool", "dx-float", "rect-cycle-string", "term-float",
            "base-string",
        ],
    )  # fmt: skip
    def test_integer_fields_are_json_integers(self, path, value):
        """Every integer of a record of circuit `wr(wr(1,2),3)` must be a JSON
        integer: `int()` would read each of these edits as the value it
        replaced, or as 0 or 1, and the record would still load, with most of
        them verifying ok."""
        doc = json.loads(realize_torus_circuit(Wr(Triv(), 2), 3)[1].to_json())
        set_at(doc, path, value)
        with pytest.raises(IncompleteRecord, match="expected an integer"):
            ConstructionRecord.from_json(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "path, value",
        [
            (["symmetries", 0], [1, 2]),
            (["symmetries", 0], "ab"),
            (["term"], 5),
            (["base"], "x"),
            (["slots", 0, "term"], [1]),
        ],
        ids=["symmetry-list", "symmetry-string", "term-number", "base-string", "slot-term-list"],
    )
    def test_parts_that_are_not_objects(self, path, value):
        """A term or symmetry that is a JSON list, number or string is a
        malformed record, not an AttributeError from the parser."""
        doc = json.loads(realize_torus_circuit(Wr(Triv(), 2), 1)[1].to_json())
        set_at(doc, path, value)
        with pytest.raises(IncompleteRecord, match="malformed record JSON: a .* must be a JSON object"):
            ConstructionRecord.from_json(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "translation", "dx": 1.0, "dy": 0},
            {"kind": "translation", "dx": 1, "dy": "0"},
            {"kind": "rect_cycle", "rects": [[0, 0, 2, 2.5], [2, 0, 2, 2]]},
        ],
        ids=["dx-float", "dy-string", "rect-fraction"],
    )
    def test_symmetry_offsets_are_json_integers(self, obj):
        with pytest.raises(ValueError, match="expected an integer"):
            symmetry_from_json(obj)

    def test_deeply_nested_record(self, shallow_stack):
        """Incomplete wherever the stack runs out: here `json.loads` overflows
        before `term_from_json` (see test_terms) is reached."""
        doc = json.loads(realize_torus_circuit(Triv(), 1)[1].to_json())
        for _ in range(300):
            doc["term"] = {"k": "wr", "b": doc["term"], "n": 2}
        data = json.dumps(doc).encode()
        with shallow_stack, pytest.raises(IncompleteRecord, match="recursion"):
            ConstructionRecord.from_json(data)

    def test_congruence_check_catches_tampering(self):
        f, rec = realize_torus_circuit(Wr(Triv(), 2), 2)
        vals = np.array(f.values)
        s = rec.slots[1].rect
        vals[s.y0 % f.height, s.x0] += 1e-9
        tampered = ScalarField("torus", vals, validate=False)
        with pytest.raises(InvalidField):
            check_record_against_field(rec, tampered)

    def test_symmetry_failure_names_the_symmetry(self):
        """The message quotes the symmetry's repr, and `verify` reports it."""
        f, rec = realize_torus_circuit(Wr(Triv(), 3), 2)
        rec.symmetries = [GridTranslation(1, 0), *rec.symmetries]
        text = r"field is not invariant under GridTranslation\(dx=1, dy=0\)"
        with pytest.raises(InvalidField, match=f"^{text}$"):
            check_record_against_field(rec, f)


class TestGridCap:
    def test_cap(self, monkeypatch):
        monkeypatch.setattr(construct, "GRID_CAP", 512)
        with pytest.raises(GridCapExceeded):
            realize_torus_tree(Wr(Triv(), 2), 2, 2)


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


def _flat_factors(t):
    """The unnormalized factors `normalize` flattens a product into."""
    while isinstance(t, Wr) and t.n == 1 and isinstance(normalize(t.base), Prod):
        t = t.base
    if isinstance(t, Prod):
        return [a for f in t.factors for a in _flat_factors(f)]
    return [] if isinstance(normalize(t), Triv) else [t]


def presorted(t):
    """`t` with every product flattened and its factors sorted as `normalize`
    sorts them, but nothing else collapsed, so that the generators of its
    `perm_rep` come in the order of those of `normalize(t)`."""
    if isinstance(t, Wr):
        return Wr(presorted(t.base), t.n)
    if isinstance(t, Wr2):
        return Wr2(presorted(t.base), t.n, t.m)
    if isinstance(t, Prod):
        factors = sorted(map(presorted, _flat_factors(t)), key=lambda f: _sort_key(normalize(f)))
        return Prod(*factors) if factors else Triv()
    return t


class TestNormalizeIsomorphism:
    @given(terms_strategy(max_leaves=4))
    @settings(max_examples=25, deadline=None)
    def test_perm_reps_isomorphic(self, t):
        """`normalize` only drops trivial parts and reorders product factors:
        paired in that order, its group is the term's."""
        if order(t) > 10**5:
            return
        assert normalize(presorted(t)) == normalize(t)
        assert group_order(perm_rep(t)) == order(t)
        iso = is_isomorphic(perm_rep(presorted(t)), perm_rep(normalize(t)))
        assert iso and iso.g == order(t)

    def test_sorted_factors_pair_positionally(self):
        t = Prod(Wr(Triv(), 3), Prod(Triv(), Wr(Triv(), 2)))
        assert normalize(t) == Prod(Wr(Triv(), 2), Wr(Triv(), 3))
        assert presorted(t) == Prod(Wr(Triv(), 2), Wr(Triv(), 3))
        assert not is_isomorphic(perm_rep(t), perm_rep(normalize(t)))


class TestMixedCaseDispatch:
    def test_simple_nested_order(self):
        f, rec = realize_simple(parse_term("wr(wr(1,2),2)"), 2)
        assert order(normalize(rec.term)) == 8 ** 2 * 2
        assert euler_check(f)
        assert morse_counts(f).c1 > 0


def plain_image(f, sym):
    """Each grid point's image (x, y) under a recorded symmetry, point by point."""
    w, h = f.width, f.height
    image = {(x, y): (x, y) for y in range(h) for x in range(w)}
    if isinstance(sym, GridTranslation):
        return {(x, y): ((x + sym.dx) % w, (y + sym.dy) % h) for x, y in image}
    rects = sym.rects
    for r, s in zip(rects, rects[1:] + rects[:1]):
        for i in range(r.w):
            for j in range(r.h):
                image[(r.x0 + i) % w, (r.y0 + j) % h] = ((s.x0 + i) % w, (s.y0 + j) % h)
    return image


def test_moves_matches_the_plain_image_on_the_corpus():
    """On every symmetry of the corpus records, `moves` gives the image
    worked out point by point, which is a bijection of the grid keeping f."""
    for member in corpus_grid():
        f, rec = realize_member(member)
        w, h = f.width, f.height
        for sym in rec.symmetries:
            image = plain_image(f, sym)
            assert sorted(image.values()) == sorted(image), (member.label, sym)
            assert all(f.values[y, x] == f.values[image[x, y][1], image[x, y][0]] for x, y in image)
            src, dst, piece = moves(f, sym)
            got = np.arange(w * h)
            got[src] = dst
            want = [x + y * w for x, y in (image[p % w, p // w] for p in range(w * h))]
            assert got.tolist() == want
            if isinstance(sym, RectCycle):
                r = sym.rects
                assert piece.tolist() == [k for k in range(len(r)) for _ in range(r[k].w * r[k].h)]
            else:
                assert piece == 0
