import hashlib
import itertools
from functools import lru_cache

import numpy as np
import pytest

from kronrod import construct
from kronrod.auts import generated_group, induced_graph_aut, record_term
from kronrod.construct import (
    CONTENT_ROWS,
    _AMPLITUDE,
    _LINE_EPS,
    _bump_knots,
    build_layout,
    realize,
    realize_disk,
    realize_simple,
    realize_torus_circuit,
    realize_torus_tree,
)
from kronrod.errors import GridCapExceeded, NotRealizable
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
from kronrod.terms import Prod, Triv, Wr, Wr2, class_of, format_term, normalize, parse_term


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


def pointwise_tree_values(s: int, n: int, m: int, ring_r2) -> np.ndarray:
    """The tree lattice field before content painting, one grid point at a
    time, as `realize_torus_tree` once computed it: a reference for its array
    arithmetic, which must agree bit for bit."""
    knots = _bump_knots(ring_r2)
    vals = np.zeros((2 * m * n * s, 2 * n * s))
    for y in range(vals.shape[0]):
        for x in range(vals.shape[1]):
            on_vx, on_vy = x % s == 0, y % s == 0
            amp = _AMPLITUDE[((x // s) % 2, (y // s) % 2)]
            if on_vx and on_vy:
                continue
            if on_vy or on_vx:
                tpos = x % s if on_vy else y % s
                vals[y, x] = (1.0 if amp > 0 else -1.0) * _LINE_EPS * (2 * tpos - s + 0.5) / s
                continue
            r2 = ((x % s) / s - 0.5) ** 2 + 2.0 * ((y % s) / s - 0.5) ** 2
            bump = knots[-1][1]
            for (r0, v0), (r1, v1) in zip(knots, knots[1:]):
                if r2 <= r1:
                    bump = v0 + (v1 - v0) * (r2 - r0) / (r1 - r0)
                    break
            vals[y, x] = amp * bump
    return vals


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

    @pytest.mark.parametrize(
        "base,n,m,subdivision",
        [
            ("1", 1, 1, 4),
            ("1", 2, 1, 7),
            ("1", 1, 2, 12),
            ("wr(1,2)", 1, 1, 4),
            ("wr(1,3)", 2, 1, 40),
        ],
    )
    def test_matches_pointwise_reference(self, base, n, m, subdivision):
        f, rec = realize_torus_tree(parse_term(base), n, m, subdivision=subdivision)
        s = rec.symmetries[0].dx // 2
        ring_r2 = None
        if rec.slots:
            r = rec.slots[0].rect
            xs, ys = range(r.x0 - 1, r.x0 + r.w + 1), range(r.y0 - 1, r.y0 + r.h + 1)
            ring = [(x, y) for x in xs for y in ys if x in (xs[0], xs[-1]) or y in (ys[0], ys[-1])]
            ring_r2 = min(((x / s) - 0.5) ** 2 + 2.0 * ((y / s) - 0.5) ** 2 for x, y in ring)
        want = pointwise_tree_values(s, n, m, ring_r2)
        for slot in rec.slots:
            r = slot.rect
            box = np.s_[r.y0 : r.y0 + r.h, r.x0 : r.x0 + r.w]
            want[box] = f.values[box]
        assert want.tobytes() == f.values.tobytes()

    @pytest.mark.parametrize(
        "base,n,m,subdivision,digest",
        [
        ("1", 1, 1, 4, "24b914d2058348310959c9211d9d01546b23e307c9bbc79728926adc2de2a036"),
        ("wr(1,2)", 1, 1, 4, "159b7a8b273426e58114808239e08aefe955264d64bfc8e90b280074f339d621"),
        ("1", 1, 2, 4, "e9b84b63b0588b362f2bf1826c087db227b9e014853759d14627b0df1c4630a6"),
        ("wr(1,2)", 1, 2, 4, "35ccaf81679d54c05a37c1e3359c7411d259b9d9ad0c65936fd3d8be1dfbe357"),
        ("1", 2, 1, 4, "2541c046b6c02c51b3cd21ee8671864459d564308d6b43a4d617d0cba7e6ea26"),
        ("wr(1,2)", 2, 1, 4, "8c178491766342226cbeb88bacf53cb594609e7eaccae788ee33d63337002821"),
        ("1", 2, 2, 4, "5fcfdab47e48c55cad78140681ae4f2ef8c579edcbe31aef22a8ac942be77f51"),
        ("wr(1,2)", 2, 2, 4, "a4b75e766a307258f6877749216e0a6a0756acee2b9495febdd4ca40e0b9b1c6"),
        (
            "prod(wr(1,2),wr(1,2))",
            1,
            1,
            4,
            "7f3f4b2b0218f0ef7794c1258562281ab2d41f05149547d7ffd157acd800a61f",
        ),
        ("1", 3, 1, 4, "ec3c540281cc271e1b1f3229d5010a100391d0dbed82ef0622d718aeb0d3243e"),
        ("wr(1,3)", 1, 1, 4, "4bb0670bdc3beb68be581ce6cf81bc63695f1173f452320af800931ac7fc315f"),
        (
            "prod(wr(1,2),wr(1,3))",
            1,
            2,
            4,
            "4b6bac76497524a94b24906c7ffbb90dbb63c87bd80a5fff3f4ab55b79670983",
        ),
        ("1", 1, 1, 6, "c795d552acbe5bab8e655bfa1088fce3cf7f6e672da6e1fd03c7703d2501893e"),
        ("1", 1, 1, 9, "1c35bf55124c78f269505d499d748705dc1aaa7ee4d8d706f905dfbd9c74a833"),
        ],
    )
    def test_pinned_digests(self, base, n, m, subdivision, digest):
        """Field values and record, bit for bit: the nine corpus tree members,
        three more bases and index pairs, and two finer subdivisions."""
        f, rec = realize_torus_tree(parse_term(base), n, m, subdivision=subdivision)
        h = hashlib.sha256(f.values.tobytes())
        h.update(rec.to_json())
        assert h.hexdigest() == digest


@pytest.mark.parametrize(
    "make,digest",
    [
        (
            lambda: realize_torus_circuit(parse_term("wr(1,2)"), 2),
            "cb0394a14444a604b8ae06a60d4cfb49a8f82ec27b505c9fd6b6da742c966691",
        ),
        (
            lambda: realize_simple(parse_term("wr(wr(1,2),2)"), 2),
            "ded2eabfe63835eb548bc50ece7bdff72168a3b0f9f70521ca96183ae7f587c0",
        ),
        (
            lambda: realize_disk(parse_term("prod(wr(1,2),wr(1,3))")),
            "a0e9c12896ce04afbaf707f146be31ba29ba0fe3129c438e411fe908b0b53ee5",
        ),
        (
            lambda: realize_disk(parse_term("wr(1,3)")),
            "1feb70328ff3dfa7aa6be806d034e1c104ceae23ac59d6f25c8dd2be62eb4c92",
        ),
    ],
    ids=["circuit-wr(1,2)-2", "simple-wr(wr(1,2),2)-2", "disk-prod(wr(1,2),wr(1,3))", "disk-wr(1,3)"],
)
def test_pinned_digests(make, digest):
    """Field values and record, bit for bit, of the circuit, simple and disk
    constructions."""
    f, rec = make()
    h = hashlib.sha256(f.values.tobytes())
    h.update(rec.to_json())
    assert h.hexdigest() == digest


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
    return normalize(record_term(rec)) == normalize(rec.term)


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


@lru_cache(maxsize=None)
def terms_of_size(k: int) -> tuple:
    """Every term with k constructors: Wr indices 1 to 3, Wr2 with indices
    (2, 1), and products of two or three factors."""
    if k == 1:
        return (Triv(),)
    out = []
    for t in terms_of_size(k - 1):
        out += [Wr(t, 1), Wr(t, 2), Wr(t, 3), Wr2(t, 2, 1)]
    for parts in (2, 3):
        for sizes in itertools.product(range(1, k - 1), repeat=parts):
            if sum(sizes) == k - 1:
                out += [Prod(*fs) for fs in itertools.product(*map(terms_of_size, sizes))]
    return tuple(out)


def test_layouts_refuse_exactly_the_terms_outside_the_disk_classes():
    """`build_layout` is the constructions' one realizability check; it
    agrees with the paper's classes on all 12,162 terms of up to 7
    constructors, with and without `simple`."""
    terms = [t for k in range(1, 8) for t in terms_of_size(k)]
    refused = {False: 0, True: 0}
    for t in terms:
        flags = class_of(normalize(t))
        classes = ((False, flags.disk_realizable), (True, flags.disk_realizable_simple))
        for simple, realizable in classes:
            try:
                build_layout(t, simple)
            except NotRealizable:
                refused[simple] += 1
                assert not realizable, (format_term(t), simple)
            else:
                assert realizable, (format_term(t), simple)
    assert (len(terms), refused[False], refused[True]) == (12162, 8472, 11260)


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

    @pytest.mark.parametrize(
        "case,term,cap",
        [
            ("disk", "wr(wr(wr(1,30),30),30)", 1000),  # 273,723 columns in all
            ("circuit", "wr(wr(wr(1,30),30),30)", 1000),
            ("tree", "wr(wr(wr(1,30),30),30)", 1000),
            ("simple", "wr(wr(wr(wr(1,2),2),2),2)", 1000),  # 187 columns
            ("disk", "prod(wr(1,13),wr(1,13))", 1000),  # 131 + 1 + 131 columns
            ("disk", "wr(1,1000000000)", construct.GRID_CAP),
            ("circuit", "wr(1,1000000000)", construct.GRID_CAP),
            ("tree", "wr(1,1000000000)", construct.GRID_CAP),
        ],
        ids=["disk", "circuit", "tree", "simple", "product", "disk-1e9", "circuit-1e9", "tree-1e9"],
    )
    def test_grid_cap_checked_before_the_layout(self, monkeypatch, case, term, cap):
        """No layout wider than the cap allows for the content rows is built."""
        widths = []
        layout = construct.Layout
        monkeypatch.setattr(construct, "Layout", lambda *a: widths.append(len(a[2])) or layout(*a))
        monkeypatch.setattr(construct, "GRID_CAP", cap)
        with pytest.raises(GridCapExceeded, match=f"exceeds cap {cap}$"):
            realize(case, parse_term(term), 2)
        assert widths and max(widths) <= cap // CONTENT_ROWS

