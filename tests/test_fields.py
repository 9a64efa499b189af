import numpy as np
import pytest

from kronrod.errors import DegenerateVertex, InvalidField
from kronrod.construct import realize_disk, realize_torus_circuit
from kronrod.fields import (
    LINK_OFFSETS,
    CritKind,
    ScalarField,
    classify_vertices,
    euler_check,
    export_pgm,
    fix_ties,
    is_generic,
    load_field,
    morse_counts,
    save_field,
)
from kronrod import fields
from kronrod.fields import _link
from kronrod.terms import Triv, Wr


def bump_disk(w=11, h=11):
    xs = np.arange(w)
    ys = np.arange(h)
    X, Y = np.meshgrid(xs, ys)
    cx, cy = (w - 1) / 2, (h - 1) / 2
    vals = 1.0 - 0.3 * ((X - cx) / cx) ** 2 - 0.6 * ((Y - cy) / cy) ** 2
    vals[0, :] = 0
    vals[-1, :] = 0
    vals[:, 0] = 0
    vals[:, -1] = 0
    return ScalarField("disk", vals)


@pytest.mark.parametrize(
    "make", [lambda: realize_disk(Wr(Triv(), 2)), lambda: realize_torus_circuit(Triv(), 2)],
    ids=["disk", "torus"],
)
def test_link_reads_each_neighbour_with_wraparound(make):
    """`_link` against a point-by-point read of (x + dx, y + dy), on grids
    whose width and height differ."""
    vals = make()[0].values
    h, w = vals.shape
    assert w != h
    link = _link(vals)
    assert len(link) == len(LINK_OFFSETS)
    for nb, (dx, dy) in zip(link, LINK_OFFSETS):
        assert nb.shape == (h, w)
        for y in range(h):
            for x in range(w):
                assert nb[y, x] == vals[(y + dy) % h, (x + dx) % w]


class TestClassify:
    def test_plane_patch_has_no_interior_critical_points(self):
        # classifier-level check: a linear field is regular everywhere inside
        xs = np.arange(12)
        X, Y = np.meshgrid(xs, xs)
        vals = 0.13 * X + 0.07 * Y
        f = ScalarField("disk", vals, validate=False)
        assert classify_vertices(f) == []

    def test_single_bump(self):
        f = bump_disk()
        crits = classify_vertices(f)
        assert len(crits) == 1
        assert crits[0].kind is CritKind.MAXIMUM
        assert morse_counts(f).as_tuple() == (0, 0, 1)

    def test_monkey_saddle_rejected(self):
        # alternating signs around all six link neighbors of one vertex
        w = h = 9
        xs = np.arange(w)
        X, Y = np.meshgrid(xs, xs)
        vals = 0.01 * X + 0.007 * Y
        vals[4, 4] = 0.0
        for (dx, dy), v in zip(
            [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
            [1.0, -1.0, 1.0, -1.0, 1.0, -1.0],
        ):
            vals[4 + dy, 4 + dx] = v
        f = ScalarField("disk", vals, validate=False)
        with pytest.raises(DegenerateVertex) as exc:
            classify_vertices(f)
        assert exc.value.vertex == (4, 4)

    def test_a_tie_reads_as_below(self):
        """An interior tie, which only an unvalidated field has, reads as
        below from both sides: the bump's top and its tied east neighbor are
        both maxima, while in the pit the tied pair are both regular."""
        vals = bump_disk().values.copy()
        vals[5, 6] = vals[5, 5]
        bump = ScalarField("disk", vals, validate=False)
        got = [(c.x, c.y, c.kind, c.value) for c in classify_vertices(bump)]
        assert got == [(5, 5, CritKind.MAXIMUM, 1.0), (6, 5, CritKind.MAXIMUM, 1.0)]
        assert classify_vertices(ScalarField("disk", -vals, validate=False)) == []

    def test_shift_and_scale_invariance(self):
        f = bump_disk()
        ref = [(c.x, c.y, c.kind) for c in classify_vertices(f)]
        g = ScalarField("disk", f.values * 3.5 + 0.0, validate=False)
        h = ScalarField("disk", f.values + 2.25, validate=False)
        assert [(c.x, c.y, c.kind) for c in classify_vertices(g)] == ref
        assert [(c.x, c.y, c.kind) for c in classify_vertices(h)] == ref

    def test_torus_translation_equivariance(self):
        rng = np.random.default_rng(3)
        size = 16
        xs = np.arange(size) * (2 * np.pi / size)
        X, Y = np.meshgrid(xs, xs)
        vals = np.cos(X + 0.3) * np.cos(Y + 1.1) + 0.4 * np.cos(2 * X + 0.9)
        vals = fix_ties(vals, "torus")
        f = ScalarField("torus", vals)
        ref = {(c.x, c.y, c.kind) for c in classify_vertices(f)}
        rolled = ScalarField("torus", np.roll(vals, (-3, -5), axis=(0, 1)))
        moved = {((c.x + 5) % size, (c.y + 3) % size, c.kind) for c in classify_vertices(rolled)}
        assert moved == ref


def sign_change_kind(above):
    """The kind by the sign-change rule on the six link neighbors, given
    whether each lies above the vertex: None for a regular vertex and
    "degenerate" for a monkey saddle."""
    changes = sum(a != b for a, b in zip(above, above[1:] + above[:1]))
    if changes == 0:
        return CritKind.MINIMUM if above[0] else CritKind.MAXIMUM
    return {4: CritKind.SADDLE, 6: "degenerate"}.get(changes)


def classify_by_hand(f):
    """`classify_vertices` vertex by vertex, each neighbor read at
    ((x + dx) mod w, (y + dy) mod h): the critical points as (x, y, kind,
    value) in (value, y, x) order, or the row-major first degenerate vertex."""
    vals, h, w = f.values.tolist(), f.height, f.width
    frame = 1 if f.kind == "disk" else 0
    crits = []
    for y in range(frame, h - frame):
        for x in range(frame, w - frame):
            above = [vals[(y + dy) % h][(x + dx) % w] > vals[y][x] for dx, dy in LINK_OFFSETS]
            kind = sign_change_kind(above)
            if kind == "degenerate":
                return (x, y)
            if kind is not None:
                crits.append((vals[y][x], y, x, kind))
    return [(x, y, kind, v) for v, y, x, kind in sorted(crits, key=lambda c: c[:3])]


def test_kind_table_follows_the_sign_change_rule():
    """All 64 link codes: bit k set when link neighbor k lies above."""
    names = dict(enumerate(fields._CRIT_KINDS)) | {fields._DEGENERATE: "degenerate"}
    for code in range(64):
        want = sign_change_kind([bool(code >> k & 1) for k in range(6)])
        assert names[int(fields._KIND_OF_CODE[code])] == want, code
    assert fields._KIND_OF_CODE.tolist().count(fields._DEGENERATE) == 2  # 0b010101, 0b101010


@pytest.mark.parametrize("kind", ["torus", "disk"])
def test_classify_matches_a_vertex_by_vertex_read(kind):
    """Seeded smooth and rough fields, w != h and some tiled 2 x 2, against
    `classify_by_hand`; both critical point lists and degenerate vertices
    occur."""
    rng = np.random.default_rng(11)
    outcomes = {"crits": 0, "degenerate": 0}
    for trial in range(24):
        h, w = rng.integers(8, 20, size=2)
        if trial % 2:
            vals = rng.random((h, w))
        else:
            ys, xs = np.arange(h)[:, None] * (2 * np.pi / h), np.arange(w) * (2 * np.pi / w)
            waves = [(a, b, *rng.uniform(0, 6, size=2)) for a in (1, 2) for b in (1, 2)]
            vals = sum(np.cos(a * xs + p) * np.cos(b * ys + q) / (a + b) for a, b, p, q in waves)
            vals = fix_ties(vals, "torus")
            if trial % 4 == 0:  # equal critical values, ordered by y and then x
                vals = np.tile(vals, (2, 2))
        if kind == "disk":
            vals = np.pad(vals[1:-1, 1:-1] - vals.min() + 1.0, 1)
        f = ScalarField(kind, vals, validate=False)
        want = classify_by_hand(f)
        if isinstance(want, tuple):
            outcomes["degenerate"] += 1
            with pytest.raises(DegenerateVertex) as exc:
                classify_vertices(f)
            assert exc.value.vertex == want
        else:
            outcomes["crits"] += 1
            assert [(c.x, c.y, c.kind, c.value) for c in classify_vertices(f)] == want
    assert min(outcomes.values()) >= 3, outcomes


class TestInvariants:
    def test_euler_disk(self):
        assert euler_check(bump_disk())

    def test_generic_bump(self):
        assert is_generic(bump_disk())

    def test_neighbor_tie_rejected(self):
        vals = bump_disk().values.copy()
        vals[5, 5] = vals[5, 6]
        with pytest.raises(InvalidField):
            ScalarField("disk", vals)

    def test_frame_must_be_constant(self):
        vals = bump_disk().values.copy()
        vals[0, 3] = 0.5
        with pytest.raises(InvalidField):
            ScalarField("disk", vals)

    def test_minimum_size(self):
        with pytest.raises(InvalidField):
            ScalarField("disk", np.zeros((4, 4)))


class TestSerialization:
    def test_round_trip(self):
        f = bump_disk()
        g = load_field(save_field(f))
        assert g == f

    def test_length_mismatch(self):
        f = bump_disk()
        import json

        doc = json.loads(save_field(f))
        doc["values"] = doc["values"][:-1]
        with pytest.raises(InvalidField):
            load_field(json.dumps(doc).encode())

    def test_bad_json(self):
        with pytest.raises(InvalidField):
            load_field(b"{not json")

    @pytest.mark.parametrize("key", ["width", "height"])
    @pytest.mark.parametrize("value", [11.0, 11.9, "11", True])
    def test_sizes_are_json_integers(self, key, value):
        """`int()` would read each of these as a side of the 11x11 grid or of
        a grid of one row or column."""
        import json

        doc = json.loads(save_field(bump_disk()))
        doc[key] = value
        with pytest.raises(InvalidField, match="expected an integer"):
            load_field(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "value, kind",
        [("0.25", "str"), (True, "bool"), (None, "NoneType"), ([0.25], "list")],
        ids=["string", "boolean", "null", "nested-list"],
    )
    @pytest.mark.parametrize("where", ["one", "all"])
    def test_values_are_json_numbers(self, value, kind, where):
        """numpy reads "0.25" as 0.25 and true as 1.0, so a field of strings
        would load equal to the field it spells out; only JSON numbers pass."""
        import json

        doc = json.loads(save_field(bump_disk()))
        if where == "one":
            doc["values"][60] = value
        else:
            doc["values"] = [value] * len(doc["values"])
        with pytest.raises(InvalidField, match=f"values must be JSON numbers, got {kind}$"):
            load_field(json.dumps(doc).encode())

    def test_integer_values_load(self):
        import json

        f = bump_disk()
        doc = json.loads(save_field(f))
        doc["values"] = [int(v) if v == int(v) else v for v in doc["values"]]
        assert any(type(v) is int for v in doc["values"])
        assert load_field(json.dumps(doc).encode()) == f

    def test_nonconstant_frame_rejected_on_load(self):
        f = bump_disk()
        import json

        doc = json.loads(save_field(f))
        doc["values"][3] = 0.77  # a frame vertex in row 0
        with pytest.raises(InvalidField):
            load_field(json.dumps(doc).encode())

    def test_pgm(self):
        data = export_pgm(bump_disk())
        assert data.startswith(b"P5\n11 11\n255\n")
        assert len(data) == len(b"P5\n11 11\n255\n") + 121


class TestFixTies:
    def test_repairs_plateau(self):
        vals = bump_disk().values.copy()
        vals[4, 4] = vals[4, 5] = vals[4, 6]
        fixed = fix_ties(vals, "disk")
        ScalarField("disk", fixed)  # validates

    def test_leaves_clean_fields_alone(self):
        vals = bump_disk().values
        fixed = fix_ties(vals, "disk")
        assert np.array_equal(fixed, vals)


class TestGenericImpliesSimple:
    def test_on_random_fields(self):
        from kronrod.fields import is_generic, is_simple
        from kronrod.reeb import build_reeb

        from reeb_oracle import random_torus_field

        seen_generic = 0
        for i in range(6):
            f = random_torus_field(5000 + i * 311)
            g = build_reeb(f)
            if is_generic(f):
                seen_generic += 1
                assert is_simple(f, g)
        assert seen_generic > 0
