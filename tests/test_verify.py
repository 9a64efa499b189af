"""The group checks of the verification contract on large terms, on
records with wrong generators, and against a full group order that the
generated order does not divide; and the one leaf peel a verify makes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kronrod import fields, records, reeb, verify
from kronrod.auts import AutGroup
from kronrod.construct import realize
from kronrod.corpus import corpus_grid, realize_member, run_realization_corpus
from kronrod.errors import NotAnAutomorphism
from kronrod.fields import ScalarField
from kronrod.records import GridTranslation, Rect, RectCycle, Slot
from kronrod.terms import Triv, order, parse_term
from kronrod.verify import verify_realization

GROUP_CHECKS = ("generated_order", "group_isomorphism")


def replace(rec, **changes):
    """A copy of a construction record with the named fields changed; the
    others are shared."""
    return records.ConstructionRecord(**{k: getattr(rec, k) for k in rec.__slots__} | changes)


def failing(report):
    return {c.name for c in report.checks if not c.ok}


def _add_a_minimum(f, rec):
    c0, c1, c2 = rec.designed_counts
    return f, replace(rec, designed_counts=(c0 + 1, c1, c2)), None


def _nudge_slot(f, rec):
    vals = np.array(f.values)
    s = rec.slots[1].rect
    vals[s.y0 % f.height, s.x0] += 1e-9
    return ScalarField(f.kind, vals, validate=False), rec, None


def _shift_one_column(f, rec):
    return f, replace(rec, symmetries=[GridTranslation(1, 0), *rec.symmetries[1:]]), None


# One edit of circuit `wr(1,3)` at n = 2 per check, with every check it fails.
# No edit of the field or record fails `reeb` (any PL-Morse field has a
# graph) or `aut_containment` (a pushed group lies in the full group).
MUTATIONS = {
    "designed-count": (_add_a_minimum, {"euler"}),
    "slot-value": (_nudge_slot, {"record_exactness"}),
    "tree-case": (
        lambda f, rec: (f, replace(rec, case="tree"), None),
        {"shape", "special_vertex", "structural_term", "group_isomorphism"},
    ),
    "simple-case": (lambda f, rec: (f, replace(rec, case="simple"), None), {"simple"}),
    "one-column-shift": (_shift_one_column, {"record_exactness", "induced_automorphisms"}),
    "other-term": (
        lambda f, rec: (f, rec, parse_term("wr(1,4)")),
        {"structural_term", "generated_order"},
    ),
    "dropped-band-shift": (
        lambda f, rec: (f, replace(rec, symmetries=rec.symmetries[1:]), None),
        {"generated_order", "group_isomorphism"},
    ),
}


def _edited(name):
    edit, _ = MUTATIONS[name]
    f, rec = realize("circuit", parse_term("wr(1,3)"), 2)
    assert verify_realization(f, rec).ok
    return verify_realization(*edit(f, rec))


@pytest.mark.parametrize("name", MUTATIONS)
def test_each_edit_fails_exactly_its_checks(name):
    assert failing(_edited(name)) == MUTATIONS[name][1]


def test_the_edits_fail_every_check_but_reeb_and_aut_containment():
    ran = {c.name for name in MUTATIONS for c in _edited(name).checks}
    failed = set().union(*(fails for _, fails in MUTATIONS.values()))
    assert failed == ran - {"reeb", "aut_containment"}


@pytest.mark.parametrize(
    "case,base,n,m",
    [
        ("circuit", "wr(1,2)", 12, 1),  # order 49,152
        ("circuit", "wr(wr(1,2),2)", 4, 1),  # order 16,384
        ("tree", "wr(1,2)", 3, 1),  # order 4,608
        ("circuit", "prod(wr(1,3),wr(1,2))", 2, 1),  # factors in unsorted order
    ],
)
def test_group_checks_run_on_large_terms(case, base, n, m):
    f, rec = realize(case, parse_term(base), n, m)
    report = verify_realization(f, rec)
    assert report.ok, failing(report)
    details = {c.name: c.detail for c in report.checks}
    want = order(rec.term)
    assert details["generated_order"] == f"generated order {want}, term order {want}"
    assert details["group_isomorphism"] == (
        f"pairing orders: generated {want}, term {want}, diagonal {want}"
    )
    for name in GROUP_CHECKS:
        assert "skipped" not in details[name] and "beyond cap" not in details[name]


def test_tree_above_the_old_degree_cap():
    """Tree `1` at (16, 17): a 128 x 2,176 grid whose graph has 17,409
    vertices, above the 16,384 points group orders once were capped at.
    Its verify runs in a fresh interpreter, which reports its peak RSS."""
    code = (
        "import json, resource\n"
        "from kronrod.construct import realize\n"
        "from kronrod.terms import parse_term\n"
        "from kronrod.verify import verify_realization\n"
        "report = verify_realization(*realize('tree', parse_term('1'), 16, 17))\n"
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(json.dumps([report.to_json(), rss]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report, rss_kb = json.loads(proc.stdout)
    details = {c["name"]: c["detail"] for c in report["checks"]}
    assert report["ok"], report
    assert details["reeb"] == "V=17409 E=17408"
    assert details["group_isomorphism"] == (
        "pairing orders: generated 4352, term 4352, diagonal 4352"
    )
    assert [name for name, d in details.items() if "skipped" in d] == ["aut_containment"]
    assert rss_kb <= 500 * 1024


def test_term_with_more_points_than_the_grid_fails_the_pairing(monkeypatch):
    """A record read from a file may claim any index; its representation is
    refused before it is built."""
    f, rec = realize("circuit", parse_term("1"), 3)
    rec.n = 10**9
    monkeypatch.setattr(verify, "perm_rep", lambda t: pytest.fail("representation built"))
    report = verify_realization(f, rec)
    assert failing(report) == {"structural_term", "group_isomorphism"}
    detail = next(c.detail for c in report.checks if c.name == "group_isomorphism")
    assert detail == (
        "could not pair the generators: the term acts on 1000000000 points,"
        f" more than the field's {f.values.size} grid points"
    )


def test_swapped_generators_fail_the_pairing():
    f, rec = realize("circuit", parse_term("wr(1,2)"), 3)
    rec.symmetries[:2] = rec.symmetries[1::-1]
    report = verify_realization(f, rec)
    assert failing(report) == {"group_isomorphism"}
    detail = next(c.detail for c in report.checks if c.name == "group_isomorphism")
    assert detail.startswith("pairing orders: generated 24, term 24, diagonal ")
    assert not detail.endswith(" 24")


def test_swapped_generators_of_equal_order_can_pair():
    # Z2 wr Z2 is dihedral of order 8: an automorphism exchanges the two
    # classes of reflections, so the swapped pairing is still an isomorphism
    f, rec = realize("circuit", parse_term("wr(1,2)"), 2)
    rec.symmetries[:2] = rec.symmetries[1::-1]
    assert verify_realization(f, rec).ok


def test_dropped_rect_cycle_fails_above_old_cap():
    f, rec = realize("circuit", parse_term("wr(1,2)"), 12)
    assert order(rec.term) > 5000
    rec.symmetries = [s for s in rec.symmetries if not isinstance(s, RectCycle)]
    report = verify_realization(f, rec)
    assert failing(report) == set(GROUP_CHECKS)


def test_block_shift_by_two_fails():
    f, rec = realize("circuit", parse_term("wr(1,2)"), 4)
    (shift,) = [s for s in rec.symmetries if isinstance(s, GridTranslation)]
    rec.symmetries[0] = GridTranslation(2 * shift.dx, shift.dy)
    report = verify_realization(f, rec)
    assert failing(report) == set(GROUP_CHECKS)


def test_aut_containment_fails_when_the_generated_order_does_not_divide(monkeypatch):
    f, rec = realize("circuit", parse_term("1"), 4)
    monkeypatch.setattr(verify, "value_preserving_auts", lambda g: AutGroup(order=6))
    report = verify_realization(f, rec)
    assert failing(report) == {"aut_containment"}
    detail = next(c.detail for c in report.checks if c.name == "aut_containment")
    assert detail == "generated order 4 does not divide full group order 6"


@pytest.mark.parametrize("case,base,n,m", [("circuit", "1", 4, 1), ("tree", "wr(1,2)", 1, 2)])
def test_verify_peels_the_graph_once(monkeypatch, case, base, n, m):
    """The shape check and the full group order share one leaf peel."""
    calls = []
    peel = reeb._peel
    monkeypatch.setattr(reeb, "_peel", lambda g: calls.append(g) or peel(g))
    f, rec = realize(case, parse_term(base), n, m)
    assert verify_realization(f, rec).ok
    assert len(calls) == 1


def test_corpus_verify_labels_one_slab_per_parallel_pair(monkeypatch):
    """Only a circuit of length two reads triangles in a push, and its
    pushes share one slab labelling: one per such corpus member."""
    labelled = []
    slab_roots = reeb.ReebGraph.slab_roots

    def counting(g, lo, hi):
        before = len(g._slabs)
        root = slab_roots(g, lo, hi)
        labelled.extend([g] * (len(g._slabs) - before))
        return root

    monkeypatch.setattr(reeb.ReebGraph, "slab_roots", counting)
    runs = run_realization_corpus()
    assert all(report.ok for _, report in runs)
    assert len(labelled) == len(set(map(id, labelled))) == 4


def replace_everywhere(monkeypatch, fn, by):
    """Replace the function `fn` by `by` in every kronrod module that holds it."""
    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "kronrod"]:
        for attr in [a for a, v in vars(mod).items() if v is fn]:
            monkeypatch.setattr(mod, attr, by)


def test_corpus_checks_each_record_once(monkeypatch):
    """Constructions only build: a realize+verify pass over the corpus checks
    each record against its field once, wherever the check is imported."""
    calls = []
    check = records.check_record_against_field

    def counting(rec, f):
        calls.append(rec)
        return check(rec, f)

    replace_everywhere(monkeypatch, check, counting)
    runs = run_realization_corpus()
    assert all(report.ok for _, report in runs)
    assert len(runs) == len(calls) == 26


def test_a_verify_computes_each_grid_fact_once(monkeypatch):
    """After its realize, a verify of each corpus member makes no link pass:
    the realize made one per validated field, and classification reads its
    codes.  Each symmetry's point map is made once, by the record check, and
    every push of it reads the same arrays."""
    validated, passes, classifying, maps = [], [], [False], {}
    link, validate = fields._link, fields._validate
    classify, moves = fields.classify_vertices, records.moves

    def link_pass(vals):  # over the values, not over link codes
        if vals.dtype == np.float64:
            passes.append(classifying[0])
        return link(vals)

    def classify_once(f):
        classifying[0] = True
        try:
            return classify(f)
        finally:
            classifying[0] = False

    def point_map(f, sym):
        out = moves(f, sym)
        maps.setdefault(sym, []).append(out[1])
        return out

    monkeypatch.setattr(fields, "_link", link_pass)
    monkeypatch.setattr(fields, "_validate", lambda f: validated.append(f) or validate(f))
    replace_everywhere(monkeypatch, classify, classify_once)
    replace_everywhere(monkeypatch, moves, point_map)
    for member in corpus_grid():
        validated[:], passes[:] = [], []
        f, rec = realize_member(member)
        assert validated and passes == [False] * len(validated), member.label
        validated[:], passes[:] = [], []
        maps.clear()
        assert verify_realization(f, rec).ok
        assert passes == validated == [], member.label
        assert set(maps) == set(rec.symmetries), member.label
        for sym, images in maps.items():  # the record check's, then each push's
            assert len(images) >= 2 and all(a is images[0] for a in images), (member.label, sym)
    # a field made without validation works out its codes when it is classified
    copy = ScalarField(f.kind, f.values, validate=False)
    classify_once(copy)
    assert passes == [True]


def test_a_symmetry_whose_map_raises_keeps_nothing(monkeypatch):
    """A bijection's point map is made on the first call and kept; one that
    raises is worked out again, and raises again, on every call."""
    calls = []
    rect_points = records._rect_points
    monkeypatch.setattr(records, "_rect_points", lambda f, r: calls.append(r) or rect_points(f, r))
    f, rec = realize("disk", parse_term("wr(1,2)"))
    [good] = rec.symmetries
    first = records.moves(f, good)
    made = len(calls)
    assert made == len(good.rects) and records.moves(f, good) is first and len(calls) == made
    bad = RectCycle((Rect(0, 0, 2, 1), Rect(1, 0, 2, 1)))  # overlaps itself
    for n in (1, 2):
        with pytest.raises(NotAnAutomorphism, match="not a bijection"):
            records.moves(f, bad)
        assert len(calls) == made + 2 * n
    assert list(f._maps) == [good]


@pytest.mark.parametrize(
    "rects,reason",
    [
        (lambda w: (Rect(0, 0, 2, 1), Rect(1, 0, 2, 1)), "not a bijection"),  # overlaps itself
        (lambda w: (Rect(w - 1, 0, 2, 1), Rect(3, 0, 2, 1)), "leaves the grid"),  # wraps a disk
        (lambda w: (Rect(0, 0, 2, 1), Rect(3, 0, 3, 1)), "mismatched"),
    ],
    ids=["overlapping", "leaving-the-disk", "mismatched"],
)
def test_record_exactness_needs_a_bijection_of_the_grid(rects, reason):
    """A cycle on the constant disk frame keeps every value, but it is a
    symmetry only when it is a bijection of the grid."""
    f, rec = realize("disk", parse_term("wr(1,2)"))
    rec.symmetries.append(RectCycle(rects(f.width)))
    report = verify_realization(f, rec)
    assert {"record_exactness", "induced_automorphisms"} <= failing(report)
    detail = next(c.detail for c in report.checks if c.name == "record_exactness")
    assert reason in detail


@pytest.mark.parametrize(
    "slots,reason",
    [
        ([Slot(Rect(22, 0, 2, 9), 7, Triv())] * 2, "leaves the grid"),  # wraps round the disk
        ([Slot(Rect(0, 0, 0, 0), 7, Triv())], "empty rectangle"),
    ],
    ids=["leaving-the-disk", "empty"],
)
def test_record_exactness_reads_slots_by_the_rect_rule(slots, reason):
    """Slots are read like the rectangles of a cycle (see `records._rect_points`):
    a slot that wraps round a disk reads the constant frame, and an empty one
    reads nothing, so value congruence alone would pass both."""
    f, rec = realize("disk", parse_term("wr(1,2)"))
    assert (f.width, f.height) == (23, 9)
    rec.slots += slots
    report = verify_realization(f, rec)
    assert "record_exactness" in failing(report)
    detail = next(c.detail for c in report.checks if c.name == "record_exactness")
    assert detail.startswith("slot of orbit 7:") and reason in detail


def test_euler_fails_on_counts_the_record_was_not_designed_with():
    f, rec = realize("circuit", parse_term("1"), 2)
    c0, c1, c2 = rec.designed_counts
    rec.designed_counts = (c0 + 1, c1 + 1, c2)  # still balanced
    report = verify_realization(f, rec)
    assert failing(report) == {"euler"}
    detail = next(c.detail for c in report.checks if c.name == "euler")
    assert detail == f"counts {(c0, c1, c2)} != designed {(c0 + 1, c1 + 1, c2)}"
