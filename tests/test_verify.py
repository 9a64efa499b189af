"""The group checks of the verification contract on large terms and on
records with wrong generators."""

import pytest

from kronrod.construct import realize_torus_circuit, realize_torus_tree
from kronrod.records import GridTranslation, RectCycle
from kronrod.terms import order, parse_term
from kronrod.verify import verify_realization

GROUP_CHECKS = ("generated_order", "group_isomorphism")


def realize(case, base, n, m=1):
    if case == "tree":
        return realize_torus_tree(parse_term(base), n, m)
    return realize_torus_circuit(parse_term(base), n)


def failing(report):
    return {c.name for c in report.checks if not c.ok}


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
    f, rec = realize(case, base, n, m)
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


def test_swapped_generators_fail_the_pairing():
    f, rec = realize("circuit", "wr(1,2)", 3)
    rec.symmetries[:2] = rec.symmetries[1::-1]
    report = verify_realization(f, rec)
    assert failing(report) == {"group_isomorphism"}
    detail = next(c.detail for c in report.checks if c.name == "group_isomorphism")
    assert detail.startswith("pairing orders: generated 24, term 24, diagonal ")
    assert not detail.endswith(" 24")


def test_swapped_generators_of_equal_order_can_pair():
    # Z2 wr Z2 is dihedral of order 8: an automorphism exchanges the two
    # classes of reflections, so the swapped pairing is still an isomorphism
    f, rec = realize("circuit", "wr(1,2)", 2)
    rec.symmetries[:2] = rec.symmetries[1::-1]
    assert verify_realization(f, rec).ok


def test_dropped_rect_cycle_fails_above_old_cap():
    f, rec = realize("circuit", "wr(1,2)", 12)
    assert order(rec.term) > 5000
    rec.symmetries = [s for s in rec.symmetries if not isinstance(s, RectCycle)]
    report = verify_realization(f, rec)
    assert failing(report) == set(GROUP_CHECKS)


def test_block_shift_by_two_fails():
    f, rec = realize("circuit", "wr(1,2)", 4)
    (shift,) = [s for s in rec.symmetries if isinstance(s, GridTranslation)]
    rec.symmetries[0] = GridTranslation(2 * shift.dx, shift.dy)
    report = verify_realization(f, rec)
    assert failing(report) == set(GROUP_CHECKS)
