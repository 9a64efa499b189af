"""Value semantics of the immutable result and term types: fields cannot be
assigned, and equal fields give equal objects with equal hashes."""

import pytest

from kronrod.auts import GraphAut
from kronrod.fields import CriticalPoint, CritKind, MorseCounts
from kronrod.permgroups import Pairing
from kronrod.records import GridTranslation, Rect, RectCycle
from kronrod.reeb import ShapeReport
from kronrod.terms import ClassFlags, Prod, Triv, Wr, Wr2

# name -> (a maker of one value, a field to assign); Triv has no field, so
# an attribute of another term stands in
IMMUTABLE = {
    "Triv": (Triv, "n"),
    "Prod": (lambda: Prod(Triv(), Wr(Triv(), 2)), "factors"),
    "Wr": (lambda: Wr(Triv(), 2), "n"),
    "Wr2": (lambda: Wr2(Triv(), 2, 1), "m"),
    "ClassFlags": (lambda: ClassFlags(True, True, False, True, True), "tree_realizable"),
    "CriticalPoint": (lambda: CriticalPoint(1, 2, CritKind.SADDLE, 0.5), "value"),
    "MorseCounts": (lambda: MorseCounts(2, 4, 2), "c1"),
    "ShapeReport": (lambda: ShapeReport(1, "circuit", (0, 1), (0, 1)), "cycle_edges"),
    "GraphAut": (lambda: GraphAut((1, 0), (0,)), "vperm"),
    "Pairing": (lambda: Pairing(2, 2, 2), "diagonal"),
    "GridTranslation": (lambda: GridTranslation(1, 0), "dx"),
    "Rect": (lambda: Rect(0, 0, 2, 3), "w"),
    "RectCycle": (lambda: RectCycle((Rect(0, 0, 1, 1), Rect(2, 0, 1, 1))), "rects"),
}


@pytest.mark.parametrize("name", IMMUTABLE)
def test_immutable_value(name):
    make, field = IMMUTABLE[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field, None))
    assert a == b


def test_terms_equal_terms_of_their_own_type_only():
    assert Wr(Triv(), 2) != Wr2(Triv(), 2, 1)
    assert Wr(Triv(), 2) != Wr(Triv(), 3) and Wr(Wr(Triv(), 2), 2) != Wr(Triv(), 2)
    for term, fields in [
        (Triv(), ()),
        (Prod(Triv(), Triv()), ((Triv(), Triv()),)),
        (Wr(Triv(), 2), (Triv(), 2)),
        (Wr2(Triv(), 2, 1), (Triv(), 2, 1)),
    ]:
        assert term != fields and fields != term
    assert len({Wr(Triv(), 2), Wr(Triv(), 2)}) == 1
    with pytest.raises(AttributeError):
        del Wr(Triv(), 2).n
