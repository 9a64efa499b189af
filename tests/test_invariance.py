"""Graph-level invariance relations: a symmetry of the grid or a strictly
monotone map of the values changes the input of `build_reeb` but not, up to
relabelling, the graph it gives.

Translation, transpose and the half turn map the diagonal-split grid onto
itself, so they map every vertex's link onto a link; negation swaps minima
and maxima; a strictly increasing map of the values keeps every comparison.
Each keeps the number of vertices and edges, the shape, the order of the
full value-preserving group, and per vertex its value (mapped), its
critical points by kind (minima and maxima swapped under negation) and its
degree.  The benchmark's `place` relies on the first four.

A roll, the transpose and negation act on a construction record too: a
roll shifts its slot and rect-cycle rectangles and leaves its translations
alone, the transpose swaps x and y in every rectangle, translation and the
grid's size, and negation swaps its designed minima and maxima.  A corpus
member so transformed verifies as the member does, and so does a disk
realization under the relations that keep the frame in place.
"""

import json
from collections import Counter

import numpy as np
import pytest

from kronrod.auts import _full_order
from kronrod.construct import realize_disk
from kronrod.corpus import corpus_grid, realize_member
from kronrod.fields import CritKind, ScalarField
from kronrod.records import ConstructionRecord
from kronrod.reeb import build_reeb, classify_shape
from kronrod.terms import parse_term
from kronrod.verify import verify_realization

from test_reeb import checked_fields, converse_bases

KINDS = (CritKind.MINIMUM, CritKind.SADDLE, CritKind.MAXIMUM)


def unchanged(values):
    """The identity map of the values."""
    return lambda x: x


def monotone(values):
    """A strictly increasing map that keeps ties: each value's rank among
    the distinct values of `values`, centred and cubed."""
    levels = np.unique(values)
    return lambda x: (np.searchsorted(levels, x) - len(levels) / 2) ** 3


# name -> (grid map, value map made from a field's values, whether it swaps minima and maxima)
RELATIONS = {
    "roll": (lambda v: np.roll(v, (3, 5), axis=(0, 1)), unchanged, False),
    "transpose": (lambda v: v.T, unchanged, False),
    "half-turn": (lambda v: v[::-1, ::-1], unchanged, False),
    "negation": (lambda v: v, lambda values: np.negative, True),
    "monotone": (lambda v: v, monotone, False),
}


def fields():
    """The 26 corpus members, the four `fields-analyze` fields, ten random
    torus fields and two disks."""
    disks = [realize_disk(parse_term(t))[0] for t in ("wr(1,3)", "prod(wr(1,2),wr(1,3))")]
    return checked_fields() + [(f"disk-{i}", f) for i, f in enumerate(disks)]


def invariants(g, value=lambda x: x, swap=False):
    """V, E, the shape, the uncapped full order, and the multiset of (value
    under `value`, critical counts by kind, swapped when `swap`, degree)
    per vertex."""
    kinds = KINDS[::-1] if swap else KINDS
    per_vertex = Counter()
    for v in g.vertices:
        count = Counter(c.kind for c in v.crits)
        counts = tuple(count[k] for k in kinds)
        per_vertex[float(value(v.value)), counts, len(g.incidence[v.id])] += 1
    return g.n_vertices, g.n_edges, classify_shape(g).shape, _full_order(g), per_vertex


@pytest.mark.parametrize("relation", list(RELATIONS))
def test_relation_keeps_the_graph(relation):
    grid, value_map, swap = RELATIONS[relation]
    checked = 0
    for label, f in fields():
        if relation == "roll" and not f.wraps:
            continue
        value = value_map(f.values)
        image = ScalarField(f.kind, value(grid(f.values)))
        want = invariants(build_reeb(f), value, swap)
        assert invariants(build_reeb(image)) == want, label
        checked += 1
    assert checked == (40 if relation == "roll" else 42)


# name -> (roll as (dy, dx), whether it transposes, whether it negates)
RECORD_RELATIONS = {
    "roll": ((3, 5), False, False),
    "negation": ((0, 0), False, True),
    "roll-negation": ((7, 11), False, True),
    "transpose": ((0, 0), True, False),
}


def transformed(f, rec, roll, transpose, negate):
    """A realization rolled by `roll`, then transposed when `transpose` and
    negated when `negate`, field and record alike."""
    (dy, dx), doc = roll, json.loads(rec.to_json())

    def move(r):
        x, y, w, h = (r[0] + dx) % f.width, (r[1] + dy) % f.height, *r[2:]
        return [y, x, h, w] if transpose else [x, y, w, h]

    for slot in doc["slots"]:
        slot["rect"] = move(slot["rect"])
    for sym in doc["symmetries"]:
        if sym["kind"] == "rect_cycle":
            sym["rects"] = [move(r) for r in sym["rects"]]
        elif transpose:
            sym["dx"], sym["dy"] = sym["dy"], sym["dx"]
    values = np.roll(f.values, roll, axis=(0, 1))
    if transpose:
        values = values.T
        doc["width"], doc["height"] = doc["height"], doc["width"]
    if negate:
        values = -values
        doc["designed_counts"].reverse()
    return ScalarField(f.kind, values), ConstructionRecord.from_json(json.dumps(doc).encode())


def verdict(report):
    """Each check's name and ok flag, and the details of the checks that
    state the generated, term, diagonal and full orders."""
    orders = ("generated_order", "group_isomorphism", "aut_containment")
    return [(c.name, c.ok, c.detail if c.name in orders else "") for c in report.checks]


@pytest.mark.parametrize("relation", list(RECORD_RELATIONS))
def test_relation_on_the_record_keeps_the_verdict(relation):
    """The 26 corpus members, and the 16 disk realizations of the converse
    sweep under the relations that do not roll."""
    roll, transpose, negate = RECORD_RELATIONS[relation]
    cases = [(m.label, *realize_member(m)) for m in corpus_grid()]
    if roll == (0, 0):
        cases += [(f"disk-{b}", *realize_disk(parse_term(b))) for b in converse_bases()]
    for label, f, rec in cases:
        want = verdict(verify_realization(f, rec))
        got = verify_realization(*transformed(f, rec, roll, transpose, negate))
        assert verdict(got) == want, label
    assert len(cases) == (26 if roll != (0, 0) else 42)
