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
"""

from collections import Counter

import numpy as np
import pytest

from kronrod.auts import _full_order
from kronrod.construct import realize_disk
from kronrod.fields import CritKind, ScalarField
from kronrod.reeb import build_reeb, classify_shape
from kronrod.terms import parse_term

from test_reeb import checked_fields

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
