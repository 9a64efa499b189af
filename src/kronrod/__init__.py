"""Kronrod-Reeb graphs of piecewise-linear Morse fields on the torus.

The package synthesizes PL scalar fields on triangulated grids whose
Kronrod-Reeb graphs carry a prescribed finite symmetry group (built from
the trivial group by direct products and wreath products with cyclic
groups), computes those graphs and their value-preserving automorphism
groups, and verifies the realized group against the requested one.
"""

from kronrod.terms import (
    GroupTerm,
    Triv,
    Prod,
    Wr,
    Wr2,
    parse_term,
    format_term,
    normalize,
    order,
    class_of,
)
from kronrod.permgroups import PermGroup, perm_rep, enumerate_elements, is_isomorphic
from kronrod.fields import (
    ScalarField,
    CriticalPoint,
    MorseCounts,
    classify_vertices,
    morse_counts,
    euler_check,
    is_generic,
    is_simple,
    save_field,
    load_field,
)
from kronrod.reeb import (
    ReebGraph,
    build_reeb,
    classify_shape,
    decompose_cylinders,
    find_special_vertex,
)
from kronrod.auts import value_preserving_auts, induced_graph_aut, generated_group, structural_group
from kronrod.records import ConstructionRecord, GridTranslation, RectCycle
from kronrod.verify import verify_realization
from kronrod.construct import (
    realize_disk,
    realize_torus_circuit,
    realize_torus_tree,
    realize_simple,
)

__all__ = [
    "GroupTerm",
    "Triv",
    "Prod",
    "Wr",
    "Wr2",
    "parse_term",
    "format_term",
    "normalize",
    "order",
    "class_of",
    "PermGroup",
    "perm_rep",
    "enumerate_elements",
    "is_isomorphic",
    "ScalarField",
    "CriticalPoint",
    "MorseCounts",
    "classify_vertices",
    "morse_counts",
    "euler_check",
    "is_generic",
    "is_simple",
    "save_field",
    "load_field",
    "ReebGraph",
    "build_reeb",
    "classify_shape",
    "decompose_cylinders",
    "find_special_vertex",
    "ConstructionRecord",
    "GridTranslation",
    "RectCycle",
    "verify_realization",
    "value_preserving_auts",
    "induced_graph_aut",
    "generated_group",
    "structural_group",
    "realize_disk",
    "realize_torus_circuit",
    "realize_torus_tree",
    "realize_simple",
]
