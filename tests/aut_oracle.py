"""An independent check that a pair of permutations is a value-preserving
automorphism of a Reeb graph, property by property.  A push of
`kronrod.auts.induced_graph_aut` is one by its construction and checks only
that its maps are permutations; the tests run this check on what it returns."""

from __future__ import annotations

from kronrod.auts import GraphAut
from kronrod.errors import NotAnAutomorphism
from kronrod.reeb import ReebGraph


def validate_graph_aut(g: ReebGraph, aut: GraphAut) -> None:
    """Raise NotAnAutomorphism unless `aut` preserves values and incidence."""
    nv, ne = g.n_vertices, g.n_edges
    if sorted(aut.vperm) != list(range(nv)) or sorted(aut.eperm) != list(range(ne)):
        raise NotAnAutomorphism("not a permutation of the element ids")
    for v in g.vertices:
        w = g.vertices[aut.vperm[v.id]]
        if v.value != w.value:
            raise NotAnAutomorphism(f"vertex {v.id} value {v.value} -> {w.value}")
        if len(v.crits) != len(w.crits) or v.boundary != w.boundary:
            raise NotAnAutomorphism(f"vertex {v.id} critical structure changes")
    for e in g.edges:
        f_ = g.edges[aut.eperm[e.id]]
        if (e.lo, e.hi) != (f_.lo, f_.hi):
            raise NotAnAutomorphism(f"edge {e.id} interval changes")
        if {aut.vperm[e.u], aut.vperm[e.v]} != {f_.u, f_.v}:
            raise NotAnAutomorphism(f"edge {e.id} incidence changes")
