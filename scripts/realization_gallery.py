#!/usr/bin/env python3
"""Walk a gallery of group terms through the full pipeline.

For each term and construction case: synthesize the field, build the
Kronrod-Reeb graph, push the recorded symmetries, and print the critical
counts, graph size, and the order of the realized symmetry group next to
the order formula of the term, and whether pairing the recorded symmetries
with the term's generators is an isomorphism.
"""

import argparse

from kronrod.auts import generated_group, induced_graph_aut, record_term
from kronrod.construct import realize
from kronrod.fields import morse_counts
from kronrod.permgroups import is_isomorphic, perm_rep
from kronrod.reeb import build_reeb, classify_shape
from kronrod.terms import format_term, normalize, order, parse_term

GALLERY = [
    ("circuit", "1", 4, 1),
    ("circuit", "wr(1,2)", 3, 1),
    ("circuit", "prod(wr(1,2),wr(1,3))", 2, 1),
    ("tree", "1", 2, 1),
    ("tree", "wr(1,2)", 2, 1),
    ("simple", "wr(wr(1,2),2)", 2, 1),
]


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    for case, base_text, n, m in GALLERY:
        f, rec = realize(case, parse_term(base_text), n, m)
        g = build_reeb(f)
        shape = classify_shape(g)
        gens = [induced_graph_aut(g, s) for s in rec.symmetries]
        grp = generated_group(g, gens)
        term = normalize(rec.term)
        iso = is_isomorphic(grp, perm_rep(record_term(rec)))
        mc = morse_counts(f)
        print(
            f"{case:8s} {format_term(term):28s} grid {f.width}x{f.height}"
            f"  crits {mc.as_tuple()}  graph V={g.n_vertices} E={g.n_edges}"
            f" ({shape.shape})  group order {grp.order}"
            f" (formula {order(term)}, isomorphic: {bool(iso)})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
