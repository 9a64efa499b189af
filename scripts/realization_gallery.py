#!/usr/bin/env python3
"""Walk a gallery of group terms through the full pipeline.

For each term and construction case: synthesize the field, run the full
verification contract on it, and print the verdict, the failed checks, the
critical counts, the graph size and shape, and the order of the realized
symmetry group next to the order of the term.
"""

import argparse

from kronrod.construct import realize
from kronrod.terms import format_term, parse_term
from kronrod.verify import verify_realization

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
        report = verify_realization(f, rec)
        detail = {c.name: c.detail for c in report.checks}
        failed = [c.name for c in report.checks if not c.ok]
        print(
            f"{case:8s} {format_term(rec.term):28s} {'ok' if report.ok else 'FAIL'}"
            f"  failed {failed}  {detail['euler']}  graph {detail.get('reeb')}"
            f" ({detail.get('shape')})  {detail.get('generated_order')}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
