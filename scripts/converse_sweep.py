#!/usr/bin/env python3
"""Realize and verify disk-class base terms in every construction case.

The default bases are 16 disk-class terms: `1`, `wr(1,k)` for k = 2..4,
`wr(wr(1,k),j)` for k = 2..4 and j = 2, 3, and the products of two of
`wr(1,2..4)`.  Each base is realized on the disk, by circuit and by simple
with n = 1..3 (simple only where the base's wreath indices are at most 2),
and by tree with (n, m) in (1,1), (1,2), (2,1).  Every realization runs the
full verification contract.

Prints one line per realization with its failed and skipped checks, then,
per case, the counts of realizations and of ok, failed and skipped checks.
A check is skipped when it passes without running.  The output carries no
times, so two runs can be compared with diff.  Exits 1 when any check fails
or any realization cannot be made.
"""

import argparse
from collections import Counter
from itertools import combinations_with_replacement

from kronrod.construct import realize
from kronrod.errors import KronrodError
from kronrod.terms import class_of, normalize, parse_term
from kronrod.verify import verify_realization

BASES = [
    "1",
    *(f"wr(1,{k})" for k in (2, 3, 4)),
    *(f"wr(wr(1,{k}),{j})" for k in (2, 3, 4) for j in (2, 3)),
    *(f"prod(wr(1,{a}),wr(1,{b}))" for a, b in combinations_with_replacement((2, 3, 4), 2)),
]
CASES = ("disk", "circuit", "simple", "tree")


def realizations(text: str):
    """(case, label, n, m) for every realization of base `text`."""
    yield "disk", text, 1, 1
    for n in (1, 2, 3):
        yield "circuit", f"{text} n={n}", n, 1
    if class_of(normalize(parse_term(text))).disk_realizable_simple:
        for n in (1, 2, 3):
            yield "simple", f"{text} n={n}", n, 1
    for n, m in ((1, 1), (1, 2), (2, 1)):
        yield "tree", f"{text} n={n} m={m}", n, m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--base", action="append", help="a base term to sweep (repeatable; default: all 16)"
    )
    args = ap.parse_args()

    counts = {case: Counter() for case in CASES}
    for text in args.base or BASES:
        base = parse_term(text)
        for case, label, n, m in realizations(text):
            tally = counts[case]
            tally["realizations"] += 1
            try:
                f, rec = realize(case, base, n, m)
                checks = verify_realization(f, rec).checks
            except KronrodError as exc:
                tally["errors"] += 1
                print(f"ERROR {case:7s} {label}: {exc}")
                continue
            failed = [c.name for c in checks if not c.ok]
            skipped = [c.name for c in checks if c.ok and c.detail.endswith("skipped")]
            tally["ok"] += len(checks) - len(failed) - len(skipped)
            tally["failed"] += len(failed)
            tally["skipped"] += len(skipped)
            status = "FAIL " if failed else "ok   "
            print(f"{status}{case:7s} {label}: failed {failed}, skipped {skipped}")
    for case, tally in counts.items():
        print(
            f"{case}: {tally['realizations']} realizations, {tally['errors']} errors;"
            f" checks {tally['ok']} ok, {tally['failed']} failed, {tally['skipped']} skipped"
        )
    bad = sum(t["failed"] + t["errors"] for t in counts.values())
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
