#!/usr/bin/env python3
"""Cost of each stage of a verify, after the realize, with the grid it runs on.

For the 26 corpus members and the 5 circuit `1` realizations with n = 4..8
that the `circuit-scale` benchmark verifies, realizes each field once,
untimed.  Then times, round robin, the stages of `verify_realization` in
its order, on a fresh validated copy of the field, each stage reading what
the ones before it kept on the field and the graph, as in a verify:
validation (the copy's `ScalarField` constructor, which the benchmark's
`construct.realize` and `fields.load` spans include), classification, the
record check, the build, the pushes of the record's symmetries, and the
group stages: `generated_group`, `is_isomorphic` with the `perm_rep` of the
record's term, and `value_preserving_auts` (which gives up above its cap on
four corpus members, as in a verify).

Prints one line per realization: its set and label, its grid as columns x
rows, its symmetries, and the best of `--reps` times of each stage.  The
last line sums the best times over each set.  `--reps` below 1 is refused
before any field is built.
"""

import argparse
import time

from kronrod.auts import generated_group, induced_graph_aut, record_term, value_preserving_auts
from kronrod.construct import realize_torus_circuit
from kronrod.corpus import corpus_grid, realize_member
from kronrod.errors import AutOverflow
from kronrod.fields import ScalarField, classify_vertices
from kronrod.permgroups import is_isomorphic, perm_rep
from kronrod.records import check_record_against_field
from kronrod.reeb import build_reeb
from kronrod.terms import parse_term

STAGES = ("validate", "classify", "record", "build", "push", "generated", "iso", "full")


def realizations():
    """(set, label, field, record) for every realization measured."""
    for m in corpus_grid():
        yield "corpus", m.label, *realize_member(m)
    for n in (4, 5, 6, 7, 8):
        yield "circuit", f"circuit-1-{n}", *realize_torus_circuit(parse_term("1"), n)


def stage_times(f: ScalarField, rec) -> list[float]:
    """The seconds each of STAGES takes in one verify of `rec` on a fresh
    validated copy of `f`."""
    marks = [time.perf_counter()]
    fresh = ScalarField(f.kind, f.values)
    marks.append(time.perf_counter())
    classify_vertices(fresh)
    marks.append(time.perf_counter())
    check_record_against_field(rec, fresh)
    marks.append(time.perf_counter())
    g = build_reeb(fresh)
    marks.append(time.perf_counter())
    auts = [induced_graph_aut(g, s) for s in rec.symmetries]
    marks.append(time.perf_counter())
    grp = generated_group(g, auts)
    marks.append(time.perf_counter())
    is_isomorphic(grp, perm_rep(record_term(rec)))
    marks.append(time.perf_counter())
    try:
        value_preserving_auts(g)
    except AutOverflow:
        pass
    marks.append(time.perf_counter())
    return [b - a for a, b in zip(marks, marks[1:])]


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--reps", type=int, default=20, help="verifies timed per case (best is kept)")
    args = p.parse_args()
    if args.reps < 1:
        p.error("--reps must be at least 1")
    cases = list(realizations())
    best = [[float("inf")] * len(STAGES) for _ in cases]
    for _ in range(args.reps):  # round robin: a phase of load slows every case alike
        for (_, _, f, rec), times in zip(cases, best):
            times[:] = map(min, times, stage_times(f, rec))
    totals: dict[str, list[float]] = {}
    for (group, label, f, rec), times in zip(cases, best):
        stages = "  ".join(f"{name} {t * 1e3:7.3f} ms" for name, t in zip(STAGES, times))
        grid = f"{f.width}x{f.height}"
        print(f"{group:8s} {label:30s} grid {grid:8s} symmetries {len(rec.symmetries)}  {stages}")
        total = totals.setdefault(group, [0.0] * len(STAGES))
        total[:] = map(sum, zip(total, times))
    print(
        "totals: "
        + ", ".join(
            group + " " + " ".join(f"{name} {t * 1e3:.3f} ms" for name, t in zip(STAGES, total))
            for group, total in totals.items()
        )
    )


if __name__ == "__main__":
    main()
