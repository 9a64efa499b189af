#!/usr/bin/env python3
"""Cost of the group half of `verify`, with the degrees and orders that drive it.

For the 26 corpus members and the 5 circuit `1` realizations with n = 4..8
that the `circuit-scale` benchmark verifies, builds the Reeb graph and
pushes the record's symmetries once, untimed.  Then times, round robin,
`generated_group` on the pushed automorphisms and `is_isomorphic` of that
group (its order known, as in `verify`) with a fresh `perm_rep` of the
record's term, built outside the timer.

Prints one line per realization: its set and label, the degree and order
of the generated group, the term group and the diagonal group of their
pairing, the best of `--reps` times of `generated_group` and
`is_isomorphic`, and whether the pairing ran a diagonal chain or took the
generated group's order.  The last line sums the best times over each set
and counts the pairings that skipped the diagonal chain.  `--reps` below 1
is refused before any field is built.
"""

import argparse
import time

from kronrod import permgroups
from kronrod.auts import generated_group, induced_graph_aut, record_term
from kronrod.construct import realize_torus_circuit
from kronrod.corpus import corpus_grid, realize_member
from kronrod.permgroups import is_isomorphic, perm_rep
from kronrod.reeb import build_reeb
from kronrod.terms import parse_term


def realizations():
    """(set, label, field, record) for every realization measured."""
    for m in corpus_grid():
        yield "corpus", m.label, *realize_member(m)
    for n in (4, 5, 6, 7, 8):
        yield "circuit", f"circuit-1-{n}", *realize_torus_circuit(parse_term("1"), n)


def best_times(cases: list[tuple], reps: int) -> list[tuple[float, float]]:
    """The best of `reps` times of `generated_group` and of `is_isomorphic`
    for each (graph, automorphisms, term), timed round robin so that a
    phase of load on the machine slows every case alike."""
    best = [[float("inf")] * 2 for _ in cases]
    for _ in range(reps):
        for (g, auts, term), times in zip(cases, best):
            t = time.perf_counter()
            grp = generated_group(g, auts)
            times[0] = min(times[0], time.perf_counter() - t)
            h = perm_rep(term)
            t = time.perf_counter()
            is_isomorphic(grp, h)
            times[1] = min(times[1], time.perf_counter() - t)
    return [tuple(t) for t in best]


def pairing(grp, h):
    """`is_isomorphic(grp, h)` with the order of `grp` known, and whether it
    ran a diagonal chain: the one chain it then runs without a bound."""
    unbounded = []
    lengths = permgroups._basic_orbit_lengths

    def counting(gens, bound=None):
        unbounded.append(bound is None)
        return lengths(gens, bound)

    permgroups._basic_orbit_lengths = counting
    try:
        return is_isomorphic(grp, h), any(unbounded)
    finally:
        permgroups._basic_orbit_lengths = lengths


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--reps", type=int, default=20, help="calls timed per case (best is kept)")
    args = p.parse_args()
    if args.reps < 1:
        p.error("--reps must be at least 1")
    measured, cases = [], []
    for group, label, f, rec in realizations():
        g = build_reeb(f)
        auts = [induced_graph_aut(g, s) for s in rec.symmetries]
        measured.append((group, label))
        cases.append((g, auts, record_term(rec)))
    times = best_times(cases, args.reps)
    totals: dict[str, list] = {}
    for (group, label), (g, auts, term), (t_gen, t_iso) in zip(measured, cases, times):
        grp, h = generated_group(g, auts), perm_rep(term)
        iso, ran = pairing(grp, h)
        print(
            f"{group:8s} {label:30s} generated {grp.degree:4d} pts order {iso.g:5d}  "
            f"term {h.degree:4d} pts order {iso.h:5d}  "
            f"diagonal {grp.degree + h.degree:4d} pts order {iso.diagonal:5d}  "
            f"generated_group {t_gen * 1e3:7.3f} ms  is_isomorphic {t_iso * 1e3:7.3f} ms  "
            f"diagonal chain {'ran' if ran else 'skipped'}"
        )
        total = totals.setdefault(group, [0.0, 0.0, 0, 0])
        total[0] += t_gen
        total[1] += t_iso
        total[2] += not ran
        total[3] += 1
    print(
        "totals: "
        + ", ".join(
            f"{group} generated_group {a * 1e3:.3f} ms is_isomorphic {b * 1e3:.3f} ms"
            f" diagonal chains skipped {skipped}/{n}"
            for group, (a, b, skipped, n) in totals.items()
        )
    )


if __name__ == "__main__":
    main()
