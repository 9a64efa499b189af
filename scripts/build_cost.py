#!/usr/bin/env python3
"""Cost of one `build_reeb` call, with the sizes that drive it.

Builds the Reeb graphs of the 26 corpus members, of the 5 circuit `1`
realizations with n = 4..8 that the `circuit-scale` benchmark verifies, and
of the 4 trig-sum torus fields of the `fields-analyze` benchmark (made by
`perfbench/workloads.py`, before its seeded placement).  Each field is
built once untimed, which classifies its vertices and caches the result on
the field, so the times below are of the build alone.

Prints one line per field: its set, label, grid, the grid that its sweep
labels after repeated rank lines are dropped (`reeb._kept_lines`), both as
columns x rows, triangles, distinct saddle values, the cut levels a cell
spans on average (`reeb._levels_crossed`, which the two-pass rule reads),
how many passes the build takes, the nodes that each pass labels and their
sum per triangle, the best of `--reps` `classify_vertices` times, each on a
fresh unvalidated copy of the field made outside the timer, and the best of
`--reps` build times.  The last line fits build time = floor + slope x
triangles over the constructed fields (corpus and circuits; the trig-sum
fields cut at many more levels per triangle) and prints the floor and the
slope.  The fit is Theil-Sen's: the slope is the median of the slopes
between every two fields of different sizes, and the floor the median of
time - slope x triangles, so that no one field, such as the largest, moves
it much.

With `--sweep`, prints instead the size sweep behind the two-pass rule
(`reeb.TWO_PASS_LEVELS` and `reeb.COARSE_STRIDE`): seeded trig-sum torus
fields of side 32 to 160 and highest frequency 4 to 12, with their critical
points K, distinct saddle values, levels a cell spans, and the best of
`--reps` one-pass and two-pass build times (at each `--stride`, by default
the module's), timed round robin, with the ratio of each to one pass.  A
last line per stride gives the range of thresholds on the levels per cell
that make the summed build time of these fields least, next to the sums in
one pass and at the module's threshold.  `--side` restricts the sweep to
some sides.

`--reps`, `--stride` below 1 and `--side` below `fields.MIN_SIDE` are
refused before any field is built.
"""

import argparse
import importlib.util
import sys
import time
import types
from pathlib import Path

import numpy as np

import kronrod
from kronrod import reeb
from kronrod.construct import realize_torus_circuit
from kronrod.corpus import corpus_grid, realize_member
from kronrod.errors import DegenerateVertex, InvalidField
from kronrod.fields import MIN_SIDE, CritKind, ScalarField, classify_vertices, fix_ties
from kronrod.terms import parse_term

ROOT = Path(__file__).resolve().parents[1]
SWEEP_SIDES = (32, 64, 96, 128, 160)
SWEEP_FREQS = tuple(range(4, 13))


def bench_fields():
    """(label, field) for each `fields-analyze` size."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    lib = types.SimpleNamespace(fields=kronrod.fields, errors=kronrod.errors)
    for side, freq, target in workloads.FIELD_SPECS:
        values = workloads.make_field(lib, side, freq, target)
        yield f"field-{side}-K{target}", ScalarField("torus", values)


def fields():
    """(set, label, field) for every field measured."""
    for m in corpus_grid():
        yield "corpus", m.label, realize_member(m)[0]
    for n in (4, 5, 6, 7, 8):
        yield "circuit", f"circuit-1-{n}", realize_torus_circuit(parse_term("1"), n)[0]
    for label, f in bench_fields():
        yield "fields", label, f


def trig_field(side: int, freq: int) -> ScalarField:
    """A PL-Morse torus field: a sum of cosines with every frequency pair up to
    `freq`, seeded by the side and the frequency, tie-repaired, and drawn again
    while it has a degenerate vertex."""
    xs = np.arange(side) * (2 * np.pi / side)
    x, y = np.meshgrid(xs, xs)
    for attempt in range(1, 100):
        rng = np.random.default_rng([side, freq, attempt])
        vals = np.zeros((side, side))
        for kx in range(freq + 1):
            for ky in range(freq + 1):
                if kx or ky:
                    amp = rng.normal() / (1 + kx + ky)
                    vals += amp * np.cos(kx * x + ky * y + rng.uniform(0, 2 * np.pi))
        try:
            f = ScalarField("torus", fix_ties(vals, "torus"))
            classify_vertices(f)
            return f
        except (DegenerateVertex, InvalidField):
            continue
    raise RuntimeError(f"no PL-Morse draw at side {side}, frequency {freq}")


def rule_inputs(f: ScalarField) -> tuple[int, float]:
    """The distinct saddle values of `f` and the cut levels a cell spans on
    average, as `build_reeb` reads them."""
    vals = f.values.ravel()
    saddles = {c.value for c in classify_vertices(f) if c.kind is CritKind.SADDLE}
    ends = set(vals[f.boundary_mask().ravel()].tolist()) | {vals.min(), vals.max()}
    rank = reeb._ranks(f, np.array(sorted(saddles | ends)))
    return len(saddles), reeb._levels_crossed(rank)


def labelled_nodes(f: ScalarField) -> tuple[int, list[int], tuple[int, int]]:
    """The passes of one build of `f`, and per pass, the coarse one
    (`_virtual_ranks`) and then the sweep, the nodes that it labels, read off
    the `reeb._slab_nodes` calls; then the columns and rows that the sweep
    keeps (`reeb._kept_lines`).  A one-pass build's coarse pass labels 0
    nodes."""
    counts, phase, passes, kept = [0, 0], [1], [1], []
    slab_nodes, virtual_ranks, kept_lines = reeb._slab_nodes, reeb._virtual_ranks, reeb._kept_lines

    def counting(*args):
        out = slab_nodes(*args)
        counts[phase[0]] += len(out[0])
        return out

    def coarse(*args):
        phase[0], passes[0] = 0, 2
        try:
            return virtual_ranks(*args)
        finally:
            phase[0] = 1

    def keeping(rank):
        rows, cols = kept_lines(rank)
        kept.append((len(cols), len(rows)))
        return rows, cols

    reeb._slab_nodes, reeb._virtual_ranks, reeb._kept_lines = counting, coarse, keeping
    try:
        reeb.build_reeb(f)
    finally:
        reeb._slab_nodes, reeb._virtual_ranks = slab_nodes, virtual_ranks
        reeb._kept_lines = kept_lines
    return passes[0], counts, kept[0]


def theil_sen(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """The Theil-Sen fit y = floor + slope x: the median slope over every two
    points of different x, and the median of y - slope x."""
    i, j = np.triu_indices(len(x), 1)
    apart = x[i] != x[j]
    slope = float(np.median((y[j] - y[i])[apart] / (x[j] - x[i])[apart]))
    return float(np.median(y - slope * x)), slope


def best_times(fs: list[ScalarField], reps: int) -> list[tuple[float, float]]:
    """The best of `reps` classification and build times of each field,
    timed round robin so that a phase of load on the machine slows every
    field alike."""
    best = [[float("inf")] * 2 for _ in fs]
    for _ in range(reps):
        for f, times in zip(fs, best):
            fresh = ScalarField(f.kind, f.values, validate=False)
            t = time.perf_counter()
            classify_vertices(fresh)
            times[0] = min(times[0], time.perf_counter() - t)
            t = time.perf_counter()
            reeb.build_reeb(f)
            times[1] = min(times[1], time.perf_counter() - t)
    return [tuple(t) for t in best]


def build_times(f: ScalarField, strides: list[int], reps: int) -> list[float]:
    """The best of `reps` build times of `f` in one pass, then in two passes at
    each stride, timed round robin."""
    rule = reeb.TWO_PASS_LEVELS, reeb.COARSE_STRIDE
    best = [float("inf")] * (1 + len(strides))
    try:
        for _ in range(reps):
            for i, stride in enumerate([None, *strides]):
                reeb.TWO_PASS_LEVELS = float("inf") if stride is None else 0
                reeb.COARSE_STRIDE = stride
                t = time.perf_counter()
                reeb.build_reeb(f)
                best[i] = min(best[i], time.perf_counter() - t)
    finally:
        reeb.TWO_PASS_LEVELS, reeb.COARSE_STRIDE = rule
    return best


def sweep(sides: list[int], strides: list[int], reps: int) -> None:
    rows = []
    for side in sides:
        for freq in SWEEP_FREQS:
            f = trig_field(side, freq)
            saddles, levels = rule_inputs(f)
            one, *two = build_times(f, strides, reps)
            rows.append((levels, one, two))
            ratios = "  ".join(
                f"s{s} {t * 1e3:8.3f} ms x{t / one:.2f}" for s, t in zip(strides, two)
            )
            print(
                f"side {side:3d} freq {freq:2d}  K {len(classify_vertices(f)):4d}  "
                f"saddle values {saddles:4d}  levels per cell {levels:6.2f}  "
                f"one pass {one * 1e3:8.3f} ms  two passes {ratios}",
                flush=True,
            )
    # the threshold on levels per cell that minimizes the summed build time of
    # these fields, each field taking two passes at or above it
    for i, stride in enumerate(strides):

        def summed(threshold: float) -> float:
            return sum(two[i] if lv >= threshold else one for lv, one, two in rows)

        cost = {t: summed(t) for t in [lv for lv, _, _ in rows] + [float("inf")]}
        best = min(cost, key=lambda t: (cost[t], t))
        below = max((lv for lv, _, _ in rows if lv < best), default=0.0)
        print(
            f"stride {stride}: least summed build time with two passes from above {below:.2f} "
            f"to {best:.2f} levels per cell: {cost[best] * 1e3:.3f} ms; one pass "
            f"{cost[float('inf')] * 1e3:.3f} ms; the module's {reeb.TWO_PASS_LEVELS} levels "
            f"{summed(reeb.TWO_PASS_LEVELS) * 1e3:.3f} ms"
        )


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--reps", type=int, default=20, help="builds timed per field (best is kept)")
    p.add_argument("--sweep", action="store_true", help="print the size sweep behind the rule")
    p.add_argument(
        "--side", type=int, action="append", help="sweep only this side (repeatable)"
    )
    p.add_argument(
        "--stride",
        type=int,
        action="append",
        help="coarse stride of the sweep's two-pass builds (repeatable; default the module's)",
    )
    args = p.parse_args()
    if args.reps < 1:
        p.error("--reps must be at least 1")
    if min(args.stride or [1]) < 1:
        p.error("--stride must be at least 1")
    if min(args.side or [MIN_SIDE]) < MIN_SIDE:
        p.error(f"--side must be at least {MIN_SIDE}")
    if args.sweep:
        sweep(args.side or SWEEP_SIDES, args.stride or [reeb.COARSE_STRIDE], args.reps)
        return
    measured = list(fields())
    graphs = [reeb.build_reeb(f) for _, _, f in measured]
    times = best_times([f for _, _, f in measured], args.reps)
    fit = []
    for (group, label, f), g, (classify, seconds) in zip(measured, graphs, times):
        passes, (coarse, swept), (kept_w, kept_h) = labelled_nodes(f)
        saddles, levels = rule_inputs(f)
        print(
            f"{group:8s} {label:32s} grid {f.width:3d}x{f.height:<3d} "
            f"kept {kept_w:3d}x{kept_h:<3d} "
            f"triangles {g.tri.ntri:6d}  saddle values {saddles:4d}  "
            f"levels per cell {levels:6.2f}  "
            f"passes {passes}  nodes {coarse:6d} + {swept:6d} "
            f"({(coarse + swept) / g.tri.ntri:5.2f} per triangle)  "
            f"classify {classify * 1e3:7.3f} ms  build {seconds * 1e3:8.3f} ms"
        )
        if group != "fields":
            fit.append((g.tri.ntri, seconds))
    floor, slope = theil_sen(*np.array(fit).T)
    print(
        f"Theil-Sen fit over {len(fit)} constructed fields: "
        f"floor {floor * 1e3:.3f} ms, {slope * 1e9:.1f} ns per triangle"
    )


if __name__ == "__main__":
    main()
