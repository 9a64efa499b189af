#!/usr/bin/env python3
"""Cost of one `build_reeb` call, with the sizes that drive it.

Builds the Reeb graphs of the 26 corpus members, of the 5 circuit `1`
realizations with n = 4..8 that the `circuit-scale` benchmark verifies, and
of the 4 trig-sum torus fields of the `fields-analyze` benchmark (made by
`perfbench/workloads.py`, before its seeded placement).  Each field is
built once untimed, which classifies its vertices and caches the result on
the field, so the times below are of the build alone.

Prints one line per field: its set, label, grid, triangles, cut levels,
the (cell piece, slab) nodes that the sweep labels, and the best of
`--reps` build times.  The last line fits build time = floor + slope x
triangles by least squares over the constructed fields (corpus and
circuits; the trig-sum fields cut at many more levels per triangle) and
prints the floor and the slope.
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
from kronrod.fields import ScalarField
from kronrod.terms import parse_term

ROOT = Path(__file__).resolve().parents[1]


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


def labelled_nodes(f: ScalarField) -> int:
    """The (cell piece, slab) nodes of one build of `f`, read off the
    slabs of each triangle's own nodes that `reeb._pieces` returns."""
    counted = []
    pieces = reeb._pieces

    def counting(tri, rank):
        t_hi, span, segs = pieces(tri, rank)
        n_lo, n_hi = span[3], span[4]
        counted.append(int((n_hi - n_lo + 1).sum()))
        return t_hi, span, segs

    reeb._pieces = counting
    try:
        reeb.build_reeb(f)
    finally:
        reeb._pieces = pieces
    return counted[0]


def best_times(fs: list[ScalarField], reps: int) -> list[float]:
    """The best of `reps` build times of each field, timed round robin so
    that a phase of load on the machine slows every field alike."""
    best = [float("inf")] * len(fs)
    for _ in range(reps):
        for i, f in enumerate(fs):
            t = time.perf_counter()
            reeb.build_reeb(f)
            best[i] = min(best[i], time.perf_counter() - t)
    return best


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--reps", type=int, default=20, help="builds timed per field (best is kept)")
    args = p.parse_args()
    measured = list(fields())
    graphs = [reeb.build_reeb(f) for _, _, f in measured]
    times = best_times([f for _, _, f in measured], args.reps)
    fit = []
    for (group, label, f), g, seconds in zip(measured, graphs, times):
        nodes = labelled_nodes(f)
        print(
            f"{group:8s} {label:32s} grid {f.width:3d}x{f.height:<3d} "
            f"triangles {g.tri.ntri:6d}  cuts {len(g.cuts):4d}  nodes {nodes:6d}  "
            f"build {seconds * 1e3:8.3f} ms"
        )
        if group != "fields":
            fit.append((g.tri.ntri, seconds))
    tris, secs = np.array(fit).T
    slope, floor = np.polyfit(tris, secs, 1)
    print(
        f"least squares over {len(fit)} constructed fields: "
        f"floor {floor * 1e3:.3f} ms, {slope * 1e9:.1f} ns per triangle"
    )


if __name__ == "__main__":
    main()
