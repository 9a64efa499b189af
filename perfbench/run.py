"""Benchmark of the kronrod pipeline: realize+verify and load+analyze.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload corpus-verify --seed 1 --seconds 20 --trace 0

It imports `kronrod` from the checkout's `src/` and drives it in-process,
in one thread.  Set-up (a fresh import of the package plus making the
workload's inputs from the seed) runs SETUP_REPEATS times.  Then the
workload's fixed batch of ops runs again and again until the next batch
would end past `--seconds`; at least MIN_ROUNDS batches always run.  With
`--trace 1`, rounds of one untraced and one traced batch run instead, and
the per-layer metrics come from the traced ones.  Every time is read from the steady
clock (see clock.py).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it records the environment.  Per-op
size records (and spans, when traced) go to perfbench/out/.
`--write-reference` instead runs one batch and stores its per-op sizes in
reference.json, against which every later run is checked.

Exit codes: 0 the run completed (see `correct`), 2 no library to measure.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from clock import SteadyClock
from spans import LAYERS, Instrument, self_times
from workloads import WORKLOADS, Checked, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
SETUP_REPEATS = 3
# Batches of one run agree closely, while runs differ by the machine's state,
# so two rounds are enough; they halve the noise of single-op times.
MIN_ROUNDS = 2
MODULES = ("terms", "errors", "fields", "reeb", "auts", "construct", "corpus", "verify", "permgroups")


@dataclass
class Batch:
    traced: bool
    seconds: float = 0.0  # sum of op times
    wall: float = 0.0  # raw wall seconds, for the time budget
    op_seconds: list[float] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    spans: list = field(default_factory=list)


def fresh_import():
    """Import kronrod from the checkout anew; returns its modules by name."""
    for name in [m for m in sys.modules if m.split(".")[0] == "kronrod"]:
        del sys.modules[name]
    pkg = importlib.import_module("kronrod")
    if Path(pkg.__file__).resolve().parent != SRC / "kronrod":
        raise ImportError(f"kronrod imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"kronrod.{m}") for m in MODULES})


def run_batch(workload, lib, ops: list[Op], inst: Instrument, clock, traced: bool, reference) -> Batch:
    inst.remove()
    inst.install(traced)
    inst.spans = []
    batch = Batch(traced)
    wall0 = clock.wall()
    for i, op in enumerate(ops):
        gc.collect()  # each op starts from the same collector state
        start = clock.now()
        try:
            result = inst.run_op(i, workload.run, lib, op)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            batch.op_seconds.append(clock.now() - start)
            batch.records.append({"label": op.label, "problems": [f"raised {exc!r}"], "sizes": {}})
            continue
        batch.op_seconds.append(clock.now() - start)
        try:
            checked = workload.check(lib, result, inst.outputs)
        except Exception as exc:  # output the checks cannot read is a failed op too
            checked = Checked({}, [f"output check raised {exc!r}"])
        del result
        if reference is not None and checked.sizes != reference.get(op.label):
            checked.problems.append(f"sizes {checked.sizes} != reference {reference.get(op.label)}")
        batch.records.append(
            {
                "label": op.label,
                "sizes": checked.sizes,
                "checks_run": checked.checks_run,
                "checks_skipped": checked.checks_skipped,
                "problems": checked.problems,
            }
        )
    batch.seconds = sum(batch.op_seconds)
    batch.wall = clock.wall() - wall0
    batch.spans = inst.spans
    inst.remove()
    return batch


def mark_inconsistent(batches: list[Batch]) -> None:
    """Every batch, traced or not, must give each op the same sizes."""
    first = {r["label"]: r["sizes"] for r in batches[0].records}
    for b in batches[1:]:
        for r in b.records:
            if r["sizes"] != first[r["label"]]:
                r["problems"].append("sizes differ between batches")


def end_to_end(untraced: list[Batch], setups: list[float]) -> dict:
    records = [r for b in untraced for r in b.records]
    run = sum(r.get("checks_run", 0) for r in records)
    skipped = sum(r.get("checks_skipped", 0) for r in records)
    failed = sum(1 for r in records if r["problems"])
    return {
        "wall_s": (statistics.median(b.seconds for b in untraced), "s"),
        "op_p50_s": (statistics.median(map(statistics.median, zip(*(b.op_seconds for b in untraced)))), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (1.0 - failed / len(records), "ratio"),
        "checks_done_ratio": (1.0 - skipped / run if run else 1.0, "ratio"),
    }


def per_layer(untraced: list[Batch], traced: list[Batch]) -> dict:
    metrics = {}
    by_batch = [self_times(b.spans) for b in traced]
    for layer in LAYERS:
        metrics[f"{layer}_s"] = (statistics.median(t.get(layer, 0.0) for t in by_batch), "s")
    records = traced[0].records
    sizes = [r["sizes"] for r in records]
    triangles = sum(s.get("triangles", 0) for s in sizes)
    metrics["reeb.triangles"] = (triangles, "count")
    metrics["reeb.cut_levels"] = (sum(s.get("cut_levels", 0) for s in sizes), "count")
    metrics["reeb.vertices"] = (sum(s.get("V") or 0 for s in sizes), "count")
    metrics["reeb.edges"] = (sum(s.get("E") or 0 for s in sizes), "count")
    metrics["reeb.build_ns_per_tri"] = (metrics["reeb.build_s"][0] * 1e9 / triangles, "ns")
    metrics["auts.full_overflows"] = (
        sum(1 for s in sizes if s.get("full_order") == "AutOverflow"),
        "count",
    )
    metrics["verify.checks_run"] = (sum(r.get("checks_run", 0) for r in records), "count")
    metrics["verify.checks_skipped"] = (sum(r.get("checks_skipped", 0) for r in records), "count")
    traced_s = statistics.median(b.seconds for b in traced)
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / statistics.median(b.seconds for b in untraced), "ratio")
    return metrics


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "kronrod" / "__init__.py").is_file():
        print(f"perfbench: no kronrod package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.seed < 0:
        p.error("--seed must be non-negative")
    reference = None if args.write_reference else json.loads(REFERENCE.read_text())[workload.name]

    with SteadyClock() as clock:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = clock.now()
            lib = fresh_import()
            ops = workload.setup(lib, args.seed)
            setups.append(clock.now() - start)
        inst = Instrument(clock)
        batches: list[Batch] = []
        wall0 = clock.wall()
        modes = (False, True) if args.trace else (False,)
        rounds = 1 if args.write_reference else MIN_ROUNDS
        while True:
            round_ = [run_batch(workload, lib, ops, inst, clock, t, reference) for t in modes]
            batches += round_
            rounds -= 1
            if rounds <= 0 and clock.wall() - wall0 + sum(b.wall for b in round_) > args.seconds:
                break
        raw_wall = clock.wall()
        steady = clock.now()
    mark_inconsistent(batches)

    if args.write_reference:
        return write_reference(workload, batches[0])

    untraced = [b for b in batches if not b.traced]
    traced = [b for b in batches if b.traced]
    failed = sum(1 for b in batches for r in b.records if r["problems"])
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced, setups)
    env = environment(args)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    OUT.mkdir(exist_ok=True)
    out.write_text(
        json.dumps(
            {
                "env": env,
                "setup_s": setups,
                "batches": [
                    {"traced": b.traced, "seconds": b.seconds, "wall": b.wall, "op_seconds": b.op_seconds}
                    for b in batches
                ],
                "ops": batches[0].records,
                "problems": [[r["label"], r["problems"]] for b in batches for r in b.records if r["problems"]],
                "spans": [[s.to_json() for s in b.spans] for b in traced],
            }
        )
    )
    print(json.dumps({"env": env, "batches": len(batches), "speed": steady / raw_wall, "out": str(out.relative_to(ROOT))}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(len(b.records) for b in batches),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def write_reference(workload, batch: Batch) -> int:
    bad = [(r["label"], r["problems"]) for r in batch.records if r["problems"]]
    if bad:
        print(f"perfbench: not writing a reference from failing ops: {bad}", file=sys.stderr)
        return 1
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    doc[workload.name] = {r["label"]: r["sizes"] for r in batch.records}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
