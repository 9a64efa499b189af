"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_realization_gallery():
    proc = run_script("realization_gallery.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6
    for line in lines:
        m = re.search(r" ok  failed \[\] .* generated order (\d+), term order (\d+)$", line)
        assert m and m[1] == m[2], line


def test_converse_sweep_two_bases():
    proc = run_script("converse_sweep.py", "--base", "1", "--base", "wr(1,2)")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 20 + 4
    assert all(line.startswith("ok ") for line in lines[:20])
    counts = {}
    for line in lines[20:]:
        m = re.fullmatch(
            r"(\w+): (\d+) realizations, 0 errors; checks (\d+) ok, 0 failed, (\d+) skipped",
            line,
        )
        assert m, line
        counts[m[1]] = int(m[2])
    assert counts == {"disk": 2, "circuit": 6, "simple": 6, "tree": 6}


def test_build_cost_one_rep():
    proc = run_script("build_cost.py", "--reps", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 26 + 5 + 4 + 1
    groups, passes, collapsed = [], [], []
    for line in lines[:-1]:
        m = re.fullmatch(
            r"(corpus|circuit|fields) +(\S+) +grid +(\d+)x(\d+) +kept +(\d+)x(\d+) +triangles"
            r" +(\d+) +saddle values +(\d+) +levels per cell +(\d+\.\d\d) +passes ([12]) +nodes"
            r" +(\d+) \+ +(\d+) \( *(\d+\.\d\d) per triangle\)"
            r" +classify +(\d+\.\d{3}) ms +build +(\d+\.\d{3}) ms",
            line,
        )
        assert m, line
        w, h, kept_w, kept_h, tris, coarse, swept = map(int, m.group(3, 4, 5, 6, 7, 11, 12))
        assert tris in (2 * w * h, 2 * (w - 1) * (h - 1)) and swept > 0, line
        # the sweep keeps at least 3 lines along each axis, and never more than the grid's
        assert 3 <= kept_w <= w and 3 <= kept_h <= h, line
        collapsed.append(kept_w * kept_h < w * h)
        # the coarse pass labels nodes exactly when the build takes two passes
        assert (coarse > 0) == (m[10] == "2"), line
        assert abs(float(m[13]) - (coarse + swept) / tris) < 0.006, line
        groups.append(m[1])
        passes.append(m[10])
    assert groups == ["corpus"] * 26 + ["circuit"] * 5 + ["fields"] * 4
    # only the benchmark's larger trig-sum fields take two passes
    assert passes == ["1"] * 33 + ["2"] * 2
    # every construction repeats rank lines that its sweep drops; the
    # trig-sum fields repeat none
    assert collapsed == [True] * 31 + [False] * 4
    fit = r"Theil-Sen fit over 31 constructed fields: floor -?\d+\.\d{3} ms, -?\d+\.\d ns per"
    fit += " triangle"
    assert re.fullmatch(fit, lines[-1]), lines[-1]


def test_build_cost_fit_ignores_one_outlier():
    """The build-cost fit is Theil-Sen's: one field far off the line, here
    the largest, moves neither its floor nor its slope, where least squares
    would lean on it."""
    spec = importlib.util.spec_from_file_location("build_cost", ROOT / "scripts" / "build_cost.py")
    build_cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_cost)
    x = np.array([128.0, 256, 256, 512, 1024, 2048, 4096, 8192, 36864])
    y = 2.0 + 3.0 * x
    y[-1] *= 1.5
    assert build_cost.theil_sen(x, y) == pytest.approx((2.0, 3.0))
    assert np.polyfit(x, y, 1)[0] > 4


def test_build_cost_sweep_one_side():
    proc = run_script("build_cost.py", "--sweep", "--reps", "1", "--side", "32", "--stride", "8")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 9 + 1
    levels = []
    for line, freq in zip(lines, range(4, 13)):
        m = re.fullmatch(
            r"side +32 freq +(\d+) +K +(\d+) +saddle values +(\d+) +levels per cell +(\d+\.\d\d)"
            r" +one pass +(\d+\.\d{3}) ms +two passes s8 +(\d+\.\d{3}) ms x(\d+\.\d\d)",
            line,
        )
        assert m and int(m[1]) == freq, line
        # a torus field has as many saddles as extrema
        assert int(m[3]) <= int(m[2]) // 2, line
        levels.append(m[4])
    m = re.fullmatch(
        r"stride 8: least summed build time with two passes from above (\d+\.\d\d) to"
        r" (\d+\.\d\d|inf) levels per cell: (\d+\.\d{3}) ms; one pass (\d+\.\d{3}) ms;"
        r" the module's \d+ levels (\d+\.\d{3}) ms",
        lines[-1],
    )
    assert m, lines[-1]
    assert m[2] in levels + ["inf"]
    least, one, module = map(float, m.group(3, 4, 5))
    assert least <= min(one, module)


@pytest.mark.parametrize(
    "script, args, refusal",
    [
        ("build_cost.py", "--reps 0", "--reps must be at least 1"),
        ("build_cost.py", "--sweep --side 32 --stride 0", "--stride must be at least 1"),
        ("build_cost.py", "--sweep --side 32 --side 4", "--side must be at least 8"),
        ("verify_cost.py", "--reps 0", "--reps must be at least 1"),
    ],
    ids=["build-reps", "build-stride", "build-side", "verify-reps"],
)
def test_cost_scripts_refuse_meaningless_arguments(script, args, refusal):
    """A meaningless argument is a usage error, exit 2, raised before any
    field is built: nothing is printed, not even for a valid side given
    before it."""
    proc = run_script(script, *args.split())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == f"{script}: error: {refusal}"


@pytest.fixture(scope="module")
def verify_cost_lines():
    proc = run_script("verify_cost.py", "--reps", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 26 + 5 + 1
    return lines


VERIFY_STAGES = (
    "validate", "classify", "record", "build", "push", "generated", "rep", "iso", "full"
)
MS = r" +(\d+\.\d{3}) ms"
VERIFY_LINE = (
    r"(corpus|circuit) +(\S+) +grid (\d+)x(\d+) +symmetries (\d+)"
    r" +generated +(\d+) pts order +(\d+) +term +(\d+) pts order +(\d+)"
    r" +diagonal +(\d+) pts order +(\d+) +diagonal chain (ran|skipped)"
    + "".join(rf" +{name}{MS}" for name in VERIFY_STAGES)
)


def test_group_cost_one_rep(verify_cost_lines):
    groups = []
    for line in verify_cost_lines[:-1]:
        m = re.fullmatch(VERIFY_LINE, line)
        assert m, line
        g_pts, g_order, h_pts, h_order, d_pts, d_order = map(int, m.group(6, 7, 8, 9, 10, 11))
        # every realization's pairing is an isomorphism
        assert g_order == h_order == d_order and d_pts == g_pts + h_pts, line
        groups.append(m[1])
    assert groups == ["corpus"] * 26 + ["circuit"] * 5
    # every pairing's reduced diagonal keeps the generated group's points only
    for group, n in (("corpus", 26), ("circuit", 5)):
        assert re.search(
            rf"{group} [^,]* diagonal chains skipped {n}/{n}(,|$)", verify_cost_lines[-1]
        ), verify_cost_lines[-1]


def test_verify_cost_one_rep(verify_cost_lines):
    sums = {group: [0.0] * len(VERIFY_STAGES) for group in ("corpus", "circuit")}
    groups = []
    for line in verify_cost_lines[:-1]:
        m = re.fullmatch(VERIFY_LINE, line)
        assert m, line
        assert int(m[5]) >= 1 and min(map(int, m.group(3, 4))) >= 8, line
        sums[m[1]] = [a + float(t) for a, t in zip(sums[m[1]], m.groups()[12:])]
        groups.append(m[1])
    assert groups == ["corpus"] * 26 + ["circuit"] * 5
    total = ", ".join(
        group
        + " "
        + " ".join(rf"{name}{MS}" for name in VERIFY_STAGES)
        + f" diagonal chains skipped {n}/{n}"
        for group, n in (("corpus", 26), ("circuit", 5))
    )
    m = re.fullmatch("totals: " + total, verify_cost_lines[-1])
    assert m, verify_cost_lines[-1]
    # the totals sum the lines, up to the rounding of each printed time
    printed = [float(t) for t in m.groups()]
    assert np.allclose(printed, sums["corpus"] + sums["circuit"], atol=0.0005 * 26)


def test_import_cost_two_imports():
    before = {p: p.stat().st_mtime_ns for p in (ROOT / "src").rglob("*")}
    proc = run_script("import_cost.py", "--n", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    ms = r" +median +(\d+\.\d\d) ms +quartiles +(\d+\.\d\d) \.\. +(\d+\.\d\d) ms +\(2 imports\)"
    for line, mode in zip(lines, ("bytecode off", "bytecode cached"), strict=True):
        m = re.fullmatch(mode + ms, line)
        assert m and float(m[2]) <= float(m[1]) <= float(m[3]), line
    # the bytecode of both modes is kept outside the checkout
    assert {p: p.stat().st_mtime_ns for p in (ROOT / "src").rglob("*")} == before
