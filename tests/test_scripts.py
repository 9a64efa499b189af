"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

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
    groups = []
    for line in lines[:-1]:
        m = re.fullmatch(
            r"(corpus|circuit|fields) +(\S+) +grid +(\d+)x(\d+) +triangles +(\d+) +cuts +(\d+)"
            r" +nodes +(\d+) +classify +(\d+\.\d{3}) ms +build +(\d+\.\d{3}) ms",
            line,
        )
        assert m, line
        w, h, tris, cuts, nodes = map(int, m.group(3, 4, 5, 6, 7))
        assert tris in (2 * w * h, 2 * (w - 1) * (h - 1)) and cuts >= 2 and nodes > 0, line
        groups.append(m[1])
    assert groups == ["corpus"] * 26 + ["circuit"] * 5 + ["fields"] * 4
    fit = r"least squares over 31 constructed fields: floor -?\d+\.\d{3} ms, -?\d+\.\d ns per"
    fit += " triangle"
    assert re.fullmatch(fit, lines[-1]), lines[-1]


def test_group_cost_one_rep():
    proc = run_script("group_cost.py", "--reps", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 26 + 5 + 1
    groups = []
    for line in lines[:-1]:
        m = re.fullmatch(
            r"(corpus|circuit) +(\S+) +generated +(\d+) pts order +(\d+) +term +(\d+) pts order"
            r" +(\d+) +diagonal +(\d+) pts order +(\d+) +generated_group +(\d+\.\d{3}) ms"
            r" +is_isomorphic +(\d+\.\d{3}) ms +diagonal chain (ran|skipped)",
            line,
        )
        assert m, line
        g_pts, g_order, h_pts, h_order, d_pts, d_order = map(int, m.group(3, 4, 5, 6, 7, 8))
        # every realization's pairing is an isomorphism
        assert g_order == h_order == d_order and d_pts == g_pts + h_pts, line
        groups.append(m[1])
    assert groups == ["corpus"] * 26 + ["circuit"] * 5
    # every pairing's reduced diagonal keeps the generated group's points only
    total = r"totals: corpus generated_group \d+\.\d{3} ms is_isomorphic \d+\.\d{3} ms"
    total += r" diagonal chains skipped 26/26, circuit generated_group \d+\.\d{3} ms"
    total += r" is_isomorphic \d+\.\d{3} ms diagonal chains skipped 5/5"
    assert re.fullmatch(total, lines[-1]), lines[-1]


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
