"""One run of each benchmark workload, on a copy of `src/` and `perfbench/`
in a temporary directory, so that a size that no longer matches
`perfbench/reference.json` shows here first.  Nothing is written into the
checkout: the run's output goes under the copy."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    copy = tmp_path_factory.mktemp("bench")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__", "out"))
    return copy


@pytest.mark.parametrize(
    "workload,checks_done",
    [("corpus-verify", 0.984), ("fields-analyze", 1.0), ("circuit-scale", 1.0)],
)
def test_workload_runs_once_and_matches_its_reference(bench, workload, checks_done):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0"],
        cwd=bench,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert metrics["ok_ratio"] == 1.0
    assert metrics["checks_done_ratio"] == checks_done
