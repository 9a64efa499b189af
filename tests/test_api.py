"""Guards on the names other code binds to: the package exports, the
library functions the benchmark's per-layer spans rebind, the result fields
its output capture reads, and the library names the tests' oracles read."""

import ast
import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import kronrod
from kronrod.auts import generated_group, induced_graph_aut, value_preserving_auts
from kronrod.construct import realize_torus_circuit
from kronrod.reeb import build_reeb
from kronrod.terms import Triv

TESTS = Path(__file__).resolve().parent
SPANS = TESTS.parent / "perfbench" / "spans.py"


def test_import_loads_no_third_party_module_but_numpy():
    """`import kronrod` stays light: importing `scipy.sparse.csgraph` alone
    takes a fresh interpreter with kronrod from about 30 to 61 MB resident.
    Nor does it load `dataclasses`: generating its classes' methods took
    over a quarter of a fresh import."""
    probe = (
        "import json, sys; before = set(sys.modules); import kronrod; "
        "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    src = str(Path(kronrod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    loaded = set(json.loads(out.stdout))
    third_party = loaded - set(sys.stdlib_module_names) - {"kronrod", "numpy"}
    assert not third_party
    assert not loaded & {"scipy", "networkx", "sympy", "numba", "dataclasses"}


def test_library_reads_no_environment_variable():
    """The library has no knobs: what it does depends on its arguments only."""
    env_names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(Path(kronrod.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.name if isinstance(node, ast.alias) else getattr(node, "attr", None)
            if (name or getattr(node, "id", None)) in env_names:
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_oracles_take_only_public_library_names():
    """The oracles stay independent of the code they check: they read no
    corpus code and no private library name, the triangulation's `_star` and
    `_link` among them, only the public types and entry points whose results
    they judge."""
    found = []
    for name in ("reeb_oracle.py", "aut_oracle.py"):
        for node in ast.walk(ast.parse((TESTS / name).read_text())):
            if isinstance(node, ast.Import):
                imported = [a.name for a in node.names if a.name.startswith("kronrod")]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kronrod"):
                imported = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [
                f"{name}: {path}"
                for path in imported
                if path.startswith("kronrod.corpus")
                or path.rpartition(".")[2].startswith("_")
            ]
    assert not found


def test_library_makes_no_unvalidated_field():
    """Every `ScalarField` the library makes is validated: no call passes
    `validate=False`."""
    found = []
    for path in sorted(Path(kronrod.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            if getattr(node.func, "id", getattr(node.func, "attr", None)) == "ScalarField":
                flags = [k.value for k in node.keywords if k.arg == "validate"] + node.args[2:]
                if any(not (isinstance(v, ast.Constant) and v.value is True) for v in flags):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_all_exports_resolve():
    missing = [name for name in kronrod.__all__ if not hasattr(kronrod, name)]
    assert not missing


def test_span_layers_exist():
    layers = runpy.run_path(str(SPANS))["LAYERS"]
    missing = [
        f"{modname}.{name}"
        for modname, names in layers.values()
        for name in names
        if not callable(getattr(importlib.import_module(modname), name, None))
    ]
    assert not missing


def test_span_captures_apply():
    captured = runpy.run_path(str(SPANS))["CAPTURED"]
    f, rec = realize_torus_circuit(Triv(), 2)
    g = build_reeb(f)
    results = {
        "build_reeb": g,
        "generated_group": generated_group(g, [induced_graph_aut(g, s) for s in rec.symmetries]),
        "value_preserving_auts": value_preserving_auts(g),
    }
    assert set(captured) <= set(results)
    summaries = {name: summarize(results[name]) for name, summarize in captured.items()}
    assert summaries["build_reeb"] == (g.n_vertices, g.n_edges)
    assert summaries["generated_group"] == 2
    assert isinstance(summaries["value_preserving_auts"], int)
