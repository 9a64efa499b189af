"""Guards on the names other code binds to: the package exports, the
library functions the benchmark's per-layer spans rebind, and the result
fields its output capture reads."""

import importlib
import runpy
from pathlib import Path

import kronrod
from kronrod.auts import generated_group, induced_graph_aut, value_preserving_auts
from kronrod.construct import realize_torus_circuit
from kronrod.reeb import build_reeb
from kronrod.terms import Triv

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
