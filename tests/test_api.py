"""Guards on the names other code binds to: the package exports and the
library functions the benchmark's per-layer spans rebind."""

import importlib
import runpy
from pathlib import Path

import kronrod

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
