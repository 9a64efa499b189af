"""Per-layer spans and output capture, taken from outside the library.

`Instrument` rebinds the library's public layer functions, in every
`kronrod` module that imported them, to wrappers.  Untraced, only the
functions whose outputs the benchmark checks are wrapped, and a wrapper
just records a small summary of the result for the current op.  Traced,
every layer function records a span: layer name, start, end, parent span
and op id, read from the steady clock and kept in memory.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Optional

# layer name -> (module, functions that belong to it)
LAYERS = {
    "construct.realize": (
        "kronrod.construct",
        ("realize_torus_circuit", "realize_torus_tree", "realize_simple"),
    ),
    "records.check": ("kronrod.records", ("check_record_against_field",)),
    "fields.load": ("kronrod.fields", ("load_field",)),
    "fields.classify": ("kronrod.fields", ("classify_vertices",)),
    "reeb.build": ("kronrod.reeb", ("build_reeb",)),
    "reeb.special_vertex": ("kronrod.reeb", ("find_special_vertex",)),
    "auts.push": ("kronrod.auts", ("induced_graph_aut",)),
    "auts.generated": ("kronrod.auts", ("generated_group",)),
    "auts.full": ("kronrod.auts", ("value_preserving_auts",)),
    "permgroups.iso": ("kronrod.permgroups", ("perm_rep", "is_isomorphic")),
}

# function -> summary of its result kept for the op's size record
CAPTURED: dict[str, Callable] = {
    "build_reeb": lambda g: (len(g.vertices), len(g.edges)),
    "generated_group": lambda grp: grp.order,
    "value_preserving_auts": lambda full: full.order,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for an op span
    op: int

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op]


class Instrument:
    def __init__(self, clock):
        self.clock = clock
        self.tracing = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1
        self.outputs: dict[str, object] = {}
        self._originals: list[tuple[object, str, Callable]] = []

    def run_op(self, op: int, fn: Callable, *args):
        """Call one op; traced, its span is the parent of its layers' spans."""
        self.op = op
        self.outputs = {}
        if not self.tracing:
            return fn(*args)
        span = Span("op", self.clock.now(), 0.0, -1, op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            span.end = self.clock.now()
            self._stack.pop()

    def install(self, tracing: bool) -> None:
        """Wrap the layer functions; `remove` restores the originals."""
        self.tracing = tracing
        for layer, (modname, names) in LAYERS.items():
            module = sys.modules[modname]
            for name in names:
                fn = getattr(module, name)
                if not tracing and name not in CAPTURED:
                    continue
                wrapper = self._wrap(fn, layer, name)
                for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "kronrod"]:
                    for attr in [a for a, v in vars(mod).items() if v is fn]:
                        self._originals.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals = []

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        summarize: Optional[Callable] = CAPTURED.get(name)
        inst = self

        def wrapper(*args, **kwargs):
            span = None
            if inst.tracing:
                parent = inst._stack[-1] if inst._stack else -1
                span = Span(layer, inst.clock.now(), 0.0, parent, inst.op)
                inst._stack.append(len(inst.spans))
                inst.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if summarize is not None:
                    inst.outputs[name] = type(exc).__name__
                raise
            finally:
                if span is not None:
                    span.end = inst.clock.now()
                    inst._stack.pop()
            if summarize is not None:
                inst.outputs[name] = summarize(result)
            return result

        return wrapper


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer with each span's children subtracted."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out: dict[str, float] = {}
    for s, c in zip(spans, child):
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - c
    return out
