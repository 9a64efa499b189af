"""The benchmark's workloads: inputs, ops, and output checks.

Each workload is a closed loop: one client runs its fixed list of ops one
after another, in a fixed order.  `setup` makes the inputs, `run` is the
timed op, and `check` turns an op's result into a size record plus a list
of problems, using checks that do not call the code they check.  The
realize+verify workloads run the fixed corpus and ignore the seed; in
fields-analyze the seed places each field on the torus (see `place`).  So
every seed gives the same sizes, and run.py compares them with
reference.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# Link neighbours of a grid vertex in cyclic order (the diagonal-split grid).
LINK = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))


def critical_masks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minima, saddles and maxima of a tie-free torus field.

    A vertex is an extremum when the sign of (neighbour - vertex) never
    changes around its link, and a saddle when it changes four times.
    """
    above = np.stack([np.roll(values, (-dy, -dx), axis=(0, 1)) > values for dx, dy in LINK])
    changes = (above != np.roll(above, -1, axis=0)).sum(axis=0)
    if (changes >= 6).any():
        raise ValueError("degenerate vertex")
    extremum = changes == 0
    return extremum & above.all(axis=0), changes == 4, extremum & ~above.any(axis=0)


def field_sizes(values: np.ndarray) -> dict:
    """Grid, triangles, critical points K and distinct critical levels."""
    crit = np.logical_or.reduce(critical_masks(values))
    h, w = values.shape
    return {
        "grid": [w, h],
        "triangles": 2 * w * h,
        "K": int(crit.sum()),
        "cut_levels": int(np.unique(values[crit]).size),
    }


@dataclass
class Op:
    label: str
    arg: Any


@dataclass
class Checked:
    sizes: dict
    problems: list[str]
    checks_run: int = 0
    checks_skipped: int = 0


@dataclass
class Workload:
    name: str
    setup: Callable[[Any, int], list[Op]]  # (lib, seed) -> ops
    run: Callable[[Any, Op], Any]  # the timed op
    check: Callable[[Any, Any, dict], Checked]  # (lib, result, captured outputs)


# ---------------------------------------------------------------------------
# realize + verify: corpus-verify and circuit-scale
# ---------------------------------------------------------------------------


def _skipped(detail: str) -> bool:
    return "skipped" in detail or "beyond cap" in detail


def check_verify(lib, result, outputs: dict) -> Checked:
    f, rec, report = result
    if f.kind != "torus":
        return Checked({}, [f"field kind {f.kind}, expected torus"])
    sizes = field_sizes(np.asarray(f.values))
    problems = []
    v_e = outputs.get("build_reeb")
    if not isinstance(v_e, tuple):
        problems.append(f"no Reeb graph built ({v_e})")
        v_e = (None, None)
    sizes["V"], sizes["E"] = v_e
    sizes["term_order"] = lib.terms.order(lib.terms.normalize(rec.term))
    sizes["generated_order"] = outputs.get("generated_group")
    sizes["full_order"] = outputs.get("value_preserving_auts")
    if not report.ok:
        problems.append("failed checks: " + ", ".join(c.name for c in report.checks if not c.ok))
    if sizes["generated_order"] != sizes["term_order"]:
        problems.append(f"generated order {sizes['generated_order']} != term order {sizes['term_order']}")
    skipped = sum(1 for c in report.checks if _skipped(c.detail))
    return Checked(sizes, problems, len(report.checks), skipped)


def _realize_verify(lib, realize: Callable, arg):
    f, rec = realize(arg)
    return f, rec, lib.verify.verify_realization(f, rec)


def setup_corpus(lib, seed: int) -> list[Op]:
    return [Op(m.label, m) for m in lib.corpus.corpus_grid()]


def run_corpus(lib, op: Op):
    return _realize_verify(lib, lib.corpus.realize_member, op.arg)


CIRCUIT_NS = (4, 5, 6, 7, 8)


def setup_circuit(lib, seed: int) -> list[Op]:
    base = lib.terms.parse_term("1")
    return [Op(f"circuit-1-{n}", (base, n)) for n in CIRCUIT_NS]


def run_circuit(lib, op: Op):
    return _realize_verify(lib, lambda arg: lib.construct.realize_torus_circuit(*arg), op.arg)


# ---------------------------------------------------------------------------
# load + analyze of seeded generic torus fields: fields-analyze
# ---------------------------------------------------------------------------

# (side, highest trig frequency, target K).  The trig-sum coefficients are
# drawn from FIELD_SEED, not from the run's seed: different draws with the
# same K still differ in cost by up to 13%, which would hide changes to the
# library behind changes of input.  The run's seed places each field instead.
FIELD_SPECS = ((32, 4, 60), (64, 6, 140), (96, 8, 280), (128, 10, 420))
FIELD_SEED = 0
K_TOLERANCE = 0.02


def make_field(lib, side: int, freq: int, target: int) -> np.ndarray:
    """PL-Morse trig-sum torus field with K within K_TOLERANCE of `target`."""
    xs = np.arange(side) * (2 * np.pi / side)
    X, Y = np.meshgrid(xs, xs)
    attempt = 0
    while True:
        attempt += 1
        rng = np.random.default_rng([FIELD_SEED, side, attempt])
        vals = np.zeros((side, side))
        for kx in range(freq + 1):
            for ky in range(freq + 1):
                if kx or ky:
                    amp = rng.normal() / (1 + kx + ky)
                    vals += amp * np.cos(kx * X + ky * Y + rng.uniform(0, 2 * np.pi))
        try:
            vals = lib.fields.fix_ties(vals, "torus")
            k = int(sum(m.sum() for m in critical_masks(vals)))
        except (ValueError, lib.errors.KronrodError):
            continue  # degenerate or tied draw: take the next one
        if abs(k - target) <= K_TOLERANCE * target:
            return vals


def place(values: np.ndarray, seed: int) -> np.ndarray:
    """A seeded symmetry of the torus grid and of the values.

    Translation, transpose, the half turn and negation all map the link of
    every vertex onto a link, so they keep the field PL-Morse and its Reeb
    graph the same up to relabelling: the sizes stay, the input changes.
    """
    rng = np.random.default_rng([seed, values.shape[0]])
    dy, dx = rng.integers(values.shape[0], size=2)
    out = np.roll(values, (int(dy), int(dx)), axis=(0, 1))
    if rng.integers(2):
        out = out.T
    if rng.integers(2):
        out = out[::-1, ::-1]
    if rng.integers(2):
        out = -out
    return np.ascontiguousarray(out)


def setup_fields(lib, seed: int) -> list[Op]:
    return [
        Op(
            f"field-{side}-K{target}",
            lib.fields.save_field(
                lib.fields.ScalarField("torus", place(make_field(lib, side, freq, target), seed))
            ),
        )
        for side, freq, target in FIELD_SPECS
    ]


def run_analyze(lib, op: Op):
    """`load_field` plus the steps of the CLI's `analyze` command."""
    fields, reeb = lib.fields, lib.reeb
    f = fields.load_field(op.arg)
    counts = fields.morse_counts(f)
    euler = fields.euler_check(f)
    g = reeb.build_reeb(f)
    shape = reeb.classify_shape(g)
    if f.kind == "torus" and shape.shape == "tree":
        reeb.find_special_vertex(g, f)
    fields.is_generic(f)
    fields.is_simple(f, g)
    return f, g, counts, euler, shape


def check_analyze(lib, result, outputs: dict) -> Checked:
    f, g, counts, euler, shape = result
    values = np.asarray(f.values)
    minima, saddles, maxima = critical_masks(values)
    sizes = field_sizes(values)
    nv, ne = len(g.vertices), len(g.edges)
    sizes.update(V=nv, E=ne, betti1=ne - nv + 1, shape=shape.shape)
    problems = []
    if not euler:
        problems.append("euler_check failed")
    want = (int(minima.sum()), int(saddles.sum()), int(maxima.sum()))
    if counts.as_tuple() != want:
        problems.append(f"Morse counts {counts.as_tuple()} != {want}")
    if nv != sizes["K"]:
        problems.append(f"V={nv} != K={sizes['K']}")
    if sizes["betti1"] != 1 or shape.shape != "circuit":
        problems.append(f"betti1={sizes['betti1']} shape={shape.shape}, a torus graph has one cycle")
    degree = [0] * nv
    for e in g.edges:
        degree[e.u] += 1
        degree[e.v] += 1
    for v in g.vertices:
        if len(v.crits) != 1:
            problems.append(f"vertex {v.id} carries {len(v.crits)} critical points")
            continue
        x, y = v.crits[0].x, v.crits[0].y
        extremum = bool(minima[y, x] or maxima[y, x])
        allowed = (1,) if extremum else (2, 3) if saddles[y, x] else ()
        if degree[v.id] not in allowed:
            problems.append(f"vertex {v.id} at ({x}, {y}) has degree {degree[v.id]}")
    return Checked(sizes, problems)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus-verify", setup_corpus, run_corpus, check_verify),
        Workload("fields-analyze", setup_fields, run_analyze, check_analyze),
        Workload("circuit-scale", setup_circuit, run_circuit, check_verify),
    )
}
