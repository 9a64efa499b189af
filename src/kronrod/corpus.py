"""Deterministic test corpus: a grid of realizations plus random fields.

The realization grid spans circuit cases with cyclic index up to four, tree
cases with lattice indices up to two each, and simple cases up to three
bands, over small bases.  Each member runs the full verification contract.
Random 16x16 torus fields (seeded trigonometric sums made PL-Morse by the
deterministic tie repair) exercise the Reeb construction against an
independent flood-fill level-set oracle.
"""

from __future__ import annotations

import json
from collections import deque

import numpy as np

from kronrod.construct import realize
from kronrod.errors import DegenerateVertex, InvalidField
from kronrod.fields import ScalarField, classify_vertices, fix_ties
from kronrod.records import ConstructionRecord
from kronrod.reeb import build_reeb
from kronrod.terms import parse_term
from kronrod.verify import VerificationReport, verify_realization


class CorpusMember:
    __slots__ = ("label", "case", "base", "n", "m")

    def __init__(self, label: str, case: str, base: str, n: int, m: int):
        self.label, self.case, self.base, self.n, self.m = label, case, base, n, m


def corpus_grid() -> list[CorpusMember]:
    """The standard grid: at least twenty realizations across all cases."""
    members: list[CorpusMember] = []
    for n in (1, 2, 3, 4):
        for base in ("1", "wr(1,2)"):
            members.append(CorpusMember(f"circuit-{base}-{n}", "circuit", base, n, 1))
    members.append(CorpusMember("circuit-wr(1,3)-2", "circuit", "wr(1,3)", 2, 1))
    members.append(CorpusMember("circuit-wr(wr(1,2),2)-2", "circuit", "wr(wr(1,2),2)", 2, 1))
    for n in (1, 2):
        for m in (1, 2):
            for base in ("1", "wr(1,2)"):
                members.append(CorpusMember(f"tree-{base}-{n}-{m}", "tree", base, n, m))
    members.append(
        CorpusMember("tree-prod(wr(1,2),wr(1,2))-1-1", "tree", "prod(wr(1,2),wr(1,2))", 1, 1)
    )
    for n in (1, 2, 3):
        for base in ("1", "wr(1,2)"):
            members.append(CorpusMember(f"simple-{base}-{n}", "simple", base, n, 1))
    members.append(CorpusMember("simple-wr(wr(1,2),2)-2", "simple", "wr(wr(1,2),2)", 2, 1))
    return members


def realize_member(member: CorpusMember) -> tuple[ScalarField, ConstructionRecord]:
    return realize(member.case, parse_term(member.base), member.n, member.m)


def run_realization_corpus() -> list[tuple[CorpusMember, VerificationReport]]:
    out = []
    for member in corpus_grid():
        f, rec = realize_member(member)
        out.append((member, verify_realization(f, rec)))
    return out


# ---------------------------------------------------------------------------
# random PL-Morse fields and the level-set oracle
# ---------------------------------------------------------------------------


def random_torus_field(seed: int, size: int = 16) -> ScalarField:
    """Seeded trigonometric sum on a torus grid, tie-repaired to PL-Morse.

    Draws are retried deterministically (seed chaining) until the sampled
    field has no degenerate vertex.
    """
    attempt = seed
    while True:
        rng = np.random.default_rng(attempt)
        xs = np.arange(size) * (2 * np.pi / size)
        ys = np.arange(size) * (2 * np.pi / size)
        X, Y = np.meshgrid(xs, ys)
        vals = np.zeros((size, size))
        for kx in (1, 2):
            for ky in (1, 2):
                amp = rng.normal() / (kx + ky)
                phx = rng.uniform(0, 2 * np.pi)
                phy = rng.uniform(0, 2 * np.pi)
                vals += amp * np.cos(kx * X + phx) * np.cos(ky * Y + phy)
        try:
            vals = fix_ties(vals, "torus")
            f = ScalarField("torus", vals)
            classify_vertices(f)
            return f
        except (DegenerateVertex, InvalidField):
            attempt += 7919  # deterministic retry chain
            continue


def triangle_corners(f: ScalarField) -> list[tuple[int, int, int]]:
    """Grid corners (y*width + x) of every triangle, by triangle id.

    Triangles are numbered as in `reeb.Triangulation`: 2*(cy*ncx + cx) is
    the lower triangle of cell (cx, cy), with corners (x,y), (x+1,y),
    (x+1,y+1), and the next id is the upper one, with corners (x,y),
    (x+1,y+1), (x,y+1).  Worked out here, so the oracle shares no adjacency
    code with `build_reeb`.
    """
    w, h = f.width, f.height
    ncx = w if f.wraps else w - 1
    ncy = h if f.wraps else h - 1

    def corner(x: int, y: int) -> int:
        return (y % h) * w + x % w

    out = []
    for t in range(2 * ncx * ncy):
        cy, cx = divmod(t // 2, ncx)
        third = corner(cx, cy + 1) if t % 2 else corner(cx + 1, cy)
        out.append((corner(cx, cy), corner(cx + 1, cy + 1), third))
    return out


def level_set_components(f: ScalarField, value: float) -> list[list[int]]:
    """Connected components of a level set as sorted triangle lists (flood fill).

    A triangle meets the level when its corner values span it, and two such
    triangles are joined when they share two grid corners whose values span
    it too.  The components come in the order of their smallest triangles.
    """
    flat = f.values.ravel().tolist()

    def spans(*pts: int) -> bool:
        return min(flat[p] for p in pts) <= value <= max(flat[p] for p in pts)

    nbrs: dict[int, list[int]] = {}
    sharing: dict[tuple[int, int], list[int]] = {}
    for t, pts in enumerate(triangle_corners(f)):
        if not spans(*pts):
            continue
        nbrs[t] = []
        for i in range(3):
            p, q = sorted((pts[i], pts[i - 1]))
            if spans(p, q):
                for u in sharing.setdefault((p, q), []):
                    nbrs[u].append(t)
                    nbrs[t].append(u)
                sharing[(p, q)].append(t)
    seen: set[int] = set()
    comps = []
    for start in nbrs:
        if start in seen:
            continue
        seen.add(start)
        queue, comp = deque([start]), []
        while queue:
            t = queue.popleft()
            comp.append(t)
            for u in nbrs[t]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        comps.append(sorted(comp))
    return comps


def reeb_level_oracle(f: ScalarField, seed: int, samples: int = 20) -> list[tuple[float, int, int]]:
    """Compare, at random regular values, the number of graph edges spanning
    the value with the flood-fill count of level-set components."""
    g = build_reeb(f)
    crit_values = sorted({c.value for c in classify_vertices(f)})
    lo, hi = crit_values[0], crit_values[-1]
    rng = np.random.default_rng(seed)
    rows = []
    found = 0
    while found < samples:
        t = float(rng.uniform(lo, hi))
        if any(t == c for c in crit_values):
            continue
        edges = len(g.edges_spanning(t))
        flood = len(level_set_components(f, t))
        rows.append((t, edges, flood))
        found += 1
    return rows


def run_oracle_corpus(seed: int, fields: int = 10, samples: int = 20) -> list[dict]:
    out = []
    for i in range(fields):
        f = random_torus_field(seed + 1000 * i)
        rows = reeb_level_oracle(f, seed + 1000 * i + 1, samples)
        out.append(
            {
                "field": i,
                "ok": all(e == fl for _, e, fl in rows),
                "samples": [[t, e, fl] for t, e, fl in rows],
            }
        )
    return out


def corpus_summary(seed: int) -> dict:
    """Deterministic summary document for the whole corpus."""
    realizations = []
    for member, report in run_realization_corpus():
        realizations.append(
            {
                "label": member.label,
                "case": member.case,
                "base": member.base,
                "n": member.n,
                "m": member.m,
                "ok": report.ok,
                "checks": [c.to_json() for c in report.checks],
            }
        )
    oracle = run_oracle_corpus(seed)
    return {
        "seed": seed,
        "realizations": realizations,
        "oracle": oracle,
        "ok": all(r["ok"] for r in realizations) and all(o["ok"] for o in oracle),
    }
