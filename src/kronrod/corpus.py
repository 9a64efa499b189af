"""Deterministic corpus of realizations.

The grid spans circuit cases with cyclic index up to four, tree cases with
lattice indices up to two each, and simple cases up to three bands, over
small bases.  Each member runs the full verification contract.
"""

from __future__ import annotations

from kronrod.construct import realize
from kronrod.fields import ScalarField
from kronrod.records import ConstructionRecord
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


def corpus_summary() -> dict:
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
    return {"realizations": realizations, "ok": all(r["ok"] for r in realizations)}
