"""The verification contract tying fields, records, graphs, and groups.

A realization passes when the field satisfies the Morse equality, its graph
has the shape the construction promises, the recorded symmetries are exact
field symmetries that push to graph automorphisms, the group they generate
is isomorphic to the permutation representation of the requested term, the
record's structural recursion reproduces the term, and the induced group
embeds in the full value-preserving automorphism group of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from kronrod.auts import (
    DEFAULT_AUT_CAP,
    generated_group,
    induced_graph_aut,
    structural_group,
    value_preserving_auts,
)
from kronrod.errors import AutOverflow, KronrodError
from kronrod.fields import ScalarField, euler_check, is_simple, morse_counts
from kronrod.permgroups import is_isomorphic, perm_rep
from kronrod.records import ConstructionRecord, check_record_against_field
from kronrod.reeb import build_reeb, classify_shape, find_special_vertex
from kronrod.terms import GroupTerm, format_term, normalize, order


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, ok, detail))

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_json() for c in self.checks]}


def verify_realization(
    f: ScalarField,
    rec: ConstructionRecord,
    term: Optional[GroupTerm] = None,
    cap: int = 5000,
) -> VerificationReport:
    """Run the full contract; every check lands in the report."""
    report = VerificationReport()
    want = normalize(term if term is not None else rec.term)

    report.add("euler", euler_check(f), f"counts {morse_counts(f).as_tuple()}")

    try:
        check_record_against_field(rec, f)
        report.add("record_exactness", True, "slots congruent, symmetries bit-exact")
    except KronrodError as exc:
        report.add("record_exactness", False, str(exc))

    try:
        g = build_reeb(f)
    except KronrodError as exc:
        report.add("reeb", False, str(exc))
        return report
    report.add("reeb", True, f"V={g.n_vertices} E={g.n_edges}")

    shape = classify_shape(g)
    expected_shape = "tree" if rec.case in ("tree", "disk") else "circuit"
    report.add(
        "shape",
        shape.shape == expected_shape,
        f"betti1={shape.betti1}, shape={shape.shape}, case={rec.case}",
    )

    if rec.case == "tree":
        try:
            sv = find_special_vertex(g, f)
            report.add("special_vertex", True, f"vertex {sv}")
        except KronrodError as exc:
            report.add("special_vertex", False, str(exc))

    if rec.case == "simple":
        report.add("simple", is_simple(f, g), "every critical component is a single point")

    try:
        induced = [induced_graph_aut(g, s) for s in rec.symmetries]
        report.add("induced_automorphisms", True, f"{len(induced)} generators validated")
    except KronrodError as exc:
        report.add("induced_automorphisms", False, str(exc))
        return report

    st = structural_group(rec)
    report.add(
        "structural_term",
        st == want,
        f"record gives {format_term(st)}, requested {format_term(want)}",
    )

    want_order = order(want)
    try:
        grp = generated_group(g, induced, cap=max(cap, 2))
        got_order = grp.order
        report.add(
            "generated_order",
            got_order == want_order,
            f"generated order {got_order}, term order {want_order}",
        )
        if want_order <= cap:
            rep = perm_rep(want)
            iso = is_isomorphic(grp, rep, cap)
            report.add("group_isomorphism", iso is True, f"orders {got_order}/{want_order}")
        else:
            report.add("group_isomorphism", True, f"order {want_order} beyond cap {cap}; skipped")
    except AutOverflow:
        if want_order > cap:
            report.add("generated_order", True, f"closure beyond cap {cap} as expected")
            report.add("group_isomorphism", True, f"order {want_order} beyond cap {cap}; skipped")
        else:
            report.add("generated_order", False, f"closure overflow below term order {want_order}")

    try:
        full = value_preserving_auts(g)
        contained = all(full.contains(a) for a in induced)
        report.add(
            "aut_containment",
            contained,
            f"full group order {full.order}",
        )
    except AutOverflow:
        report.add("aut_containment", True, f"full group beyond cap {DEFAULT_AUT_CAP}; skipped")

    return report
