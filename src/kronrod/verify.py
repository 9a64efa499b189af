"""The verification contract tying fields, records, graphs, and groups.

A realization passes when the field satisfies the Morse equality with the
critical point counts its record was designed with, its graph has the
shape the construction promises, the recorded symmetries are exact field
symmetries that push to graph automorphisms, the record's structural
recursion reproduces the term, the group they generate has the term's
order and, paired in order with the generators of the term's permutation
representation, is isomorphic to it, and, by Lagrange, its order divides
the order of the full value-preserving automorphism group of the graph,
counted independently from canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from kronrod.auts import (
    DEFAULT_AUT_CAP,
    generated_group,
    induced_graph_aut,
    record_term,
    value_preserving_auts,
)
from kronrod.errors import AutOverflow, KronrodError
from kronrod.fields import ScalarField, euler_check, is_simple, morse_counts
from kronrod.permgroups import is_isomorphic, perm_rep, rep_degree
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


def graph_free_checks(f: ScalarField, rec: ConstructionRecord) -> VerificationReport:
    """The contract's checks that need no graph: `euler` and `record_exactness`."""
    report = VerificationReport()
    # every field that classifies has c0 - c1 + c2 = chi; the counts can differ
    counts = morse_counts(f).as_tuple()
    designed = tuple(rec.designed_counts)
    detail = f"counts {counts}" + (f" != designed {designed}" if designed != counts else "")
    report.add("euler", euler_check(f) and designed == counts, detail)

    try:
        check_record_against_field(rec, f)
        report.add("record_exactness", True, "slots congruent, symmetries bit-exact")
    except KronrodError as exc:
        report.add("record_exactness", False, str(exc))
    return report


def verify_realization(
    f: ScalarField,
    rec: ConstructionRecord,
    term: Optional[GroupTerm] = None,
) -> VerificationReport:
    """Run the full contract; every check lands in the report."""
    report = graph_free_checks(f, rec)
    want = normalize(term if term is not None else rec.term)

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

    # The record's own term pairs its symmetries with the generators of
    # `perm_rep` in order; normalizing it would sort product factors.  A term
    # that cannot be built fails the checks that need it, with the reason.
    try:
        rt = record_term(rec)
        detail = f"record gives {format_term(normalize(rt))}, requested {format_term(want)}"
        report.add("structural_term", normalize(rt) == want, detail)
    except KronrodError as exc:
        rt = None
        report.add("structural_term", False, str(exc))

    grp = generated_group(g, induced)
    detail = f"generated order {grp.order}, term order {order(want)}"
    report.add("generated_order", grp.order == order(want), detail)
    try:
        if rt is None:
            raise KronrodError("the record gives no term")
        # every point of the representation is a layout block of grid points
        points = rep_degree(rt)
        if points > f.values.size:
            raise KronrodError(
                f"the term acts on {points} points, more than the field's"
                f" {f.values.size} grid points"
            )
        iso = is_isomorphic(grp, perm_rep(rt))
        detail = f"pairing orders: generated {iso.g}, term {iso.h}, diagonal {iso.diagonal}"
        report.add("group_isomorphism", bool(iso), detail)
    except KronrodError as exc:
        report.add("group_isomorphism", False, f"could not pair the generators: {exc}")

    try:
        full = value_preserving_auts(g)
        divides = full.order % grp.order == 0
        detail = f"full group order {full.order}"
        if not divides:
            detail = f"generated order {grp.order} does not divide {detail}"
        report.add("aut_containment", divides, detail)
    except AutOverflow:
        report.add("aut_containment", True, f"full group beyond cap {DEFAULT_AUT_CAP}; skipped")

    return report
