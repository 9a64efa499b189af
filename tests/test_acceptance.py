"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The realization corpus (circuit with one to four bands, tree lattices with
indices up to two, simple cases with up to three bands, bases of order up
to eight) is built once and shared; criteria assert exact combinatorial
facts on it, with group isomorphism certified by Schreier-Sims orders at
every order and full automorphism group orders counted from canonical
forms, checked against a backtracking enumeration up to order 10^4.
"""

import json
import time

import numpy as np
import pytest

from kronrod.auts import (
    DEFAULT_AUT_CAP,
    _full_order,
    generated_group,
    induced_graph_aut,
    record_term,
    value_preserving_auts,
)
from kronrod.corpus import (
    corpus_grid,
    corpus_summary,
    random_torus_field,
    realize_member,
    reeb_level_oracle,
)
from kronrod.errors import AutOverflow, NotAnAutomorphism
from kronrod.fields import euler_check, is_simple
from kronrod.permgroups import group_order, is_isomorphic, perm_rep
from kronrod.reeb import build_reeb, classify_shape, find_special_vertex
from kronrod.terms import Triv, Wr, Wr2, format_term, normalize, order

from aut_oracle import validate_graph_aut
from reeb_oracle import _region_euler
from test_auts import backtrack_order
from test_reeb import complement_components

AUT_CAP = DEFAULT_AUT_CAP


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {criterion}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    members = []
    t0 = time.monotonic()
    for member in corpus_grid():
        f, rec = realize_member(member)
        g = build_reeb(f)
        members.append((member, f, rec, g))
    elapsed = time.monotonic() - t0
    assert len(members) >= 20
    return members, elapsed


def test_criterion_1_morse_equality(corpus):
    members, elapsed = corpus
    bad = [m.label for m, f, _, _ in members if not euler_check(f)]
    _report(
        "criterion 1: Morse equality c0 - c1 + c2 = 0 on every corpus field",
        not bad and elapsed <= 60.0,
        f"{len(members)} realizations in {elapsed:.1f}s" + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_2_shape_dichotomy(corpus):
    members, _ = corpus
    bad = []
    for member, f, rec, g in members:
        rep = classify_shape(g)
        if rep.betti1 not in (0, 1):
            bad.append(member.label)
        want = "tree" if member.case == "tree" else "circuit"
        if rep.shape != want:
            bad.append(member.label)
    _report(
        "criterion 2: betti1 in {0,1}; circuit for circuit/simple, tree for tree",
        not bad,
        f"failures {bad}" if bad else f"{len(members)} graphs",
    )


def test_criterion_3_group_round_trip(corpus):
    members, _ = corpus
    bad = []
    seen_orders = {}
    for member, f, rec, g in members:
        want = normalize(rec.term)
        want_order = order(want)
        st = normalize(record_term(rec))
        if st != want:
            bad.append(f"{member.label}: structural {format_term(st)}")
            continue
        gens = [induced_graph_aut(g, s) for s in rec.symmetries]
        grp = generated_group(g, gens)
        if grp.order != want_order:
            bad.append(f"{member.label}: order {grp.order} != {want_order}")
            continue
        iso = is_isomorphic(grp, perm_rep(record_term(rec)))
        if not iso:
            bad.append(f"{member.label}: pairing not an isomorphism {iso}")
            continue
        seen_orders[member.label] = want_order
    # the three pinned instances
    pinned = {
        "circuit-1-4": 4,  # cyclic of order four
        "tree-1-2-1": 4,  # Klein four-group
        "circuit-wr(1,2)-3": 24,  # Z2 wr Z3
    }
    for label, want in pinned.items():
        if seen_orders.get(label) != want:
            bad.append(f"pinned {label}: order {seen_orders.get(label)} != {want}")
    _report(
        "criterion 3: generated symmetry group isomorphic to the requested term",
        not bad,
        "; ".join(bad) if bad else f"{len(members)} realizations incl. orders 4, 4, 24",
    )


def test_criterion_4_order_formulas():
    rng = np.random.default_rng(2024)

    def random_term(depth: int):
        if depth == 0:
            return Triv()
        kind = rng.integers(0, 4)
        if kind == 0:
            return Triv()
        if kind == 1:
            return Wr(random_term(depth - 1), int(rng.integers(1, 5)))
        if kind == 2:
            return Wr2(random_term(depth - 1), int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        from kronrod.terms import Prod

        return Prod(random_term(depth - 1), random_term(depth - 1))

    checked = 0
    bad = []
    while checked < 50:
        t = random_term(int(rng.integers(1, 4)))
        n = order(t)
        if n > 10**6:
            continue
        got = group_order(perm_rep(t))
        if got != n:
            bad.append(f"{format_term(t)}: {got} != {n}")
        checked += 1
    _report(
        "criterion 4: Schreier-Sims order equals the order formula on 50 random terms",
        not bad,
        "; ".join(bad) if bad else "50 terms of order <= 10^6",
    )


def test_criterion_5_containment(corpus):
    members, _ = corpus
    bad = []
    checked = 0
    for member, f, rec, g in members:
        gens = [induced_graph_aut(g, s) for s in rec.symmetries]
        try:
            full = value_preserving_auts(g)
        except AutOverflow:
            continue  # members with full group beyond 10^4 are out of scope
        checked += 1
        try:
            for a in gens:
                validate_graph_aut(g, a)
        except NotAnAutomorphism:
            bad.append(member.label)
            continue
        if full.order % generated_group(g, gens).order:
            bad.append(member.label)
    _report(
        "criterion 5: induced symmetries are graph automorphisms, and their group's "
        "order divides the full automorphism group's",
        not bad and checked > 0,
        f"{checked} members with full group <= {AUT_CAP}" + (f"; failures {bad}" if bad else ""),
    )


def test_group_orders_match_sympy_on_all_points(corpus):
    """Orders against sympy, with the induced automorphisms acting on every
    vertex and every edge; `generated_group` acts on the edges only."""
    from sympy.combinatorics import Permutation, PermutationGroup

    def sympy_order(degree, perms):
        return PermutationGroup(
            [Permutation(list(p)) for p in perms] or [Permutation(degree - 1)]
        ).order()

    members, _ = corpus
    bad = []
    degrees = {}
    for member, f, rec, g in members:
        gens = [induced_graph_aut(g, s) for s in rec.symmetries]
        nv, ne = g.n_vertices, g.n_edges
        every = [a.vperm + tuple(nv + e for e in a.eperm) for a in gens]
        grp = generated_group(g, gens)
        degrees[member.label] = grp.degree
        if grp.degree != ne:
            bad.append(f"{member.label}: degree {grp.degree}")
        if grp.order != sympy_order(nv + ne, every):
            bad.append(f"{member.label}: order {grp.order}")
        rep = perm_rep(record_term(rec))
        iso = is_isomorphic(grp, rep)
        g_id, h_id = tuple(range(nv + ne)), tuple(range(rep.degree))
        rep_gens = [tuple(q.tolist()) for q in rep.generators]
        gs = [p for p in every if p != g_id]
        hs = [q for q in rep_gens if q != h_id]
        k = max(len(gs), len(hs))
        gs += [g_id] * (k - len(gs))
        hs += [h_id] * (k - len(hs))
        diagonal = [p + tuple(nv + ne + j for j in q) for p, q in zip(gs, hs)]
        if (iso.h, iso.diagonal) != (
            sympy_order(rep.degree, rep_gens),
            sympy_order(nv + ne + rep.degree, diagonal),
        ):
            bad.append(f"{member.label}: pairing {iso}")
    if degrees["tree-wr(1,2)-2-2"] != 56:  # 113 on every vertex and edge
        bad.append(f"tree-wr(1,2)-2-2: degree {degrees['tree-wr(1,2)-2-2']} != 56")
    _report(
        "generated, term and diagonal orders equal sympy's on every vertex and edge",
        not bad and len(members) == 26,
        "; ".join(bad) if bad else f"{len(members)} members",
    )


def test_full_order_matches_backtracking(corpus):
    members, _ = corpus
    bad = []
    checked = 0
    for member, f, rec, g in members:
        if _full_order(g) > AUT_CAP:  # the enumeration only runs into its cap
            with pytest.raises(AutOverflow):
                value_preserving_auts(g)
            continue
        checked += 1
        got, want = value_preserving_auts(g).order, backtrack_order(g, AUT_CAP)
        if got != want:
            bad.append(f"{member.label}: {got} != {want}")
    _report(
        "full group order from canonical forms equals the backtracking count",
        not bad and checked == 22,
        f"{checked} members with full group <= {AUT_CAP}" + (f"; failures {bad}" if bad else ""),
    )


def test_term_order_divides_full_order(corpus):
    members, _ = corpus
    bad = []
    orders = {}
    for member, f, rec, g in members:
        orders[member.label] = full = _full_order(g)
        want = order(normalize(rec.term))
        if full % want:
            bad.append(f"{member.label}: {want} does not divide {full}")
    if orders["tree-1-2-1"] != 331_776:
        bad.append(f"tree-1-2-1: full order {orders['tree-1-2-1']} != 331776")
    _report(
        "the term order divides the uncapped full group order (Lagrange)",
        not bad,
        "; ".join(bad) if bad else f"{len(members)} members, largest {max(orders.values())}",
    )


def test_criterion_6_simplicity(corpus):
    members, _ = corpus
    bad = []
    for member, f, rec, g in members:
        simple = is_simple(f, g)
        if member.case == "simple":
            if not simple or classify_shape(g).shape != "circuit":
                bad.append(member.label)
        elif member.case == "tree":
            if simple:
                bad.append(member.label)
    _report(
        "criterion 6: simple realizations are simple circuits; tree cases never simple",
        not bad,
        f"failures {bad}" if bad else "all simple/tree members as required",
    )


def test_criterion_7_reeb_oracle():
    t0 = time.monotonic()
    bad = []
    for i in range(10):
        f = random_torus_field(31_000 + 1000 * i)
        rows = reeb_level_oracle(f, 31_001 + 1000 * i, samples=20)
        for t, edges, flood in rows:
            if edges != flood:
                bad.append(f"field {i} at {t:.4f}: {edges} != {flood}")
    elapsed = time.monotonic() - t0
    _report(
        "criterion 7: edges spanning a regular value match the flood-fill count",
        not bad and elapsed <= 10.0,
        f"10 fields x 20 values in {elapsed:.1f}s" + (f"; {bad[:3]}" if bad else ""),
    )


def test_criterion_8_special_vertex(corpus):
    members, _ = corpus
    bad = []
    for member, f, rec, g in members:
        if member.case != "tree":
            continue
        try:
            sv = find_special_vertex(g, f)
        except Exception as exc:  # noqa: BLE001 - report any failure mode
            bad.append(f"{member.label}: {exc}")
            continue
        for region in complement_components(g, sv):
            chi, curves = _region_euler(g.tri, region)
            if chi != 1 or curves != 1:
                bad.append(f"{member.label}: complement region chi={chi}")
                break
    _report(
        "criterion 8: unique special vertex with an all-disk complement on tree cases",
        not bad,
        "; ".join(bad) if bad else "all tree realizations",
    )


def test_criterion_9_corpus_determinism():
    a = json.dumps(corpus_summary(0), sort_keys=True).encode()
    b = json.dumps(corpus_summary(0), sort_keys=True).encode()
    _report(
        "criterion 9: corpus generation is byte-identical for a fixed seed",
        a == b,
        f"{len(a)} bytes",
    )
