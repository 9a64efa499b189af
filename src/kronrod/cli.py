"""Command-line front end.

Subcommands:

* ``realize`` -- synthesize a field for a term, run the contract's graph-free
  checks on it, and write field, record, and manifest JSON files,
* ``analyze`` -- classify a field, build its graph, and report shape data,
* ``verify``  -- run the full contract for a field/record pair against a term,
* ``corpus``  -- realize and verify the deterministic corpus of realizations.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 internal
assertion.  Reports are JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from kronrod.construct import realize
from kronrod.corpus import corpus_summary
from kronrod.errors import ConstructionError, FieldError, GridCapExceeded, KronrodError
from kronrod.errors import NotRealizable, ParseError
from kronrod.fields import (
    export_pgm,
    is_generic,
    is_simple,
    load_field,
    morse_counts,
    save_field,
)
from kronrod.records import ConstructionRecord
from kronrod.reeb import build_reeb, classify_shape, export_dot, export_json, find_special_vertex
from kronrod.terms import GroupTerm, Wr, Wr2, format_term, parse_term
from kronrod.verify import graph_free_checks, verify_realization

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _save(out: Path, files: dict[str, bytes]) -> bool:
    """Create directory `out` if needed and write `files` into it; on an
    OSError, report it and return False."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            (out / name).write_bytes(data)
    except OSError as exc:
        _emit({"ok": False, "error": str(exc)})
        return False
    return True


def _split_case_term(term: GroupTerm, case: str, n: int | None, m: int | None):
    """Resolve the construction base and indices from a term and flags.  A
    term whose top constructor is the case's, `wr` for a circuit or simple
    case and `wr2` for a tree, gives the base and the indices, and an
    explicit --n or --m must equal its index; the disk case, and every other
    term, take the term whole as the base, with the flags' indices (a tree
    needs both).  A flag for an index that the case fixes at 1 must be 1."""
    for flag, given in (("--n", n if case == "disk" else None), ("--m", m)):
        if case != "tree" and given is not None and given != 1:
            raise NotRealizable(f"{flag} {given} differs from the {case} case's index 1")
    top = {"circuit": Wr, "simple": Wr, "tree": Wr2}.get(case)
    if top is not None and isinstance(term, top):
        own = term.n, term.m if case == "tree" else 1
        for flag, given, index in zip(("--n", "--m"), (n, m), own):
            if given is not None and given != index:
                raise NotRealizable(f"{flag} {given} differs from the term's index {index}")
        return (term.base, *own)
    if case == "tree" and (n is None or m is None):
        raise NotRealizable("tree case needs a top-level wr2 term or explicit --n and --m")
    return term, 1 if n is None else n, 1 if m is None else m


def cmd_realize(args) -> int:
    try:
        term = parse_term(args.term)
        base, n, m = _split_case_term(term, args.case, args.n, args.m)
        f, rec = realize(args.case, base, n, m)
    except (ParseError, NotRealizable, GridCapExceeded) as exc:
        _emit({"ok": False, "error": str(exc)})
        return EXIT_INPUT
    failed = [c for c in graph_free_checks(f, rec).checks if not c.ok]
    if failed:  # main reports it as internal, before any file is written
        raise ConstructionError("; ".join(f"{c.name}: {c.detail}" for c in failed))

    manifest = {
        "term": args.term,
        "normalized": format_term(rec.term),
        "case": args.case,
        "n": rec.n,
        "m": rec.m,
        "field": "field.json",
        "record": "record.json",
        "grid": [f.width, f.height],
    }
    files = {"field.json": save_field(f), "record.json": rec.to_json()}
    files["manifest.json"] = json.dumps(manifest, sort_keys=True, indent=2).encode()
    if not _save(Path(args.out), files):
        return EXIT_INPUT
    _emit({"ok": True, **manifest})
    return EXIT_OK


def cmd_analyze(args) -> int:
    emits = set((args.emit or "").split(",")) - {""}
    unknown = sorted(emits - {"dot", "json", "pgm"})
    if unknown:
        _emit({"ok": False, "error": f"unknown --emit names: {','.join(unknown)}"})
        return EXIT_INPUT
    try:
        f = load_field(Path(args.field).read_bytes())
    except (OSError, KronrodError) as exc:
        _emit({"ok": False, "error": str(exc)})
        return EXIT_INPUT
    try:
        mc = morse_counts(f)
        euler = mc.morse_equality(f.kind)
        g = build_reeb(f)
        shape = classify_shape(g)
        special = None
        if f.kind == "torus" and shape.shape == "tree":
            special = find_special_vertex(g, f)
        doc = {
            "ok": euler,
            "kind": f.kind,
            "grid": [f.width, f.height],
            "counts": {"minima": mc.c0, "saddles": mc.c1, "maxima": mc.c2},
            "euler_ok": euler,
            "betti1": shape.betti1,
            "shape": shape.shape,
            "special_vertex": special,
            "generic": is_generic(f),
            "simple": is_simple(f, g),
            "graph": {"vertices": g.n_vertices, "edges": g.n_edges},
        }
    except FieldError as exc:  # the field loads but is not PL-Morse
        _emit({"ok": False, "error": str(exc)})
        return EXIT_INPUT
    except KronrodError as exc:
        _emit({"ok": False, "error": str(exc)})
        return EXIT_VERIFY

    files = {}
    if "dot" in emits:
        files["reeb.dot"] = export_dot(g).encode()
    if "json" in emits:
        files["reeb.json"] = export_json(g)
    if "pgm" in emits:
        files["field.pgm"] = export_pgm(f)
    if files and not _save(Path(args.out) if args.out else Path(args.field).parent, files):
        return EXIT_INPUT
    _emit(doc)
    return EXIT_OK if euler else EXIT_VERIFY


def cmd_verify(args) -> int:
    try:
        f = load_field(Path(args.field).read_bytes())
        rec = ConstructionRecord.from_json(Path(args.record).read_bytes())
        term = parse_term(args.term) if args.term else None
    except (OSError, KronrodError) as exc:
        _emit({"ok": False, "error": str(exc)})
        return EXIT_INPUT
    try:
        report = verify_realization(f, rec, term=term)
    except FieldError as exc:  # the field loads but is not PL-Morse
        _emit({"ok": False, "error": str(exc)})
        return EXIT_INPUT
    _emit(report.to_json())
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_corpus(args) -> int:
    if args.out and not _save(Path(args.out), {}):  # an unusable --out fails before the run
        return EXIT_INPUT
    summary = corpus_summary()
    summary_json = json.dumps(summary, sort_keys=True, indent=2).encode()
    if args.out and not _save(Path(args.out), {"summary.json": summary_json}):
        return EXIT_INPUT
    _emit(
        {
            "ok": summary["ok"],
            "realizations": len(summary["realizations"]),
            "failures": [r["label"] for r in summary["realizations"] if not r["ok"]],
        }
    )
    return EXIT_OK if summary["ok"] else EXIT_VERIFY


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="kronrod", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("realize", help="synthesize a field realizing a group term")
    pr.add_argument("--term", required=True)
    pr.add_argument("--case", required=True, choices=["circuit", "tree", "simple", "disk"])
    pr.add_argument("--n", type=int, default=None)
    pr.add_argument("--m", type=int, default=None)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_realize)

    pa = sub.add_parser("analyze", help="classify a field and report its graph")
    pa.add_argument("--field", required=True)
    pa.add_argument("--emit", default="", help="comma list: dot,json,pgm")
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify", help="run the full realization contract")
    pv.add_argument("--field", required=True)
    pv.add_argument("--record", required=True)
    pv.add_argument("--term", default=None)
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("corpus", help="realize and verify the corpus of realizations")
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_corpus)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except KronrodError as exc:
        _emit({"ok": False, "error": f"internal: {exc}"})
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
