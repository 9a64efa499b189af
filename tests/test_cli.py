import hashlib
import json
import time

import numpy as np
import pytest

from kronrod import construct, terms, verify
from kronrod.cli import main
from kronrod.construct import realize, realize_torus_circuit
from kronrod.fields import LINK_OFFSETS, MorseCounts, ScalarField, save_field
from kronrod.records import ConstructionRecord, Rect, RectCycle
from kronrod.terms import parse_term


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def monkey_saddle_field():
    """A tie-free 9x9 torus field that loads, but whose vertex (4, 4) has six
    link neighbours alternating above and below it: no Morse critical point."""
    xs = np.arange(9)
    X, Y = np.meshgrid(xs, xs)
    vals = 0.01 * X + 0.007 * Y
    for (dx, dy), v in zip(LINK_OFFSETS, [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]):
        vals[4 + dy, 4 + dx] = v
    return ScalarField("torus", vals)


def with_long_integer(field_json: bytes, digits: int = 5000) -> str:
    """A field's JSON with its first value replaced by an integer of `digits`
    digits: 5,000 is past CPython's default limit of 4,300 digits for
    reading one, and 400 past the range of a float."""
    doc = json.loads(field_json)
    doc["values"][0] = "long"
    return json.dumps(doc).replace('"long"', "9" * digits, 1)


class TestRealize:
    def test_circuit(self, tmp_path, capsys):
        code, doc = run(
            capsys, "realize", "--term", "wr(1,3)", "--case", "circuit", "--out", str(tmp_path)
        )
        assert code == 0
        assert (tmp_path / "field.json").exists()
        assert (tmp_path / "record.json").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_tree(self, tmp_path, capsys):
        code, doc = run(
            capsys, "realize", "--term", "wr2(1,2,1)", "--case", "tree", "--out", str(tmp_path)
        )
        assert code == 0
        assert doc["n"] == 2 and doc["m"] == 1

    def test_simple_rejects_wr2(self, tmp_path, capsys):
        code, doc = run(
            capsys, "realize", "--term", "wr2(1,2,1)", "--case", "simple", "--out", str(tmp_path)
        )
        assert code == 2
        assert not doc["ok"]

    def test_parse_error(self, tmp_path, capsys):
        code, doc = run(
            capsys, "realize", "--term", "wr(1,", "--case", "circuit", "--out", str(tmp_path)
        )
        assert code == 2

    def test_out_naming_a_file_is_input_error(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        out = str(tmp_path / "taken")
        code, doc = run(capsys, "realize", "--term", "1", "--case", "circuit", "--out", out)
        assert code == 2
        assert not doc["ok"] and "taken" in doc["error"]


    @pytest.mark.parametrize("case", ["disk", "circuit", "tree"])
    def test_counts_unlike_the_design_are_refused(self, tmp_path, capsys, monkeypatch, case):
        """`realize` refuses a field whose Morse counts differ from the designed
        ones, names both triples, and writes nothing."""
        _, rec = realize(case, parse_term("wr(1,2)"), 2, 1)
        designed = tuple(rec.designed_counts)
        found = tuple(c + 1 for c in designed)
        monkeypatch.setattr(verify, "morse_counts", lambda f: MorseCounts(*found))
        out = tmp_path / "out"
        n = [] if case == "disk" else ["--n", "2"]  # a disk's n is fixed at 1
        # a circuit's --n restates the index of a top-level wr term
        term = "wr(wr(1,2),2)" if case == "circuit" else "wr(1,2)"
        flags = ["--case", case, *n, "--m", "1", "--out", str(out)]
        code, doc = run(capsys, "realize", "--term", term, *flags)
        assert code == 3
        assert f"euler: counts {found} != designed {designed}" in doc["error"]
        assert not out.exists()

    def test_manifest_names_the_realized_term(self, tmp_path, capsys):
        flags = ["--case", "circuit", "--n", "3", "--out", str(tmp_path)]
        run(capsys, "realize", "--term", "1", *flags)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["normalized"] == "wr(1,3)"
        code, doc = run(
            capsys,
            "verify",
            "--field",
            str(tmp_path / "field.json"),
            "--record",
            str(tmp_path / "record.json"),
            "--term",
            manifest["normalized"],
        )
        assert code == 0 and doc["ok"]

    @pytest.mark.parametrize(
        "case, flag, given",
        [("disk", "--n", "5"), ("disk", "--m", "2")]
        + [("circuit", "--m", "7"), ("simple", "--m", "0")],
    )
    def test_index_the_case_fixes_is_input_error(self, tmp_path, capsys, case, flag, given):
        """A disk fixes n = m = 1, a circuit or simple case m = 1: another
        value is refused, and the value 1 is taken."""
        args = ["realize", "--term", "wr(1,2)", "--case", case]
        code, doc = run(capsys, *args, flag, given, "--out", str(tmp_path))
        assert code == 2
        error = f"{flag} {given} differs from the {case} case's index 1"
        assert doc == {"ok": False, "error": error}
        assert not any(tmp_path.iterdir())
        code, doc = run(capsys, *args, flag, "1", "--out", str(tmp_path))
        assert code == 0 and doc["m"] == 1 and (doc["n"] == 1 or case != "disk")

    @pytest.mark.parametrize("flag, given, own", [("--n", "5", "2"), ("--m", "3", "1")])
    def test_tree_index_unlike_the_terms_is_input_error(self, tmp_path, capsys, flag, given, own):
        term = ["--term", "wr2(1,2,1)", "--case", "tree"]
        code, doc = run(capsys, "realize", *term, flag, given, "--out", str(tmp_path))
        assert code == 2
        assert doc["error"] == f"{flag} {given} differs from the term's index {own}"
        assert not (tmp_path / "field.json").exists()
        code, doc = run(capsys, "realize", *term, flag, own, "--out", str(tmp_path))
        assert code == 0 and (doc["n"], doc["m"]) == (2, 1)

    @pytest.mark.parametrize("case", ["circuit", "simple"])
    def test_wreath_index_unlike_the_terms_is_input_error(self, tmp_path, capsys, case):
        """A circuit or simple case reads --n as a tree reads it: as the
        index of a top-level wr term, refused where it differs, the same
        realization where it agrees."""
        term = ["--term", "wr(1,3)", "--case", case]
        code, doc = run(capsys, "realize", *term, "--n", "2", "--out", str(tmp_path))
        assert code == 2
        assert doc == {"ok": False, "error": "--n 2 differs from the term's index 3"}
        assert not any(tmp_path.iterdir())
        code, doc = run(capsys, "realize", *term, "--n", "3", "--out", str(tmp_path))
        assert code == 0 and (doc["normalized"], doc["n"]) == ("wr(1,3)", 3)

    def test_nested_wreath_takes_its_top_index(self, tmp_path, capsys):
        """`wr(wr(1,3),3)` in the circuit case is three bands of `wr(1,3)`,
        and verifies against that term."""
        flags = ["--case", "circuit", "--out", str(tmp_path)]
        code, doc = run(capsys, "realize", "--term", "wr(wr(1,3),3)", *flags)
        assert code == 0
        assert (doc["normalized"], doc["n"], doc["grid"]) == ("wr(wr(1,3),3)", 3, [132, 32])
        args = ["--field", str(tmp_path / "field.json"), "--record", str(tmp_path / "record.json")]
        code, doc = run(capsys, "verify", *args, "--term", "wr(wr(1,3),3)")
        assert code == 0 and doc["ok"]

    def test_deep_term_is_input_error(self, tmp_path, capsys, shallow_stack):
        deep = "wr(" * 300 + "1" + ",2)" * 300
        with shallow_stack:
            code = main(["realize", "--term", deep, "--case", "circuit", "--out", str(tmp_path)])
        assert code == 2
        assert "nested too deeply" in json.loads(capsys.readouterr().out)["error"]


    def test_integer_past_the_digit_limit_is_input_error(self, tmp_path, capsys):
        term = "wr(1," + "9" * 5000 + ")"
        code, doc = run(capsys, "realize", "--term", term, "--case", "circuit", "--out", str(tmp_path))
        assert code == 2
        assert doc["error"] == "integer of 5000 digits is too long (at position 5)"


class TestGridCap:
    def test_cap_exceeded_is_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(construct, "GRID_CAP", 512)
        code, doc = run(
            capsys, "realize", "--term", "wr2(wr(1,2),2,2)", "--case", "tree", "--out", str(tmp_path)
        )
        assert code == 2
        assert "exceeds cap" in doc["error"]

    @pytest.mark.parametrize("case", ["disk", "circuit"])
    def test_cap_refuses_before_any_order(self, tmp_path, capsys, monkeypatch, case):
        """The layout recursion refuses the wide factor level by level; no
        group order of the term, here of 10^9 bits, is computed first."""

        def no_order(t):
            raise AssertionError("order computed")

        monkeypatch.setattr(terms, "order", no_order)
        term = "prod(wr(wr(1,2),1000000000),wr(1,3))"
        code, doc = run(capsys, "realize", "--term", term, "--case", case, "--out", str(tmp_path))
        assert code == 2
        assert "exceeds cap" in doc["error"]


class TestAnalyze:
    @pytest.fixture()
    def realized(self, tmp_path, capsys):
        run(capsys, "realize", "--term", "wr(1,2)", "--case", "circuit", "--out", str(tmp_path))
        return tmp_path

    def test_circuit_report(self, realized, capsys):
        code, doc = run(capsys, "analyze", "--field", str(realized / "field.json"))
        assert code == 0
        assert doc["shape"] == "circuit" and doc["betti1"] == 1

    def test_tree_report_has_special_vertex(self, tmp_path, capsys):
        run(capsys, "realize", "--term", "wr2(1,1,1)", "--case", "tree", "--out", str(tmp_path))
        code, doc = run(capsys, "analyze", "--field", str(tmp_path / "field.json"))
        assert code == 0
        assert doc["special_vertex"] is not None

    def test_emits(self, realized, capsys):
        code, _ = run(
            capsys,
            "analyze",
            "--field",
            str(realized / "field.json"),
            "--emit",
            "dot,json,pgm",
            "--out",
            str(realized),
        )
        assert code == 0
        assert (realized / "reeb.dot").exists()
        assert (realized / "reeb.json").exists()
        assert (realized / "field.pgm").exists()

    def test_emit_creates_out_dir(self, realized, capsys):
        out = realized / "new" / "dir"
        args = ("analyze", "--field", str(realized / "field.json"), "--emit", "dot")
        code, _ = run(capsys, *args, "--out", str(out))
        assert code == 0
        assert (out / "reeb.dot").exists()

    def test_monkey_saddle_is_input_error(self, tmp_path, capsys):
        (tmp_path / "field.json").write_bytes(save_field(monkey_saddle_field()))
        code, doc = run(capsys, "analyze", "--field", str(tmp_path / "field.json"))
        assert code == 2
        assert not doc["ok"] and "degenerate vertex at (4, 4)" in doc["error"]

    def test_cylinder_kind_is_input_error(self, tmp_path, capsys):
        """Fields live on the torus or the disk; a cylinder field does not load."""
        doc = {"kind": "cylinder", "width": 8, "height": 8, "values": [0.0] * 64}
        (tmp_path / "field.json").write_text(json.dumps(doc))
        code, out = run(capsys, "analyze", "--field", str(tmp_path / "field.json"))
        assert code == 2
        assert not out["ok"] and "unknown field kind" in out["error"]

    def test_unknown_emit_is_input_error(self, realized, capsys):
        args = ("analyze", "--field", str(realized / "field.json"), "--emit", "dot,png")
        code, doc = run(capsys, *args, "--out", str(realized / "out"))
        assert code == 2
        assert not doc["ok"] and "png" in doc["error"]
        assert not (realized / "out").exists()

    def test_out_naming_a_file_is_input_error(self, realized, capsys):
        (realized / "taken").write_text("")
        args = ("analyze", "--field", str(realized / "field.json"), "--emit", "dot")
        code, doc = run(capsys, *args, "--out", str(realized / "taken"))
        assert code == 2
        assert not doc["ok"] and "taken" in doc["error"]

    def test_truncated_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "torus", "width": 8')
        code, doc = run(capsys, "analyze", "--field", str(bad))
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "torus", "width": 8, "height": 8, "values": ["a"] * 64},
            {"kind": "torus", "width": -8, "height": -8, "values": [0.0] * 64},
        ],
        ids=["non-numeric-values", "negative-size"],
    )
    def test_malformed_values_are_input_errors(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out = run(capsys, "analyze", "--field", str(bad))
        assert code == 2
        assert not out["ok"]

    @pytest.mark.parametrize("spell", [str, bool], ids=["strings", "booleans"])
    def test_values_that_are_not_numbers_are_input_errors(self, tmp_path, capsys, spell):
        """numpy would read "0.25" as 0.25, so the field spelled out in strings
        would analyze as the field itself."""
        f, _ = realize_torus_circuit(parse_term("1"), 1)
        doc = json.loads(save_field(f))
        doc["values"] = [spell(v) for v in doc["values"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out = run(capsys, "analyze", "--field", str(bad))
        assert code == 2
        assert f"values must be JSON numbers, got {spell.__name__}" in out["error"]

    def test_deeply_nested_field_is_input_error(self, tmp_path, capsys, shallow_stack):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 5000 + "]" * 5000)
        with shallow_stack:
            code, doc = run(capsys, "analyze", "--field", str(deep))
        assert code == 2
        assert "malformed field JSON" in doc["error"]

    @pytest.mark.parametrize(
        "digits,error",
        [(5000, "malformed field JSON"), (400, "int too large to convert to float")],
        ids=["5000-digits", "400-digits"],
    )
    def test_integer_past_the_digit_limit_is_input_error(self, tmp_path, capsys, digits, error):
        f, _ = realize_torus_circuit(parse_term("1"), 1)
        bad = tmp_path / "bad.json"
        bad.write_text(with_long_integer(save_field(f), digits))
        code, doc = run(capsys, "analyze", "--field", str(bad))
        assert code == 2
        assert error in doc["error"]


class TestVerify:
    @pytest.fixture()
    def realized(self, tmp_path, capsys):
        run(
            capsys,
            "realize",
            "--term",
            "wr(1,4)",
            "--case",
            "circuit",
            "--out",
            str(tmp_path),
        )
        return tmp_path

    def test_monkey_saddle_is_input_error(self, tmp_path, capsys):
        """A field that loads but is not PL-Morse is an input error, as it is
        for analyze, not an internal one."""
        _, rec = realize_torus_circuit(parse_term("1"), 1)
        (tmp_path / "field.json").write_bytes(save_field(monkey_saddle_field()))
        (tmp_path / "record.json").write_bytes(rec.to_json())
        code, doc = run(
            capsys,
            "verify",
            "--field",
            str(tmp_path / "field.json"),
            "--record",
            str(tmp_path / "record.json"),
        )
        assert code == 2
        assert not doc["ok"] and "degenerate vertex at (4, 4)" in doc["error"]

    def test_string_values_are_input_error(self, realized, capsys):
        doc = json.loads((realized / "field.json").read_text())
        doc["values"] = [str(v) for v in doc["values"]]
        (realized / "field.json").write_text(json.dumps(doc))
        field, record = str(realized / "field.json"), str(realized / "record.json")
        code, out = run(capsys, "verify", "--field", field, "--record", record)
        assert code == 2
        assert "values must be JSON numbers, got str" in out["error"]

    def test_deeply_nested_field_is_input_error(self, realized, capsys, shallow_stack):
        (realized / "field.json").write_text("[" * 5000 + "]" * 5000)
        field, record = str(realized / "field.json"), str(realized / "record.json")
        with shallow_stack:
            code, doc = run(capsys, "verify", "--field", field, "--record", record)
        assert code == 2
        assert "malformed field JSON" in doc["error"]

    def test_integer_past_the_digit_limit_is_input_error(self, realized, capsys):
        field = realized / "field.json"
        field.write_text(with_long_integer(field.read_bytes()))
        code, doc = run(capsys, "verify", "--field", str(field), "--record", str(realized / "record.json"))
        assert code == 2
        assert "malformed field JSON" in doc["error"]

    def test_round_trip(self, realized, capsys):
        code, doc = run(
            capsys,
            "verify",
            "--field",
            str(realized / "field.json"),
            "--record",
            str(realized / "record.json"),
            "--term",
            "wr(1,4)",
        )
        assert code == 0
        assert doc["ok"]

    @pytest.mark.parametrize("name, key", [("record.json", "n"), ("field.json", "width")])
    def test_fractional_integer_is_input_error(self, realized, capsys, name, key):
        """A float where a JSON integer belongs is refused, not read as the
        integer below it, which would verify ok."""
        doc = json.loads((realized / name).read_text())
        doc[key] += 0.5
        (realized / name).write_text(json.dumps(doc))
        field, record = str(realized / "field.json"), str(realized / "record.json")
        code, out = run(capsys, "verify", "--field", field, "--record", record)
        assert code == 2
        assert "expected an integer" in out["error"]

    @pytest.mark.parametrize("counts", [[], "drop"])
    def test_record_without_designed_counts_is_input_error(self, realized, capsys, counts):
        """Without designed counts `euler` would compare the counts with themselves."""
        doc = json.loads((realized / "record.json").read_text())
        if counts == "drop":
            del doc["designed_counts"]
        else:
            doc["designed_counts"] = counts
        (realized / "record.json").write_text(json.dumps(doc))
        field, record = str(realized / "field.json"), str(realized / "record.json")
        code, doc = run(capsys, "verify", "--field", field, "--record", record)
        assert code == 2
        assert "designed_counts" in doc["error"]

    def test_wrong_term(self, realized, capsys):
        code, doc = run(
            capsys,
            "verify",
            "--field",
            str(realized / "field.json"),
            "--record",
            str(realized / "record.json"),
            "--term",
            "wr(1,5)",
        )
        assert code == 1
        failing = {c["name"] for c in doc["checks"] if not c["ok"]}
        assert "structural_term" in failing or "group_isomorphism" in failing

    def test_term_order_too_long_to_print(self, tmp_path, capsys):
        """The order of wr(wr(1,2),15000) has 4,520 digits, more than Python
        prints; the report gives its size and fails `generated_order`."""
        run(capsys, "realize", "--term", "wr(1,2)", "--case", "circuit", "--out", str(tmp_path))
        field, record = str(tmp_path / "field.json"), str(tmp_path / "record.json")
        term = "wr(wr(1,2),15000)"
        code, doc = run(capsys, "verify", "--field", field, "--record", record, "--term", term)
        assert code == 1
        detail = {c["name"]: (c["ok"], c["detail"]) for c in doc["checks"]}
        want = "generated order 2, term order <15014-bit number>"
        assert detail["generated_order"] == (False, want)

    def test_outside_term_order_is_sized_not_computed(self, tmp_path, capsys, monkeypatch):
        """The order of wr(wr(1,2),300000000) has 300,000,029 bits.  The
        report reads its size off the term and fails `generated_order`
        without computing it, well within a second."""
        run(capsys, "realize", "--term", "wr(1,2)", "--case", "circuit", "--out", str(tmp_path))
        field, record = str(tmp_path / "field.json"), str(tmp_path / "record.json")
        order = verify.order

        def small_only(t):
            assert terms.order_bits(t) < 100_000, "computed an outside term's order"
            return order(t)

        monkeypatch.setattr(verify, "order", small_only)
        term = "wr(wr(1,2),300000000)"
        start = time.perf_counter()
        code, doc = run(capsys, "verify", "--field", field, "--record", record, "--term", term)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        detail = {c["name"]: (c["ok"], c["detail"]) for c in doc["checks"]}
        want = "generated order 2, term order <300000029-bit number>"
        assert detail["generated_order"] == (False, want)

    @pytest.mark.parametrize("kind", ["translation", "rect_cycle"])
    def test_offsets_past_the_c_long_range_wrap(self, tmp_path, capsys, kind):
        """A torus symmetry whose offset or rect origin is moved by 10^400
        grid widths or heights is the same map: it is reduced modulo the grid
        before numpy reads it, and the realization still verifies."""
        base = "wr(1,2)" if kind == "translation" else "wr(wr(1,2),2)"
        run(capsys, "realize", "--term", base, "--case", "circuit", "--out", str(tmp_path))
        doc = json.loads((tmp_path / "record.json").read_bytes())
        sym = next(s for s in doc["symmetries"] if s["kind"] == kind)
        w, h, far = doc["width"], doc["height"], 10**400
        if kind == "translation":
            sym["dx"] += far * w
            sym["dy"] -= far * h
        else:
            sym["rects"][0][0] += far * w
            sym["rects"][-1][1] -= far * h
        (tmp_path / "record.json").write_text(json.dumps(doc))
        argv = ["--field", str(tmp_path / "field.json"), "--record", str(tmp_path / "record.json")]
        code, doc = run(capsys, "verify", *argv)
        assert code == 0 and doc["ok"]

    def test_symmetry_that_is_not_an_object_is_input_error(self, tmp_path, capsys):
        """A symmetry given as a JSON list is a malformed record, reported as
        a JSON error, not an error trace."""
        run(capsys, "realize", "--term", "wr(1,2)", "--case", "circuit", "--out", str(tmp_path))
        doc = json.loads((tmp_path / "record.json").read_bytes())
        doc["symmetries"] = [[1, 2]]
        (tmp_path / "record.json").write_text(json.dumps(doc))
        argv = ["--field", str(tmp_path / "field.json"), "--record", str(tmp_path / "record.json")]
        code, doc = run(capsys, "verify", *argv)
        assert code == 2
        assert not doc["ok"] and "malformed record JSON" in doc["error"]

    def test_corrupted_record(self, tmp_path, capsys):
        run(
            capsys,
            "realize",
            "--term",
            "wr(wr(1,2),2)",
            "--case",
            "circuit",
            "--out",
            str(tmp_path),
        )
        rec = ConstructionRecord.from_json((tmp_path / "record.json").read_bytes())
        for i, sym in enumerate(rec.symmetries):
            if isinstance(sym, RectCycle):
                rects = list(sym.rects)
                r = rects[0]
                rects[0] = Rect(r.x0 + 1, r.y0, r.w, r.h)
                rec.symmetries[i] = RectCycle(tuple(rects))
                break
        (tmp_path / "record.json").write_bytes(rec.to_json())
        code, doc = run(
            capsys,
            "verify",
            "--field",
            str(tmp_path / "field.json"),
            "--record",
            str(tmp_path / "record.json"),
            "--term",
            "wr(wr(1,2),2)",
        )
        assert code == 1
        failing = {c["name"] for c in doc["checks"] if not c["ok"]}
        assert failing & {"record_exactness", "induced_automorphisms"}

    def test_missing_symmetry_fails_order_and_cap_is_gone(self, tmp_path, capsys):
        run(capsys, "realize", "--term", "wr(wr(1,2),3)", "--case", "circuit", "--out", str(tmp_path))
        rec = ConstructionRecord.from_json((tmp_path / "record.json").read_bytes())
        rec.symmetries = [s for s in rec.symmetries if not isinstance(s, RectCycle)]
        (tmp_path / "record.json").write_bytes(rec.to_json())
        argv = ["verify", "--field", str(tmp_path / "field.json"), "--record", str(tmp_path / "record.json")]
        code, doc = run(capsys, *argv)
        assert code == 1
        failing = {c["name"] for c in doc["checks"] if not c["ok"]}
        assert "generated_order" in failing
        # a small group cap once let this record pass as "closure beyond cap"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--cap", "1"])
        assert exc.value.code == 2


    def test_mixed_slot_terms_fail_checks_not_the_run(self, tmp_path, capsys):
        run(capsys, "realize", "--term", "wr(wr(1,2),2)", "--case", "circuit", "--out", str(tmp_path))
        rec = ConstructionRecord.from_json((tmp_path / "record.json").read_bytes())
        rec.slots[0].term = parse_term("wr(1,3)")
        (tmp_path / "record.json").write_bytes(rec.to_json())
        argv = ["verify", "--field", str(tmp_path / "field.json"), "--record", str(tmp_path / "record.json")]
        code, doc = run(capsys, *argv)
        assert code == 1
        checks = {c["name"]: c for c in doc["checks"]}
        assert not checks["structural_term"]["ok"]
        assert checks["structural_term"]["detail"] == "circuit slots carry different terms"
        assert not checks["group_isomorphism"]["ok"]
        assert checks["group_isomorphism"]["detail"].startswith("could not pair")
        failing = {name for name, c in checks.items() if not c["ok"]}
        assert failing == {"structural_term", "group_isomorphism"}
        assert "aut_containment" in checks


class TestDeterminism:
    def test_realize_byte_identical(self, tmp_path, capsys):
        run(capsys, "realize", "--term", "wr(1,3)", "--case", "circuit", "--out", str(tmp_path / "a"))
        run(capsys, "realize", "--term", "wr(1,3)", "--case", "circuit", "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "field.json").read_bytes() == (
            tmp_path / "b" / "field.json"
        ).read_bytes()
        assert (tmp_path / "a" / "record.json").read_bytes() == (
            tmp_path / "b" / "record.json"
        ).read_bytes()


class TestCorpusCommand:
    def test_out_naming_a_file_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        def unreachable():
            raise AssertionError("corpus ran despite an unusable --out")

        monkeypatch.setattr("kronrod.cli.corpus_summary", unreachable)
        (tmp_path / "taken").write_text("")
        code, doc = run(capsys, "corpus", "--out", str(tmp_path / "taken"))
        assert code == 2
        assert not doc["ok"] and "taken" in doc["error"]

    def test_corpus_runs_clean(self, tmp_path, capsys):
        code, doc = run(capsys, "corpus", "--out", str(tmp_path))
        assert code == 0
        assert doc["ok"]
        assert doc["realizations"] >= 20
        data = (tmp_path / "summary.json").read_bytes()
        assert all(r["ok"] for r in json.loads(data)["realizations"])
        # the corpus output is pinned byte for byte; a change to it re-pins
        # this digest and logs the difference
        digest = "bffb5f0a7d2c4d6edc57344ba9d3ec5695c39fef067837d170c1fb6707a039ea"
        assert hashlib.sha256(data).hexdigest() == digest
