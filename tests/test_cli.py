"""The command-line surface: forms, subcommands, exit codes."""

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from cyclat import cli
from cyclat.cli import main, parse_element


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConvert:
    def test_cycle_to_vector(self, capsys):
        code, out, _ = run(capsys, "convert", "(1,2,3,4)", "--to", "vector")
        assert code == 0
        assert out.strip() == "[[0,0,0],[0,0],[0]]"

    def test_cycle_to_window(self, capsys):
        code, out, _ = run(capsys, "convert", "(1,4,3,2)", "--to", "window")
        assert code == 0
        assert out.strip() == "[-2,1,4,7]"

    def test_window_to_cycle(self, capsys):
        code, out, _ = run(capsys, "convert", "[-2,1,4,7]", "--to", "cycle")
        assert code == 0
        assert out.strip() == "(1,4,3,2)"

    def test_vector_rows_to_cycle(self, capsys):
        code, out, _ = run(capsys, "convert", "[[0,0,1],[0,1],[0]]",
                           "--to", "cycle")
        assert code == 0
        assert out.strip().startswith("(")

    def test_json_object_forms(self, capsys):
        code, out, _ = run(capsys, "convert", '{"n":4,"v":[[0,0,0],[0,0],[0]]}',
                           "--to", "cycle")
        assert code == 0 and out.strip() == "(1,2,3,4)"
        code, out, _ = run(capsys, "convert", '{"n":4,"window":[-2,1,4,7]}',
                           "--to", "cycle")
        assert code == 0 and out.strip() == "(1,4,3,2)"

    def test_any_rotation_accepted(self, capsys):
        code, out, _ = run(capsys, "convert", "(3,4,1,2)", "--to", "cycle")
        assert code == 0
        assert out.strip() == "(1,2,3,4)"

    def test_roundtrip_through_all_forms(self, capsys):
        import random
        rng = random.Random(3)
        for _ in range(20):
            rest = list(range(2, 7))
            rng.shuffle(rest)
            text = "(1," + ",".join(map(str, rest)) + ")"
            _, vec_text, _ = run(capsys, "convert", text, "--to", "vector")
            _, win_text, _ = run(capsys, "convert", vec_text.strip(),
                                 "--to", "window")
            _, back, _ = run(capsys, "convert", win_text.strip(), "--to", "cycle")
            assert back.strip() == text

    def test_vector_roundtrip_at_six(self, capsys):
        import random
        from cyclat.vectors import cycle_to_vector
        from cyclat.perm import CircularPermutation
        rng = random.Random(8)
        for _ in range(15):
            rest = list(range(2, 7))
            rng.shuffle(rest)
            rows = cycle_to_vector(CircularPermutation((1, *rest))).rows()
            text = json.dumps(rows, separators=(",", ":"))
            _, cyc, _ = run(capsys, "convert", text, "--to", "cycle")
            _, back, _ = run(capsys, "convert", cyc.strip(), "--to", "vector")
            assert back.strip() == text

    def test_parse_error_exits_two(self, capsys):
        code, _, err = run(capsys, "convert", "(1,2,2)", "--to", "vector")
        assert code == 2
        assert "error" in err

    def test_non_admitted_vector_diagnosed(self, capsys):
        code, _, err = run(capsys, "convert", "[[0,2],[0]]", "--to", "cycle")
        assert code == 2
        assert "(1,2,3)" in err or "defect" in err

    def test_non_interval_window_diagnosed(self, capsys):
        for window in ("[2,1,3,4]", "[-2,2,6]"):
            code, _, err = run(capsys, "convert", window, "--to", "cycle")
            assert code == 2
            assert "interval" in err

    def test_forced_form_flag(self, capsys):
        code, out, _ = run(capsys, "convert", "[1,2,3,4]", "--as", "window",
                           "--to", "cycle")
        assert code == 0 and out.strip() == "(1,2,3,4)"

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_form_parses_back_detected(self, capsys, n):
        # Each form's text is detected as that form, order 1's vector "[]"
        # included, and converts back to the element it came from.
        from cyclat.perm import all_cycles

        for sigma in all_cycles(n):
            for form in ("cycle", "vector", "window"):
                code, text, _ = run(capsys, "convert", sigma.as_text(), "--to", form)
                assert code == 0
                assert parse_element(text)[0] == form
                code, back, _ = run(capsys, "convert", text.strip(), "--to", "cycle")
                assert code == 0 and back.strip() == sigma.as_text()

    @pytest.mark.parametrize("text", ["[]", "[ ]", " [\t] "])
    def test_empty_brackets_are_order_one_vector(self, capsys, text):
        assert parse_element(text)[0] == "vector"
        code, out, _ = run(capsys, "convert", text, "--to", "cycle")
        assert code == 0 and out.strip() == "(1)"


class TestLattice:
    def test_join(self, capsys):
        code, out, _ = run(capsys, "lattice", "join",
                           "(1,4,2,3,5)", "(1,3,4,2,5)")
        assert code == 0 and out.strip() == "(1,3,5,4,2)"

    def test_meet(self, capsys):
        code, out, _ = run(capsys, "lattice", "meet",
                           "(1,4,2,3,5)", "(1,3,4,2,5)")
        assert code == 0 and out.strip() == "(1,4,2,5,3)"

    def test_join_with_bottom(self, capsys):
        code, out, _ = run(capsys, "lattice", "join",
                           "(1,5,2,3,4)", "(1,2,3,4,5)")
        assert code == 0 and out.strip() == "(1,5,2,3,4)"

    def test_result_in_input_incarnation(self, capsys):
        code, out, _ = run(capsys, "lattice", "join",
                           "[-2,1,4,7]", "[1,2,3,4]")
        assert code == 0 and out.strip() == "[-2,1,4,7]"


# SHA-256 of `cyclat poset 8` in each format, as the benchmark's export
# gate pins them.
ORDER_EIGHT_DIGESTS = {
    "json": "3a6375a671cf336781579edb294fa4de67dd5b46b11f34eda4431473d5e7781f",
    "dot": "0fc6c970f2bb628955b946496265a924e1e310adb1701f1b35db10ff1030d179",
}


class TestPoset:
    def test_json_export(self, capsys):
        code, out, _ = run(capsys, "poset", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["nodes"]) == 24

    def test_dot_export_counts(self, capsys):
        code, out, _ = run(capsys, "poset", "4", "--format", "dot")
        assert code == 0
        assert out.count(" -> ") == 6
        assert out.count("label=") == 6 + 6  # node labels + edge labels

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_one_write_per_block(self, monkeypatch, fmt):
        # the export's pieces are blocks already; the writer passes each
        # on as it arrives, with no second buffering
        from cyclat import poset

        class Handle:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

            def flush(self):
                pass

        monkeypatch.setattr(poset, "EXPORT_BLOCK", 16)
        pieces = list(poset.export_pieces(5, fmt))
        assert len(pieces) > 6
        handle = Handle()
        monkeypatch.setattr(cli.sys, "stdout", handle)
        cli._write(iter(pieces))
        assert handle.writes == pieces

    def test_file_output_and_determinism(self, tmp_path, capsys):
        path = tmp_path / "a.dot"
        assert run(capsys, "poset", "5", "--out", str(path))[0] == 0
        # the pinned digest of to_dot(build(5)) in test_poset.py
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "141306d2fdd5ed89995729439ffe894cba8c62e71e2cede659c32f6d57093f2a"

    def test_workers_option_removed(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["poset", "5", "--workers", "4"])
        assert info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_cap_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("CYCLAT_MAX_N", "4")
        code, _, err = run(capsys, "poset", "6")
        assert code == 2 and "cap" in err

    def test_refusal_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # the order is refused before the output is opened
        monkeypatch.setenv("CYCLAT_MAX_N", "4")
        path = tmp_path / "P"
        assert run(capsys, "poset", "6", "--out", str(path))[0] == 2
        assert not path.exists()
        path.write_bytes(b"old bytes")
        assert run(capsys, "poset", "6", "--out", str(path))[0] == 2
        assert path.read_bytes() == b"old bytes"

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_orders_below_one_leave_no_file(self, tmp_path, capsys, n, fmt):
        path = tmp_path / "P"
        code, out, err = run(capsys, "poset", n, "--format", fmt, "--out", str(path))
        assert code == 2 and out == "" and "order must be >= 1" in err
        assert not path.exists()
        path.write_bytes(b"old bytes")
        assert run(capsys, "poset", n, "--format", fmt, "--out", str(path))[0] == 2
        assert path.read_bytes() == b"old bytes"

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_stream_matches_the_built_diagram(self, tmp_path, n, fmt):
        from cyclat import poset

        path = tmp_path / f"p.{fmt}"
        assert main(["poset", str(n), "--format", fmt, "--out", str(path)]) == 0
        render = poset.to_json if fmt == "json" else poset.to_dot
        assert path.read_bytes() == render(poset.build(n)).encode()

    def test_export_builds_no_diagram(self, capsys, monkeypatch):
        from cyclat import poset

        def refuse(n):
            raise AssertionError("cyclat poset built a diagram")

        monkeypatch.setattr(poset, "build", refuse)
        for fmt in ("json", "dot"):
            code, out, _ = run(capsys, "poset", "6", "--format", fmt)
            assert code == 0 and out.endswith("}\n")

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_pinned_order_eight_digests(self, tmp_path, fmt):
        path = tmp_path / f"p.{fmt}"
        assert main(["poset", "8", "--format", fmt, "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ORDER_EIGHT_DIGESTS[fmt]

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_stdout_and_file_agree(self, tmp_path, capsys, fmt):
        path = tmp_path / f"p.{fmt}"
        code, out, _ = run(capsys, "poset", "6", "--format", fmt)
        assert code == 0
        assert run(capsys, "poset", "6", "--format", fmt, "--out", str(path))[0] == 0
        assert path.read_bytes() == out.encode()

    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_unwritable_out_exits_two(self, tmp_path, capsys, target):
        # a path under a missing directory, and a directory
        path = tmp_path / target
        code, out, err = run(capsys, "poset", "4", "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1  # the diagnostic alone, no traceback

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_export_memory_stays_below_the_diagram(self, tmp_path, fmt):
        # The export streams from the enumeration and holds neither the
        # text nor a diagram: its traced peak at n = 8 stays under a
        # quarter of that of rendering build(8) as one string.  It
        # measures 0.216 (JSON) and 0.180 (DOT); `cli._write_blocks`
        # writes each block as it comes and holds none.
        import gc
        import tracemalloc

        from cyclat.poset import build, to_dot, to_json

        def traced_peak(call):
            gc.collect()
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        argv = ["poset", "8", "--format", fmt, "--out", str(tmp_path / "p")]
        assert main(argv) == 0  # first-use caches fill outside the measurement
        export = traced_peak(lambda: main(argv))
        render = to_json if fmt == "json" else to_dot
        whole = traced_peak(lambda: render(build(8)))
        assert export < whole / 4, (export, whole)


# SHA-256 of the `check all n --json` reports with "elapsed" and
# "phases" dropped, dumped with sorted keys: any change to a verdict, a
# witness or a count breaks these.
CHECK_DIGESTS = {
    1: "d1178c0c914eaf46a3968008e9483a118053192a6edfe97342ad67fa0ba9c5f0",
    2: "4cf1e4d371d7d57348649b7ce1a03486740cea4705424f077f4a4847f3aea81f",
    3: "23d77c04796a30eea8f35c7df3ee9ef5e13b63e6e75085fc61c8daf60c3c4e0b",
    4: "791d41c90dca9c3d1fb3d3dfe0a7dc7d037e723b93b463f67bafe4da0ab484b9",
    5: "88dc885438fddf5c27e9b081868c7dc52d6afb4827d72f680e7b9eecb2683614",
    6: "33b8bb6b7660b493f9ae6d2a6961302347ccdf836718d80f0e1bf12e2f66628b",
    7: "240e9b3c9e4aca47432a827916e7610632ed25c4fc796f4e9c55348614a9259f",
    # from n = 7 on, `lattice` tests the bounds on seeded pairs
    8: "d5dddfd7d6c28460b8e48b02b6e5bf006fbc9201b342b6209db8807f489302b2",
}


class TestCheck:
    @pytest.mark.parametrize("n", sorted(CHECK_DIGESTS))
    def test_pinned_check_digests(self, capsys, n):
        code, out, _ = run(capsys, "check", "all", str(n), "--json")
        reports = json.loads(out)
        for report in reports:
            del report["elapsed"], report["phases"]
        text = json.dumps(reports, sort_keys=True)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == CHECK_DIGESTS[n]

    def test_single_check_passes(self, capsys):
        code, out, _ = run(capsys, "check", "eulerian", "5")
        assert code == 0 and "[PASS]" in out

    def test_modularity_witness(self, capsys):
        code, out, _ = run(capsys, "check", "modularity", "5", "--json")
        assert code == 0
        payload = json.loads(out)[0]
        assert payload["pass"] and payload["witness"]["ranks"] == [4, 4, 3, 6]

    def test_check_all_small(self, capsys):
        code, out, _ = run(capsys, "check", "all", "4")
        assert code == 0
        assert out.count("[PASS]") == 10

    def test_unknown_check_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "nonsense", "4")
        assert code == 2 and "unknown check" in err

    def test_cap_refused_before_enumeration(self, capsys, monkeypatch):
        from cyclat import oracle, poset

        def enumerate_anyway(n):
            raise AssertionError(f"enumerated order {n}")

        monkeypatch.setattr(poset, "_cover_rows", enumerate_anyway)
        monkeypatch.setattr(poset, "cover_histogram", enumerate_anyway)
        monkeypatch.setattr(oracle, "descents_by_scan", enumerate_anyway)
        code, out, err = run(capsys, "check", "eulerian", "11")
        assert code == 2 and out == ""
        assert "order 11 exceeds the cap 10" in err

    def test_eulerian_streams_one_order_above_the_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CYCLAT_MAX_N", "4")
        code, out, _ = run(capsys, "check", "eulerian", "4")
        assert code == 0 and "[PASS] eulerian n=4" in out
        code, out, err = run(capsys, "check", "eulerian", "5")
        assert code == 2 and out == ""
        assert "order 5 exceeds the cap 4" in err

    def test_check_all_at_the_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CYCLAT_MAX_N", "4")
        code, out, _ = run(capsys, "check", "all", "4")
        assert code == 0
        assert out.count("[PASS]") == 10

    def test_eulerian_order_zero_passes(self, capsys):
        code, out, _ = run(capsys, "check", "eulerian", "0")
        assert code == 0 and "[PASS] eulerian n=0" in out

    @pytest.mark.parametrize("name", ["grading", "eulerian", "lattice", "mobius",
                                      "semidistributive", "modularity", "young",
                                      "triangulation", "interval", "alpha"])
    def test_every_check_refuses_over_cap(self, monkeypatch, name):
        from cyclat import checks
        from cyclat.errors import CapExceededError
        monkeypatch.setenv("CYCLAT_MAX_N", "4")
        with pytest.raises(CapExceededError):
            checks.run_check(name, 6)

    @pytest.mark.parametrize("name", sorted(cli.checks.CHECKS))
    def test_every_check_refuses_negative_order(self, capsys, name):
        code, out, err = run(capsys, "check", name, "-5")
        assert code == 2 and out == ""
        assert "order must be >= 1" in err

    def test_interval_refuses_order_zero(self, capsys):
        code, out, err = run(capsys, "check", "interval", "0")
        assert code == 2 and out == ""
        assert err == "error: order must be >= 1, got 0\n"

    @pytest.mark.parametrize("raw", ["abc", "\u0669"])  # U+0669 is Arabic-Indic 9
    def test_cap_must_be_ascii_digits(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("CYCLAT_MAX_N", raw)
        code, out, err = run(capsys, "check", "grading", "4")
        assert code == 2 and out == ""
        assert err == f"error: CYCLAT_MAX_N must be a decimal integer, got {raw!r}\n"

    def test_interval_refused_over_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CYCLAT_MAX_N", "4")
        code, out, err = run(capsys, "check", "interval", "6")
        assert code == 2 and out == ""
        assert "order 6 exceeds the cap 4" in err

    def test_lattice_reports_a_join_off_the_nodes(self, capsys, monkeypatch):
        from cyclat import lanes
        column_joins = lanes._column_joins

        def last_plus_one(n, size, us, vs):
            out = column_joins(n, size, us, vs)
            return out[:-1] + [out[-1] + int.from_bytes(b"\1" * size, "big")]

        monkeypatch.setattr(lanes, "_column_joins", last_plus_one)
        code, out, err = run(capsys, "check", "lattice", "4", "--json")
        assert code == 1 and err == ""
        (report,) = json.loads(out)
        assert not report["pass"]
        assert report["witness"]["op"] == "join"
        assert len(report["witness"]["pair"]) == 2

    def test_lattice_reports_a_join_not_least(self, capsys, monkeypatch):
        from cyclat import lanes
        monkeypatch.setattr(lanes, "_column_joins", lambda n, size, us, vs: list(us))
        code, out, err = run(capsys, "check", "lattice", "4")
        assert code == 1 and err == ""
        assert "[FAIL] lattice n=4" in out and "'op': 'join'" in out

    def test_report_schema(self, capsys, monkeypatch):
        # {check, n, pass, witness?, stats, phases, elapsed}, in this
        # order; the witness only where a check pins one or fails.  A
        # wrong formula fails alpha on its certificate, which still
        # counts its steps
        from cyclat import poset
        monkeypatch.setattr(poset, "conjugator_formula", lambda n: tuple(range(1, n + 1)))
        code, out, _ = run(capsys, "check", "all", "5", "--json")
        assert code == 1
        reports = json.loads(out)
        witnessed = {r["check"]: r["witness"] for r in reports if "witness" in r}
        assert set(witnessed) == {"modularity", "alpha"}
        assert witnessed["alpha"] == {"stage": "maximal chain", "alpha": [5, 4, 3, 2, 1],
                                      "expected": [1, 2, 3, 4, 5]}
        for report in reports:
            keys = ["check", "n", "pass", "witness", "stats", "phases", "elapsed"]
            if "witness" not in report:
                keys.remove("witness")
            assert list(report) == keys
            assert type(report["check"]) is str and report["n"] == 5
            assert type(report["pass"]) is bool
            assert type(report.get("witness", {})) is dict
            assert type(report["stats"]) is dict
            assert list(report["phases"]) == ["build", "masks", "scan"]
            assert all(type(s) is float and s >= 0
                       for s in [*report["phases"].values(), report["elapsed"]])
        stats = {r["check"]: r["stats"] for r in reports}
        assert stats["lattice"] == {"pairs": 576}
        assert stats["mobius"] == {"irreducibles": 11, "declined": 0, "crosscut": 0}
        assert stats["semidistributive"] == {"irreducibles": 11, "declined": 0}
        assert stats["young"] == {"k": 2, "rank_sizes": {"0": 1, "1": 1, "2": 2}}
        assert stats["triangulation"] == {"triangulations": 5, "vectors": 24}
        assert stats["alpha"] == {"steps": 36}

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        from cyclat import checks
        monkeypatch.setitem(checks.CHECKS, "grading",
                            lambda n: (False, {"forced": True}))
        code, out, _ = run(capsys, "check", "grading", "4")
        assert code == 1 and "[FAIL]" in out


def run_child(argv, stdout):
    """`cyclat argv` in a fresh interpreter that imports this `cyclat`,
    writing to the file descriptor `stdout`; returns (code, stderr)."""
    import subprocess
    import sys

    import cyclat
    paths = [os.path.dirname(os.path.dirname(cyclat.__file__))]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    out = subprocess.run([sys.executable, "-m", "cyclat.cli", *argv], stdout=stdout,
                         stderr=subprocess.PIPE, text=True, timeout=120,
                         env={"PATH": "/usr/bin:/bin",
                              "PYTHONPATH": os.pathsep.join(paths)})
    return out.returncode, out.stderr


class TestOrderArgument:
    """`poset`, `check` and `fc` read the order as ASCII digits with an
    optional leading "-", and nothing else."""

    COMMANDS = [["poset"], ["check", "grading"], ["fc"]]

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("text", ["1_0", "\u0663", "+3", " 4", "4 ", "4\n", ""])
    def test_refuses_anything_but_ascii_digits(self, capsys, command, text):
        # U+0663 is Arabic-Indic 3, which int() would read as 3
        with pytest.raises(SystemExit) as info:
            main([*command, text])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument n: order must be a decimal integer, got {text!r}" in captured.err

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_negative_order_is_below_one(self, capsys, command):
        code, out, err = run(capsys, *command, "-1")
        assert code == 2 and out == ""
        assert err == "error: order must be >= 1, got -1\n"


class TestUnwritableStdout:
    """Every subcommand writes through one writer: an output that cannot
    be written exits 2 with one diagnostic line, never a traceback."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["check", "grading", "5", "--json"],
                                      ["rank", "(1,3,2,4)"],
                                      ["poset", "5"]])
    def test_full_device_exits_two(self, argv):
        with open("/dev/full", "w") as full:
            code, err = run_child(argv, full)
        assert code == 2
        assert err == "error: cannot write standard output: No space left on device\n"

    @pytest.mark.parametrize("argv", [["check", "all", "6", "--json"],
                                      ["covers", "(1,3,2,4)"],
                                      ["poset", "5"]])
    def test_closed_pipe_exits_two(self, argv):
        # the reader is gone before the first write, as after `| head -c 10`
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, err = run_child(argv, write_end)
        finally:
            os.close(write_end)
        assert code == 2
        assert err == "error: cannot write standard output: Broken pipe\n"


class TestSmallCommands:
    def test_rank(self, capsys):
        code, out, _ = run(capsys, "rank", "(1,6,4,2,3,5)")
        assert code == 0 and out.strip() == "8"

    def test_rank_of_window(self, capsys):
        code, out, _ = run(capsys, "rank", "[-5,-1,3,7,11]")
        assert code == 0 and out.strip() == "10"

    def test_rank_refuses_a_negative_entry(self, capsys):
        code, out, err = run(capsys, "rank", "[[0,-1],[0]]")
        assert code == 2 and out == ""
        assert err == "error: negative entry\n"

    def test_covers(self, capsys):
        code, out, _ = run(capsys, "covers", "(1,2,3,4,5)", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["up"] == [[[1, 5], "(1,5,2,3,4)"]]
        assert payload["down"] == []

    def test_fc(self, capsys):
        code, out, _ = run(capsys, "fc", "5")
        assert code == 0 and out.strip() == "[-5,-1,3,7,11]"

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_fc_refuses_orders_below_one(self, capsys, n):
        code, out, err = run(capsys, "fc", n)
        assert code == 2 and out == ""
        assert err == f"error: order must be >= 1, got {n}\n"

    def test_alpha_maximal(self, capsys):
        code, out, _ = run(capsys, "alpha", "(1,2,3,4,5)", "(1,5,4,3,2)")
        assert code == 0 and out.strip() == "5,4,3,2,1"

    def test_alpha_incomparable_exits_two(self, capsys):
        code, _, err = run(capsys, "alpha", "(1,4,2,3,5)", "(1,3,4,2,5)")
        assert code == 2 and "not below" in err


class TestParseElement:
    def test_detection(self):
        assert parse_element("(1,2,3)")[0] == "cycle"
        assert parse_element("[[0,0],[0]]")[0] == "vector"
        assert parse_element("[1,2,3]")[0] == "window"

    def test_mixed_orders_rejected(self, capsys):
        code, _, err = run(capsys, "lattice", "join", "(1,2,3)", "(1,2,3,4)")
        assert code == 2

    @pytest.mark.parametrize("element", [
        '{"window":5}',
        '{"window":["a",2]}',
        '{"v":[[0,1.5],[0]]}',
        '[[0,true],[0]]',
        '{"n":7,"v":[[0,1],[0]]}',
        "[" * 3000 + "]" * 3000,
        '{"v":' + "[" * 3000 + "]" * 3000 + "}",
        "(1,2,\u0663)",
        "[ +1, 2 ]",
        "[1_0,2]",
    ])
    def test_malformed_input_exits_two(self, capsys, element):
        code, out, err = run(capsys, "rank", element)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("forced", [[], ["--as", "vector"], ["--as", "window"]])
    def test_json_element_with_both_keys_refused(self, capsys, forced):
        # read as either key, the text would name two different elements
        element = '{"v":[[0,0],[0]],"window":[1,2]}'
        code, out, err = run(capsys, "rank", *forced, element)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and '"v" and "window"' in err

    @pytest.mark.parametrize("element", [
        '{"n":3,"v":[[0,0],[0]],"w":1}',
        '{"window":[1,2,3],"rank":0}',
        '{"v":[[0,0],[0]],"V":[]}',
    ])
    def test_json_element_with_unknown_keys_refused(self, capsys, element):
        code, out, err = run(capsys, "rank", element)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "unknown keys" in err

    def test_forced_form_needs_its_json_key(self, capsys):
        code, _, err = run(capsys, "rank", "--as", "vector", '{"window":[1,2]}')
        assert code == 2 and '"v" key' in err

    def test_json_object_parsed_once(self, monkeypatch):
        calls = []
        loads = cli.json.loads

        def counting_loads(text, *args, **kwargs):
            calls.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(cli.json, "loads", counting_loads)
        form, v = parse_element('{"n":4,"v":[[0,1,2],[0,1],[0]]}')
        assert form == "vector" and v.rank == 4
        assert len(calls) == 1


# Texts near each element form: valid cycles, cycle/window/vector literals
# with arbitrary small entries, JSON objects over the keys the CLI reads,
# and free text.
_entries = st.lists(st.integers(-12, 12), max_size=7)
# entry texts over digits, signs, spaces, underscores and a non-ASCII digit
_entry_texts = st.lists(st.text(alphabet="0123456789-+_ \u0663", max_size=4),
                        max_size=7).map(",".join)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9)
    | st.floats(allow_nan=False, allow_infinity=False, width=16) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["n", "v", "window"]), inner, max_size=3),
    max_leaves=12)
_element_texts = st.one_of(
    st.integers(1, 7).flatmap(lambda n: st.permutations(range(1, n + 1)))
    .map(lambda word: "(" + ",".join(map(str, word)) + ")"),
    _entries.map(lambda xs: "(" + ",".join(map(str, xs)) + ")"),
    _entries.map(lambda xs: "[" + ",".join(map(str, xs)) + "]"),
    _entry_texts.map(lambda body: "(" + body + ")"),
    _entry_texts.map(lambda body: "[" + body + "]"),
    st.lists(st.lists(st.integers(-1, 4), max_size=6), max_size=6)
    .map(lambda rows: json.dumps(rows, separators=(",", ":"))),
    st.fixed_dictionaries({}, optional={"n": _json_values | st.integers(1, 7),
                                        "v": _json_values, "window": _json_values})
    .map(json.dumps),
    st.text(max_size=12),
)


class TestFuzz:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(command=st.sampled_from(["rank", "convert", "covers", "lattice"]),
           forced=st.sampled_from([[], ["--as", "cycle"], ["--as", "vector"],
                                   ["--as", "window"]]),
           x=_element_texts, y=_element_texts,
           target=st.sampled_from(["cycle", "vector", "window"]),
           op=st.sampled_from(["join", "meet"]))
    def test_no_exception_escapes(self, command, forced, x, y, target, op):
        if command == "convert":
            argv = ["convert", "--to", target, *forced, "--", x]
        elif command == "lattice":
            argv = ["lattice", op, *forced, "--", x, y]
        else:
            argv = [command, *forced, "--", x]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2)
        assert (code == 0) == (err.getvalue() == "")


class TestDegenerateOrders:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_check_all_small_orders(self, capsys, n):
        code, out, _ = run(capsys, "check", "all", str(n))
        assert code == 0
        assert out.count("[PASS]") == 10

    def test_single_letter_cycle(self, capsys):
        code, out, _ = run(capsys, "convert", "(1)", "--to", "window")
        assert code == 0 and out.strip() == "[1]"

    def test_rank_of_trivial(self, capsys):
        code, out, _ = run(capsys, "rank", "(1,2)")
        assert code == 0 and out.strip() == "0"


class TestJsonEverywhere:
    def test_convert_json(self, capsys):
        code, out, _ = run(capsys, "convert", "(1,4,3,2)", "--to", "window",
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"n": 4, "from": "cycle", "to": "window",
                           "value": "[-2,1,4,7]"}

    def test_fc_json(self, capsys):
        code, out, _ = run(capsys, "fc", "4", "--json")
        assert code == 0
        assert json.loads(out) == {"n": 4, "window": [-2, 1, 4, 7]}
