import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, run, workloads
from perfbench.workloads import Op

ROOT = Path(__file__).resolve().parents[2]


def test_export_gate_catches_one_flipped_byte(tmp_path):
    from cyclat import poset

    n = workloads.DIAGRAM_N
    path = tmp_path / "cp.dot"
    path.write_text(poset.to_dot(poset.build(n)))
    assert workloads.export_digest_error(path, n, "dot") is None
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
    assert "digest" in workloads.export_digest_error(path, n, "dot")


def test_wrong_or_raising_outputs_count_as_failed():
    def boom():
        raise RuntimeError("x")
    tally = run.Tally()
    for index, op in enumerate([Op("ok", lambda: 1, lambda out: None),
                                Op("wrong", lambda: 1, lambda out: "wrong answer"),
                                Op("raises", boom, lambda out: None)]):
        run.run_op(op, index, tally)
    assert tally.attempted == 3 and len(tally.errors) == 2
    assert list(tally.times) == [0] and tally.kinds == {0: "ok"}


def test_modularity_witness_gate():
    verify = workloads.Verify(workloads.import_program(), 0, ROOT)
    op = verify._op("modularity", 6)
    report = op.run()
    assert op.check(report) is None
    report.witness = dict(report.witness, ranks=[0, 0, 0, 0])
    assert "witness" in op.check(report)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_element_references_agree_with_the_program(n):
    from cyclat import affine, kernels, perm, vectors

    for sigma in perm.all_cycles(n):
        word = sigma.canon
        flat = workloads.word_vector(word)
        assert flat == kernels.word_vector(word)
        v = vectors.AdmittedVector(n, flat)
        assert workloads.window_entries(n, flat) == affine.window_of_vector(v).entries
        assert workloads.reference_covers(word, up=True) == [
            (label.as_pair(), tau.canon) for label, tau in perm.covers_up(sigma)]
        assert workloads.reference_covers(word, up=False) == [
            (label.as_pair(), tau.canon) for label, tau in perm.covers_down(sigma)]


def test_element_queries_are_seeded_and_pass():
    program = workloads.import_program()
    first = workloads.Elements(program, 5, ROOT)
    again = workloads.Elements(program, 5, ROOT)
    assert [op.kind for op in first.ops] == [op.kind for op in again.ops]
    assert {op.kind for op in first.ops} == set(workloads.QUERY_KINDS)
    tally = run.Tally()
    for index, op in enumerate(first.ops[:300]):
        run.run_op(op, index, tally)
    assert tally.errors == []


def test_reference_comparison():
    rng = random.Random(0)
    word = workloads.random_word(rng, 8)
    above = workloads.walk_up(rng, word, 2)
    assert workloads.componentwise(workloads.word_vector(word),
                                   workloads.word_vector(above)) == "LT"


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == layers.metric_specs()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
