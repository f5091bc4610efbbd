"""Traced runs repeat their counts; the benchmark refuses to run without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import wildcycle.turrittin
from harness import measure
from tracer import PER_LAYER, Tracer, layer_totals
from workloads import _corpus, _decompose_op, cli_documents, _cli_op

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def small_ops():
    cases = _corpus()
    return [_decompose_op(n, cases[n], cases[n].connection)
            for n in ("irr-rank2-split", "irr-rank1-pole2", "reg-rank2-imag")]


def _traced_counts(ops):
    tracer = Tracer()
    tracer.install()
    try:
        run = measure(ops, 0, tracer, min_passes=2)
    finally:
        tracer.restore()
    assert run["counts_repeat"]
    assert not run["stats"].wrong and not run["stats"].failed
    return {k: v for k, v in run["per_layer"].items() if k.endswith("_calls")}


def test_two_traced_runs_give_identical_counts(small_ops):
    first = _traced_counts(small_ops)
    second = _traced_counts(list(reversed(small_ops)))
    assert first == second
    assert first["turrittin.formal_decompose_calls"] == 3
    assert first["cyclotomic.cyc_mul_calls"] > 0


def test_restore_unwraps_every_target():
    original = wildcycle.turrittin.formal_decompose
    tracer = Tracer()
    tracer.install()
    assert wildcycle.turrittin.formal_decompose is not original
    tracer.restore()
    assert wildcycle.turrittin.formal_decompose is original


def test_benchmark_lists_exactly_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == PER_LAYER


def test_layer_totals_count_outermost_spans_once():
    spans = [["a", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 5.0, 7.0, 0]]
    inclusive, own = layer_totals(spans, 0, len(spans))
    assert inclusive == {"a": 10.0, "b": 2.0}
    assert own == {"a": 5.0 + 3.0, "b": 2.0}


def test_traced_cli_call_reports_its_layers(tmp_path):
    docs = cli_documents(tmp_path / "docs")
    name, path, _, expect = docs[0]
    tracer = Tracer()
    op = _cli_op(ROOT, tracer, name, path, "mellin", expect, tmp_path)
    result, _ = op.run()
    op.check(result)
    assert tracer.counts["cli.import"] == 1
    assert tracer.counts["document.parse"] == 1
    assert tracer.counts["cli.run_command"] == 1


def test_run_exits_nonzero_without_the_engine(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
