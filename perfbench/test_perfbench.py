"""Checks of the benchmark itself; no timing is ever asserted.

    PYTHONPATH=src python -m pytest perfbench

The sweeps must agree with `mpjlab verify`, tracing must change no count or
bit, failures must be counted and replayable, and a vacuous or source-less
run must be refused.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import worker
from workloads import WORKLOADS, Workload

worker.import_package()
from mpjlab.cli import main as cli_main  # noqa: E402

HERE = Path(__file__).resolve().parent
SEED = 5
SWEEPS = [w for w in WORKLOADS.values() if w.kind != "attack"]


def _ids(w: Workload) -> str:
    return w.name


@pytest.mark.parametrize("w", SWEEPS, ids=_ids)
def test_sweep_matches_cli_verify(w, tmp_path):
    result = worker.run_pass(w, SEED, traced=False, out_dir=tmp_path)
    out = tmp_path / "verify.json"
    argv = ["verify", "--protocol", w.protocols[0], "--n", str(w.n), "--k", str(w.k),
            "--seed", str(SEED), "--format", "json", "--output", str(out)]
    if w.d is not None:
        argv += ["--d", str(w.d)]
    argv += ["--exhaustive"] if w.kind == "exhaustive" else ["--samples", str(w.samples)]
    assert cli_main(argv) == 0
    cli = json.loads(out.read_text())
    assert result["ops"] == cli["checked"] > 0
    assert len(result["failures"]) == cli["failures"] == 0
    assert result["exact"]["worst_prefix"] == cli["worst_prefix_cost"]


@pytest.mark.parametrize("w", WORKLOADS.values(), ids=_ids)
def test_tracing_changes_no_count_or_bit(w, tmp_path):
    plain = worker.run_pass(w, SEED, traced=False, out_dir=tmp_path)
    traced = worker.run_pass(w, SEED, traced=True, out_dir=tmp_path)
    assert traced["ops"] == plain["ops"] > 0
    assert traced["failures"] == plain["failures"] == []
    assert traced["exact"] == plain["exact"]
    bit_metrics = ("bits_worst_prefix", "bits_mean_prefix", "bound_ratio")
    plain_bits = {k: bench.end_to_end([plain])[k] for k in bit_metrics}
    assert {k: bench.end_to_end([traced])[k] for k in bit_metrics} == plain_bits
    layers = traced["layers"]
    assert set(layers) | {"trace.overhead_share"} == set(bench.metric_units(trace=True))
    if w.kind == "attack":
        assert layers["adversary.message_evals"] > 0
    else:
        assert layers["sim.view_calls"] == w.k * plain["ops"]
    assert (tmp_path / f"spans-{w.name}.tsv.gz").is_file()


def test_wrong_answers_are_counted_and_replayable(tmp_path, capsys):
    w = Workload("broken", "sweep", ("broken-const",), n=4, k=3, samples=40)
    result = worker.run_pass(w, SEED, traced=False, out_dir=tmp_path)
    assert result["ops"] == 40
    failures = result["failures"]
    assert failures and {f["kind"] for f in failures} == {"wrong-answer"}
    capsys.readouterr()
    replay = ["run", "--protocol", "broken-const", "--n", "4", "--k", "3",
              "--instance", failures[0]["instances"][0]]
    assert cli_main(replay) == 0
    assert json.loads(capsys.readouterr().out)["correct"] is False


def test_zero_checked_operations_is_an_error(tmp_path):
    w = Workload("empty", "sweep", ("bucketing",), n=16, k=5, samples=0)
    result = worker.run_pass(w, SEED, traced=False, out_dir=tmp_path)
    with pytest.raises(bench.BenchmarkError):
        bench.check_passes([result])


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "attack", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
