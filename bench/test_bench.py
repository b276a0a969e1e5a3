"""Tests of the benchmark itself: python3 -m pytest bench -q

Each test copies the package source and the benchmark into a temporary
checkout and runs the command there, as a fresh checkout would.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

COUNT_SUFFIXES = (".calls", ".rows", ".batches", ".draws", ".cells", ".bytes")


def is_count(metric: str) -> bool:
    return (metric.endswith(COUNT_SUFFIXES) or metric.startswith("risk.loss.")
            or metric == "trace.spans")


def checkout(dest: Path) -> Path:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copytree(HERE, dest / "bench", ignore=skip)
    return dest


def bench(where: Path, *args: str):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=where, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    return checkout(tmp_path_factory.mktemp("checkout"))


@pytest.mark.parametrize("workload", ["grid", "check", "data_pipeline"])
def test_reduced_run_prints_every_end_to_end_metric(tree, workload):
    proc, lines = bench(tree, "--workload", workload, "--seed", "3",
                        "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads(lines[-2])["record"]
    assert record["error_frac"] == 0.0
    assert record["environment"]["numpy"] and record["inputs"] and record["outputs"]
    if workload == "data_pipeline":
        printed = {line.split()[1] for line in lines[:-2]}
        assert {"rows_written_per_s", "rows_read_per_s", "rows_sampled_per_s"} <= printed


def test_traced_runs_report_every_layer_metric_with_repeatable_counts(tree):
    runs = []
    for _ in range(2):
        proc, lines = bench(tree, "--workload", "all", "--seed", "5", "--trace", "1")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        runs.append(json.loads(lines[-1]))
    expected = {f"{w}.{name}": unit for w in run.WORKLOAD_NAMES
                for name, unit in tracing.metric_names()}
    first, second = (r["metrics"] for r in runs)
    assert {k: m["unit"] for k, m in first.items()} == expected
    counts = [k for k in expected if is_count(k.split(".", 1)[1])]
    assert len(counts) > 30
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    # The grid exercises every training layer; data_pipeline none of them.
    for name in ("trainer.train.batches", "model.forward.calls", "model.backward.calls",
                 "risk.loss.value_calls_per_batch", "harness.run_cell.calls"):
        assert first[f"grid.{name}"]["value"] > 0
    for name in ("trainer.train.calls", "model.forward.calls", "model.backward.calls"):
        assert first[f"data_pipeline.{name}"]["value"] == 0
    assert first["check.numerics.Rng.sample_without_replacement.draws"]["value"] > 0


@pytest.mark.parametrize(
    "workload, module, old, new",
    [
        # CSV floats written with too few digits: the round trip is lossy.
        ("data_pipeline", "datasets.py", '_FLOAT_FMT = "{:.17g}"', '_FLOAT_FMT = "{:.12g}"'),
        # Grid scores doubled: accuracies leave [0, 100] in the results file.
        ("grid", "harness.py", "repr(float(r.accuracy)),", "repr(2.0 * float(r.accuracy)),"),
    ],
)
def test_corrupted_output_fails_the_run(tmp_path, workload, module, old, new):
    tree = checkout(tmp_path)
    path = tree / "src" / "puerm" / module
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    proc, lines = bench(tree, "--workload", workload, "--seed", "3",
                        "--seconds", "0", "--trace", "0")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert json.loads(lines[-1])["correct"] is False
    assert any(line.startswith("CHECK FAILED") for line in lines)


def test_without_the_package_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench(tmp_path, "--workload", "grid", "--seed", "1",
                        "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert lines == []


def test_tail_is_the_highest_percentile_with_ten_ops_beyond_it():
    stats = run.op_stats([float(i) for i in range(1, 101)])
    assert stats["tail"] == 90.0 and stats["tail_beyond"] == 10
    assert stats["tail_percentile"] == 90.0 and stats["p50"] == 50.5
