"""Tests of the benchmark itself: tiny smoke runs, failure counting,
seed determinism and the metric names promised in BENCHMARK.json."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for path in (ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

NAMES = tuple(workloads.WORKLOADS)


def _workload(name, tmp_path):
    workload = workloads.WORKLOADS[name](tmp_path / "work", Tracer())
    workload.setup()
    workload.prepare()
    return workload


def _benchmark_names(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[section]}


@pytest.mark.parametrize("name", NAMES)
def test_tiny_smoke_run_passes_every_check(name, tmp_path):
    workload = _workload(name, tmp_path)
    run = harness.run_pass(workload, seed=3, max_blocks=1, tiny=True)
    assert run.scaled_s
    assert run.failed == 0, run.problems


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_items_other_seed_other_order(name, tmp_path):
    workload = _workload(name, tmp_path)
    first = [workload.block(7, b) for b in range(3)]
    assert first == [workload.block(7, b) for b in range(3)]
    other = workload.block(8, 0)
    assert other != first[0]
    assert first[0] != first[1]


def test_corrupted_exact_count_is_counted_as_failed(tmp_path, monkeypatch):
    workload = _workload("exact-cold", tmp_path)
    real = workloads.oracle.ball_size_exact_detailed

    def off_by_one(spec, **kwargs):
        result = real(spec, **kwargs)
        return dataclasses.replace(result, value=result.value + 1)

    monkeypatch.setattr(workloads.oracle, "ball_size_exact_detailed", off_by_one)
    run = harness.run_pass(workload, seed=1, max_blocks=1, tiny=True)
    assert run.failed == len(run.raw_s) > 0


def test_corrupted_bound_is_counted_as_failed(tmp_path, monkeypatch):
    workload = _workload("closed-figures", tmp_path)
    real = workloads.bounds.finite_bound

    def nudged(family, spec):
        value = real(family, spec)
        return dataclasses.replace(value, bits=value.bits * (1 + 1e-6))

    monkeypatch.setattr(workloads.bounds, "finite_bound", nudged)
    run = harness.run_pass(workload, seed=1, max_blocks=1, tiny=True)
    cells = sum(kind == "cell" for kind, _ in workload.block(1, 0, tiny=True))
    assert run.failed >= cells > 0


def test_corrupted_csv_round_trip_is_counted_as_failed(tmp_path, monkeypatch):
    workload = _workload("sweep-warm", tmp_path)
    real = workloads.tables.parse_sweep_csv
    monkeypatch.setattr(workloads.tables, "parse_sweep_csv", lambda text: real(text)[1:])
    run = harness.run_pass(workload, seed=1, max_blocks=1, tiny=True)
    assert run.failed == len(run.raw_s) > 0


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    workload = _workload("exact-cold", tmp_path)
    untraced = harness.run_pass(workload, seed=2, max_blocks=1, tiny=True)
    workload.tracer.enabled = True
    traced = harness.run_pass(workload, seed=2, max_blocks=1, tiny=True)
    metrics = harness.layer_metrics(workload.tracer, traced, untraced, 0.0)
    assert set(metrics) == _benchmark_names("per_layer")
    assert metrics["oracle.calls"]["value"] == len(traced.raw_s)
    assert metrics["cache.hits"]["value"] == 0
    assert metrics["cache.bytes_written"]["value"] > 0


def test_end_to_end_metrics_match_benchmark_json(tmp_path):
    workload = _workload("exact-cold", tmp_path)
    run = harness.run_pass(workload, seed=2, max_blocks=1, tiny=True)
    metrics, info = harness.end_to_end_metrics(run, [(1.0, 0.5), (0.9, 0.4), (1.2, 0.6)])
    assert set(metrics) == _benchmark_names("end_to_end")
    assert metrics["setup_s"]["value"] == 0.5
    assert info["raw"]["setup_s"] == 1.0
    assert all(m["value"] > 0 for m in metrics.values())


def test_min_items_leave_ten_samples_beyond_the_tail():
    values = [float(v) for v in range(harness.MIN_ITEMS)]
    tail = harness.percentile(values, harness.TAIL_PERCENTILE)
    assert sum(v > tail for v in values) >= 10


def test_percentile_is_the_harrell_davis_estimate():
    assert harness.percentile([2.5] * 50, 95.0) == pytest.approx(2.5)
    assert harness.percentile([float(v) for v in range(101)], 50.0) == pytest.approx(50.0)
    # scipy.stats.mstats.hdquantiles([1, 2, 3, 4, 10], prob=[0.5]) gives 3.2896.
    assert harness.percentile([1.0, 2.0, 3.0, 4.0, 10.0], 50.0) == pytest.approx(3.2896, abs=1e-4)


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-figures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": ""},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
