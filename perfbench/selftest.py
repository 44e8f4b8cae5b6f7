"""The benchmark's own tests.

Run from the root of a checkout (kept out of the package's test collection,
since the smoke runs take about half a minute):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, job_seeds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LISTED = [w["name"] for w in SPEC["workloads"]]


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _run(*args):
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    inputs = WORKLOADS[name].inputs
    assert all(_same(a, b) for a, b in zip(inputs(3, 5), inputs(3, 5)))
    assert not any(_same(a, b) for a, b in zip(inputs(3, 5), inputs(4, 5)))


def test_job_seeds_leave_room_for_every_stream_of_a_job():
    seeds = job_seeds(1, 50)
    assert all(b - a >= 8 for a, b in zip(seeds, seeds[1:]))


def test_tail_keeps_ten_jobs_beyond_the_percentile():
    value, percentile = run.tail(list(range(40)))
    assert value == 29 and sum(t > value for t in range(40)) == 10
    assert percentile == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_listed_layer_metrics_are_traced_metrics():
    assert {(m["name"], m["unit"]) for m in SPEC["per_layer"]} <= set(LAYER_METRICS)


def test_listed_workloads_exist():
    assert set(LISTED) <= set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke_run(name):
    out = _result(_run("--workload", name, "--seed", "5", "--seconds", "0.1", "--max-jobs", "1"))
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(isinstance(m["value"], (int, float)) and m["value"] > 0 for m in out["metrics"].values())
    assert out["attempted"] == 2
    if name in LISTED:
        assert out["correct"] and out["failed"] == 0


@pytest.mark.parametrize("name", LISTED)
def test_traced_smoke_run_reports_every_layer_metric(name):
    proc = _run("--workload", name, "--seed", "5", "--trace", "1", "--max-jobs", "1")
    out = _result(proc)
    assert list(out["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert out["correct"] and out["attempted"] == 2
    for metric, _unit in LAYER_METRICS:
        assert any(line.startswith(metric + " ") for line in proc.stdout.splitlines())
    # a listed layer metric is measured on every listed workload, never n/a
    record = json.loads(proc.stdout.splitlines()[0].removeprefix("# run record "))
    assert not set(out["metrics"]) & set(record["not_applicable"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"), "--workload", LISTED[0],
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
