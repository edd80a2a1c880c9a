"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py    # about three minutes

A traced run of each workload must report every per-layer metric listed
in ``BENCHMARK.json``, and each metric must be non-zero on the workload
that exercises its layer.  ``tracer.py`` wraps functions by name, so a
rename in ``src/`` fails here instead of silently reading as zero.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _busy(*layers):
    return [m for name in layers for m in (f"{name}_s", f"{name}.calls")]


#: Workload -> the per-layer metrics it exists to exercise.
MAIN_METRICS = {
    "fig6-cold": _busy(
        "routing.assign_vcs", "routing.mclb_route", "routing.ndbt_route",
        "routing.build_routing_table", "runner.cache_put", "runner.encode",
        "runner.task_key", "runner.cache_get", "runner.decode",
    ) + ["routing.vcs_used", "runner.misses", "runner.cache_bytes_written",
         "runner.queue_wait_s", "runner.hits"],
    "sim-full": _busy(
        "sim.run_point", "sim.compile_for_engine", "sim.trace",
        "fullsys.run_workload", "batch.run_batch",
    ) + ["sim.cycles", "sim.host_us_per_cycle", "sim.useful_point_ratio",
         "fullsys.runs", "batch.lanes", "batch.mean_width",
         "batch.ms_per_lane", "batch.useful_lane_ratio"],
}

#: Exercised by every workload.
COMMON_METRICS = _busy("setup.import", "experiments.roster")

#: Failure counters: zero on every workload.
ZERO_METRICS = ("runner.retries", "runner.quarantined")


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(MAIN_METRICS))
def traced(request):
    return request.param, _run(request.param, trace=1)


def test_traced_run_reports_every_per_layer_metric(traced):
    workload, result = traced
    assert result["correct"], result
    expected = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(result["metrics"]) == expected


def test_main_layers_nonzero(traced):
    workload, result = traced
    values = {k: v["value"] for k, v in result["metrics"].items()}
    zero = [m for m in MAIN_METRICS[workload] + COMMON_METRICS if not values[m] > 0]
    assert not zero, f"{workload}: layers recorded nothing: {zero}"
    assert all(values[m] == 0 for m in ZERO_METRICS)


def test_untraced_run_reports_every_end_to_end_metric():
    result = _run("fig6-cold", trace=0)
    assert result["correct"], result
    expected = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(result["metrics"]) == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workloads_match_driver():
    import run

    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)


def test_queue_wait_subtracts_task_coverage():
    intervals = [
        ("run_tasks", 0.0, 10.0),
        ("task", 1.0, 4.0), ("task", 3.0, 5.0),  # overlapping: 1..5
        ("task", 9.0, 12.0),  # clipped to 9..10
        ("task", 20.0, 21.0),  # outside every run_tasks call
    ]
    assert tracer._queue_wait(intervals) == pytest.approx(10.0 - 4.0 - 1.0)
