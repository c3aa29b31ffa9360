"""Smoke test of the stack benchmark: ``--scale tiny``, all five workloads.

Lives under ``benchmarks/`` so the tier-1 run (``testpaths = ["tests"]``)
never collects it: ``PYTHONPATH=src python -m pytest benchmarks/stack -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from spec import END_TO_END, PER_LAYER, WORKLOAD_NAMES, benchmark_json

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def test_benchmark_json_is_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == benchmark_json()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("stack")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", "tiny",
         "--out", str(out)],
        check=True,
        timeout=300,
    )
    with open(out / "stack.json", encoding="utf-8") as handle:
        summary = json.load(handle)
    assert os.listdir(out) and not any(
        name.startswith("tmp-") for name in os.listdir(out)
    ), "scratch directories must be gone when the benchmark ends"
    return {(run["workload"], run["mode"]): run for run in summary["runs"]}


def test_every_run_is_correct(runs):
    assert set(runs) == {
        (name, mode) for name in WORKLOAD_NAMES
        for mode in ("end_to_end", "per_layer")
    }
    for key, run in runs.items():
        assert run["correct"] and run["failed"] == 0, (key, run["problems"])
        assert run["attempted"] >= 1


def test_end_to_end_metrics_on_every_workload(runs):
    for name in WORKLOAD_NAMES:
        metrics = runs[(name, "end_to_end")]["metrics"]
        assert set(metrics) == {entry[0] for entry in END_TO_END}
        for metric, unit, _better, _bound in END_TO_END:
            assert metrics[metric]["unit"] == unit
            assert metrics[metric]["value"] > 0


def test_per_layer_metrics_named_in_the_spec_are_all_measured(runs):
    units = {entry[0]: entry[1] for entry in PER_LAYER}
    measured = set()
    for name in WORKLOAD_NAMES:
        metrics = runs[(name, "per_layer")]["metrics"]
        assert metrics["failed_share"]["value"] == 0
        for metric, entry in metrics.items():
            assert entry["unit"] == units[metric]
        measured |= set(metrics)
    assert measured == set(units)
    # the two demoted end-to-end metrics are reported where they are defined
    assert "detect_latency_p50_ms" in runs[("serve-durable", "per_layer")]["metrics"]
    assert "detect_latency_p50_ms" in runs[("cluster-w1", "per_layer")]["metrics"]
    assert "recover_s" in runs[("serve-durable", "per_layer")]["metrics"]
