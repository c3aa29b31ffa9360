"""Micro-benchmark: instrumentation must be near-free when switched off.

The acceptance bar for the observability subsystem: with no observer and
no metrics registry attached, the per-observation fast path of the
engine, the durable engine and the served stack performs no allocations
on behalf of ``repro.obs`` (verified with ``tracemalloc`` filtered to
the obs package) and the guard overhead stays in the noise; so does an
engine behind the watermark driver, under ``reorder_delay`` and REVISE.  With a
registry attached, metric children are bound when a layer attaches it,
never per event: the number of ``MetricFamily.labels`` calls is the same
for 1k and 2k observations (a count, so it holds on any host), and the
families that read a component's own counts receive no ``inc``/``set``
at all (another count).  A last
check quantifies the cost of running instrumented, which is allowed to
cost real time (two clock reads per node propagation) but must stay
within a small constant factor.
"""

from __future__ import annotations

import asyncio
import time
import tracemalloc

import pytest

from repro import Engine
from repro.bench import run_detection
from repro.obs import METRICS, Counter, Gauge, MetricFamily, MetricsRegistry
from repro.resilience.durability import DurableEngine
from repro.serve import AsyncClient, CepServer, loopback_connector


def _time_run(workload, registry=None):
    started = time.perf_counter()
    run_detection(
        workload.rules, workload.observations, label="overhead", registry=registry
    )
    return time.perf_counter() - started


def _engine_run(rules, observations, directory, registry=None):
    run_detection(rules, observations, label="alloc", registry=registry)


def _durable_run(rules, observations, directory, registry=None):
    with DurableEngine(
        lambda: Engine(rules),
        str(directory / f"durable-{len(observations)}"),
        checkpoint_every=500,
        sink=lambda detection, seq, ordinal: None,
        metrics=registry,
    ) as durable:
        durable.submit_many(observations)
        durable.flush()


def _served_run(rules, observations, directory, registry=None):
    async def scenario():
        async with CepServer(Engine(rules), metrics=registry) as server:
            client = AsyncClient(
                loopback_connector(server), subscribe=True, batch_size=256
            )
            async with client:
                await client.submit_many(observations)
                await client.flush(timeout=60)

    asyncio.run(scenario())


def _watermark_run(**policy):
    """An engine behind the watermark driver: ``reorder_delay`` or REVISE."""

    def run(rules, observations, directory, registry=None):
        engine = Engine(rules, metrics=registry, **policy)
        engine.submit_many(observations)
        engine.flush()

    return run


LAYERS = pytest.mark.parametrize(
    "run",
    [
        _engine_run,
        _durable_run,
        _served_run,
        _watermark_run(reorder_delay=4.0),
        _watermark_run(out_of_order="revise", revise_horizon=4.0),
    ],
    ids=["engine", "durable", "served", "reorder_delay", "revise"],
)


class TestFastPathAllocations:
    @LAYERS
    def test_uninstrumented_run_allocates_nothing_in_obs(
        self, run, small_workload, tmp_path
    ):
        """No registry, no observer → zero allocations from repro.obs."""
        # NB: the repro.obs package shares its name with the repro.obs()
        # expression helper; from-imports are the supported access path.
        from repro.obs import instrument, metrics, tracing

        obs_files = {
            module.__file__ for module in (instrument, metrics, tracing)
        }
        observations = small_workload.observations[:2000]

        tracemalloc.start(5)
        try:
            run(small_workload.rules, observations, tmp_path)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()

        obs_allocations = [
            stat
            for stat in snapshot.statistics("filename")
            if stat.traceback[0].filename in obs_files
        ]
        assert obs_allocations == [], (
            "fast path allocated inside repro.obs: "
            f"{[(s.traceback[0].filename, s.count) for s in obs_allocations]}"
        )

    @LAYERS
    def test_children_are_bound_at_attach_not_per_event(
        self, run, small_workload, tmp_path, monkeypatch
    ):
        """Twice the observations, the same number of label resolutions."""
        calls = []
        original = MetricFamily.labels

        def counting(family, **labels):
            calls.append(family.name)
            return original(family, **labels)

        monkeypatch.setattr(MetricFamily, "labels", counting)
        counts = []
        for n_observations in (1000, 2000):
            calls.clear()
            observations = small_workload.observations[:n_observations]
            run(small_workload.rules, observations, tmp_path, MetricsRegistry())
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    @LAYERS
    def test_stats_backed_families_are_never_written(
        self, run, small_workload, tmp_path, monkeypatch
    ):
        """A counter or gauge that reads its component's stats gets no
        ``inc``/``set`` on the hot path, at 1k or 2k observations."""
        reading = {
            row.name for _scope, rows in METRICS.values() for row in rows if row.reads
        }
        written = []
        for kind, method in ((Counter, "inc"), (Gauge, "set")):
            original = getattr(kind, method)

            def recording(child, *args, _original=original):
                written.append(child)
                return _original(child, *args)

            monkeypatch.setattr(kind, method, recording)
        for n_observations in (1000, 2000):
            written.clear()
            registry = MetricsRegistry()
            observations = small_workload.observations[:n_observations]
            run(small_workload.rules, observations, tmp_path, registry)
            written_ids = {id(child) for child in written}
            hits = [
                family.name
                for family in registry
                if family.name in reading
                for child in family.children()
                if id(child) in written_ids
            ]
            assert hits == []

    def test_instrumented_overhead_bounded(self, small_workload):
        """Metrics on vs off: slowdown stays within a small constant factor."""
        # Warm-up to stabilise caches and lazy imports.
        _time_run(small_workload)
        plain = min(_time_run(small_workload) for _ in range(3))
        instrumented = min(
            _time_run(small_workload, MetricsRegistry()) for _ in range(3)
        )
        slowdown = instrumented / plain
        print(
            f"\nplain {plain * 1000:.1f} ms, instrumented "
            f"{instrumented * 1000:.1f} ms, slowdown {slowdown:.2f}x"
        )
        # Timer reads per propagation are real work; 4x is a generous
        # ceiling that still catches accidental per-event dict/label
        # resolution creeping into the hot path.
        assert slowdown < 4.0

    def test_instrumented_run_actually_measures(self, small_workload):
        registry = MetricsRegistry()
        result = run_detection(
            small_workload.rules,
            small_workload.observations[:2000],
            label="measured",
            registry=registry,
        )
        assert result.metrics is not None
        latency = registry.get("rceda_observation_latency_seconds")
        (child,) = latency.children()
        assert child.count == 2000
