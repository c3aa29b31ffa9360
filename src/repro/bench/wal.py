"""WAL durability overhead benchmark.

``python -m repro.bench wal [--full]`` measures what logging every
observation ahead of detection costs, per fsync policy: a bare
:class:`~repro.core.detector.Engine` run is the baseline, then the same
workload goes through a :class:`~repro.resilience.durability.DurableEngine`
under ``never``, ``batch:64`` and ``always`` fsync.  The durable runs
must produce the same detection count as the baseline — the benchmark
raises if they diverge.

Beside the policy table it prints what *producing* one durable record
costs with fsync out of the picture (:func:`run_record_costs`): µs per
reading logged (batch records of 256) and µs per outbox delivery, the
two per-event prices of ``docs/resilience.md``.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from typing import List, Sequence

from ..core.detector import Engine
from ..core.instances import Observation
from ..resilience.durability import (
    DurableEngine,
    FsyncPolicy,
    encode_observation,
)
from ..resilience.durability.wal import encode_batch
from ..rules import Rule
from .harness import run_detection
from .workloads import build_events_axis_workload


@dataclass(frozen=True)
class WalBenchResult:
    """One fsync-policy point against the shared bare-engine baseline."""

    policy: str
    n_events: int
    detections: int
    elapsed_seconds: float
    baseline_seconds: float
    bytes_logged: int
    appends: int
    rotations: int
    fsyncs: int
    checkpoints: int

    @property
    def total_ms(self) -> float:
        return self.elapsed_seconds * 1000.0

    @property
    def overhead_pct(self) -> float:
        if self.baseline_seconds <= 0:
            return float("inf")
        return (self.elapsed_seconds / self.baseline_seconds - 1.0) * 100.0


def _run_durable(
    rules: Sequence[Rule],
    observations: Sequence[Observation],
    fsync: FsyncPolicy,
    baseline_seconds: float,
    checkpoint_every: int,
) -> WalBenchResult:
    def factory() -> Engine:
        return Engine(rules, context="chronicle")

    with tempfile.TemporaryDirectory(prefix="repro-bench-wal-") as directory:
        with DurableEngine(
            factory,
            directory,
            fsync=fsync,
            checkpoint_every=checkpoint_every,
        ) as durable:
            started = time.perf_counter()
            # Deliberately per-observation: this bench measures the cost
            # an FsyncPolicy charges each append (submit_many would
            # amortize the whole run into one fsync and hide it).
            detections = 0
            for observation in observations:
                detections += len(durable.submit(observation))
            detections += len(durable.flush())
            elapsed = time.perf_counter() - started
            wal = durable.wal
            return WalBenchResult(
                policy=str(fsync),
                n_events=len(observations),
                detections=detections,
                elapsed_seconds=elapsed,
                baseline_seconds=baseline_seconds,
                bytes_logged=wal.bytes_written,
                appends=wal.appended,
                rotations=wal.rotations,
                fsyncs=wal.fsyncs,
                checkpoints=durable.checkpoints_written,
            )


def _n_events(full_scale: bool) -> int:
    """Stream size; modest because ``always`` pays one fsync per observation."""
    return 20_000 if full_scale else 2_000


def run_wal_bench(full_scale: bool = False) -> List[WalBenchResult]:
    """Measure durable-engine overhead per fsync policy.

    Returns one :class:`WalBenchResult` per policy (``never``,
    ``batch:64``, ``always``), each carrying the shared baseline time.
    """
    n_events = _n_events(full_scale)
    workload = build_events_axis_workload(n_events, n_rules=10)
    baseline = run_detection(workload.rules, workload.observations, label="bare")
    results = []
    for fsync in (FsyncPolicy.NEVER, FsyncPolicy.BATCH(64), FsyncPolicy.ALWAYS):
        result = _run_durable(
            workload.rules,
            workload.observations,
            fsync,
            baseline.elapsed_seconds,
            checkpoint_every=max(1, n_events // 4),
        )
        if result.detections != baseline.detections:
            raise AssertionError(
                f"durable run under {result.policy} found {result.detections} "
                f"detections, baseline found {baseline.detections}"
            )
        results.append(result)
    return results


@dataclass(frozen=True)
class RecordCosts:
    """CPU price of one durable record (``FsyncPolicy.NEVER``, no-op sink)."""

    appends: int
    append_us: float
    deliveries: int
    delivery_us: float


#: Records per WAL batch in :func:`run_record_costs` — the serving
#: layer's default batch, so the write is amortized as it is in production.
APPEND_BATCH = 256


def run_record_costs(full_scale: bool = False) -> RecordCosts:
    """Time the WAL append and the outbox delivery on their own.

    The workload's observations are encoded and appended through a
    :class:`DurableEngine`'s own WAL ``APPEND_BATCH`` records at a time,
    as ``submit_many`` does it (one batch record per batch, one
    ``append_encoded``), then the detections a bare engine finds are
    delivered through its outbox to a no-op sink, one ``deliver_many``
    per batch — no detection, no checkpoint, no fsync inside either
    timed loop.
    """
    workload = build_events_axis_workload(_n_events(full_scale), n_rules=10)

    def factory() -> Engine:
        return Engine(workload.rules, context="chronicle")

    engine = factory()
    observations = workload.observations
    # One deliver_many batch per WAL batch, as DurableEngine.submit_many
    # delivers them.
    batches: list[list] = [
        [] for _ in range(0, len(observations), APPEND_BATCH)
    ]
    deliveries = 0
    for seq, observation in enumerate(observations):
        detections = engine.submit(observation)
        if detections:
            batches[seq // APPEND_BATCH].append((seq, 0, detections))
            deliveries += len(detections)
    with tempfile.TemporaryDirectory(prefix="repro-bench-wal-") as directory:
        with DurableEngine(
            factory,
            directory,
            checkpoint_every=0,
            sink=lambda _detection, _seq, _ordinal: None,
        ) as durable:
            append = durable.wal.append_encoded
            started = time.perf_counter()
            for start in range(0, len(observations), APPEND_BATCH):
                append(encode_batch(
                    start, observations[start : start + APPEND_BATCH],
                    encode_observation,
                ))
            append_seconds = time.perf_counter() - started
            deliver_many = durable.outbox.deliver_many
            started = time.perf_counter()
            for batch in batches:
                deliver_many(batch)
            deliver_seconds = time.perf_counter() - started
            if durable.outbox.delivered != deliveries:
                raise AssertionError(
                    f"outbox ran {durable.outbox.delivered} of "
                    f"{deliveries} deliveries"
                )
    return RecordCosts(
        appends=len(observations),
        append_us=append_seconds / max(1, len(observations)) * 1e6,
        deliveries=deliveries,
        delivery_us=deliver_seconds / max(1, deliveries) * 1e6,
    )


def record_costs_line(costs: RecordCosts) -> str:
    """The one line ``python -m repro.bench wal`` prints under its table."""
    return (
        f"per record, fsync never: WAL append {costs.append_us:.2f} µs "
        f"({costs.appends:,} readings, {APPEND_BATCH} per batch record) | "
        f"outbox delivery {costs.delivery_us:.2f} µs "
        f"({costs.deliveries:,} deliveries, no-op sink)"
    )


def wal_table(results: Sequence[WalBenchResult]) -> str:
    """Render the per-policy series as an aligned text table."""
    lines = [
        f"{'fsync policy':>14} | {'total ms':>10} | {'overhead':>9} | "
        f"{'bytes logged':>12} | {'rotations':>9} | {'fsyncs':>7}"
    ]
    lines.append("-" * len(lines[0]))
    for result in results:
        lines.append(
            f"{result.policy:>14} | {result.total_ms:>10.1f} | "
            f"{result.overhead_pct:>8.1f}% | {result.bytes_logged:>12,} | "
            f"{result.rotations:>9} | {result.fsyncs:>7}"
        )
    return "\n".join(lines)
