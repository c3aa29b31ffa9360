"""Serving-layer throughput benchmark: wire protocol vs direct submit.

``python -m repro.bench serve [--scale quick|full|large]`` measures what
the network boundary costs: the same detection workload is run several
ways —

* ``direct``: plain in-process ``Engine.submit_many`` (the baseline);
* ``loopback``: through :class:`~repro.serve.CepServer` over the
  in-memory loopback transport (protocol framing + session machinery,
  no kernel sockets);
* ``tcp``: through a real ``127.0.0.1`` TCP socket.

Each networked transport is measured once per wire codec (``json`` —
the v1 layout, and ``binary`` — the struct-packed v2 batch frames), so
the codec win is a measured number, not an assumption.  When the
binary codec is measured, one extra loopback row — codec
``"binary+hb"`` — reruns it with server heartbeats enabled
(``heartbeat_interval=0.05``), so the liveness machinery's cost on the
clean path is also a measured number (it should sit at the noise
floor: pings ride the existing sender queues).

Each networked run subscribes to detections and must receive exactly as
many as the baseline found — the benchmark raises if they diverge, so
the numbers are only ever reported for *correct* runs.

Machine-readable output: :func:`write_serve_json` emits
``BENCH_serve.json``.  Schema (also embedded in the file itself under
the ``"schema"`` key)::

    {
      "schema": {"name": "repro-bench-serve", "version": 2},
      "scale": "quick" | "full" | "large",
      "results": [
        {
          "transport": "direct" | "loopback" | "tcp",
          "codec": "-" | "json" | "binary" | "binary+hb",
                                  # "-" for the direct row; "+hb" marks
                                  # the heartbeat-enabled variant
          "n_events": int,        # observations submitted
          "n_rules": int,
          "detections": int,      # == baseline for every transport
          "elapsed_seconds": float,   # submit of first obs → flush acked
          "baseline_seconds": float,  # the direct timing this row is
                                      # paired against (same measurement
                                      # round; see run_serve_bench)
          "events_per_second": float,
          "overhead_pct": float,  # vs baseline; 0.0 for the direct row
          "frames_in": int,       # server-side frame/byte counters,
          "frames_out": int,      # zero for the direct row
          "bytes_in": int,
          "bytes_out": int
        }, ...
      ]
    }

Schema version 1 (one row per transport, no ``codec`` key) is what
pre-codec checkouts emitted; consumers should key rows on
``(transport, codec)``.

Two additional ``transport == "direct"`` rows measure what speculation
costs at the engine layer, away from the wire: codec ``"ooo-accept"``
runs the deprecated ACCEPT policy over a seeded bounded-disorder
arrival order (stale observations processed as-is), and codec
``"ooo-revise"`` runs the same arrival through REVISE
(watermark-buffered speculation with retraction).  The revise row's
``overhead_pct`` is scored against the accept row — the price of
getting *correct* eager answers instead of fast wrong ones — and the
revise run's sealed finals are asserted equal to the in-order oracle
before any number is reported.  These rows never participate in the
``check_overhead`` CI gate, which keys on ``loopback/binary``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.detector import Engine
from ..core.instances import Observation
from ..rules import Rule
from ..serve import (
    AsyncClient,
    CepServer,
    ServeConfig,
    loopback_connector,
    tcp_connector,
)
from .harness import run_detection
from .workloads import build_events_axis_workload

#: Workload sizes per scale; ``large`` exists to surface per-event costs
#: that small runs hide behind connection setup.  ``quick`` stays small
#: enough for tests but large enough that the wire cost being measured
#: clears this machine class's scheduler-jitter noise floor.
SERVE_SCALES = {"quick": 4_000, "full": 20_000, "large": 100_000}

#: Codec measurement order: v1 JSON first (the comparison point), then
#: the binary fast path.
SERVE_CODECS = ("json", "binary")

#: Best-of-N repeats per measurement, by scale.  Small runs finish in
#: tens of milliseconds, where scheduler and GC jitter can dwarf the
#: wire cost being measured; repeats shrink as the workload grows and
#: the signal-to-noise ratio improves on its own.
SERVE_REPEATS = {"quick": 7, "full": 3, "large": 1}

#: Workload sizes for the speculation (out-of-order policy) rows.  The
#: REVISE run repairs its speculative engine on every late arrival, so
#: these are deliberately smaller than the wire-row scales — the ratio
#: being measured stabilises quickly and a full-size run would just
#: burn CI minutes re-measuring it.
SPECULATION_SCALES = {"quick": 2_000, "full": 8_000, "large": 20_000}

#: Best-of-N repeats for the speculation rows; the revise run is slow
#: enough that its signal clears the noise floor with few repeats.
SPECULATION_REPEATS = {"quick": 3, "full": 2, "large": 1}

#: Seeded bounded-disorder shape for the speculation rows: roughly one
#: reading in five arrives late, at most 2 stream-seconds behind.  The
#: revise horizon covers the worst lateness twice over so nothing is
#: dropped — every late reading costs a real speculative rebuild.
SPECULATION_DISORDER_RATE = 0.2
SPECULATION_MAX_LATENESS = 2.0
SPECULATION_HORIZON = 2 * SPECULATION_MAX_LATENESS


@dataclass(frozen=True)
class ServeBenchResult:
    """One (transport, codec) timing against the shared direct baseline."""

    transport: str
    n_events: int
    n_rules: int
    detections: int
    elapsed_seconds: float
    baseline_seconds: float
    codec: str = "-"
    frames_in: int = 0
    frames_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0

    @property
    def total_ms(self) -> float:
        return self.elapsed_seconds * 1000.0

    @property
    def events_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.n_events / self.elapsed_seconds

    @property
    def overhead_pct(self) -> float:
        if self.baseline_seconds <= 0:
            return float("inf")
        return (self.elapsed_seconds / self.baseline_seconds - 1.0) * 100.0


async def _run_through_server(
    rules: Sequence[Rule],
    observations: Sequence[Observation],
    transport: str,
    expected_detections: int,
    batch_size: int,
    codec: str,
) -> tuple[int, float, tuple[int, int, int, int]]:
    """Stream the workload through a server; return what the wire saw.

    The push queue is sized past the expected detection count so the
    slow-consumer policy never fires — this benchmark measures framing
    and session cost, not drop behaviour.  A ``+hb`` codec suffix
    (e.g. ``"binary+hb"``) selects the underlying wire codec with
    server heartbeats and the idle reaper enabled, measuring the
    liveness machinery's cost on a healthy connection.
    """
    wire_codec, _, variant = codec.partition("+")
    engine = Engine(rules, context="chronicle")
    if variant == "hb":
        config = ServeConfig(
            push_queue=expected_detections + 64,
            heartbeat_interval=0.05,
            idle_deadline=30.0,
        )
    else:
        config = ServeConfig(push_queue=expected_detections + 64)
    server = CepServer(engine, config=config)
    async with server:
        if transport == "tcp":
            port = await server.serve_tcp("127.0.0.1", 0)
            connector = tcp_connector("127.0.0.1", port)
        else:
            connector = loopback_connector(server)
        client = AsyncClient(
            connector, subscribe=True, batch_size=batch_size, codec=wire_codec
        )
        async with client:
            if client.codec != wire_codec:
                raise AssertionError(
                    f"negotiated codec {client.codec!r}, wanted {wire_codec!r}"
                )
            # GC off during the timed region (the baseline gets the same
            # treatment): a cycle collection landing inside one run and
            # not another would swamp the wire cost being measured.
            gc.collect()
            gc.disable()
            try:
                started = time.perf_counter()
                await client.submit_many(observations)
                await client.flush(timeout=300.0)
                elapsed = time.perf_counter() - started
            finally:
                gc.enable()
            # The flush ack guarantees every observation was applied;
            # detection push is asynchronous, so drain the tail.
            deadline = time.monotonic() + 60.0
            while (
                len(client.detections) < expected_detections
                and time.monotonic() < deadline
            ):
                await asyncio.sleep(0.01)
            received = len(client.detections)
        stats = server.stats
        wire = (stats.frames_in, stats.frames_out, stats.bytes_in, stats.bytes_out)
    return received, elapsed, wire


def run_serve_bench(
    full_scale: bool = False,
    batch_size: int = 128,
    *,
    scale: Optional[str] = None,
    codecs: Sequence[str] = SERVE_CODECS,
    repeats: Optional[int] = None,
) -> List[ServeBenchResult]:
    """Measure serving overhead per transport and wire codec.

    Returns the ``direct`` baseline first, then ``loopback`` and
    ``tcp`` rows for each codec in ``codecs`` (JSON first by default —
    the v1 comparison point — then binary).  ``scale`` overrides the
    legacy ``full_scale`` flag with a named size from
    :data:`SERVE_SCALES`.  Measurements run in ``repeats`` rounds
    (default per scale in :data:`SERVE_REPEATS`) with GC parked during
    the timed region; each round measures the baseline and every
    transport/codec pair back-to-back, and every networked row is
    scored against the baseline of its *own* round — the reported
    overhead is the best such paired ratio.  Pairing matters: on a
    shared machine the CPU drifts on second scales, and comparing a
    config's best round against a baseline that got lucky in a
    different round reports drift, not wire cost.  Raises if any
    networked run's received detections differ from the baseline —
    correctness is a precondition of the numbers.
    """
    if scale is None:
        scale = "full" if full_scale else "quick"
    if scale not in SERVE_SCALES:
        raise ValueError(
            f"unknown scale {scale!r} (expected one of {sorted(SERVE_SCALES)})"
        )
    if repeats is None:
        repeats = SERVE_REPEATS[scale]
    repeats = max(1, repeats)
    n_events = SERVE_SCALES[scale]
    n_rules = 10
    workload = build_events_axis_workload(n_events, n_rules=n_rules)
    configurations = [
        (transport, codec)
        for codec in codecs
        for transport in ("loopback", "tcp")
    ]
    if "binary" in codecs:
        # Heartbeat-overhead row: the binary loopback path rerun with
        # liveness probes on.  Loopback only — the point is isolating
        # the ping/reaper cost, and kernel-socket variance would bury
        # it.  The plain loopback/binary row (the CI gate) is untouched.
        configurations.append(("loopback", "binary+hb"))
    baseline = None
    timings: dict = {}
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            candidate = run_detection(
                workload.rules, workload.observations, label="direct"
            )
        finally:
            gc.enable()
        if baseline is None or candidate.elapsed_seconds < baseline.elapsed_seconds:
            baseline = candidate
        for transport, codec in configurations:
            received, elapsed, wire = asyncio.run(
                _run_through_server(
                    workload.rules,
                    workload.observations,
                    transport,
                    baseline.detections,
                    batch_size,
                    codec,
                )
            )
            if received != baseline.detections:
                raise AssertionError(
                    f"{transport}/{codec} run received {received} "
                    f"detections, direct run found {baseline.detections}"
                )
            # Score against this round's baseline: the paired ratio
            # cancels machine-wide drift between rounds.
            ratio = elapsed / candidate.elapsed_seconds
            known = timings.get((transport, codec))
            if known is None or ratio < known[0]:
                timings[(transport, codec)] = (
                    ratio,
                    elapsed,
                    candidate.elapsed_seconds,
                    wire,
                )
    results = [
        ServeBenchResult(
            transport="direct",
            n_events=baseline.n_events,
            n_rules=n_rules,
            detections=baseline.detections,
            elapsed_seconds=baseline.elapsed_seconds,
            baseline_seconds=baseline.elapsed_seconds,
        )
    ]
    for transport, codec in configurations:
        _ratio, elapsed, paired_baseline, wire = timings[(transport, codec)]
        results.append(
            ServeBenchResult(
                transport=transport,
                codec=codec,
                n_events=n_events,
                n_rules=n_rules,
                detections=baseline.detections,
                elapsed_seconds=elapsed,
                baseline_seconds=paired_baseline,
                frames_in=wire[0],
                frames_out=wire[1],
                bytes_in=wire[2],
                bytes_out=wire[3],
            )
        )
    return results


def _run_policy_once(
    rules: Sequence[Rule],
    arrival: Sequence[Observation],
    policy: str,
) -> tuple[int, float]:
    """Time one engine run over the disordered arrival order.

    Returns ``(detections, elapsed_seconds)``.  For ``"revise"`` the
    detection count is the number of *sealed finals* — provisional and
    retraction records are part of the work being timed but are not
    answers.  The deprecated ACCEPT path is measured deliberately (it
    is the comparison point this benchmark exists to price), so its
    DeprecationWarning is silenced here and nowhere else.
    """
    import warnings

    from ..core.detector import OutOfOrderPolicy
    from ..core.speculate import FINAL

    if policy == "revise":
        engine = Engine(
            rules,
            context="chronicle",
            out_of_order=OutOfOrderPolicy.REVISE,
            revise_horizon=SPECULATION_HORIZON,
        )
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            engine = Engine(
                rules, context="chronicle", out_of_order=OutOfOrderPolicy.ACCEPT
            )
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        out = engine.submit_many(arrival)
        out += engine.flush()
        elapsed = time.perf_counter() - started
    finally:
        gc.enable()
    if policy == "revise":
        detections = sum(
            1 for record in out if getattr(record, "status", None) == FINAL
        )
    else:
        detections = len(out)
    return detections, elapsed


def _disordered_workload(scale: str, seed: int):
    """Events-axis workload plus its seeded bounded-disorder arrival.

    Returns ``(workload, arrival)``; raises if the injector happened to
    delay nothing (a disorder benchmark over an in-order stream would
    silently measure the wrong thing).
    """
    from ..resilience.chaos import ChaosConfig, ChaosInjector

    if scale not in SPECULATION_SCALES:
        raise ValueError(
            f"unknown scale {scale!r} (expected one of "
            f"{sorted(SPECULATION_SCALES)})"
        )
    workload = build_events_axis_workload(
        SPECULATION_SCALES[scale], n_rules=10
    )
    injector = ChaosInjector(
        ChaosConfig(
            seed=seed,
            disorder_rate=SPECULATION_DISORDER_RATE,
            max_lateness=SPECULATION_MAX_LATENESS,
        )
    )
    arrival = list(injector.inject(workload.observations))
    if not injector.counts["delayed"]:
        raise AssertionError("disorder injection produced no late arrivals")
    return workload, arrival


def measure_drop_loss(
    full_scale: bool = False,
    *,
    scale: Optional[str] = None,
    seed: int = 11,
) -> dict:
    """Quantify what ``OutOfOrderPolicy.DROP`` silently throws away.

    Runs the same seeded disordered arrival the speculation rows use
    through a DROP-policy engine and returns the loss, observable at
    last: ``ooo_dropped`` (late readings discarded — the engine's
    ``stats.dropped_out_of_order`` / ``rceda_dropped_out_of_order_total``
    counter), the detections the crippled run still found, and the
    in-order oracle's count, so the report can state how many *answers*
    the dropped readings took with them.
    """
    from ..core.detector import OutOfOrderPolicy
    from ..core.speculate import canonical_key

    if scale is None:
        scale = "full" if full_scale else "quick"
    workload, arrival = _disordered_workload(scale, seed)
    oracle_engine = Engine(workload.rules, context="chronicle")
    oracle = len(
        oracle_engine.submit_many(sorted(arrival, key=canonical_key))
    ) + len(oracle_engine.flush())
    engine = Engine(
        workload.rules, context="chronicle", out_of_order=OutOfOrderPolicy.DROP
    )
    detections = len(engine.submit_many(arrival)) + len(engine.flush())
    return {
        "n_events": len(arrival),
        "ooo_dropped": engine.stats.dropped_out_of_order,
        "detections": detections,
        "oracle_detections": oracle,
        "detections_lost": oracle - detections,
    }


def run_speculation_bench(
    full_scale: bool = False,
    *,
    scale: Optional[str] = None,
    repeats: Optional[int] = None,
    seed: int = 11,
) -> List[ServeBenchResult]:
    """Price REVISE speculation against the deprecated ACCEPT policy.

    Builds the events-axis workload, perturbs its arrival order with
    seeded bounded disorder (:class:`~repro.resilience.chaos
    .ChaosInjector`, disorder only — same timestamps, late arrival),
    and times the same engine/rule set under both out-of-order
    policies.  Returns two ``transport == "direct"`` rows: codec
    ``"ooo-accept"`` (its own baseline, overhead 0) and
    ``"ooo-revise"``, scored against the paired accept run of its best
    round.  Before anything is reported, the revise run's sealed
    finals are asserted equal to the in-order oracle — the overhead
    number is only ever attached to a *correct* run, mirroring the
    detection-count precondition of the wire rows.
    """
    from ..core.speculate import canonical_key

    if scale is None:
        scale = "full" if full_scale else "quick"
    workload, arrival = _disordered_workload(scale, seed)
    if repeats is None:
        repeats = SPECULATION_REPEATS[scale]
    repeats = max(1, repeats)
    n_rules = 10
    oracle_engine = Engine(workload.rules, context="chronicle")
    oracle = len(
        oracle_engine.submit_many(sorted(arrival, key=canonical_key))
    ) + len(oracle_engine.flush())
    best_accept: Optional[tuple[int, float]] = None
    best_revise: Optional[tuple[float, float, float]] = None  # ratio, el, base
    for _ in range(repeats):
        accept_detections, accept_elapsed = _run_policy_once(
            workload.rules, arrival, "accept"
        )
        revise_detections, revise_elapsed = _run_policy_once(
            workload.rules, arrival, "revise"
        )
        if revise_detections != oracle:
            raise AssertionError(
                f"revise run sealed {revise_detections} finals, in-order "
                f"oracle found {oracle}"
            )
        if best_accept is None or accept_elapsed < best_accept[1]:
            best_accept = (accept_detections, accept_elapsed)
        ratio = revise_elapsed / accept_elapsed
        if best_revise is None or ratio < best_revise[0]:
            best_revise = (ratio, revise_elapsed, accept_elapsed)
    assert best_accept is not None and best_revise is not None
    n_arrival = len(arrival)
    return [
        ServeBenchResult(
            transport="direct",
            codec="ooo-accept",
            n_events=n_arrival,
            n_rules=n_rules,
            detections=best_accept[0],
            elapsed_seconds=best_accept[1],
            baseline_seconds=best_accept[1],
        ),
        ServeBenchResult(
            transport="direct",
            codec="ooo-revise",
            n_events=n_arrival,
            n_rules=n_rules,
            detections=oracle,
            elapsed_seconds=best_revise[1],
            baseline_seconds=best_revise[2],
        ),
    ]


def serve_table(results: Sequence[ServeBenchResult]) -> str:
    """Render the per-transport/per-codec series as an aligned table."""
    lines = [
        f"{'transport':>10} | {'codec':>10} | {'total ms':>10} | "
        f"{'events/s':>10} | {'overhead':>9} | {'bytes in':>11}"
    ]
    lines.append("-" * len(lines[0]))
    for result in results:
        lines.append(
            f"{result.transport:>10} | {result.codec:>10} | "
            f"{result.total_ms:>10.1f} | "
            f"{result.events_per_second:>10,.0f} | "
            f"{result.overhead_pct:>8.1f}% | {result.bytes_in:>11,}"
        )
    return "\n".join(lines)


def check_overhead(
    results: Sequence[ServeBenchResult],
    max_overhead_pct: float,
    codec: str = "binary",
    transport: str = "loopback",
) -> Optional[str]:
    """CI gate: None when the named run beats the bound, else the failure.

    Defaults to the binary-codec loopback row — the purest measure of
    framing overhead (no kernel socket variance) for the codec the
    redesign exists to make fast.
    """
    for result in results:
        if result.transport == transport and result.codec == codec:
            if result.overhead_pct > max_overhead_pct:
                return (
                    f"{transport}/{codec} overhead {result.overhead_pct:.1f}% "
                    f"exceeds the {max_overhead_pct:.0f}% bound"
                )
            return None
    return f"no {transport}/{codec} row in the results"


def write_serve_json(
    results: Sequence[ServeBenchResult],
    path: str,
    full_scale: bool = False,
    *,
    scale: Optional[str] = None,
) -> None:
    """Write the machine-readable results (schema in module docstring).

    The cluster and smoke benchmarks merge their rows into the same
    file (see :func:`repro.bench.cluster.merge_cluster_json` and
    :func:`repro.bench.smoke.merge_smoke_json`); any existing
    ``transport == "cluster"`` / ``"smoke"`` rows and their context
    keys are carried over so the benchmarks can be re-run in any order
    without losing each other's results.
    """
    if scale is None:
        scale = "full" if full_scale else "quick"
    cluster_rows: list = []
    cluster_context = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as handle:
                previous = json.load(handle)
        except (OSError, ValueError):
            previous = {}
        cluster_rows = [
            row
            for row in previous.get("results", [])
            if isinstance(row, dict)
            and row.get("transport") in ("cluster", "smoke")
        ]
        cluster_context = {
            key: previous[key]
            for key in ("cluster_scale", "cluster_cpus", "smoke_scale")
            if key in previous
        }
    document = {
        "schema": {"name": "repro-bench-serve", "version": 2},
        "scale": scale,
        **cluster_context,
        "results": [
            {
                "transport": result.transport,
                "codec": result.codec,
                "n_events": result.n_events,
                "n_rules": result.n_rules,
                "detections": result.detections,
                "elapsed_seconds": result.elapsed_seconds,
                "baseline_seconds": result.baseline_seconds,
                "events_per_second": result.events_per_second,
                "overhead_pct": result.overhead_pct,
                "frames_in": result.frames_in,
                "frames_out": result.frames_out,
                "bytes_in": result.bytes_in,
                "bytes_out": result.bytes_out,
            }
            for result in results
        ],
    }
    document["results"].extend(cluster_rows)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
