"""Names of the stack benchmark: workloads, metrics, scales.

Everything a later issue may refer to by name lives here, and
``BENCHMARK.json`` at the repository root is exactly
:func:`benchmark_json` (the smoke test asserts it).
"""

from __future__ import annotations

#: Default measuring budget of one run; ``BENCHMARK.json``'s ``run_seconds``.
#: Short on purpose: runs drift together on this host, so more passes in
#: a run buy little, and the driver's 114 runs must fit its time cap
#: even when the host runs at half speed.
RUN_SECONDS = 6
DEFAULT_SEED = 7
#: Observations per client batch, everywhere, so rungs differ by layer only.
BATCH = 256

#: Per-scale sizes.  ``rung_passes`` is the fixed pass count of a ladder
#: rung in the per-layer run; the end-to-end run at ``std`` keeps passing
#: until ``--seconds`` is used up (never fewer than ``min_passes``).
SCALES = {
    "std": {
        "fig9-direct": 200_000,
        "returns-direct": 200_000,
        "serve-durable": 80_000,
        "cluster-w1": 60_000,
        "revise-disorder": 16_000,
        "rules_axis_rules": 500,
        "setup_reps": 3,
        "min_passes": 3,
        "rung_passes": 3,
        "sql_ops": 20_000,
    },
    "tiny": {
        "fig9-direct": 2_000,
        "returns-direct": 2_000,
        "serve-durable": 2_000,
        "cluster-w1": 2_000,
        "revise-disorder": 2_000,
        "rules_axis_rules": 50,
        "setup_reps": 1,
        "min_passes": 1,
        "rung_passes": 1,
        "sql_ops": 500,
    },
}

#: Fixed open-loop rates (observations/s): constants of the workload,
#: never derived from a run.
OPEN_LOOP_RATE = {"serve-durable": 12_000, "cluster-w1": 10_000}

WORKLOADS = [
    (
        "fig9-direct",
        "paper Fig. 9a through a bare Engine: repro.core.detector does all "
        "the work, so a wire, WAL or outbox change must show no change here",
    ),
    (
        "returns-direct",
        "wildcard events, a store-reading condition and store-writing actions "
        "in a bare Engine: about a third of the time is repro.rules/sql/store",
    ),
    (
        "serve-durable",
        "the production path AsyncClient-TCP-CepServer-DurableEngine-outbox: "
        "the detector is about a fifth, serving and durability do the rest",
    ),
    (
        "cluster-w1",
        "one worker behind the router: isolates repro.serve.cluster (split, "
        "JSON relay, epoch acks, fan-in) while staying within nproc=2",
    ),
    (
        "revise-disorder",
        "20% late arrivals into OutOfOrderPolicy.REVISE: repro.core.speculate "
        "is nearly all of the time; finals are checked against in-order",
    ),
]
WORKLOAD_NAMES = [name for name, _why in WORKLOADS]

#: (name, unit, better, bound).  Every workload reports every one.  The
#: time bounds are the largest the contract allows, not the 10% the
#: issue hoped for: across ten seeds this shared 2-CPU host shows a
#: run-to-run spread of 4-7% when calm (fig9-direct 13-17%) and worse
#: when not (README.md).  Whole runs drift together, so no number of
#: passes inside a run brings the spread down.
END_TO_END = [
    ("events_per_s", "ev/s", "higher", 0.25),
    ("cpu_ms_per_kevent", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

#: (name, unit, better).  Grouped by layer = module; see README.md for
#: which end-to-end metric each should move.
PER_LAYER = [
    # demoted from end-to-end: defined on some workloads only (README.md)
    ("detect_latency_p50_ms", "ms", "lower"),
    ("recover_s", "s", "lower"),
    ("failed_share", "ratio", "lower"),
    # workload (repro.workload, repro.bench.workloads)
    ("workload.generate_s", "s", "lower"),
    ("workload.events", "count", "higher"),
    ("workload.distinct_epcs", "count", "higher"),
    ("workload.expected_detections", "count", "higher"),
    # detector (repro.core.detector/nodes/graph)
    ("detector.detect_s", "s", "lower"),
    ("detector.us_per_event", "us", "lower"),
    ("detector.detections", "count", "higher"),
    ("detector.composites", "count", "lower"),
    ("detector.pseudo_fired", "count", "lower"),
    ("detector.gc_removed", "count", "higher"),
    ("detector.node_s.obs", "s", "lower"),
    ("detector.node_s.tseq", "s", "lower"),
    ("detector.node_s.tseqplus", "s", "lower"),
    ("detector.rules_axis_events_per_s", "ev/s", "higher"),
    # rules (repro.rules, repro.sql, repro.store)
    ("rules.fire_s", "s", "lower"),
    ("sql.insert_us", "us", "lower"),
    ("sql.lookup_us", "us", "lower"),
    ("sql.execute_text_us", "us", "lower"),
    ("store.rows", "count", "lower"),
    # speculate (repro.core.speculate)
    ("speculate.cost_ratio", "ratio", "lower"),
    ("speculate.late_arrivals", "count", "higher"),
    ("speculate.revised", "count", "lower"),
    ("speculate.retracted", "count", "lower"),
    ("speculate.records_per_final", "ratio", "lower"),
    ("speculate.dropped_too_late", "count", "lower"),
    # wal (repro.resilience.durability.wal)
    ("wal.append_s", "s", "lower"),
    ("wal.bytes_per_event", "B/ev", "lower"),
    ("wal.appends", "count", "lower"),
    ("wal.segments", "count", "lower"),
    ("wal.fsync_s", "s", "lower"),
    # durable (repro.resilience.durability.engine, repro.resilience.checkpoint)
    ("durable.submit_s", "s", "lower"),
    ("durable.overhead_s", "s", "lower"),
    ("durable.checkpoint_s", "s", "lower"),
    ("durable.checkpoint_bytes", "B", "lower"),
    ("durable.checkpoints_written", "count", "lower"),
    ("durable.replayed_records", "count", "lower"),
    ("durable.replay_s", "s", "lower"),
    ("durable.spurious_on_recover", "count", "lower"),
    # outbox (repro.resilience.durability.outbox)
    ("outbox.deliver_s", "s", "lower"),
    ("outbox.journal_bytes_per_detection", "B/det", "lower"),
    ("outbox.delivered", "count", "higher"),
    ("outbox.suppressed_on_recover", "count", "higher"),
    # protocol (repro.serve.protocol)
    ("protocol.encode_obs_s", "s", "lower"),
    ("protocol.decode_obs_s", "s", "lower"),
    ("protocol.encode_det_s", "s", "lower"),
    ("protocol.decode_det_s", "s", "lower"),
    ("protocol.json_encode_obs_s", "s", "lower"),
    ("protocol.json_decode_obs_s", "s", "lower"),
    ("protocol.bytes_in_per_event", "B/ev", "lower"),
    ("protocol.bytes_out_per_detection", "B/det", "lower"),
    ("protocol.frames_in", "count", "lower"),
    ("protocol.frames_out", "count", "lower"),
    # client (repro.serve.client)
    ("client.submit_busy_s", "s", "lower"),
    ("client.ack_wait_s", "s", "lower"),
    ("client.reconnects", "count", "lower"),
    # server (repro.serve.server)
    ("server.loopback_delta_s", "s", "lower"),
    ("server.tcp_delta_s", "s", "lower"),
    ("server.acks_sent", "count", "lower"),
    ("server.detections_pushed", "count", "higher"),
    ("server.detections_dropped", "count", "lower"),
    # router / worker (repro.serve.cluster)
    ("router.delta_s", "s", "lower"),
    ("router.epochs", "count", "lower"),
    ("router.routed", "count", "higher"),
    ("router.multicast", "count", "lower"),
    ("router.proc_cpu_s", "s", "lower"),
    ("worker.proc_cpu_s", "s", "lower"),
    ("worker.idle_share", "ratio", "lower"),
    # bench (the generator itself; these qualify the numbers above)
    ("bench.generator_lag_p95_ms", "ms", "lower"),
    ("bench.detect_latency_p95_ms", "ms", "lower"),
    ("bench.detect_latency_p99_ms", "ms", "lower"),
    ("bench.pass_iqr_pct", "%", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
]

UNITS = {name: unit for name, unit, *_rest in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The document committed as ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/stack/run.py"],
        "paths": ["benchmarks/stack"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
