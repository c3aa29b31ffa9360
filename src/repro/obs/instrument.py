"""Every ``rceda_*`` metric in one table, bound once for the hot path.

:data:`METRICS` declares each instrumented component's families: its
scope label (``engine``, ``server`` or ``router``) and one
:class:`Metric` row per family.  :class:`Instruments` registers a
component's rows in a registry and binds their children at construction,
so the hot path sees attribute access on bound
:class:`~repro.obs.metrics.Counter`/:class:`~repro.obs.metrics.Gauge`/
:class:`~repro.obs.metrics.Histogram` objects — never a registry or
label lookup — and a layer with no registry attached pays one
``is not None`` check per site.

The scope label lets several components share a registry (the shards of
a :class:`~repro.core.sharding.ShardedEngine`, servers side by side):
each reports under its own label value and a rollup is a sum over label
values of the same family.  ``docs/observability.md`` lists the table.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

from .metrics import DEFAULT_LATENCY_BUCKETS, MetricFamily, MetricsRegistry

__all__ = ["METRICS", "NODE_KINDS", "Instruments", "Metric", "rollup"]

#: Every node kind the event-graph compiler can produce (graph._expr_kind).
NODE_KINDS = (
    "obs", "or", "and", "not", "seq", "tseq", "seq+", "tseq+", "periodic",
)

#: Reorder-buffer lateness is stream time, not wall time: coarser buckets.
LATENESS_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
)

#: Retry-attempt counts per delivered/abandoned activation (small ints).
RETRY_ATTEMPT_BUCKETS = (1, 2, 3, 4, 5, 8, 13, 21)

#: WAL fsync latency: storage-bound, so finer sub-millisecond buckets.
FSYNC_BUCKETS = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0,
)


class Metric(NamedTuple):
    """One family: the handle attribute it binds to and how it registers.

    ``labels`` are the label names after the component's scope label.
    A family with ``labels`` binds to a mapping from label value (a tuple
    of values, with two or more labels) to child: ``values`` are bound up
    front, any other value on first use.
    """

    attr: str
    kind: str
    name: str
    help: str
    labels: tuple = ()
    values: tuple = ()
    buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS


#: component -> (scope label name, its families).
METRICS: dict[str, tuple[str, tuple[Metric, ...]]] = {
    "engine": ("engine", (
        Metric("observations", "counter", "rceda_observations_total",
               "Observations processed by the engine main loop."),
        Metric("observation_latency", "histogram", "rceda_observation_latency_seconds",
               "Wall-clock seconds spent processing one observation."),
        Metric("match_seconds", "histogram", "rceda_node_match_seconds",
               "Seconds spent matching/propagating per event-graph node kind.",
               ("kind",), NODE_KINDS),
        Metric("emits", "counter", "rceda_emits_total",
               "Event occurrences emitted, per node kind.", ("kind",), NODE_KINDS),
        Metric("kills", "counter", "rceda_kills_total",
               "Pending matches and candidates killed (negation, lookback)."),
        Metric("detections", "counter", "rceda_detections_total", "Rule firings."),
        Metric("pseudo_scheduled", "counter", "rceda_pseudo_scheduled_total",
               "Pseudo events scheduled."),
        Metric("pseudo_fired", "counter", "rceda_pseudo_fired_total",
               "Pseudo events fired."),
        Metric("pseudo_depth", "gauge", "rceda_pseudo_queue_depth",
               "Pending pseudo events after the latest submit."),
        Metric("gc_reclaimed", "counter", "rceda_gc_reclaimed_total",
               "Expired state items reclaimed by garbage collection."),
        Metric("dropped_out_of_order", "counter", "rceda_dropped_out_of_order_total",
               "Observations dropped for arriving older than the clock."),
        Metric("dropped_too_late", "counter", "rceda_dropped_too_late_total",
               "REVISE-mode arrivals older than the watermark, dropped."),
        Metric("speculative", "counter", "rceda_speculative_detections_total",
               "Provisional detections emitted ahead of the watermark."),
        Metric("revised", "counter", "rceda_revisions_total",
               "Revision records emitted after late arrivals changed a match."),
        Metric("retracted", "counter", "rceda_retractions_total",
               "Retraction records emitted for withdrawn detections."),
        Metric("sealed", "counter", "rceda_sealed_final_total",
               "Detections sealed final by watermark passage."),
        Metric("replayed", "counter", "rceda_speculation_replayed_total",
               "Buffered observations re-run by speculation repairs."),
    )),
    "reorder": ("engine", (
        Metric("occupancy", "gauge", "rceda_reorder_occupancy",
               "Readings currently held by the reorder buffer."),
        Metric("lateness", "histogram", "rceda_reorder_lateness_seconds",
               "Stream-time lateness of arrivals vs the max timestamp seen.",
               buckets=LATENESS_BUCKETS),
        Metric("dropped_late", "counter", "rceda_reorder_dropped_late_total",
               "Arrivals older than the watermark, dropped."),
    )),
    "resilience": ("engine", (
        Metric("quarantined", "counter", "rceda_quarantined_total",
               "Poison observations quarantined to the dead-letter queue."),
        Metric("retries", "counter", "rceda_action_retries_total",
               "Action executions retried after a failure."),
        Metric("retry_attempts", "histogram", "rceda_action_retry_attempts",
               "Attempts used per activation whose actions did not succeed "
               "first try (delivered or dead-lettered).",
               buckets=RETRY_ATTEMPT_BUCKETS),
        Metric("action_dead_letters", "counter", "rceda_action_dead_letters_total",
               "Activations whose actions failed every retry attempt."),
        Metric("breaker_opens", "counter", "rceda_breaker_opens_total",
               "Circuit-breaker trips (rule isolated after repeated failures)."),
        Metric("breaker_skips", "counter", "rceda_breaker_skips_total",
               "Activations skipped because the rule's breaker was open."),
        Metric("failures", "counter", "rceda_rule_failures_total",
               "Rule condition/action failures caught by supervision.",
               ("rule", "stage")),
        Metric("breaker_states", "gauge", "rceda_breaker_state",
               "Per-rule circuit breaker state: 0 closed, 0.5 half-open, 1 open.",
               ("rule",)),
    )),
    "durability": ("engine", (
        Metric("wal_appends", "counter", "rceda_wal_appends_total",
               "Records appended to the write-ahead observation log."),
        Metric("wal_bytes", "counter", "rceda_wal_bytes_total",
               "Bytes written to the write-ahead log (headers included)."),
        Metric("wal_fsync_seconds", "histogram", "rceda_wal_fsync_seconds",
               "Wall-clock seconds per WAL fsync.", buckets=FSYNC_BUCKETS),
        Metric("wal_rotations", "counter", "rceda_wal_segment_rotations_total",
               "WAL segment rotations (segment reached its size bound)."),
        Metric("wal_replayed", "counter", "rceda_wal_replayed_records_total",
               "WAL records replayed into the engine during recovery."),
        Metric("checkpoints", "counter", "rceda_checkpoints_written_total",
               "Durable checkpoints written (automatic and explicit)."),
        Metric("outbox_delivered", "counter", "rceda_outbox_delivered_total",
               "Detections delivered to the external sink and acknowledged."),
        Metric("outbox_suppressed", "counter", "rceda_outbox_suppressed_total",
               "Replayed deliveries suppressed because they were already acked."),
        Metric("outbox_dead_letters", "counter", "rceda_outbox_dead_letters_total",
               "Deliveries that exhausted their retries and were dead-lettered."),
        Metric("outbox_held", "counter", "rceda_outbox_held_total",
               "Provisional detections parked awaiting seal (confidence=final)."),
        Metric("outbox_cancelled", "counter", "rceda_outbox_cancelled_total",
               "Parked intents cancelled by a retraction before delivery."),
        Metric("outbox_timed_out", "counter", "rceda_outbox_timed_out_total",
               "Parked intents released by the provisional timeout, unsealed."),
    )),
    "serve": ("server", (
        Metric("sessions", "gauge", "rceda_serve_sessions_active",
               "Live ingestion/subscription sessions."),
        Metric("frames", "counter", "rceda_serve_frames_total",
               "Protocol frames, by direction (in = received, out = sent).",
               ("direction",), ("in", "out")),
        Metric("bytes", "counter", "rceda_serve_bytes_total",
               "Wire bytes, by direction (framing included).",
               ("direction",), ("in", "out")),
        Metric("submitted", "counter", "rceda_serve_submitted_total",
               "Observations applied to the backend via the writer task."),
        Metric("duplicates", "counter", "rceda_serve_duplicates_skipped_total",
               "Resent observations skipped below the client's ack frontier."),
        Metric("acks", "counter", "rceda_serve_acks_total",
               "Cumulative ACK frames sent (coalesced, one in flight max)."),
        Metric("pushed", "counter", "rceda_serve_detections_pushed_total",
               "DETECTION frames handed to session senders."),
        Metric("push_depth", "gauge", "rceda_serve_push_queue_depth",
               "Detections buffered for the most recently touched session."),
        Metric("dropped", "counter", "rceda_serve_detections_dropped_total",
               "Detections discarded for slow subscribers (DROP policy)."),
        Metric("disconnects", "counter", "rceda_serve_disconnects_total",
               "Sessions force-closed (slow-consumer DISCONNECT policy)."),
        Metric("reconnects", "counter", "rceda_serve_reconnects_total",
               "Handshakes resuming a previously seen client identity."),
        Metric("pings", "counter", "rceda_serve_heartbeat_pings_total",
               "Liveness PING frames sent to heartbeat-capable sessions."),
        Metric("pongs", "counter", "rceda_serve_heartbeat_pongs_total",
               "PONG replies received from heartbeat-capable sessions."),
        Metric("reaped", "counter", "rceda_serve_sessions_reaped_total",
               "Sessions closed for exceeding the idle deadline."),
        Metric("overloads", "counter", "rceda_serve_overloads_total",
               "Submitters shed with ERROR overloaded (queue saturated)."),
    )),
    "cluster": ("router", (
        Metric("routed", "counter", "rceda_cluster_routed_total",
               "Observations fanned out to shard workers."),
        Metric("multicast", "counter", "rceda_cluster_multicast_total",
               "Extra shard copies beyond the first (fan-out cost)."),
        Metric("epochs", "counter", "rceda_cluster_epochs_total",
               "Client batches routed as fan-in epochs."),
        Metric("epochs_open", "gauge", "rceda_cluster_epochs_open",
               "Epochs forwarded to workers but not yet released."),
        Metric("forwarded", "counter", "rceda_cluster_detections_forwarded_total",
               "Worker detections re-pushed to router subscribers."),
        Metric("worker_reconnects", "counter", "rceda_cluster_worker_reconnects_total",
               "Times a worker link redialed (crash, retarget, migration)."),
        Metric("unattributed", "counter", "rceda_cluster_unattributed_total",
               "Worker detections for sub-batches no longer tracked."),
    )),
}


class _Children(dict):
    """Label value(s) -> bound child of one family under one scope label."""

    __slots__ = ("family", "scope")

    def __init__(self, family: MetricFamily, scope: dict, values: tuple) -> None:
        super().__init__()
        self.family = family
        self.scope = scope
        for value in values:
            self.__missing__(value)

    def __missing__(self, key):
        values = key if isinstance(key, tuple) else (key,)
        labels = dict(zip(self.family.labelnames[1:], values), **self.scope)
        child = self[key] = self.family.labels(**labels)
        return child


class Instruments:
    """One component's bound metric handles inside a shared registry.

    Each :data:`METRICS` row of ``component`` becomes an attribute named
    by its ``attr``: the child labelled ``scope=label``, or a mapping of
    children for a family with further labels (``emits["tseq"]``,
    ``frames["in"]``, ``failures[rule, stage]``).
    """

    def __init__(
        self, registry: MetricsRegistry, component: str, label: str
    ) -> None:
        self.registry = registry
        self.component = component
        scope, rows = METRICS[component]
        for row in rows:
            family = registry.register(
                row.name, row.kind, row.help, (scope, *row.labels), row.buckets
            )
            if row.labels:
                handle = _Children(family, {scope: label}, row.values)
            else:
                handle = family.labels(**{scope: label})
            setattr(self, row.attr, handle)

    def reset(self) -> None:
        """Zero this component's children only — co-tenants keep their values."""
        for row in METRICS[self.component][1]:
            handle = getattr(self, row.attr)
            for child in handle.values() if row.labels else (handle,):
                child.reset()


def rollup(
    registry: MetricsRegistry, name: str
) -> Union[float, dict, None]:
    """Aggregate a family across all label values.

    Counters and gauges sum to a float; histograms merge into one
    ``{"buckets": ..., "sum": ..., "count": ...}`` dict (bucket layouts
    within one family are identical by construction).  Returns ``None``
    for unknown names.
    """
    family = registry.get(name)
    if family is None:
        return None
    children = list(family.children())
    if family.kind in ("counter", "gauge"):
        return sum(child.value for child in children)
    merged_buckets: dict[str, int] = {}
    total_sum = 0.0
    total_count = 0
    for child in children:
        for edge, cumulative_count in child.cumulative():
            merged_buckets[edge] = merged_buckets.get(edge, 0) + cumulative_count
        total_sum += child.sum
        total_count += child.count
    return {"buckets": merged_buckets, "sum": total_sum, "count": total_count}
