"""Every ``rceda_*`` metric in one table, bound once for the hot path.

:data:`METRICS` declares each instrumented component's families: its
scope label (``engine``, ``server`` or ``router``) and one
:class:`Metric` row per family.  :class:`Instruments` registers a
component's rows in a registry and binds their children at construction.
A counter or gauge whose count the component already keeps (its
``stats``, a WAL or outbox counter, a queue length) reads it when the
registry is snapshotted: one count, not a copy kept in step.  Only
histograms and the label-keyed families nothing else counts are updated
on the hot path, through bound
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

#: Arrival lateness is stream time, not wall time: coarser buckets.
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
    front, any other value on first use.  A :meth:`read` row has none.
    """

    attr: str
    kind: str
    name: str
    help: str
    labels: tuple = ()
    values: tuple = ()
    buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    reads: str = ""

    @classmethod
    def read(
        cls, reads: str, kind: str, name: str, help: str, labels=(), values=()
    ) -> "Metric":
        """A counter or gauge reading the count its owner keeps at the
        dotted path ``reads`` (``{}`` is the label value: ``stats.frames_{}``)."""
        return cls("", kind, name, help, labels, values, reads=reads)


#: component -> (scope label name, its families).
METRICS: dict[str, tuple[str, tuple[Metric, ...]]] = {
    "engine": ("engine", (
        Metric.read("stats.observations", "counter", "rceda_observations_total",
                    "Observations processed by the engine main loop."),
        Metric("observation_latency", "histogram", "rceda_observation_latency_seconds",
               "Wall-clock seconds spent processing one observation."),
        Metric("match_seconds", "histogram", "rceda_node_match_seconds",
               "Seconds spent matching/propagating per event-graph node kind.",
               ("kind",), NODE_KINDS),
        Metric("emits", "counter", "rceda_emits_total",
               "Event occurrences emitted, per node kind.", ("kind",), NODE_KINDS),
        Metric.read("stats.pending_killed", "counter", "rceda_kills_total",
                    "Pending matches and candidates killed (negation, lookback)."),
        Metric.read("stats.detections", "counter", "rceda_detections_total",
                    "Rule firings."),
        Metric.read("stats.pseudo_scheduled", "counter", "rceda_pseudo_scheduled_total",
                    "Pseudo events scheduled."),
        Metric.read("stats.pseudo_fired", "counter", "rceda_pseudo_fired_total",
                    "Pseudo events fired."),
        Metric.read("pseudo_pending", "gauge", "rceda_pseudo_queue_depth",
                    "Pseudo events pending now."),
        Metric.read("stats.gc_removed", "counter", "rceda_gc_reclaimed_total",
                    "Expired state items reclaimed by garbage collection."),
        Metric.read("stats.dropped_out_of_order", "counter", "rceda_dropped_out_of_order_total",
                    "Observations dropped for arriving older than the clock."),
        Metric.read("stats.dropped_too_late", "counter", "rceda_dropped_too_late_total",
                    "Arrivals at or below the watermark, dropped."),
        Metric.read("stats.speculative", "counter", "rceda_speculative_detections_total",
                    "Provisional detections emitted ahead of the watermark."),
        Metric.read("stats.revised", "counter", "rceda_revisions_total",
                    "Revision records emitted after late arrivals changed a match."),
        Metric.read("stats.retracted", "counter", "rceda_retractions_total",
                    "Retraction records emitted for withdrawn detections."),
        Metric.read("stats.sealed", "counter", "rceda_sealed_final_total",
                    "Detections sealed final by watermark passage."),
        Metric.read("stats.replayed", "counter", "rceda_speculation_replayed_total",
                    "Buffered observations re-run by speculation repairs."),
    )),
    "reorder": ("engine", (
        Metric.read("_late.buffered", "gauge", "rceda_reorder_occupancy",
                    "Readings currently held behind the watermark."),
        Metric("lateness", "histogram", "rceda_reorder_lateness_seconds",
               "Stream-time lateness of arrivals vs the max timestamp seen.",
               buckets=LATENESS_BUCKETS),
    )),
    "resilience": ("engine", (
        Metric.read("failures.quarantined", "counter", "rceda_quarantined_total",
                    "Poison observations quarantined to the dead-letter queue."),
        Metric.read("failures.action_retries", "counter", "rceda_action_retries_total",
                    "Action executions retried after a failure."),
        Metric("retry_attempts", "histogram", "rceda_action_retry_attempts",
               "Attempts used per activation whose actions did not succeed "
               "first try (delivered or dead-lettered).",
               buckets=RETRY_ATTEMPT_BUCKETS),
        Metric.read("failures.action_dead_letters", "counter", "rceda_action_dead_letters_total",
                    "Activations whose actions failed every retry attempt."),
        Metric.read("failures.breaker_opens", "counter", "rceda_breaker_opens_total",
                    "Circuit-breaker trips (rule isolated after repeated failures)."),
        Metric.read("failures.breaker_skips", "counter", "rceda_breaker_skips_total",
                    "Activations skipped because the rule's breaker was open."),
        Metric("failures", "counter", "rceda_rule_failures_total",
               "Rule condition/action failures caught by supervision.",
               ("rule", "stage")),
        Metric("breaker_states", "gauge", "rceda_breaker_state",
               "Per-rule circuit breaker state: 0 closed, 0.5 half-open, 1 open.",
               ("rule",)),
    )),
    "durability": ("engine", (
        Metric.read("wal.appended", "counter", "rceda_wal_appends_total",
                    "Records appended to the write-ahead observation log."),
        Metric.read("wal.bytes_written", "counter", "rceda_wal_bytes_total",
                    "Bytes written to the write-ahead log (headers included)."),
        Metric("wal_fsync_seconds", "histogram", "rceda_wal_fsync_seconds",
               "Wall-clock seconds per WAL fsync.", buckets=FSYNC_BUCKETS),
        Metric.read("wal.rotations", "counter", "rceda_wal_segment_rotations_total",
                    "WAL segment rotations (segment reached its size bound)."),
        Metric.read("replayed", "counter", "rceda_wal_replayed_records_total",
                    "WAL records replayed into the engine during recovery."),
        Metric.read("checkpoints_written", "counter", "rceda_checkpoints_written_total",
                    "Durable checkpoints written (automatic and explicit)."),
        Metric.read("outbox.delivered", "counter", "rceda_outbox_delivered_total",
                    "Detections delivered to the external sink and acknowledged."),
        Metric.read("outbox.suppressed", "counter", "rceda_outbox_suppressed_total",
                    "Replayed deliveries suppressed because they were already acked."),
        Metric.read("outbox.dead_letters.total", "counter", "rceda_outbox_dead_letters_total",
                    "Deliveries that exhausted their retries and were dead-lettered."),
        Metric.read("outbox.held", "counter", "rceda_outbox_held_total",
                    "Provisional detections parked awaiting seal (confidence=final)."),
        Metric.read("outbox.cancelled", "counter", "rceda_outbox_cancelled_total",
                    "Parked intents cancelled by a retraction before delivery."),
        Metric.read("outbox.timed_out", "counter", "rceda_outbox_timed_out_total",
                    "Parked intents released by the provisional timeout, unsealed."),
    )),
    "serve": ("server", (
        Metric.read("stats.sessions_active", "gauge", "rceda_serve_sessions_active",
                    "Live ingestion/subscription sessions."),
        Metric.read("stats.frames_{}", "counter", "rceda_serve_frames_total",
                    "Protocol frames, by direction (in = received, out = sent).",
                    ("direction",), ("in", "out")),
        Metric.read("stats.bytes_{}", "counter", "rceda_serve_bytes_total",
                    "Wire bytes, by direction (framing included).",
                    ("direction",), ("in", "out")),
        Metric.read("stats.submitted", "counter", "rceda_serve_submitted_total",
                    "Observations applied to the backend via the writer task."),
        Metric.read("stats.duplicates_skipped", "counter", "rceda_serve_duplicates_skipped_total",
                    "Resent observations skipped below the client's ack frontier."),
        Metric.read("stats.acks_sent", "counter", "rceda_serve_acks_total",
                    "Cumulative ACK frames sent (coalesced, one in flight max)."),
        Metric.read("stats.detections_pushed", "counter", "rceda_serve_detections_pushed_total",
                    "DETECTION frames handed to session senders."),
        Metric("push_depth", "gauge", "rceda_serve_push_queue_depth",
               "Detections buffered for the most recently touched session."),
        Metric.read("stats.detections_dropped", "counter", "rceda_serve_detections_dropped_total",
                    "Detections discarded for slow subscribers (DROP policy)."),
        Metric.read("stats.disconnects", "counter", "rceda_serve_disconnects_total",
                    "Sessions force-closed (slow-consumer DISCONNECT policy)."),
        Metric.read("stats.reconnects", "counter", "rceda_serve_reconnects_total",
                    "Handshakes resuming a previously seen client identity."),
        Metric.read("stats.pings_sent", "counter", "rceda_serve_heartbeat_pings_total",
                    "Liveness PING frames sent to heartbeat-capable sessions."),
        Metric.read("stats.pongs_received", "counter", "rceda_serve_heartbeat_pongs_total",
                    "PONG replies received from heartbeat-capable sessions."),
        Metric.read("stats.sessions_reaped", "counter", "rceda_serve_sessions_reaped_total",
                    "Sessions closed for exceeding the idle deadline."),
        Metric.read("stats.overloads_shed", "counter", "rceda_serve_overloads_total",
                    "Submitters shed with ERROR overloaded (queue saturated)."),
    )),
    "cluster": ("router", (
        Metric.read("stats.routed", "counter", "rceda_cluster_routed_total",
                    "Observations fanned out to shard workers."),
        Metric.read("stats.multicast", "counter", "rceda_cluster_multicast_total",
                    "Extra shard copies beyond the first (fan-out cost)."),
        Metric.read("stats.epochs", "counter", "rceda_cluster_epochs_total",
                    "Fan-in epochs routed: client batches and flushes."),
        Metric.read("epochs_open", "gauge", "rceda_cluster_epochs_open",
                    "Epochs forwarded to workers but not yet released."),
        Metric.read("stats.detections_forwarded", "counter", "rceda_cluster_detections_forwarded_total",
                    "Worker detections re-pushed to router subscribers."),
        Metric.read("stats.worker_reconnects", "counter", "rceda_cluster_worker_reconnects_total",
                    "Times a worker link redialed (crash, retarget)."),
        Metric.read("stats.unattributed_detections", "counter", "rceda_cluster_unattributed_total",
                    "Worker detections for sub-batches no longer tracked."),
    )),
}


class _Reading:
    """A counter or gauge child reporting a count its owner keeps.

    ``value`` is ``base`` plus the owner's attribute at the row's
    ``reads`` path, read when asked for; a link that is None (a
    ``DurableEngine`` without an outbox) reads 0.  When another owner
    binds the child — a recovered ``DurableEngine`` reusing its first
    life's label — the old owner's reading moves into ``base``, so the
    totals continue; :meth:`reset` rebases to zero.  A counter's value is
    a ``float``, as a :class:`~repro.obs.metrics.Counter`'s is, so the
    exposition formats do not change.
    """

    __slots__ = ("kind", "labels_map", "path", "owner", "base")

    def __init__(self, kind: str, labels_map: dict, path: str) -> None:
        self.kind = kind
        self.labels_map = labels_map
        self.path = path.split(".")
        self.owner = None
        self.base = 0

    def read(self):
        value = self.owner
        for name in self.path:
            if value is None:
                return 0
            value = getattr(value, name)
        return value

    @property
    def value(self):
        value = self.base + self.read()
        return float(value) if self.kind == "counter" else value

    def bind(self, owner) -> None:
        if owner is not self.owner:
            self.base += self.read()
            self.owner = owner

    def reset(self) -> None:
        self.base = -self.read()

    def sample(self) -> dict:
        return {"labels": dict(self.labels_map), "value": self.value}


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

    Each :data:`METRICS` row of ``component`` the component updates
    becomes an attribute named by its ``attr``: the child labelled
    ``scope=label``, or a mapping of children for a family with further
    labels (``emits["tseq"]``, ``failures[rule, stage]``).  A
    :meth:`Metric.read` row gets no attribute; its children read
    ``owner``.
    """

    def __init__(
        self, registry: MetricsRegistry, component: str, label: str, owner
    ) -> None:
        self.component = component
        self._readings: list[_Reading] = []
        scope, rows = METRICS[component]
        for row in rows:
            family = registry.register(
                row.name, row.kind, row.help, (scope, *row.labels), row.buckets
            )
            if row.labels:
                handle = _Children(family, {scope: label}, row.values)
            else:
                handle = family.labels(**{scope: label})
            if not row.reads:
                setattr(self, row.attr, handle)
            elif row.labels:
                for value in row.values:
                    path = row.reads.format(value)
                    self._bind_reading(family, handle[value], path, owner)
            else:
                self._bind_reading(family, handle, row.reads, owner)

    def _bind_reading(self, family: MetricFamily, child, path: str, owner) -> None:
        """Put a reading of ``owner`` in ``child``'s place in ``family``."""
        if not isinstance(child, _Reading):
            child = _Reading(family.kind, child.labels_map, path)
            family.adopt(child)
        child.bind(owner)
        self._readings.append(child)

    def reset(self) -> None:
        """Zero this component's children only — co-tenants keep their values."""
        for child in self._readings:
            child.reset()
        for row in METRICS[self.component][1]:
            if not row.reads:
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
