"""Pre-bound metric handles for the engine's hot path.

The engine must stay allocation-free per observation when nobody is
watching, and close to it when somebody is.  :class:`EngineInstruments`
therefore resolves every metric child *once*, at attach time — the hot
path sees plain attribute access on bound :class:`~repro.obs.metrics.
Counter`/:class:`~repro.obs.metrics.Histogram` objects, never a registry
or label lookup.

All engine metrics carry an ``engine`` label so several engines (the
shards of a :class:`~repro.core.sharding.ShardedEngine`) can share one
registry: each shard reports under its own label value and a rollup is a
sum over label values of the same family.

Metric catalogue (all prefixed ``rceda_``):

==============================================  =========  ====================
name                                            type       labels
==============================================  =========  ====================
``rceda_observations_total``                    counter    engine
``rceda_observation_latency_seconds``           histogram  engine
``rceda_node_match_seconds``                    histogram  engine, kind
``rceda_emits_total``                           counter    engine, kind
``rceda_kills_total``                           counter    engine
``rceda_detections_total``                      counter    engine
``rceda_pseudo_scheduled_total``                counter    engine
``rceda_pseudo_fired_total``                    counter    engine
``rceda_pseudo_queue_depth``                    gauge      engine
``rceda_gc_reclaimed_total``                    counter    engine
``rceda_dropped_out_of_order_total``            counter    engine
``rceda_dropped_too_late_total``                counter    engine
``rceda_speculative_detections_total``          counter    engine
``rceda_revisions_total``                       counter    engine
``rceda_retractions_total``                     counter    engine
``rceda_sealed_final_total``                    counter    engine
``rceda_speculation_replayed_total``            counter    engine
``rceda_reorder_occupancy``                     gauge      engine
``rceda_reorder_lateness_seconds``              histogram  engine
``rceda_reorder_dropped_late_total``            counter    engine
==============================================  =========  ====================
"""

from __future__ import annotations

from typing import Union

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "DurabilityInstruments",
    "EngineInstruments",
    "ReorderInstruments",
    "ResilienceInstruments",
    "ServeInstruments",
    "NODE_KINDS",
]

#: Every node kind the event-graph compiler can produce (graph._expr_kind).
NODE_KINDS = (
    "obs", "or", "and", "not", "seq", "tseq", "seq+", "tseq+", "periodic",
)

#: Reorder-buffer lateness is stream time, not wall time: coarser buckets.
LATENESS_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
)


class EngineInstruments:
    """One engine's bound metric handles inside a shared registry."""

    __slots__ = (
        "registry",
        "engine_label",
        "observations",
        "observation_latency",
        "match_seconds",
        "emits",
        "kills",
        "detections",
        "pseudo_scheduled",
        "pseudo_fired",
        "pseudo_depth",
        "gc_reclaimed",
        "dropped_out_of_order",
        "dropped_too_late",
        "speculative",
        "revised",
        "retracted",
        "sealed",
        "replayed",
        "_match_family",
        "_emit_family",
    )

    def __init__(self, registry: MetricsRegistry, engine_label: str = "main") -> None:
        self.registry = registry
        self.engine_label = engine_label
        label = engine_label

        self.observations = registry.counter(
            "rceda_observations_total",
            "Observations processed by the engine main loop.",
            labelnames=("engine",),
        ).labels(engine=label)
        self.observation_latency = registry.histogram(
            "rceda_observation_latency_seconds",
            "Wall-clock seconds spent processing one observation.",
            labelnames=("engine",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        ).labels(engine=label)

        self._match_family = registry.histogram(
            "rceda_node_match_seconds",
            "Seconds spent matching/propagating per event-graph node kind.",
            labelnames=("engine", "kind"),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._emit_family = registry.counter(
            "rceda_emits_total",
            "Event occurrences emitted, per node kind.",
            labelnames=("engine", "kind"),
        )
        #: kind -> bound child, resolved eagerly for every compilable kind.
        self.match_seconds: dict[str, Histogram] = {
            kind: self._match_family.labels(engine=label, kind=kind)
            for kind in NODE_KINDS
        }
        self.emits: dict[str, Counter] = {
            kind: self._emit_family.labels(engine=label, kind=kind)
            for kind in NODE_KINDS
        }

        self.kills = registry.counter(
            "rceda_kills_total",
            "Pending matches and candidates killed (negation, lookback).",
            labelnames=("engine",),
        ).labels(engine=label)
        self.detections = registry.counter(
            "rceda_detections_total",
            "Rule firings.",
            labelnames=("engine",),
        ).labels(engine=label)
        self.pseudo_scheduled = registry.counter(
            "rceda_pseudo_scheduled_total",
            "Pseudo events scheduled.",
            labelnames=("engine",),
        ).labels(engine=label)
        self.pseudo_fired = registry.counter(
            "rceda_pseudo_fired_total",
            "Pseudo events fired.",
            labelnames=("engine",),
        ).labels(engine=label)
        self.pseudo_depth = registry.gauge(
            "rceda_pseudo_queue_depth",
            "Pending pseudo events after the latest submit.",
            labelnames=("engine",),
        ).labels(engine=label)
        self.gc_reclaimed = registry.counter(
            "rceda_gc_reclaimed_total",
            "Expired state items reclaimed by garbage collection.",
            labelnames=("engine",),
        ).labels(engine=label)
        self.dropped_out_of_order = registry.counter(
            "rceda_dropped_out_of_order_total",
            "Observations dropped for arriving older than the clock.",
            labelnames=("engine",),
        ).labels(engine=label)
        self.dropped_too_late = registry.counter(
            "rceda_dropped_too_late_total",
            "REVISE-mode arrivals older than the watermark, dropped.",
            labelnames=("engine",),
        ).labels(engine=label)
        self.speculative = registry.counter(
            "rceda_speculative_detections_total",
            "Provisional detections emitted ahead of the watermark.",
            labelnames=("engine",),
        ).labels(engine=label)
        self.revised = registry.counter(
            "rceda_revisions_total",
            "Revision records emitted after late arrivals changed a match.",
            labelnames=("engine",),
        ).labels(engine=label)
        self.retracted = registry.counter(
            "rceda_retractions_total",
            "Retraction records emitted for withdrawn detections.",
            labelnames=("engine",),
        ).labels(engine=label)
        self.sealed = registry.counter(
            "rceda_sealed_final_total",
            "Detections sealed final by watermark passage.",
            labelnames=("engine",),
        ).labels(engine=label)
        self.replayed = registry.counter(
            "rceda_speculation_replayed_total",
            "Buffered observations re-run by speculation repairs.",
            labelnames=("engine",),
        ).labels(engine=label)

    def observe_match(self, kind: str, seconds: float) -> None:
        """Record match time for a node kind (lazy-binding fallback path)."""
        child = self.match_seconds.get(kind)
        if child is None:
            child = self._match_family.labels(engine=self.engine_label, kind=kind)
            self.match_seconds[kind] = child
        child.observe(seconds)

    def count_emit(self, kind: str) -> None:
        child = self.emits.get(kind)
        if child is None:
            child = self._emit_family.labels(engine=self.engine_label, kind=kind)
            self.emits[kind] = child
        child.inc()

    def reset(self) -> None:
        """Zero this engine's children only — co-tenants keep their values."""
        for handle in (
            self.observations,
            self.observation_latency,
            self.kills,
            self.detections,
            self.pseudo_scheduled,
            self.pseudo_fired,
            self.pseudo_depth,
            self.gc_reclaimed,
            self.dropped_out_of_order,
            self.dropped_too_late,
            self.speculative,
            self.revised,
            self.retracted,
            self.sealed,
            self.replayed,
        ):
            handle.reset()
        for child in self.match_seconds.values():
            child.reset()
        for child in self.emits.values():
            child.reset()


#: Retry-attempt counts per delivered/abandoned activation (small ints).
RETRY_ATTEMPT_BUCKETS = (1, 2, 3, 4, 5, 8, 13, 21)


class ResilienceInstruments:
    """Bound handles for a supervised engine's failure-path metrics.

    Catalogue (labels as noted; ``engine`` distinguishes shards sharing a
    registry):

    ==========================================  =========  ================
    name                                        type       labels
    ==========================================  =========  ================
    ``rceda_quarantined_total``                 counter    engine
    ``rceda_rule_failures_total``               counter    engine, rule, stage
    ``rceda_action_retries_total``              counter    engine
    ``rceda_action_retry_attempts``             histogram  engine
    ``rceda_action_dead_letters_total``         counter    engine
    ``rceda_breaker_state``                     gauge      engine, rule
    ``rceda_breaker_opens_total``               counter    engine
    ``rceda_breaker_skips_total``               counter    engine
    ==========================================  =========  ================

    ``rceda_breaker_state`` encodes closed = 0, half-open = 0.5,
    open = 1, so a fleet dashboard can alert on ``max() > 0``.
    """

    __slots__ = (
        "registry",
        "engine_label",
        "quarantined",
        "retries",
        "retry_attempts",
        "action_dead_letters",
        "breaker_opens",
        "breaker_skips",
        "_failure_family",
        "_breaker_family",
        "failures",
        "breaker_states",
    )

    def __init__(self, registry: MetricsRegistry, engine_label: str = "main") -> None:
        self.registry = registry
        self.engine_label = engine_label
        self.quarantined = registry.counter(
            "rceda_quarantined_total",
            "Poison observations quarantined to the dead-letter queue.",
            labelnames=("engine",),
        ).labels(engine=engine_label)
        self.retries = registry.counter(
            "rceda_action_retries_total",
            "Action executions retried after a failure.",
            labelnames=("engine",),
        ).labels(engine=engine_label)
        self.retry_attempts = registry.histogram(
            "rceda_action_retry_attempts",
            "Attempts used per activation whose actions did not succeed "
            "first try (delivered or dead-lettered).",
            labelnames=("engine",),
            buckets=RETRY_ATTEMPT_BUCKETS,
        ).labels(engine=engine_label)
        self.action_dead_letters = registry.counter(
            "rceda_action_dead_letters_total",
            "Activations whose actions failed every retry attempt.",
            labelnames=("engine",),
        ).labels(engine=engine_label)
        self.breaker_opens = registry.counter(
            "rceda_breaker_opens_total",
            "Circuit-breaker trips (rule isolated after repeated failures).",
            labelnames=("engine",),
        ).labels(engine=engine_label)
        self.breaker_skips = registry.counter(
            "rceda_breaker_skips_total",
            "Activations skipped because the rule's breaker was open.",
            labelnames=("engine",),
        ).labels(engine=engine_label)
        self._failure_family = registry.counter(
            "rceda_rule_failures_total",
            "Rule condition/action failures caught by supervision.",
            labelnames=("engine", "rule", "stage"),
        )
        self._breaker_family = registry.gauge(
            "rceda_breaker_state",
            "Per-rule circuit breaker state: 0 closed, 0.5 half-open, 1 open.",
            labelnames=("engine", "rule"),
        )
        #: (rule, stage) -> bound counter; resolved lazily per rule.
        self.failures: dict[tuple[str, str], Counter] = {}
        #: rule -> bound gauge.
        self.breaker_states: dict = {}

    def count_failure(self, rule_id: str, stage: str) -> None:
        key = (rule_id, stage)
        child = self.failures.get(key)
        if child is None:
            child = self._failure_family.labels(
                engine=self.engine_label, rule=rule_id, stage=stage
            )
            self.failures[key] = child
        child.inc()

    def set_breaker_state(self, rule_id: str, value: float) -> None:
        child = self.breaker_states.get(rule_id)
        if child is None:
            child = self._breaker_family.labels(
                engine=self.engine_label, rule=rule_id
            )
            self.breaker_states[rule_id] = child
        child.set(value)

    def reset(self) -> None:
        """Zero this engine's children only — co-tenants keep their values."""
        for handle in (
            self.quarantined,
            self.retries,
            self.retry_attempts,
            self.action_dead_letters,
            self.breaker_opens,
            self.breaker_skips,
        ):
            handle.reset()
        for child in self.failures.values():
            child.reset()
        for child in self.breaker_states.values():
            child.reset()


#: WAL fsync latency: storage-bound, so finer sub-millisecond buckets.
FSYNC_BUCKETS = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0,
)


class DurabilityInstruments:
    """Bound handles for one durable engine's WAL/checkpoint/outbox path.

    Catalogue (all carry the ``engine`` label so durable shards can share
    a registry):

    ==========================================  =========  ================
    name                                        type       labels
    ==========================================  =========  ================
    ``rceda_wal_appends_total``                 counter    engine
    ``rceda_wal_bytes_total``                   counter    engine
    ``rceda_wal_fsync_seconds``                 histogram  engine
    ``rceda_wal_segment_rotations_total``       counter    engine
    ``rceda_wal_replayed_records_total``        counter    engine
    ``rceda_checkpoints_written_total``         counter    engine
    ``rceda_outbox_delivered_total``            counter    engine
    ``rceda_outbox_suppressed_total``           counter    engine
    ``rceda_outbox_dead_letters_total``         counter    engine
    ``rceda_outbox_held_total``                 counter    engine
    ``rceda_outbox_cancelled_total``            counter    engine
    ``rceda_outbox_timed_out_total``            counter    engine
    ==========================================  =========  ================

    ``rceda_outbox_suppressed_total`` is the exactly-once guarantee made
    visible: each suppression is a side effect that WAL replay would have
    duplicated without the outbox journal.  The ``held``/``cancelled``/
    ``timed_out`` trio tracks the confidence horizon: provisional
    detections parked awaiting a ``final``, retractions that cancelled a
    parked intent before delivery, and parked intents released by the
    provisional timeout instead of a seal.
    """

    __slots__ = (
        "registry",
        "engine_label",
        "wal_appends",
        "wal_bytes",
        "wal_fsync_seconds",
        "wal_rotations",
        "wal_replayed",
        "checkpoints",
        "outbox_delivered",
        "outbox_suppressed",
        "outbox_dead_letters",
        "outbox_held",
        "outbox_cancelled",
        "outbox_timed_out",
    )

    def __init__(self, registry: MetricsRegistry, engine_label: str = "main") -> None:
        self.registry = registry
        self.engine_label = engine_label
        self.wal_appends = registry.counter(
            "rceda_wal_appends_total",
            "Records appended to the write-ahead observation log.",
            labelnames=("engine",),
        ).labels(engine=engine_label)
        self.wal_bytes = registry.counter(
            "rceda_wal_bytes_total",
            "Bytes written to the write-ahead log (headers included).",
            labelnames=("engine",),
        ).labels(engine=engine_label)
        self.wal_fsync_seconds = registry.histogram(
            "rceda_wal_fsync_seconds",
            "Wall-clock seconds per WAL fsync.",
            labelnames=("engine",),
            buckets=FSYNC_BUCKETS,
        ).labels(engine=engine_label)
        self.wal_rotations = registry.counter(
            "rceda_wal_segment_rotations_total",
            "WAL segment rotations (segment reached its size bound).",
            labelnames=("engine",),
        ).labels(engine=engine_label)
        self.wal_replayed = registry.counter(
            "rceda_wal_replayed_records_total",
            "WAL records replayed into the engine during recovery.",
            labelnames=("engine",),
        ).labels(engine=engine_label)
        self.checkpoints = registry.counter(
            "rceda_checkpoints_written_total",
            "Durable checkpoints written (automatic and explicit).",
            labelnames=("engine",),
        ).labels(engine=engine_label)
        self.outbox_delivered = registry.counter(
            "rceda_outbox_delivered_total",
            "Detections delivered to the external sink and acknowledged.",
            labelnames=("engine",),
        ).labels(engine=engine_label)
        self.outbox_suppressed = registry.counter(
            "rceda_outbox_suppressed_total",
            "Replayed deliveries suppressed because they were already acked.",
            labelnames=("engine",),
        ).labels(engine=engine_label)
        self.outbox_dead_letters = registry.counter(
            "rceda_outbox_dead_letters_total",
            "Deliveries that exhausted their retries and were dead-lettered.",
            labelnames=("engine",),
        ).labels(engine=engine_label)
        self.outbox_held = registry.counter(
            "rceda_outbox_held_total",
            "Provisional detections parked awaiting seal (confidence=final).",
            labelnames=("engine",),
        ).labels(engine=engine_label)
        self.outbox_cancelled = registry.counter(
            "rceda_outbox_cancelled_total",
            "Parked intents cancelled by a retraction before delivery.",
            labelnames=("engine",),
        ).labels(engine=engine_label)
        self.outbox_timed_out = registry.counter(
            "rceda_outbox_timed_out_total",
            "Parked intents released by the provisional timeout, unsealed.",
            labelnames=("engine",),
        ).labels(engine=engine_label)

    def reset(self) -> None:
        """Zero this engine's children only — co-tenants keep their values."""
        for handle in (
            self.wal_appends,
            self.wal_bytes,
            self.wal_fsync_seconds,
            self.wal_rotations,
            self.wal_replayed,
            self.checkpoints,
            self.outbox_delivered,
            self.outbox_suppressed,
            self.outbox_dead_letters,
            self.outbox_held,
            self.outbox_cancelled,
            self.outbox_timed_out,
        ):
            handle.reset()


class ServeInstruments:
    """Bound handles for one :class:`~repro.serve.CepServer`.

    Catalogue (all carry the ``server`` label so several servers — e.g.
    a bench harness running loopback and socket servers side by side —
    can share a registry):

    ==============================================  =========  ========
    name                                            type       labels
    ==============================================  =========  ========
    ``rceda_serve_sessions_active``                 gauge      server
    ``rceda_serve_frames_total``                    counter    server, direction
    ``rceda_serve_bytes_total``                     counter    server, direction
    ``rceda_serve_submitted_total``                 counter    server
    ``rceda_serve_duplicates_skipped_total``        counter    server
    ``rceda_serve_acks_total``                      counter    server
    ``rceda_serve_detections_pushed_total``         counter    server
    ``rceda_serve_push_queue_depth``                gauge      server
    ``rceda_serve_detections_dropped_total``        counter    server
    ``rceda_serve_disconnects_total``               counter    server
    ``rceda_serve_reconnects_total``                counter    server
    ``rceda_serve_heartbeat_pings_total``           counter    server
    ``rceda_serve_heartbeat_pongs_total``           counter    server
    ``rceda_serve_sessions_reaped_total``           counter    server
    ``rceda_serve_overloads_total``                 counter    server
    ==============================================  =========  ========

    ``rceda_serve_duplicates_skipped_total`` is the resume contract made
    visible: each skip is a resent observation the ack frontier kept
    from being applied twice.  ``rceda_serve_detections_dropped_total``
    counts slow-subscriber drops under the ``DROP`` policy;
    ``rceda_serve_push_queue_depth`` tracks the most recently touched
    session's buffer (fleet dashboards alert on the drop counter, not
    the gauge).
    """

    __slots__ = (
        "registry",
        "server_label",
        "sessions",
        "frames_in",
        "frames_out",
        "bytes_in",
        "bytes_out",
        "submitted",
        "duplicates",
        "acks",
        "pushed",
        "push_depth",
        "dropped",
        "disconnects",
        "reconnects",
        "pings",
        "pongs",
        "reaped",
        "overloads",
    )

    def __init__(self, registry: MetricsRegistry, server_label: str = "serve") -> None:
        self.registry = registry
        self.server_label = server_label
        self.sessions = registry.gauge(
            "rceda_serve_sessions_active",
            "Live ingestion/subscription sessions.",
            labelnames=("server",),
        ).labels(server=server_label)
        frames = registry.counter(
            "rceda_serve_frames_total",
            "Protocol frames, by direction (in = received, out = sent).",
            labelnames=("server", "direction"),
        )
        self.frames_in = frames.labels(server=server_label, direction="in")
        self.frames_out = frames.labels(server=server_label, direction="out")
        wire_bytes = registry.counter(
            "rceda_serve_bytes_total",
            "Wire bytes, by direction (framing included).",
            labelnames=("server", "direction"),
        )
        self.bytes_in = wire_bytes.labels(server=server_label, direction="in")
        self.bytes_out = wire_bytes.labels(server=server_label, direction="out")
        self.submitted = registry.counter(
            "rceda_serve_submitted_total",
            "Observations applied to the backend via the writer task.",
            labelnames=("server",),
        ).labels(server=server_label)
        self.duplicates = registry.counter(
            "rceda_serve_duplicates_skipped_total",
            "Resent observations skipped below the client's ack frontier.",
            labelnames=("server",),
        ).labels(server=server_label)
        self.acks = registry.counter(
            "rceda_serve_acks_total",
            "Cumulative ACK frames sent (coalesced, one in flight max).",
            labelnames=("server",),
        ).labels(server=server_label)
        self.pushed = registry.counter(
            "rceda_serve_detections_pushed_total",
            "DETECTION frames handed to session senders.",
            labelnames=("server",),
        ).labels(server=server_label)
        self.push_depth = registry.gauge(
            "rceda_serve_push_queue_depth",
            "Detections buffered for the most recently touched session.",
            labelnames=("server",),
        ).labels(server=server_label)
        self.dropped = registry.counter(
            "rceda_serve_detections_dropped_total",
            "Detections discarded for slow subscribers (DROP policy).",
            labelnames=("server",),
        ).labels(server=server_label)
        self.disconnects = registry.counter(
            "rceda_serve_disconnects_total",
            "Sessions force-closed (slow-consumer DISCONNECT policy).",
            labelnames=("server",),
        ).labels(server=server_label)
        self.reconnects = registry.counter(
            "rceda_serve_reconnects_total",
            "Handshakes resuming a previously seen client identity.",
            labelnames=("server",),
        ).labels(server=server_label)
        self.pings = registry.counter(
            "rceda_serve_heartbeat_pings_total",
            "Liveness PING frames sent to heartbeat-capable sessions.",
            labelnames=("server",),
        ).labels(server=server_label)
        self.pongs = registry.counter(
            "rceda_serve_heartbeat_pongs_total",
            "PONG replies received from heartbeat-capable sessions.",
            labelnames=("server",),
        ).labels(server=server_label)
        self.reaped = registry.counter(
            "rceda_serve_sessions_reaped_total",
            "Sessions closed for exceeding the idle deadline.",
            labelnames=("server",),
        ).labels(server=server_label)
        self.overloads = registry.counter(
            "rceda_serve_overloads_total",
            "Submitters shed with ERROR overloaded (queue saturated).",
            labelnames=("server",),
        ).labels(server=server_label)

    def reset(self) -> None:
        """Zero this server's children only — co-tenants keep their values."""
        for handle in (
            self.sessions,
            self.frames_in,
            self.frames_out,
            self.bytes_in,
            self.bytes_out,
            self.submitted,
            self.duplicates,
            self.acks,
            self.pushed,
            self.push_depth,
            self.dropped,
            self.disconnects,
            self.reconnects,
            self.pings,
            self.pongs,
            self.reaped,
            self.overloads,
        ):
            handle.reset()


class ClusterInstruments:
    """Bound handles for one :class:`~repro.serve.cluster.CepRouter`.

    Catalogue (all carry the ``router`` label):

    ==============================================  =========  ========
    name                                            type       labels
    ==============================================  =========  ========
    ``rceda_cluster_routed_total``                  counter    router
    ``rceda_cluster_multicast_total``               counter    router
    ``rceda_cluster_epochs_total``                  counter    router
    ``rceda_cluster_epochs_open``                   gauge      router
    ``rceda_cluster_detections_forwarded_total``    counter    router
    ``rceda_cluster_worker_reconnects_total``       counter    router
    ``rceda_cluster_unattributed_total``            counter    router
    ==============================================  =========  ========

    ``rceda_cluster_epochs_open`` is the router's in-flight window: the
    number of client batches forwarded to workers but not yet released
    (acked + detections pushed).  ``rceda_cluster_unattributed_total``
    counts worker detections that arrived for a sub-batch the router no
    longer tracks — nonzero only around worker crashes, where the push
    path is deliberately at-most-once (durable sinks stay exactly-once).
    """

    __slots__ = (
        "registry",
        "router_label",
        "routed",
        "multicast",
        "epochs",
        "epochs_open",
        "forwarded",
        "worker_reconnects",
        "unattributed",
    )

    def __init__(self, registry: MetricsRegistry, router_label: str = "router") -> None:
        self.registry = registry
        self.router_label = router_label
        self.routed = registry.counter(
            "rceda_cluster_routed_total",
            "Observations fanned out to shard workers.",
            labelnames=("router",),
        ).labels(router=router_label)
        self.multicast = registry.counter(
            "rceda_cluster_multicast_total",
            "Extra shard copies beyond the first (fan-out cost).",
            labelnames=("router",),
        ).labels(router=router_label)
        self.epochs = registry.counter(
            "rceda_cluster_epochs_total",
            "Client batches routed as fan-in epochs.",
            labelnames=("router",),
        ).labels(router=router_label)
        self.epochs_open = registry.gauge(
            "rceda_cluster_epochs_open",
            "Epochs forwarded to workers but not yet released.",
            labelnames=("router",),
        ).labels(router=router_label)
        self.forwarded = registry.counter(
            "rceda_cluster_detections_forwarded_total",
            "Worker detections re-pushed to router subscribers.",
            labelnames=("router",),
        ).labels(router=router_label)
        self.worker_reconnects = registry.counter(
            "rceda_cluster_worker_reconnects_total",
            "Times a worker link redialed (crash, retarget, migration).",
            labelnames=("router",),
        ).labels(router=router_label)
        self.unattributed = registry.counter(
            "rceda_cluster_unattributed_total",
            "Worker detections for sub-batches no longer tracked.",
            labelnames=("router",),
        ).labels(router=router_label)

    def reset(self) -> None:
        """Zero this router's children only — co-tenants keep their values."""
        for handle in (
            self.routed,
            self.multicast,
            self.epochs,
            self.epochs_open,
            self.forwarded,
            self.worker_reconnects,
            self.unattributed,
        ):
            handle.reset()


class ReorderInstruments:
    """Bound handles for a reorder buffer feeding one engine."""

    __slots__ = ("occupancy", "lateness", "dropped_late")

    def __init__(self, registry: MetricsRegistry, engine_label: str = "main") -> None:
        self.occupancy = registry.gauge(
            "rceda_reorder_occupancy",
            "Readings currently held by the reorder buffer.",
            labelnames=("engine",),
        ).labels(engine=engine_label)
        self.lateness = registry.histogram(
            "rceda_reorder_lateness_seconds",
            "Stream-time lateness of arrivals vs the max timestamp seen.",
            labelnames=("engine",),
            buckets=LATENESS_BUCKETS,
        ).labels(engine=engine_label)
        self.dropped_late = registry.counter(
            "rceda_reorder_dropped_late_total",
            "Arrivals older than the watermark, dropped.",
            labelnames=("engine",),
        ).labels(engine=engine_label)

    def reset(self) -> None:
        self.occupancy.reset()
        self.lateness.reset()
        self.dropped_late.reset()


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
