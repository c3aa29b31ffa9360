"""The RCEDA engine: streaming detection of complex RFID events (paper §4.6).

:class:`Engine` compiles a set of rules into one merged event graph,
then consumes a time-ordered stream of reader observations.  Following
the paper's main loop, it maintains two queues — the incoming observation
stream and a queue of scheduled *pseudo events* — and always processes
the earliest item, so expirations of non-spontaneous events interleave
correctly with real observations.

Typical use::

    from repro import Engine, Rule, obs, Var, TSeq, TSeqPlus

    item = obs("r1", Var("o1"))
    case = obs("r2", Var("o2"))
    packing = TSeq(TSeqPlus(item, "0.1sec", "1sec"), case, "10sec", "20sec")

    engine = Engine()
    engine.add_rule(Rule("r4", "containment", packing))
    for detection in engine.run(stream_of_observations):
        print(detection.instance)

The engine works in *logical time*: the clock is the timestamp of the
latest processed observation, and pending pseudo events fire when the
clock passes their execution time.  At end of stream, :meth:`Engine.flush`
(or ``run(..., flush=True)``, the default) forces remaining expirations —
the stand-in for the wall-clock timers of a deployed middleware.

The per-observation path is compiled once the graph is final, at the
first observation, into a *plan* that the main loop only executes:

* a **route table**: reader literal → the ``(node, matcher)`` pairs of
  its primitive events, the same per reader group, and the wildcard
  primitives — tried in that order — where each matcher is the
  primitive's compiled ``match`` (:func:`repro.core.nodes.compile_match`);
* an **emit plan** per node: its interval bound, whether it is a
  composite, its history ``record`` (or None), its rules and its
  parents' bound ``on_child`` callbacks with their child indexes.

An attached metrics registry is composed into the plan when it is built
(timed matchers and callbacks, counted emits), so the hot path has no
instrumentation branches.  Adding a rule, :meth:`Engine.reset` and
:meth:`Engine.attach_metrics` discard the plan; the next observation
builds it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Protocol

from ..obs.instrument import Instruments
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import EngineObserver, as_observer
from .contexts import ParameterContext, get_context
from .errors import ActionError, ConditionError, TimeOrderError
from .expressions import EventExpr
from .graph import EventGraph
from .instances import EventInstance, Observation, PrimitiveInstance
from .nodes import RuntimeNode, create_state
from .pseudo import PseudoEvent, PseudoQueue
from .temporal import TIME_EPSILON


class OutOfOrderPolicy(str, Enum):
    """What :class:`Engine` does with observations older than its clock.

    ``RAISE`` (the default) treats disorder as a caller bug; ``DROP``
    mirrors a watermark-style late-data policy and counts every loss in
    ``stats.dropped_out_of_order`` / the ``rceda_dropped_out_of_order_
    total`` metric; ``REVISE`` buffers a bounded reorder horizon
    (``revise_horizon`` seconds), emits detections immediately tagged
    ``provisional`` and compensates with ``retract``/``revise``/
    ``final`` records as late data lands and the watermark advances
    (see :mod:`repro.core.speculate` and ``docs/consistency.md``).

    A :class:`str` subclass, so the string spellings (``"raise"``/
    ``"drop"``/``"revise"``) compare equal and both forms are accepted by
    ``Engine(out_of_order=...)``.
    """

    RAISE = "raise"
    DROP = "drop"
    REVISE = "revise"

    @classmethod
    def coerce(cls, value: "str | OutOfOrderPolicy") -> "OutOfOrderPolicy":
        """Normalise a policy or its string spelling; ValueError otherwise."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"bad out_of_order policy: {value!r} "
                f"(expected one of {[policy.value for policy in cls]})"
            ) from None


class FunctionRegistry:
    """The user-defined ``group()`` and ``type()`` functions of §2.1.

    ``group`` maps a reader EPC to its deployment group (default: the
    reader itself, matching the paper's default of a singleton group);
    ``obj_type`` maps an object EPC to its type name (default: no type
    information, so type-filtered primitive events never match until a
    real function — e.g. ``repro.epc.type_of`` — is registered).
    """

    __slots__ = ("group", "obj_type")

    def __init__(
        self,
        group: Optional[Callable[[str], str]] = None,
        obj_type: Optional[Callable[[str], Optional[str]]] = None,
    ) -> None:
        self.group = group if group is not None else lambda reader: reader
        self.obj_type = obj_type if obj_type is not None else lambda _obj: None


@dataclass
class EngineStats:
    """Counters describing one engine's activity."""

    observations: int = 0
    primitive_matches: int = 0
    composites: int = 0
    pseudo_scheduled: int = 0
    pseudo_fired: int = 0
    detections: int = 0
    pending_killed: int = 0
    interval_violations: int = 0
    dropped_out_of_order: int = 0
    #: REVISE-mode arrivals older than the watermark (outside the
    #: promised horizon); also counted in ``dropped_out_of_order``.
    dropped_too_late: int = 0
    #: REVISE-mode revision-lifecycle counters.
    speculative: int = 0
    revised: int = 0
    retracted: int = 0
    sealed: int = 0
    #: Buffered observations re-run through the speculative clone by
    #: REVISE repairs (the work a late arrival costs).
    replayed: int = 0
    gc_removed: int = 0
    #: detections per rule id.
    per_rule: dict = field(default_factory=dict)

    def count_rule(self, rule_id: str) -> None:
        self.per_rule[rule_id] = self.per_rule.get(rule_id, 0) + 1


@dataclass(frozen=True)
class Detection:
    """A rule firing: which rule, on which event instance, at what time."""

    rule: "RuleLike"
    instance: EventInstance
    time: float

    @property
    def bindings(self) -> dict[str, Any]:
        return dict(self.instance.bindings)

    def __repr__(self) -> str:
        return f"<detection rule={self.rule.rule_id!r} at {self.time:g}>"


class SubmitResult(list):
    """The unified return of every engine-side ``submit_many``.

    Historically each layer returned a bare ``list[Detection]`` with no
    way to tell how much of the batch was actually applied.  The
    contract now: ``submit_many`` of every :class:`DetectionBackend`,
    and of the ``DurableEngine`` wrapped around one, returns a
    :class:`SubmitResult` carrying batch accounting —

    - :attr:`accepted` — observations the engine processed;
    - :attr:`dropped` — rejected by the out-of-order policy;
    - :attr:`quarantined` — poison isolated by supervision.

    Serve *clients* keep their distinct semantics: their
    ``submit_many`` returns the last assigned client sequence number
    (an ``int``), because over the wire the detections flow back
    asynchronously via SUBSCRIBE pushes, not as a return value.

    The deprecation shim is the type itself: ``SubmitResult`` *is* a
    ``list`` of :class:`Detection`, so call sites that iterate,
    ``extend``, concatenate or ``len()`` the old return keep working
    unchanged; new code reads the counters or the explicit
    :attr:`detections` alias.
    """

    __slots__ = ("accepted", "dropped", "quarantined")

    def __init__(
        self,
        detections: Iterable["Detection"] = (),
        *,
        accepted: int = 0,
        dropped: int = 0,
        quarantined: int = 0,
    ) -> None:
        super().__init__(detections)
        self.accepted = accepted
        self.dropped = dropped
        self.quarantined = quarantined

    @property
    def detections(self) -> list["Detection"]:
        """The detections themselves (this object; it is the list)."""
        return self

    def __repr__(self) -> str:
        return (
            f"SubmitResult(accepted={self.accepted}, dropped={self.dropped}, "
            f"quarantined={self.quarantined}, detections={list.__repr__(self)})"
        )


class DetectionBackend(Protocol):
    """What every detection engine offers the layers wrapped around it.

    :class:`Engine`, ``ShardedEngine`` and ``SupervisedEngine`` satisfy
    it.  ``DurableEngine`` wraps any of them through exactly these
    methods; ``CepServer`` serves one directly, or durably wrapped.

    ``seq``/``first_seq`` tag observations with the durable sequence
    numbers of a write-ahead log; the latest one rides inside
    :meth:`checkpoint`, so a snapshot says which log prefix it covers.
    :meth:`restore` loads a snapshot into a freshly built backend with
    the same rules.
    """

    def submit(
        self, observation: Observation, seq: Optional[int] = None
    ) -> list: ...

    def submit_many(
        self,
        observations: Iterable[Observation],
        first_seq: Optional[int] = None,
    ) -> SubmitResult: ...

    def flush(self) -> list: ...

    def checkpoint(self) -> dict: ...

    def restore(self, snapshot: dict) -> None: ...


class ActivationContext:
    """Everything a rule's condition and actions can see when it fires."""

    __slots__ = ("engine", "rule", "instance", "time")

    def __init__(
        self, engine: "Engine", rule: "RuleLike", instance: EventInstance, time: float
    ) -> None:
        self.engine = engine
        self.rule = rule
        self.instance = instance
        self.time = time

    @property
    def bindings(self) -> dict[str, Any]:
        return dict(self.instance.bindings)

    @property
    def store(self):
        return self.engine.store

    def observations(self) -> list[Observation]:
        """The leaf observations of the matched instance, in order."""
        return list(self.instance.observations())


class RuleLike:
    """Duck-typing contract for objects accepted by :meth:`Engine.add_rule`.

    ``repro.rules.Rule`` is the full-featured implementation; this base
    also backs :meth:`Engine.watch` for quick, condition-less detection.
    """

    rule_id: str
    name: str
    event: EventExpr
    #: disabled rules stay compiled (their sub-events keep feeding shared
    #: graph state) but do not fire; toggle freely at runtime.
    enabled: bool = True

    def evaluate_condition(self, context: ActivationContext) -> bool:
        return True

    def execute_actions(self, context: ActivationContext) -> None:
        return None


class _WatchRule(RuleLike):
    """A detection-only rule created by :meth:`Engine.watch`."""

    def __init__(
        self,
        rule_id: str,
        event: EventExpr,
        callback: Optional[Callable[[ActivationContext], None]],
    ) -> None:
        self.rule_id = rule_id
        self.name = rule_id
        self.event = event
        self._callback = callback

    def execute_actions(self, context: ActivationContext) -> None:
        if self._callback is not None:
            self._callback(context)


class _Plan(NamedTuple):
    """An engine's compiled per-observation path (see the module docstring).

    ``routes``/``by_group`` map a reader literal/group to a tuple of
    ``(node, matcher)`` pairs and ``wildcards`` is one such tuple;
    ``emits[node_id]`` is the node's emit plan ``(within, composite,
    record, rules, parents)``; ``latency`` observes an observation's
    processing time, or is None without a registry.
    """

    routes: dict
    by_group: dict
    wildcards: tuple
    emits: list
    latency: Optional[Callable[[float], None]]

    def restricted(self, node_ids: set[int]) -> "_Plan":
        """This plan, routing only to the primitives in ``node_ids``.

        A reader literal or group left with no primitive is dropped.
        """
        def keep(routes: tuple) -> tuple:
            return tuple(route for route in routes if route[0].node_id in node_ids)

        def keep_all(table: dict) -> dict:
            kept = {key: keep(routes) for key, routes in table.items()}
            return {key: routes for key, routes in kept.items() if routes}

        return _Plan(keep_all(self.routes), keep_all(self.by_group),
                     keep(self.wildcards), self.emits, None)


def _as_is(step: Any, kind: str) -> Any:
    """A plan step left uninstrumented."""
    return step


def _timed(function: Callable, histogram) -> Callable:
    """``function``, observing each call's wall-clock seconds into ``histogram``."""
    observe = histogram.observe

    def timed(*args):
        started = perf_counter()
        result = function(*args)
        observe(perf_counter() - started)
        return result

    return timed


def _counted(record: Optional[Callable], counter) -> Callable:
    """An emit plan's ``record`` step that also counts the emit."""
    inc = counter.inc

    def counted(instance: EventInstance) -> None:
        inc()
        if record is not None:
            record(instance)

    return counted


class Engine:
    """Streaming RFID complex event detector (RCEDA).

    Parameters
    ----------
    rules:
        Initial rules (more can be added with :meth:`add_rule` before the
        first observation is processed).
    context:
        Parameter context name or instance; default ``"chronicle"``, the
        only context the paper finds correct for overlapping RFID events.
    functions:
        The ``group()`` / ``type()`` function registry.
    store:
        Optional data store made available to rule conditions/actions.
    merge_common_subgraphs:
        Share identical sub-events across rules (paper §4.3); disabling
        this exists for the merge ablation benchmark.
    out_of_order:
        An :class:`OutOfOrderPolicy` (or its string spelling,
        ``"raise"``/``"drop"``/``"revise"``) for observations older
        than the engine clock.  ``REVISE`` requires ``revise_horizon``.
    revise_horizon:
        The REVISE watermark lag, in stream seconds: arrivals up to this
        late are repaired via retraction/revision; older arrivals are
        dropped (counted in ``stats.dropped_too_late``).  Detections are
        sealed ``final`` once the watermark passes them.  Only valid
        with ``out_of_order=REVISE``, which it is required by.
    reorder_delay:
        When set, arrivals pass through a watermark reorder buffer of
        this many seconds before detection: readings up to that late are
        repaired instead of raising/dropping.  Detections for a buffered
        reading surface once the watermark passes it (or at flush).
    gc_every:
        Run expired-state garbage collection every N observations.
    observer:
        Optional :class:`repro.obs.EngineObserver` receiving typed
        callbacks (``on_observation``, ``on_emit``, ``on_pseudo``,
        ``on_kill``, ``on_detection``, ``on_gc``) as engine internals
        happen.  Keep hooks fast; they run on the hot path.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`.  When attached, it
        gets per-observation latency, per-node-kind match time and emits,
        and reads detections, kills, pseudo events, GC reclaim and the
        rest from :attr:`stats` (see ``docs/observability.md``).  The
        timers and emit counters are composed into the per-observation
        plan when it is built; without a registry the plan has none.
    metrics_label:
        The ``engine`` label value for this engine's metrics — distinct
        per shard when several engines share a registry.
    """

    def __init__(
        self,
        rules: Iterable[RuleLike] = (),
        *,
        context: "str | ParameterContext" = "chronicle",
        functions: Optional[FunctionRegistry] = None,
        store: Any = None,
        merge_common_subgraphs: bool = True,
        out_of_order: "str | OutOfOrderPolicy" = OutOfOrderPolicy.RAISE,
        revise_horizon: Optional[float] = None,
        reorder_delay: Optional[float] = None,
        gc_every: int = 1024,
        observer: Optional[EngineObserver] = None,
        metrics: Optional[MetricsRegistry] = None,
        metrics_label: str = "main",
    ) -> None:
        self.context = get_context(context)
        self.functions = functions if functions is not None else FunctionRegistry()
        self.store = store
        self.graph = EventGraph(merge_common_subgraphs=merge_common_subgraphs)
        self.states: list[RuntimeNode] = []
        self.rules: list[RuleLike] = []
        self.stats = EngineStats()
        self._pseudo_queue = PseudoQueue()
        self._clock = float("-inf")
        self._last_seq = -1
        self._out: list[Detection] = []
        self._out_of_order = OutOfOrderPolicy.coerce(out_of_order)
        self._gc_every = max(1, int(gc_every))
        self._started = False
        self._watch_counter = 0
        self._observer = as_observer(observer)
        self._instr: Optional[Instruments] = None
        #: The compiled per-observation path; None until the next observation.
        self._plan: Optional[_Plan] = None
        #: The attached registry, or None.
        self.metrics: Optional[MetricsRegistry] = None
        self._reorder = None
        if reorder_delay is not None:
            from ..readers.streams import ReorderBuffer

            self._reorder = ReorderBuffer(delay=reorder_delay)
        self._spec = None
        if self._out_of_order is OutOfOrderPolicy.REVISE:
            if revise_horizon is None:
                raise ValueError(
                    "out_of_order=REVISE requires revise_horizon (the "
                    "watermark lag, in stream seconds)"
                )
            if self._reorder is not None:
                raise ValueError(
                    "revise_horizon and reorder_delay are mutually "
                    "exclusive: REVISE subsumes the reorder buffer"
                )
            from .speculate import SpeculationManager

            self._spec = SpeculationManager(self, revise_horizon)
        elif revise_horizon is not None:
            raise ValueError(
                "revise_horizon is only meaningful with out_of_order="
                "OutOfOrderPolicy.REVISE"
            )
        if metrics is not None:
            self.attach_metrics(metrics, label=metrics_label)
        for rule in rules:
            self.add_rule(rule)

    # -- configuration --------------------------------------------------------

    def attach_metrics(
        self, registry: MetricsRegistry, label: str = "main"
    ) -> Instruments:
        """Report this engine's internals into ``registry``.

        Metric children are resolved once, here, so the per-observation
        cost is bound-handle updates only.  Several engines may share a
        registry under distinct ``label`` values (sharding rollups).
        Returns the bound instruments (mostly for tests).
        """
        self._instr = Instruments(registry, "engine", label, self)
        self.metrics = registry
        self._plan = None
        if self._reorder is not None:
            self._reorder.instruments = Instruments(
                registry, "reorder", label, self._reorder
            )
        return self._instr

    @property
    def pseudo_pending(self) -> int:
        """Pseudo events scheduled and not yet fired."""
        return len(self._pseudo_queue)

    @property
    def observer(self) -> Optional[EngineObserver]:
        return self._observer

    @observer.setter
    def observer(self, value: Optional[EngineObserver]) -> None:
        self._observer = as_observer(value)

    def add_rule(self, rule: RuleLike) -> None:
        """Compile a rule's event into the graph and register the rule."""
        if self._started:
            raise RuntimeError(
                "rules must be added before the first observation is processed"
            )
        root = self.graph.add_root(rule.event)
        self._sync_states()
        root.rules.append(rule)
        self.rules.append(rule)

    def watch(
        self,
        event: EventExpr,
        callback: Optional[Callable[[ActivationContext], None]] = None,
        name: Optional[str] = None,
    ) -> RuleLike:
        """Register a condition-less rule that just reports detections."""
        self._watch_counter += 1
        rule = _WatchRule(name or f"watch-{self._watch_counter}", event, callback)
        self.add_rule(rule)
        return rule

    def _sync_states(self) -> None:
        while len(self.states) < len(self.graph.nodes):
            node = self.graph.nodes[len(self.states)]
            self.states.append(create_state(node, self))
        self._plan = None

    def reset(self) -> None:
        """Discard all runtime state, keeping the compiled rule graph.

        Buffers, histories, chains, pending matches, scheduled pseudo
        events, statistics, the clock, any buffered reorder state and
        this engine's slice of an attached metrics registry all return
        to their initial state; the (expensive-to-compile) event graph
        and rule set are reused.  More rules may be added again until
        the next observation.  Benchmarks use this to re-run a workload
        without recompiling.
        """
        self.states = []
        self._sync_states()
        self.stats = EngineStats()
        self._pseudo_queue = PseudoQueue()
        self._clock = float("-inf")
        self._last_seq = -1
        self._out = []
        self._started = False
        if self._reorder is not None:
            self._reorder.clear()
        if self._spec is not None:
            from .speculate import SpeculationManager

            self._spec = SpeculationManager(self, self._spec.horizon)
        if self.metrics is not None:
            # Zero only this engine's label slice: registry co-tenants
            # (other shards) keep their values.
            self._instr.reset()
            if self._reorder is not None:
                self._reorder.instruments.reset()

    # -- checkpoint/restore ----------------------------------------------------

    def checkpoint(self) -> dict:
        """Serialize the full runtime state to a plain-data snapshot.

        The snapshot is versioned, dependency-free (dicts/lists/scalars,
        ``json`` round-trippable via ``repro.resilience.save_checkpoint``)
        and covers the clock, statistics, every node's buffers/chains/
        pending matches, the pseudo-event queue and any reorder-buffer
        state — everything a crash would destroy.  The compiled rule
        graph and the store are *not* included; restore into an engine
        rebuilt from the same rules (see :meth:`restore` and
        ``docs/resilience.md``).
        """
        from ..resilience.checkpoint import checkpoint_engine

        return checkpoint_engine(self)

    def restore(self, snapshot: dict) -> None:
        """Load a :meth:`checkpoint` snapshot into this (fresh) engine.

        The engine must have been built from the same rules, in the same
        order, under the same context (validated by a structural
        fingerprint) and must not have processed any observations yet.
        After restore, feeding the remainder of the interrupted stream
        yields detections identical to an uninterrupted run, and an
        attached registry reports the restored :attr:`stats`.  Raises
        :class:`~repro.core.errors.CheckpointError` on any mismatch.
        """
        from ..resilience.checkpoint import restore_engine

        restore_engine(self, snapshot)

    # -- the main loop ----------------------------------------------------------

    @property
    def clock(self) -> float:
        """Logical time: the latest processed observation/pseudo timestamp."""
        return self._clock

    @property
    def speculation(self):
        """The REVISE-mode :class:`~repro.core.speculate.SpeculationManager`,
        or None under any other out-of-order policy."""
        return self._spec

    @property
    def watermark(self) -> Optional[float]:
        """The REVISE watermark (``max seen timestamp - revise_horizon``),
        or None when speculation is off."""
        return self._spec.watermark if self._spec is not None else None

    @property
    def last_seq(self) -> int:
        """Sequence number of the latest observation submitted with one.

        ``-1`` until a caller passes ``submit(..., seq=...)``.  The value
        rides inside checkpoints so a durable layer (see
        :mod:`repro.resilience.durability`) knows exactly which prefix of
        its write-ahead log a snapshot already covers.
        """
        return self._last_seq

    def submit(
        self, observation: Observation, seq: Optional[int] = None
    ) -> list[Detection]:
        """Process one observation; returns the detections it triggered.

        Pseudo events scheduled strictly before the observation's
        timestamp fire first; a pseudo event scheduled *at* the same
        timestamp fires after the observation, so boundary occurrences
        (e.g. a ``TSEQ+`` member arriving exactly τu after its
        predecessor) are seen before the expiration that depends on them.

        With ``reorder_delay`` set, the arrival enters the reorder buffer
        and the readings the watermark releases are processed instead.

        ``seq`` optionally tags the observation with a durable sequence
        number (recorded as :attr:`last_seq`, checkpointed, and used by
        write-ahead-log replay to find the resume point).
        """
        self._started = True
        if seq is not None:
            self._last_seq = seq
        if self._spec is not None:
            return self._spec.ingest(observation)
        if self._reorder is not None:
            for released in self._reorder.push(observation):
                self._process(released)
            return self._take_output()
        return self._process_and_take(observation)

    def submit_many(
        self,
        observations: Iterable[Observation],
        first_seq: Optional[int] = None,
    ) -> SubmitResult:
        """Process a whole batch; returns a :class:`SubmitResult`.

        The batch equivalent of per-observation ``submit`` loops that
        callers (and the bench harness) used to hand-roll; detections
        arrive in occurrence order.  End-of-stream expiration still
        requires a final :meth:`flush`.  With ``first_seq`` given, the
        batch is numbered ``first_seq, first_seq + 1, ...`` and
        :attr:`last_seq` advances accordingly.

        The result is a ``list`` of detections (unchanged call sites
        keep working) that also carries ``accepted``/``dropped``
        counts — see :class:`SubmitResult` for the contract.
        """
        self._started = True
        seq = first_seq
        count = 0
        dropped_before = self.stats.dropped_out_of_order
        if self._spec is not None:
            records: list = []
            for observation in observations:
                if seq is not None:
                    self._last_seq = seq
                    seq += 1
                count += 1
                records.extend(self._spec.ingest(observation))
            dropped = self.stats.dropped_out_of_order - dropped_before
            return SubmitResult(
                records, accepted=count - dropped, dropped=dropped
            )
        reorder = self._reorder
        if reorder is not None:
            for observation in observations:
                if seq is not None:
                    self._last_seq = seq
                    seq += 1
                count += 1
                for released in reorder.push(observation):
                    self._process(released)
        else:
            for observation in observations:
                if seq is not None:
                    self._last_seq = seq
                    seq += 1
                count += 1
                self._process(observation)
        dropped = self.stats.dropped_out_of_order - dropped_before
        return SubmitResult(
            self._take_output(), accepted=count - dropped, dropped=dropped
        )

    def _process_and_take(self, observation: Observation) -> list[Detection]:
        self._process(observation)
        return self._take_output()

    def _process(self, observation: Observation) -> None:
        timestamp = observation.timestamp
        if timestamp < self._clock:
            # REVISE never gets here: it only releases observations the
            # watermark has passed, and the clock never runs ahead of it.
            if self._out_of_order is OutOfOrderPolicy.RAISE:
                raise TimeOrderError(
                    f"observation at {timestamp} is older than engine clock "
                    f"{self._clock}"
                )
            self.stats.dropped_out_of_order += 1
            return
        observer = self._observer
        if observer is not None:
            observer.on_observation(observation)
        plan = self._plan or self._build_plan()
        latency = plan.latency
        started = perf_counter() if latency is not None else 0.0
        heap = self._pseudo_queue._heap
        if heap and heap[0][0] < timestamp:
            self._fire_due_pseudo(timestamp, inclusive=False)
        if timestamp > self._clock:
            self._clock = timestamp
        stats = self.stats
        stats.observations += 1
        self._dispatch(observation, plan)
        if stats.observations % self._gc_every == 0:
            self._collect_garbage()
        if latency is not None:
            latency(perf_counter() - started)

    def advance_to(self, time: float) -> list[Detection]:
        """Advance the logical clock, firing pseudo events due by ``time``.

        In REVISE mode this advances the *watermark* to ``time``: the
        speculative view advances fully (expiry-driven provisionals
        surface), while sealing trails by the configured horizon.
        """
        self._started = True
        if self._spec is not None:
            return self._spec.advance(time)
        self._fire_due_pseudo(time, inclusive=True)
        if time > self._clock:
            self._clock = time
        return self._take_output()

    def flush(self) -> list[Detection]:
        """Fire every remaining pseudo event (end of stream).

        With a reorder buffer configured, its still-buffered readings are
        processed first.  In REVISE mode the whole buffer is released,
        every surviving detection seals ``final`` and unconfirmed
        speculation is retracted.
        """
        self._started = True
        if self._spec is not None:
            return self._spec.finish()
        if self._reorder is not None:
            for released in self._reorder.drain():
                self._process(released)
        self._fire_due_pseudo(float("inf"), inclusive=True)
        return self._take_output()

    def run(
        self, observations: Iterable[Observation], flush: bool = True
    ) -> Iterator[Detection]:
        """Drive the engine over a stream, yielding detections as they occur."""
        for observation in observations:
            yield from self.submit(observation)
        if flush:
            yield from self.flush()

    # -- internals used by node states ------------------------------------------

    def emit(self, node, instance: EventInstance) -> None:
        """An occurrence of ``node``'s event: record, fire rules, propagate."""
        within, composite, record, rules, parents = self._plan.emits[node.node_id]
        if instance.t_end - instance.t_begin - within > TIME_EPSILON:
            self.stats.interval_violations += 1
            return
        observer = self._observer
        if observer is not None:
            observer.on_emit(node, instance)
        if composite:
            self.stats.composites += 1
        if record is not None:
            record(instance)
        for rule in rules:
            self._fire_rule(rule, instance)
        for on_child, child_index in parents:
            on_child(child_index, instance)

    def schedule(self, event: PseudoEvent) -> None:
        self.stats.pseudo_scheduled += 1
        self._pseudo_queue.schedule(event)

    def record_kill(self, node) -> None:
        """A pending match or candidate died (negation kill, lookback)."""
        self.stats.pending_killed += 1
        if self._observer is not None:
            self._observer.on_kill(node)

    # -- introspection -----------------------------------------------------------

    def describe(self) -> str:
        """The compiled event graph, one node per line (diagnostics)."""
        return self.graph.describe()

    def state_summary(self) -> list[dict]:
        """Live state sizes per node: buffers, histories, chains, pendings.

        Operational visibility into detection memory — the counterpart of
        the GC counters in :attr:`stats`.
        """
        summary = []
        for node, state in zip(self.graph.nodes, self.states):
            entry = {
                "node": node.node_id,
                "kind": node.kind,
                "mode": node.mode.value,
                "history": len(state.history),
            }
            buckets = getattr(state, "buckets", None)
            if buckets is not None:
                entry["buffered"] = sum(len(bucket) for bucket in buckets.values())
            buffers = getattr(state, "buffers", None)
            if buffers is not None:
                entry["buffered"] = sum(len(buffer) for buffer in buffers.values())
            for attribute in ("pending", "chains", "runs"):
                holder = getattr(state, attribute, None)
                if holder is not None:
                    entry[attribute] = len(holder)
            summary.append(entry)
        return summary

    # -- private -------------------------------------------------------------

    def _build_plan(self) -> _Plan:
        """Compile the per-observation path from the final graph."""
        instr = self._instr
        if instr is None:
            timed = counted = _as_is
            latency = None
        else:
            def timed(function: Callable, kind: str) -> Callable:
                return _timed(function, instr.match_seconds[kind])

            def counted(record: Optional[Callable], kind: str) -> Callable:
                return _counted(record, instr.emits[kind])

            latency = instr.observation_latency.observe
        graph, states = self.graph, self.states

        def routes(nodes: list) -> tuple:
            return tuple(
                (node, timed(states[node.node_id].match, "obs")) for node in nodes
            )

        emits = [
            (
                node.within,
                node.kind != "obs",
                counted(
                    states[node.node_id].record if node.keeps_history else None,
                    node.kind,
                ),
                node.rules,
                tuple(
                    (timed(states[parent.node_id].on_child, parent.kind), index)
                    for parent, index in node.parents
                ),
            )
            for node in graph.nodes
        ]
        self._plan = _Plan(
            {reader: routes(nodes) for reader, nodes in graph.primitives_by_reader.items()},
            {group: routes(nodes) for group, nodes in graph.primitives_by_group.items()},
            routes(graph.primitive_wildcards),
            emits,
            latency,
        )
        return self._plan

    def _dispatch(self, observation: Observation, plan: _Plan) -> None:
        """Match an observation on the plan's routes and emit every match.

        The reader literal's primitives go first, then its group's (the
        ``group()`` function resolves per observation), then the
        wildcards.
        """
        reader = observation.reader
        routes = plan.routes.get(reader, ())
        if plan.by_group:
            routes += plan.by_group.get(self.functions.group(reader), ())
        stats = self.stats
        for node, match in routes + plan.wildcards:
            bindings = match(observation)
            if bindings is not None:
                stats.primitive_matches += 1
                self.emit(node, PrimitiveInstance(observation, bindings))

    def _fire_due_pseudo(self, now: float, inclusive: bool) -> None:
        """Fire, in time order, the pseudo events due before ``now``
        (or at it, if ``inclusive``)."""
        if self._plan is None:
            self._build_plan()
        heap = self._pseudo_queue._heap
        states = self.states
        stats = self.stats
        while heap and (heap[0][0] <= now if inclusive else heap[0][0] < now):
            t_execute, _tie, event = heappop(heap)
            if t_execute > self._clock:
                self._clock = t_execute
            stats.pseudo_fired += 1
            if self._observer is not None:
                self._observer.on_pseudo(event)
            states[event.target_node_id].on_pseudo(event)

    def rule(self, rule_id: str) -> RuleLike:
        """Look up a registered rule by id (for enable/disable toggling)."""
        for rule in self.rules:
            if rule.rule_id == rule_id:
                return rule
        raise KeyError(rule_id)

    def _fire_rule(self, rule: RuleLike, instance: EventInstance) -> None:
        if not getattr(rule, "enabled", True):
            return
        context = ActivationContext(self, rule, instance, self._clock)
        try:
            satisfied = rule.evaluate_condition(context)
        except Exception as exc:
            raise ConditionError(
                f"condition of rule {rule.rule_id!r} failed: {exc}"
            ) from exc
        if not satisfied:
            return
        try:
            rule.execute_actions(context)
        except Exception as exc:
            raise ActionError(
                f"action of rule {rule.rule_id!r} failed: {exc}"
            ) from exc
        self.stats.detections += 1
        self.stats.count_rule(rule.rule_id)
        detection = Detection(rule, instance, self._clock)
        if self._observer is not None:
            self._observer.on_detection(detection)
        self._out.append(detection)

    def _collect_garbage(self) -> None:
        horizon = self.graph.gc_horizon
        if horizon <= 0:
            return
        cutoff = self._clock - horizon
        removed = 0
        for state in self.states:
            removed += state.gc(cutoff)
        self.stats.gc_removed += removed
        if self._observer is not None:
            self._observer.on_gc(removed, cutoff)

    def _take_output(self) -> list[Detection]:
        output, self._out = self._out, []
        return output
