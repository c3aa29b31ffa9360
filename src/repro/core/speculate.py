"""Watermark-driven speculative detection: provisional → retract/revise → final.

The paper's chronicle engine assumes observations arrive in timestamp
order; real RFID deployments have clock-skewed readers and delayed
relays.  ``OutOfOrderPolicy.REVISE`` (the CEDR model — "Consistent
Streaming Through Time", see PAPERS.md) closes the gap with speculative
output plus compensation:

* arrivals are buffered inside a bounded *reorder horizon*; the
  **watermark** is ``max(seen timestamps) - horizon``;
* detections are emitted immediately, tagged ``provisional``, each with
  a stable :attr:`~SpeculativeDetection.detection_id` and a
  monotonically increasing :attr:`~SpeculativeDetection.revision`;
* a late observation landing inside the horizon re-runs the affected
  window: detections that change are re-emitted as ``revise`` records,
  detections that disappear as ``retract`` records;
* once the watermark passes a detection's window it is sealed with a
  ``final`` record — provably immune to any acceptable late data, so
  side effects (see the outbox confidence horizon in
  :mod:`repro.resilience.durability.outbox`) can fire.

Mechanically the host :class:`~repro.core.detector.Engine` becomes the
*sealed* engine: it only ever processes observations the watermark has
released, in canonical stream order, so its detections — and its rule
**actions**, which run exactly once — are byte-identical to an in-order
run.  A *speculative clone* (same compiled graph, shadow rules whose
actions are no-ops) runs ahead over sealed + buffered observations and
produces the provisional view.

A late arrival is repaired in memory and *in scope*.  The compiled graph
splits into independent components — nodes joined by child edges,
primitive events joined by reader literal; every wildcard- or
group-reader primitive pulls its rules into one catch-all component that
all observations feed.  A late reading dirties only the components its
reader feeds.  The repair hands those nodes' sealed state (containers
copied, immutable instances shared) and pending pseudo events to the
clone, replays only the buffered observations routed to them, reseeds
their occurrence ordinals and diffs the result against the live view of
their rules: ids that vanished are retracted, ids whose content changed
are revised, new ids appear as provisionals.  The whole-window rebuild
(first use, after ``restore``, after ``finish``) is the same repair
with every component dirty.  ``stats.replayed`` counts the observations
repairs re-ran.

Canonical stream order is ``(timestamp, reader, obj)`` — both the
buffer and the "in-order baseline" that REVISE converges to are defined
by this key, which makes equal-timestamp readings deterministic.

The sealing argument, precisely: an accepted late observation has
``ts > watermark``; every detection it can create or destroy occurs at
time ``>= ts > watermark``.  Contrapositive: a detection whose time is
``<= watermark`` can no longer change, so sealing it as ``final`` when
the sealed engine (whose clock trails the watermark) emits it is safe —
including negation expiries, whose pseudo events execute at times the
sealed engine has provably passed.
"""

from __future__ import annotations

import hashlib
import heapq
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from .instances import Observation
from .temporal import INFINITY

if TYPE_CHECKING:  # pragma: no cover
    from .detector import Detection, Engine, RuleLike

__all__ = [
    "FINAL",
    "PROVISIONAL",
    "RETRACT",
    "REVISED",
    "SpeculationManager",
    "SpeculativeDetection",
    "canonical_key",
]

#: Revision-record statuses, in lifecycle order.
PROVISIONAL = "provisional"
REVISED = "revise"
RETRACT = "retract"
FINAL = "final"


def canonical_key(observation: Observation) -> tuple:
    """The canonical stream-order key: ``(timestamp, reader, obj)``.

    Defines both the reorder buffer's ordering and the in-order oracle
    that REVISE-mode finals are guaranteed to equal.
    """
    return (
        observation.timestamp,
        str(observation.reader),
        str(observation.obj),
    )


def _make_speculative(base: "Detection", detection_id: str,
                      revision: int, status: str) -> "SpeculativeDetection":
    return SpeculativeDetection(
        base.rule, base.instance, base.time,
        detection_id=detection_id, revision=revision, status=status,
    )


def _identity_of(rule_id: str, instance: Any) -> tuple:
    """The occurrence anchor a detection id hashes over (sans ordinal).

    Anchored on the rule plus the *trigger* leaf — the canonically last
    constituent observation — so late data that changes other parts of
    the match keeps the same id (and is a ``revise``), while genuinely
    distinct occurrences get distinct ids.  Leafless instances (pure
    negation windows) anchor on the window itself.
    """
    leaves = list(instance.observations())
    if leaves:
        trigger = max(leaves, key=canonical_key)
        return (rule_id, str(trigger.reader), str(trigger.obj),
                trigger.timestamp)
    return (rule_id, instance.t_begin, instance.t_end)


def _content_of(detection: "Detection") -> str:
    """Hash of everything a subscriber can see: leaves, time, bindings."""
    leaves = sorted(
        (str(o.reader), str(o.obj), repr(o.timestamp))
        for o in detection.instance.observations()
    )
    bindings = sorted(
        (str(key), repr(value))
        for key, value in detection.instance.bindings.items()
    )
    blob = repr((leaves, repr(detection.time), bindings)).encode()
    return hashlib.sha1(blob).hexdigest()[:16]


def _hash_identity(identity: tuple, ordinal: int) -> str:
    blob = repr((identity, ordinal)).encode()
    return hashlib.sha1(blob).hexdigest()[:16]


class _Record:
    """Lifecycle state of one detection id (latest emitted revision)."""

    __slots__ = ("revision", "status", "content", "rule_id", "instance",
                 "time")

    def __init__(self, revision: int, status: str, content: str,
                 rule_id: str, instance: Any, time: float) -> None:
        self.revision = revision
        self.status = status
        self.content = content
        self.rule_id = rule_id
        self.instance = instance
        self.time = time


class _ShadowRule:
    """A rule clone that detects but never acts.

    Shares the original's ``rule_id``/``name``/``event`` (so the clone
    compiles the same graph, node id for node id, as the sealed engine)
    and delegates the condition, but :meth:`execute_actions` is a no-op —
    speculative re-runs must not re-fire side effects, store writes or
    watch callbacks.  ``enabled`` tracks the original live.
    """

    __slots__ = ("_original", "rule_id", "name", "event")

    def __init__(self, original: "RuleLike") -> None:
        self._original = original
        self.rule_id = original.rule_id
        self.name = original.name
        self.event = original.event

    @property
    def enabled(self) -> bool:
        return getattr(self._original, "enabled", True)

    def evaluate_condition(self, context: Any) -> bool:
        return self._original.evaluate_condition(context)

    def execute_actions(self, context: Any) -> None:
        return None


class _Component:
    """One independent part of the compiled graph: its node ids, plus the
    occurrence ordinals of its rules' detections."""

    __slots__ = ("nodes", "occ", "sealed_occ")

    def __init__(self) -> None:
        self.nodes: list[int] = []
        #: identity -> next ordinal, current speculative generation.
        self.occ: dict[tuple, int] = {}
        #: identity -> next ordinal over sealed (final) detections only;
        #: ``occ`` reseeds from this on every repair so ordinals (and
        #: therefore ids) stay stable across generations.
        self.sealed_occ: dict[tuple, int] = {}


class _Scope:
    """How the compiled graph splits into independently repairable parts.

    Two nodes share a component when a child edge joins them, when both
    are primitive events on the same reader literal, or when their rules
    share a rule id (and therefore detection identities).  Primitives
    with a wildcard or group reader can match any observation, so they
    all land in one ``catch_all`` component that every observation feeds.
    """

    __slots__ = ("components", "by_reader", "by_rule", "catch_all",
                 "retention")

    def __init__(self, graph: Any) -> None:
        from .sharding import _UnionFind

        sets = _UnionFind()

        def join(nodes: list) -> None:
            for node in nodes[1:]:
                sets.union(node.node_id, nodes[0].node_id)

        open_primitives = [
            node for nodes in graph.primitives_by_group.values()
            for node in nodes
        ] + graph.primitive_wildcards
        join(open_primitives)
        for nodes in graph.primitives_by_reader.values():
            join(nodes)
        roots: dict[str, list] = {}
        for node in graph.nodes:
            join([node, *node.children])
            for rule in node.rules:
                roots.setdefault(rule.rule_id, []).append(node)
        for nodes in roots.values():
            join(nodes)

        self.components: list[_Component] = []
        index_of: dict[int, int] = {}
        for node in graph.nodes:
            root = sets.find(node.node_id)
            if root not in index_of:
                index_of[root] = len(self.components)
                self.components.append(_Component())
            self.components[index_of[root]].nodes.append(node.node_id)

        def component_of(node: Any) -> int:
            return index_of[sets.find(node.node_id)]

        #: reader literal -> index of the one component it feeds.
        self.by_reader = {
            reader: component_of(nodes[0])
            for reader, nodes in graph.primitives_by_reader.items()
        }
        self.by_rule = {
            rule_id: component_of(nodes[0]) for rule_id, nodes in roots.items()
        }
        self.catch_all: Optional[int] = (
            component_of(open_primitives[0]) if open_primitives else None
        )
        # How long after its trigger observation a detection can still be
        # emitted: each level of nesting waits at most its own largest
        # finite bound (a chain's tau_u, a negation window) on top of its
        # slowest constituent.
        lag = [0.0] * len(graph.nodes)
        for node in graph.nodes:  # children are compiled before parents
            if node.is_primitive:
                continue
            bounds = [bound for bound in (node.within, node.upper)
                      if bound != INFINITY]
            lag[node.node_id] = max(bounds, default=0.0) + max(
                (lag[child.node_id] for child in node.children), default=0.0
            )
        self.retention = max(lag, default=0.0)

    def everything(self) -> set[int]:
        """Every component's index: the whole-window dirty set."""
        return set(range(len(self.components)))

    def fed_by(self, reader: Any) -> set[int]:
        """Indexes of the components an observation from ``reader`` feeds."""
        fed = {self.by_reader.get(reader), self.catch_all}
        fed.discard(None)
        return fed


@dataclass(frozen=True)
class SpeculativeDetection:
    """A :class:`~repro.core.detector.Detection` with a revision tag.

    Structurally a plain ``Detection`` (duck-typed: ``rule``,
    ``instance``, ``time``, ``bindings``), plus the revision lifecycle —
    every existing detection channel (server fan-out, outbox, bench
    comparisons) keeps working, and revision-aware layers read the three
    extra fields via ``getattr``.

    ``revision`` increases strictly per ``detection_id``; a ``retract``
    always references an id whose previous revision was emitted.
    """

    rule: Any
    instance: Any
    time: float
    detection_id: str = ""
    revision: int = 0
    status: str = PROVISIONAL

    @property
    def bindings(self) -> dict:
        return dict(self.instance.bindings)

    def __repr__(self) -> str:
        return (
            f"<detection rule={self.rule.rule_id!r} at {self.time:g} "
            f"id={self.detection_id} rev={self.revision} {self.status}>"
        )


class SpeculationManager:
    """The REVISE-mode driver owned by an :class:`~repro.core.detector.Engine`.

    Holds the reorder buffer, the watermark, the per-id revision records
    and the speculative clone engine; the host engine routes
    ``submit``/``advance_to``/``flush`` through :meth:`ingest`/
    :meth:`advance`/:meth:`finish` and returns the revision records they
    produce instead of raw detections.
    """

    def __init__(self, engine: "Engine", horizon: float) -> None:
        if horizon < 0:
            raise ValueError("revise_horizon must be >= 0")
        self.engine = engine
        self.horizon = float(horizon)
        #: Buffered observations in canonical order, with a parallel key
        #: list so insertion is one bisect, not a key() per comparison.
        self.buffer: list[Observation] = []
        self._keys: list[tuple] = []
        self.max_ts = float("-inf")
        #: Explicit advance_to() high-water mark, replayed by repairs.
        self._advanced_to = float("-inf")
        #: detection_id -> latest emitted revision record.  Finals leave
        #: once nothing acceptable can produce their identity again.
        self.records: dict[str, _Record] = {}
        #: Unsealed ids currently present in the speculative view.
        self._live: dict[str, str] = {}
        #: Final records in sealing (= detection time) order:
        #: ``(time, detection_id, identity, component)``.
        self._finals: deque = deque()
        self._spec_engine: Optional["Engine"] = None
        #: Built from the graph at first use (rules may still be added
        #: until the first observation).
        self._scope_cache: Optional[_Scope] = None
        #: Indexes of the components whose speculative state is stale.
        self._dirty: set[int] = set()

    # -- watermark ----------------------------------------------------------

    @property
    def watermark(self) -> float:
        """``max(seen timestamps) - horizon``; ``-inf`` before any input."""
        if self.max_ts == float("-inf"):
            return float("-inf")
        return self.max_ts - self.horizon

    @property
    def buffered(self) -> int:
        return len(self.buffer)

    # -- main entry points --------------------------------------------------

    def ingest(self, observation: Observation) -> list:
        """One arrival: buffer, speculate, release, seal.

        Returns the revision records this arrival produced (possibly
        empty — e.g. a buffered observation that matched nothing yet).
        Arrivals at or below the watermark are *too late* — outside the
        promised horizon — and are dropped (counted, never silent).
        """
        engine = self.engine
        key = canonical_key(observation)
        if key[0] <= self.watermark:
            engine.stats.dropped_out_of_order += 1
            engine.stats.dropped_too_late += 1
            return []
        scope = self._scope()
        # Canonical insertion; arriving in canonical order, and not behind
        # an advance() the clone already made, means the speculative
        # engine can be fed incrementally instead of repaired.
        position = self._insort(key, observation)
        in_order = (
            position == len(self.buffer) - 1 and key[0] >= self._advanced_to
        )
        self.max_ts = max(self.max_ts, key[0])
        out: list = []
        if not in_order:
            self._dirty |= scope.fed_by(observation.reader)
        elif not self._dirty:
            out.extend(self._absorb(self._clone().submit(observation)))
        # else: the whole window is stale; the repair below covers this arrival.
        out.extend(self._release())
        if self._dirty:
            out.extend(self._repair())
        return out

    def advance(self, time: float) -> list:
        """Advance logical time (no observation): watermark and clone move.

        The sealed engine only ever advances to the watermark — the
        region that can still change stays unsealed — while the clone
        advances to ``time`` so expiry-driven detections surface as
        provisionals immediately.
        """
        self._scope()
        self.max_ts = max(self.max_ts, time)
        self._advanced_to = max(self._advanced_to, time)
        out = list(self._release())
        if self._dirty:
            out.extend(self._repair())
        else:
            out.extend(self._absorb(self._clone().advance_to(time)))
        return out

    def finish(self) -> list:
        """End of stream: release everything, flush, seal everything.

        After this the speculative view is empty; any record the sealed
        flush did not confirm (a speculative artifact) is retracted, so
        the record stream always converges to exactly the final set.
        """
        engine = self.engine
        out: list = []
        if self.buffer:
            released = self.buffer
            self.buffer = []
            self._keys = []
            for observation in released:
                engine._process(observation)
            out.extend(self._seal(engine._take_output()))
        engine._fire_due_pseudo(float("inf"), inclusive=True)
        out.extend(self._seal(engine._take_output()))
        for detection_id in list(self._live):
            out.append(self._emit_retract(detection_id))
        self._dirty = self._scope().everything()
        if self._spec_engine is not None:
            self._spec_engine.reset()
        return out

    # -- speculative view ---------------------------------------------------

    def _insort(self, key: tuple, observation: Observation) -> int:
        position = bisect_right(self._keys, key)
        self._keys.insert(position, key)
        self.buffer.insert(position, observation)
        return position

    def _scope(self) -> _Scope:
        """The graph's independent components; all start out dirty."""
        if self._scope_cache is None:
            self._scope_cache = _Scope(self._clone().graph)
            self._dirty = self._scope_cache.everything()
        return self._scope_cache

    def _clone(self) -> "Engine":
        """The speculative engine, built once over the same rule graph."""
        if self._spec_engine is None:
            from .detector import Engine, OutOfOrderPolicy

            host = self.engine
            self._spec_engine = Engine(
                [_ShadowRule(rule) for rule in host.rules],
                context=host.context,
                functions=host.functions,
                store=host.store,
                merge_common_subgraphs=host.graph._merge,
                out_of_order=OutOfOrderPolicy.RAISE,
                gc_every=host._gc_every,
            )
        return self._spec_engine

    def _repair(self) -> list:
        """Re-run the dirty components' unsealed window and diff the result.

        For the dirty components' rules only: ids that vanished are
        retracted, ids whose content changed (or that had been
        retracted) are revised, new ids appear as provisionals.
        """
        scope = self._scope()
        dirty, self._dirty = self._dirty, set()
        outputs = self._replay(scope, dirty)
        for index in dirty:
            component = scope.components[index]
            component.occ = dict(component.sealed_occ)
        fresh: dict[str, tuple[str, Any]] = {}
        for detection in outputs:
            detection_id = self._next_id(detection)
            record = self.records.get(detection_id)
            if record is not None and record.status == FINAL:
                continue
            fresh[detection_id] = (_content_of(detection), detection)
        out: list = []
        for detection_id in list(self._live):
            if (
                detection_id not in fresh
                and scope.by_rule[self.records[detection_id].rule_id] in dirty
            ):
                out.append(self._emit_retract(detection_id))
        for detection_id, (content, detection) in fresh.items():
            emitted = self._note_live(detection_id, content, detection)
            if emitted is not None:
                out.append(emitted)
        return out

    def _replay(self, scope: _Scope, dirty: set[int]) -> list:
        """Hand the dirty components to the clone and re-run their window.

        The clone takes the sealed state and pending pseudo events of the
        dirty components' nodes, replays the buffered observations routed
        to them (canonical order, clock rewound to the sealed clock) and
        fires what the rest of the window would have fired.  The other
        components' pseudo events sit out the replay, so their state is
        untouched.  Returns the detections the re-run produced.
        """
        host = self.engine
        spec = self._clone()
        nodes = {
            node_id
            for index in dirty
            for node_id in scope.components[index].nodes
        }
        for node_id in nodes:
            spec.states[node_id].copy_from(host.states[node_id])
        queue = spec._pseudo_queue
        bystanders = [
            entry for entry in queue._heap
            if entry[2].target_node_id not in nodes
        ]
        queue._heap = []
        # Re-scheduling in (time, tie) order keeps the sealed firing
        # order under tie numbers that are unique in the clone's heap.
        for entry in sorted(
            entry for entry in host._pseudo_queue._heap
            if entry[2].target_node_id in nodes
        ):
            queue.schedule(entry[2])
        spec._clock = host._clock

        # The clone's routes to the dirty components' primitives; an
        # observation that reaches none of them is skipped.
        plan = (spec._plan or spec._build_plan()).restricted(nodes)
        open_routes = plan.by_group or plan.wildcards
        replayed = 0
        for observation in self.buffer:
            if not open_routes and observation.reader not in plan.routes:
                continue
            spec._fire_due_pseudo(observation.timestamp, inclusive=False)
            spec._clock = max(spec._clock, observation.timestamp)
            spec._dispatch(observation, plan)
            replayed += 1
        window_end = (
            self.buffer[-1].timestamp if self.buffer else float("-inf")
        )
        spec._fire_due_pseudo(window_end, inclusive=False)
        spec._fire_due_pseudo(self._advanced_to, inclusive=True)
        spec._clock = max(spec._clock, window_end, self._advanced_to)
        queue._heap.extend(bystanders)
        heapq.heapify(queue._heap)
        host.stats.replayed += replayed
        return spec._take_output()

    def _next_id(self, detection: "Detection") -> str:
        """Id of the next speculative occurrence of ``detection``'s identity."""
        rule_id = detection.rule.rule_id
        scope = self._scope()
        occ = scope.components[scope.by_rule[rule_id]].occ
        identity = _identity_of(rule_id, detection.instance)
        ordinal = occ.get(identity, 0)
        occ[identity] = ordinal + 1
        return _hash_identity(identity, ordinal)

    def _absorb(self, detections: list) -> list:
        """Fold incremental clone output into the live view."""
        out: list = []
        for detection in detections:
            detection_id = self._next_id(detection)
            record = self.records.get(detection_id)
            if record is not None and record.status == FINAL:
                continue
            emitted = self._note_live(
                detection_id, _content_of(detection), detection
            )
            if emitted is not None:
                out.append(emitted)
        return out

    def _note_live(self, detection_id: str, content: str,
                   detection: "Detection") -> Optional[SpeculativeDetection]:
        """Record one live speculative detection; emit what changed."""
        engine = self.engine
        record = self.records.get(detection_id)
        if record is None:
            record = _Record(0, PROVISIONAL, content,
                             detection.rule.rule_id, detection.instance,
                             detection.time)
            self.records[detection_id] = record
            self._live[detection_id] = content
            engine.stats.speculative += 1
            return _make_speculative(detection, detection_id, 0, PROVISIONAL)
        previous = self._live.get(detection_id)
        self._live[detection_id] = content
        if previous == content and record.status != RETRACT:
            # Unchanged across the re-run: no new revision.
            record.instance = detection.instance
            record.time = detection.time
            return None
        record.revision += 1
        record.status = REVISED
        record.content = content
        record.instance = detection.instance
        record.time = detection.time
        engine.stats.revised += 1
        return _make_speculative(
            detection, detection_id, record.revision, REVISED
        )

    def _emit_retract(self, detection_id: str) -> SpeculativeDetection:
        engine = self.engine
        record = self.records[detection_id]
        record.revision += 1
        record.status = RETRACT
        self._live.pop(detection_id, None)
        engine.stats.retracted += 1
        return SpeculativeDetection(
            engine.rule(record.rule_id), record.instance, record.time,
            detection_id=detection_id, revision=record.revision,
            status=RETRACT,
        )

    # -- sealing ------------------------------------------------------------

    def _release(self) -> list:
        """Feed watermark-passed buffer entries to the sealed engine.

        Also drags the sealed clock up to the watermark: a pseudo event
        (negation expiry) due at or before the watermark is provably
        immune to acceptable late data — any accepted arrival has
        ``ts > watermark`` — so it fires and seals now, not only when a
        released observation happens to advance the clock past it.
        """
        watermark = self.watermark
        count = 0
        while count < len(self._keys) and self._keys[count][0] <= watermark:
            count += 1
        engine = self.engine
        advanced = False
        if count:
            released = self.buffer[:count]
            del self.buffer[:count]
            del self._keys[:count]
            for observation in released:
                engine._process(observation)
            advanced = True
        if watermark != float("-inf") and watermark > engine._clock:
            engine._started = True
            engine._fire_due_pseudo(watermark, inclusive=True)
            engine._clock = watermark
            advanced = True
        if not advanced:
            return []
        return self._seal(engine._take_output())

    def _seal(self, detections: list) -> list:
        """Finalize what the sealed engine emitted (see module docstring)."""
        out: list = []
        engine = self.engine
        scope = self._scope()
        for detection in detections:
            rule_id = detection.rule.rule_id
            component = scope.components[scope.by_rule[rule_id]]
            identity = _identity_of(rule_id, detection.instance)
            ordinal = component.sealed_occ.get(identity, 0)
            component.sealed_occ[identity] = ordinal + 1
            detection_id = _hash_identity(identity, ordinal)
            content = _content_of(detection)
            record = self.records.get(detection_id)
            if record is None:
                # Sealed before it was ever speculated (e.g. horizon 0,
                # or a flush-time expiry): final is the first revision.
                record = _Record(0, FINAL, content, rule_id,
                                 detection.instance, detection.time)
                self.records[detection_id] = record
            elif record.status == FINAL:
                continue
            else:
                record.revision += 1
                record.status = FINAL
                record.content = content
                record.instance = detection.instance
                record.time = detection.time
            self._live.pop(detection_id, None)
            self._finals.append(
                (detection.time, detection_id, identity, component)
            )
            engine.stats.sealed += 1
            out.append(_make_speculative(
                detection, detection_id, record.revision, FINAL
            ))
        self._forget_settled()
        return out

    def _forget_settled(self) -> None:
        """Drop final records, and their ordinals, that nothing can reach.

        A detection is emitted at most ``retention`` after its trigger
        observation, and the sealed engine has emitted everything up to
        the watermark.  So once a final's detection time is older than
        ``watermark - retention``, every detection sharing its trigger —
        its identity — is already sealed, and neither the sealed engine
        nor a repair (which only sees arrivals above the watermark) can
        produce that identity again.
        """
        cutoff = self.watermark - self._scope().retention
        finals = self._finals
        while finals and finals[0][0] < cutoff:
            _time, detection_id, identity, component = finals.popleft()
            del self.records[detection_id]
            component.occ.pop(identity, None)
            component.sealed_occ.pop(identity, None)

    # -- checkpoint/restore -------------------------------------------------

    def encode(self, table: Any) -> dict:
        """Speculation state for a checkpoint (shares the instance table)."""
        # Not _scope(): a checkpoint must not freeze the rule set.
        scope = self._scope_cache
        components = scope.components if scope is not None else ()
        return {
            "horizon": self.horizon,
            "max_ts": self.max_ts,
            "advanced_to": self._advanced_to,
            "buffer": [table.obs_ref(observation)
                       for observation in self.buffer],
            "occ": [[list(key), count]
                    for component in components
                    for key, count in component.occ.items()],
            "sealed_occ": [[list(key), count]
                           for component in components
                           for key, count in component.sealed_occ.items()],
            "records": [
                {
                    "id": detection_id,
                    "rev": record.revision,
                    "status": record.status,
                    "content": record.content,
                    "rule": record.rule_id,
                    "inst": table.ref(record.instance),
                    "time": record.time,
                }
                for detection_id, record in self.records.items()
            ],
            "live": [[detection_id, content]
                     for detection_id, content in self._live.items()],
        }

    def restore(self, section: dict, observations: list,
                instances: list) -> None:
        """Load an :meth:`encode` section (tables already decoded).

        The manager is fresh (``restore_engine`` resets the engine
        first), so every component starts dirty and the first arrival
        repairs the whole window from the restored sealed state.
        """
        self.horizon = float(section["horizon"])
        self.max_ts = section["max_ts"]
        self._advanced_to = section.get("advanced_to", float("-inf"))
        self.buffer = [observations[index] for index in section["buffer"]]
        self._keys = [canonical_key(observation)
                      for observation in self.buffer]
        if not self.engine._started:
            return  # nothing speculated or sealed yet; rules may still be added
        scope = self._scope()
        for field in ("occ", "sealed_occ"):
            for key, count in section[field]:
                component = scope.components[scope.by_rule[key[0]]]
                getattr(component, field)[tuple(key)] = count
        self.records = {
            entry["id"]: _Record(
                entry["rev"], entry["status"], entry["content"],
                entry["rule"], instances[entry["inst"]], entry["time"],
            )
            for entry in section["records"]
        }
        self._live = {
            detection_id: content for detection_id, content in section["live"]
        }
        self._finals = deque(sorted(
            (
                (record.time, detection_id,
                 _identity_of(record.rule_id, record.instance),
                 scope.components[scope.by_rule[record.rule_id]])
                for detection_id, record in self.records.items()
                if record.status == FINAL
            ),
            key=lambda final: final[0],
        ))
