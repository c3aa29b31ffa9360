"""Runtime node states: the matching machinery behind RCEDA (paper §4.6).

The compiled :class:`~repro.core.graph.EventGraph` is static; each engine
instantiates one *state* object per node, holding that node's buffers,
open chains and pending matches.  States implement four entry points:

* ``on_child(child_index, instance)`` — a constituent occurred
  (the paper's ``ACTIVATE_PARENT_NODE`` propagation, push direction);
* ``query(t_start, t_end, bindings, ...)`` — report occurrences within a
  window (the paper's ``QUERY_INTERVAL_NODE``, pull direction);
* ``on_pseudo(pseudo_event)`` — a scheduled expiration fired
  (``GENERATE_PSEUDO_EVENT`` counterparts);
* ``on_negative_occurrence(child_index, instance)`` — an occurrence of a
  negated constituent arrived, killing pending matches early.

The paper schedules pseudo events *against the NOT node* and propagates
the query result to the parent; we equivalently address the pseudo event
to the parent (AND/SEQ/TSEQ+) node, which performs the same
``QUERY_INTERVAL_NODE`` call on its NOT child when the pseudo fires.
This keeps each pending match's bookkeeping in one place.

All matching here is *binding-aware*: constituent instances only combine
when their variable bindings unify, and buffers are bucketed by the join
key (variables shared between children) whenever every child statically
guarantees those bindings.

Leaves match raw observations through :func:`compile_match`: one
straight-line function per primitive event type, generated once when the
state is built, so matching reads none of the expression's shape.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Deque, Iterable, Optional

from .expressions import ObservationType
from .graph import Node
from .instances import (
    Bindings,
    CompositeInstance,
    EventInstance,
    NegationInstance,
    Observation,
    PrimitiveInstance,
    unify,
)
from .modes import Mode
from .pseudo import PseudoEvent
from .temporal import INFINITY, TIME_EPSILON, span

if TYPE_CHECKING:  # pragma: no cover
    from .detector import Engine


def project(bindings: Bindings, names: tuple[str, ...]) -> tuple:
    """Project bindings onto a tuple of variable names (the join key)."""
    return tuple(bindings.get(name) for name in names)


def merge_group_bindings(instances: Iterable[EventInstance]) -> dict[str, Any]:
    """Unify bindings across a group, dropping variables that conflict.

    Used for cumulative-context groups whose members were accepted
    individually; a conflicting variable is simply not exported rather
    than invalidating the whole group.
    """
    merged: dict[str, Any] = {}
    conflicted: set[str] = set()
    for instance in instances:
        for name, value in instance.bindings.items():
            if name in conflicted:
                continue
            if name in merged and merged[name] != value:
                del merged[name]
                conflicted.add(name)
            elif name not in conflicted:
                merged[name] = value
    return merged


class RuntimeNode:
    """Base state: occurrence history plus no-op hooks."""

    __slots__ = ("node", "engine", "history", "_history_ends")

    def __init__(self, node: Node, engine: "Engine") -> None:
        self.node = node
        self.engine = engine
        self.history: list[EventInstance] = []
        self._history_ends: list[float] = []

    # -- history ---------------------------------------------------------

    def record(self, instance: EventInstance) -> None:
        """Insert an occurrence into this node's history (sorted by t_end)."""
        index = bisect_left(self._history_ends, instance.t_end)
        # Insert after equal keys to preserve arrival order among ties.
        while index < len(self._history_ends) and self._history_ends[index] == instance.t_end:
            index += 1
        self.history.insert(index, instance)
        self._history_ends.insert(index, instance.t_end)

    def query(
        self,
        t_start: float,
        t_end: float,
        bindings: Bindings,
        closed_start: bool = True,
        closed_end: bool = True,
    ) -> list[EventInstance]:
        """Occurrences overlapping ``[t_start, t_end]`` unifying with bindings."""
        results = []
        index = bisect_left(self._history_ends, t_start)
        for instance in self.history[index:]:
            if instance.t_end == t_start and not closed_start:
                continue
            if instance.t_begin > t_end:
                continue
            if instance.t_begin == t_end and not closed_end:
                continue
            if bindings and unify(instance.bindings, bindings) is None:
                continue
            results.append(instance)
        return results

    def copy_from(self, other: "RuntimeNode") -> None:
        """Take over ``other``'s runtime state (same node, another engine).

        Containers are copied; the immutable event instances, pending
        matches and pseudo-event payloads inside them are shared.  This
        is how the REVISE speculative clone is handed the sealed
        engine's state (:mod:`repro.core.speculate`).
        """
        self.history = list(other.history)
        self._history_ends = list(other._history_ends)

    # -- hooks -------------------------------------------------------------

    def on_child(self, child_index: int, instance: EventInstance) -> None:
        raise NotImplementedError

    def on_negative_occurrence(self, child_index: int, instance: EventInstance) -> None:
        """An occurrence of a negated child arrived; default: ignore."""

    def on_pseudo(self, event: PseudoEvent) -> None:  # pragma: no cover - defensive
        raise AssertionError(f"{type(self).__name__} received unexpected {event!r}")

    def gc(self, cutoff: float) -> int:
        """Prune state older than ``cutoff``; returns number of items removed."""
        removed = 0
        if self.history:
            index = bisect_left(self._history_ends, cutoff)
            if index:
                del self.history[:index]
                del self._history_ends[:index]
                removed += index
        return removed


Matcher = Callable[[Observation], Optional[dict[str, Any]]]


def compile_match(expr: ObservationType, engine: "Engine") -> Matcher:
    """Compile a primitive event type into its matcher.

    The matcher returns the observation's bindings if it matches
    ``expr``, else None.  It is generated for the type's shape: a
    literal ``reader``/``obj`` becomes an equality test, a variable a
    binding (a variable in both places also an equality test between
    them), a wildcard nothing, and only the filters present are tested —
    in the order reader, group, obj, type, ``where``.  The
    ``group()``/``type()`` functions are looked up on
    ``engine.functions`` at call time: the registry's fields may be
    reassigned after the engine is built.
    """
    reader, obj = expr.reader, expr.obj
    reader_is_var = reader is not None and not isinstance(reader, str)
    obj_is_var = obj is not None and not isinstance(obj, str)
    rejects = []
    if isinstance(reader, str):
        rejects.append("observation.reader != reader")
    if expr.group is not None:
        rejects.append("engine.functions.group(observation.reader) != group")
    if isinstance(obj, str):
        rejects.append("observation.obj != obj")
    elif obj_is_var and reader_is_var and obj.name == reader.name:
        rejects.append("observation.reader != observation.obj")
    if expr.obj_type is not None:
        rejects.append("engine.functions.obj_type(observation.obj) != obj_type")
    if expr.where is not None:
        rejects.append("not where(observation)")
    bindings = []
    if reader_is_var:
        bindings.append("reader_name: observation.reader")
    if obj_is_var:
        bindings.append("obj_name: observation.obj")
    if expr.t is not None:
        bindings.append("t_name: observation.timestamp")
    factory = _matcher_factory(tuple(rejects), tuple(bindings))
    return factory(
        engine, reader, obj, expr.group, expr.obj_type, expr.where,
        reader.name if reader_is_var else None,
        obj.name if obj_is_var else None,
        expr.t.name if expr.t is not None else None,
    )


@lru_cache(maxsize=None)
def _matcher_factory(rejects: tuple[str, ...], bindings: tuple[str, ...]):
    """The matcher factory for one shape (a few hundred shapes exist).

    The generated text is assembled from the fixed fragments of
    :func:`compile_match` only; every value of the expression reaches
    the matcher as a closure variable, never as source.
    """
    lines = [
        "def factory(engine, reader, obj, group, obj_type, where,",
        "            reader_name, obj_name, t_name):",
        "    def match(observation):",
    ]
    for reject in rejects:
        lines += [f"        if {reject}:", "            return None"]
    lines += ["        return {" + ", ".join(bindings) + "}", "    return match"]
    namespace: dict[str, Any] = {}
    exec(compile("\n".join(lines), "<compiled matcher>", "exec"), namespace)
    return namespace["factory"]


class PrimitiveState(RuntimeNode):
    """Leaf state: matches raw observations against a primitive type.

    ``match(observation)`` returns the bindings if the observation
    matches this type, else None (see :func:`compile_match`).
    """

    __slots__ = ("match",)

    def __init__(self, node: Node, engine: "Engine") -> None:
        super().__init__(node, engine)
        self.match: Matcher = compile_match(node.expr, engine)

    def on_child(self, child_index: int, instance: EventInstance) -> None:
        raise AssertionError("primitive nodes have no children")


class OrState(RuntimeNode):
    """Disjunction: re-emit any child occurrence as an occurrence of self."""

    __slots__ = ()

    def on_child(self, child_index: int, instance: EventInstance) -> None:
        wrapped = CompositeInstance(
            "OR", (instance,), instance.bindings,
            t_begin=instance.t_begin, t_end=instance.t_end,
        )
        self.engine.emit(self.node, wrapped)


class NotState(RuntimeNode):
    """Negation: answers non-occurrence queries; notifies parents of occurrences."""

    __slots__ = ()

    def on_child(self, child_index: int, instance: EventInstance) -> None:
        for parent, index in self.node.parents:
            self.engine.states[parent.node_id].on_negative_occurrence(index, instance)

    def query(
        self,
        t_start: float,
        t_end: float,
        bindings: Bindings,
        closed_start: bool = True,
        closed_end: bool = True,
    ) -> list[EventInstance]:
        """A negation certificate for the window, or [] if the child occurred."""
        child_state = self.engine.states[self.node.children[0].node_id]
        occurrences = child_state.query(
            t_start, t_end, bindings, closed_start, closed_end
        )
        if occurrences:
            return []
        return [NegationInstance(t_start, t_end, dict(bindings))]


class _PendingMatch:
    """A match waiting for a negation window to expire (Fig. 8 state)."""

    __slots__ = ("pending_id", "positives", "bindings", "window_start", "window_end")

    def __init__(
        self,
        pending_id: int,
        positives: tuple[EventInstance, ...],
        bindings: dict[str, Any],
        window_start: float,
        window_end: float,
    ) -> None:
        self.pending_id = pending_id
        self.positives = positives
        self.bindings = bindings
        self.window_start = window_start
        self.window_end = window_end


class AndState(RuntimeNode):
    """Conjunction with optional negated constituents.

    Positive children are buffered and matched oldest-first with binding
    unification (the engine's parameter context drives the pairing for
    the binary case).  Negated children impose (i) a lookback check over
    ``[t_end − τ, t_end]`` when the positives complete and (ii) a pending
    match confirmed by pseudo event at ``t_begin + τ`` — the operational
    semantics of the paper's Fig. 8.
    """

    __slots__ = ("positives", "negatives", "buffers", "pending", "_next_pending")

    def __init__(self, node: Node, engine: "Engine") -> None:
        super().__init__(node, engine)
        self.positives = node.positive_child_indexes()
        self.negatives = node.negative_child_indexes()
        self.buffers: dict[int, Deque[EventInstance]] = {
            index: deque() for index in self.positives
        }
        self.pending: dict[int, _PendingMatch] = {}
        self._next_pending = 0

    def copy_from(self, other: "AndState") -> None:
        super().copy_from(other)
        self.buffers = {
            index: deque(buffer) for index, buffer in other.buffers.items()
        }
        self.pending = dict(other.pending)
        self._next_pending = other._next_pending

    def on_child(self, child_index: int, instance: EventInstance) -> None:
        group = self._complete(child_index, instance)
        if group is None or not self.engine.context.consumes:
            # Non-consuming contexts keep the arrival available for future
            # partners even when it matched something now.
            self.engine.context.on_insert(self.buffers[child_index], instance)
        if group is None:
            return
        bindings = merge_group_bindings(group)
        if not self.negatives:
            self.engine.emit(self.node, CompositeInstance("AND", group, bindings))
            return
        self._open_pending(group, bindings)

    def _complete(
        self, child_index: int, instance: EventInstance
    ) -> Optional[list[EventInstance]]:
        """Try to assemble one instance from every positive child."""
        others = [index for index in self.positives if index != child_index]
        if not others:
            return [instance]
        within = self.node.within

        if len(others) == 1:
            # Binary conjunction: pairing policy delegated to the context.
            partner_index = others[0]
            buffer = self.buffers[partner_index]

            def accept(candidate: EventInstance) -> bool:
                if span(candidate, instance) - within > TIME_EPSILON:
                    return False
                return unify(candidate.bindings, instance.bindings) is not None

            groups, consumed = self.engine.context.select(buffer, accept)
            if not groups:
                return None
            for item in consumed:
                buffer.remove(item)
            # Contexts returning several groups (continuous/unrestricted)
            # each produce their own composite; emit the extras here and
            # return the first for uniform handling by the caller.
            first, *rest = groups
            for group in rest:
                members = list(group) + [instance]
                if self.negatives:
                    self._open_pending(members, merge_group_bindings(members))
                else:
                    self.engine.emit(
                        self.node,
                        CompositeInstance(
                            "AND", members, merge_group_bindings(members)
                        ),
                    )
            return list(first) + [instance]

        # N-ary conjunction: greedy oldest-first selection (chronicle-like).
        chosen = [instance]
        bindings: dict[str, Any] = dict(instance.bindings)
        for index in others:
            found = None
            for candidate in self.buffers[index]:
                if any(
                    span(candidate, member) - within > TIME_EPSILON
                    for member in chosen
                ):
                    continue
                merged = unify(bindings, candidate.bindings)
                if merged is None:
                    continue
                found = candidate
                bindings = merged
                break
            if found is None:
                return None
            chosen.append(found)
        if self.engine.context.consumes:
            for member in chosen[1:]:
                for index in others:
                    if member in self.buffers[index]:
                        self.buffers[index].remove(member)
                        break
        return chosen

    def _open_pending(
        self, positives: list[EventInstance], bindings: dict[str, Any]
    ) -> None:
        """Lookback-check the negations, then wait out the lookahead window."""
        within = self.node.within
        t_begin = min(member.t_begin for member in positives)
        t_end = max(member.t_end for member in positives)
        for index in self.negatives:
            not_state = self.engine.states[self.node.children[index].node_id]
            certificates = not_state.query(t_end - within, t_end, bindings)
            if not certificates:
                self.engine.record_kill(self.node)
                return  # an occurrence inside the lookback kills the match
        pending_id = self._next_pending
        self._next_pending = pending_id + 1
        pending = _PendingMatch(
            pending_id, tuple(positives), bindings, t_end, t_begin + within
        )
        self.pending[pending_id] = pending
        self.engine.schedule(
            PseudoEvent(
                self.node.node_id,
                t_create=t_end,
                t_execute=pending.window_end,
                kind="confirm-negation",
                payload={"pending": pending_id},
            )
        )

    def on_negative_occurrence(self, child_index: int, instance: EventInstance) -> None:
        doomed = [
            pending_id
            for pending_id, pending in self.pending.items()
            if pending.window_start <= instance.t_end <= pending.window_end
            and unify(pending.bindings, instance.bindings) is not None
        ]
        for pending_id in doomed:
            del self.pending[pending_id]
            self.engine.record_kill(self.node)

    def on_pseudo(self, event: PseudoEvent) -> None:
        pending = self.pending.pop(event.payload["pending"], None)
        if pending is None:
            return  # killed before expiration
        certificates: list[EventInstance] = []
        for index in self.negatives:
            not_state = self.engine.states[self.node.children[index].node_id]
            found = not_state.query(
                pending.window_start, pending.window_end, pending.bindings
            )
            if not found:
                self.engine.record_kill(self.node)
                return
            certificates.extend(found)
        constituents = tuple(pending.positives) + tuple(certificates)
        self.engine.emit(
            self.node,
            CompositeInstance(
                "AND",
                constituents,
                pending.bindings,
                t_begin=min(member.t_begin for member in pending.positives),
                t_end=pending.window_end,
            ),
        )

    def gc(self, cutoff: float) -> int:
        removed = super().gc(cutoff)
        if self.node.within == INFINITY:
            return removed
        for buffer in self.buffers.values():
            while buffer and buffer[0].t_end < cutoff:
                buffer.popleft()
                removed += 1
        return removed


class SeqState(RuntimeNode):
    """Sequence / temporally-constrained sequence (SEQ, TSEQ).

    Three shapes, dispatched at construction:

    * positive ; positive — initiators are buffered (bucketed by join
      key); a terminator selects partners through the parameter context,
      subject to order, distance bounds and the interval constraint;
    * ``NOT E1 ; E2`` — the terminator triggers a lookback
      non-occurrence query (push detection, no pseudo events: paper §4.5);
    * ``E1 ; NOT E2`` — each initiator opens a pending match killed by
      any ``E2`` in the lookahead window and confirmed by pseudo event.
    """

    __slots__ = ("init_is_not", "term_is_not", "join_vars", "buckets",
                 "pending", "_next_pending", "label")

    def __init__(self, node: Node, engine: "Engine") -> None:
        super().__init__(node, engine)
        self.init_is_not = node.children[0].kind == "not"
        self.term_is_not = node.children[1].kind == "not"
        self.join_vars = _join_key_vars(node)
        self.buckets: dict[tuple, Deque[EventInstance]] = {}
        self.pending: dict[int, _PendingMatch] = {}
        self._next_pending = 0
        self.label = "TSEQ" if node.kind == "tseq" else "SEQ"

    def copy_from(self, other: "SeqState") -> None:
        super().copy_from(other)
        self.buckets = {
            key: deque(bucket) for key, bucket in other.buckets.items()
        }
        self.pending = dict(other.pending)
        self._next_pending = other._next_pending

    # -- dispatch ----------------------------------------------------------

    def on_child(self, child_index: int, instance: EventInstance) -> None:
        if child_index == 0 and not self.init_is_not:
            if self.term_is_not:
                self._open_pending(instance)
            else:
                join_vars = self.join_vars
                key = project(instance.bindings, join_vars) if join_vars else ()
                bucket = self.buckets.get(key)
                if bucket is None:
                    bucket = self.buckets[key] = deque()
                self.engine.context.on_insert(bucket, instance)
            return
        if child_index == 1 and not self.term_is_not:
            if self.init_is_not:
                self._lookback(instance)
            else:
                self._match_terminator(instance)

    # -- positive ; positive -------------------------------------------------

    def _match_terminator(self, terminator: EventInstance) -> None:
        lower, upper = self.node.lower, self.node.upper
        within = self.node.within

        def accept(initiator: EventInstance) -> bool:
            if initiator.t_end >= terminator.t_begin:
                return False
            distance = terminator.t_end - initiator.t_end
            if distance < lower - TIME_EPSILON or distance > upper + TIME_EPSILON:
                return False
            if span(initiator, terminator) - within > TIME_EPSILON:
                return False
            return unify(initiator.bindings, terminator.bindings) is not None

        join_vars = self.join_vars
        key = project(terminator.bindings, join_vars) if join_vars else ()
        bucket = self.buckets.get(key)
        if bucket is None:
            return
        groups, consumed = self.engine.context.select(bucket, accept)
        for item in consumed:
            bucket.remove(item)
        for group in groups:
            members = list(group) + [terminator]
            # Every accepted initiator ends before the terminator begins:
            # the terminator ends the composite, an initiator begins it.
            t_begin = (
                group[0].t_begin
                if len(group) == 1
                else min(initiator.t_begin for initiator in group)
            )
            self.engine.emit(
                self.node,
                CompositeInstance(
                    self.label, members, merge_group_bindings(members),
                    t_begin=t_begin, t_end=terminator.t_end,
                ),
            )

    # -- NOT E1 ; E2 ----------------------------------------------------------

    def _lookback(self, terminator: EventInstance) -> None:
        window_start, window_end, closed_end = self._lookback_window(terminator)
        not_state = self.engine.states[self.node.children[0].node_id]
        certificates = not_state.query(
            window_start, window_end, terminator.bindings, closed_end=closed_end
        )
        if not certificates:
            return
        self.engine.emit(
            self.node,
            CompositeInstance(
                self.label,
                (certificates[0], terminator),
                dict(terminator.bindings),
                t_begin=window_start,
                t_end=terminator.t_end,
            ),
        )

    def _lookback_window(self, terminator: EventInstance) -> tuple[float, float, bool]:
        if self.node.kind == "tseq":
            start = terminator.t_end - self.node.upper
            end = terminator.t_end - self.node.lower
        else:
            start = terminator.t_end - self.node.within
            end = terminator.t_begin
        # Never let the window include the terminator occurrence itself
        # (the infield rule negates the same observation type it matches).
        closed_end = end < terminator.t_begin
        end = min(end, terminator.t_begin)
        return start, end, closed_end

    # -- E1 ; NOT E2 ------------------------------------------------------------

    def _open_pending(self, initiator: EventInstance) -> None:
        if self.node.kind == "tseq":
            window_start = initiator.t_end + self.node.lower
            window_end = initiator.t_end + self.node.upper
        else:
            window_start = initiator.t_end
            window_end = initiator.t_begin + self.node.within
        if window_end <= window_start:
            return  # degenerate window: nothing can be confirmed
        pending_id = self._next_pending
        self._next_pending = pending_id + 1
        self.pending[pending_id] = _PendingMatch(
            pending_id,
            (initiator,),
            dict(initiator.bindings),
            window_start,
            window_end,
        )
        self.engine.schedule(
            PseudoEvent(
                self.node.node_id,
                t_create=initiator.t_end,
                t_execute=window_end,
                kind="confirm-negation",
                payload={"pending": pending_id},
            )
        )

    def on_negative_occurrence(self, child_index: int, instance: EventInstance) -> None:
        if not self.term_is_not:
            return  # lookback shapes query on demand; nothing pending
        doomed = [
            pending_id
            for pending_id, pending in self.pending.items()
            if pending.window_start < instance.t_end <= pending.window_end
            and unify(pending.bindings, instance.bindings) is not None
        ]
        for pending_id in doomed:
            del self.pending[pending_id]
            self.engine.record_kill(self.node)

    def on_pseudo(self, event: PseudoEvent) -> None:
        pending = self.pending.pop(event.payload["pending"], None)
        if pending is None:
            return
        not_state = self.engine.states[self.node.children[1].node_id]
        certificates = not_state.query(
            pending.window_start,
            pending.window_end,
            pending.bindings,
            closed_start=False,
        )
        if not certificates:
            self.engine.record_kill(self.node)
            return
        initiator = pending.positives[0]
        self.engine.emit(
            self.node,
            CompositeInstance(
                self.label,
                (initiator, certificates[0]),
                pending.bindings,
                t_begin=initiator.t_begin,
                t_end=pending.window_end,
            ),
        )

    def gc(self, cutoff: float) -> int:
        removed = super().gc(cutoff)
        if min(self.node.within, self.node.upper) == INFINITY:
            return removed
        empties = []
        for key, bucket in self.buckets.items():
            while bucket and bucket[0].t_end < cutoff:
                bucket.popleft()
                removed += 1
            if not bucket:
                empties.append(key)
        for key in empties:
            del self.buckets[key]
        return removed


class _Chain:
    """An open TSEQ+ chain (or SEQ+ run) for one group key."""

    __slots__ = ("members", "generation")

    def __init__(self, first: EventInstance, generation: int) -> None:
        self.members: list[EventInstance] = [first]
        self.generation = generation

    def copy(self) -> "_Chain":
        clone = _Chain(self.members[0], self.generation)
        clone.members = list(self.members)
        return clone

    @property
    def first(self) -> EventInstance:
        return self.members[0]


class TSeqPlusState(RuntimeNode):
    """Distance-constrained aperiodic sequence ``TSEQ+(E, τl, τu)``.

    Chains partition the occurrence stream (per group key): an arriving
    occurrence extends the open chain when its gap from the previous
    occurrence lies in ``[τl, τu]``; otherwise the open chain closes
    (it is maximal) and a new chain starts.  With no further occurrence,
    a pseudo event scheduled at ``last.t_end + τu`` closes the chain —
    this is the non-spontaneity the paper's mixed mode captures.
    """

    __slots__ = ("chains", "_next_generation", "_primitive_members")

    def __init__(self, node: Node, engine: "Engine") -> None:
        super().__init__(node, engine)
        self.chains: dict[tuple, _Chain] = {}
        self._next_generation = 0
        self._primitive_members = node.children[0].kind == "obs"

    def copy_from(self, other: "TSeqPlusState") -> None:
        super().copy_from(other)
        self.chains = {key: chain.copy() for key, chain in other.chains.items()}
        self._next_generation = other._next_generation

    def on_child(self, child_index: int, instance: EventInstance) -> None:
        group_by = self.node.group_by
        key = project(instance.bindings, group_by) if group_by else ()
        chain = self.chains.get(key)
        if chain is not None:
            gap = instance.t_end - chain.members[-1].t_end
            if (
                self.node.lower - TIME_EPSILON
                <= gap
                <= self.node.upper + TIME_EPSILON
            ):
                chain.members.append(instance)
                chain.generation = self._next_generation
                self._next_generation += 1
                self._schedule_close(key, chain)
                return
            self._close(key, chain)
        chain = _Chain(instance, self._next_generation)
        self._next_generation += 1
        self.chains[key] = chain
        self._schedule_close(key, chain)

    def _schedule_close(self, key: tuple, chain: _Chain) -> None:
        last_end = chain.members[-1].t_end
        self.engine.schedule(
            PseudoEvent(
                self.node.node_id,
                t_create=last_end,
                t_execute=last_end + self.node.upper,
                kind="close-chain",
                payload={"key": key, "generation": chain.generation},
            )
        )

    def on_pseudo(self, event: PseudoEvent) -> None:
        key = event.payload["key"]
        chain = self.chains.get(key)
        if chain is None or chain.generation != event.payload["generation"]:
            return  # chain extended or closed since this pseudo was scheduled
        self._close(key, chain)

    def _close(self, key: tuple, chain: _Chain) -> None:
        del self.chains[key]
        bindings = dict(zip(self.node.group_by, key))
        members = chain.members
        if self._primitive_members:
            # Observations are instantaneous and arrive in time order:
            # the first member begins the chain, the last ends it.
            t_begin, t_end = members[0].t_begin, members[-1].t_end
        else:
            t_begin = t_end = None
        self.engine.emit(
            self.node,
            CompositeInstance(
                "TSEQ+", tuple(members), bindings, t_begin=t_begin, t_end=t_end
            ),
        )


class SeqPlusState(RuntimeNode):
    """Aperiodic sequence ``SEQ+(E)`` under an interval constraint.

    With ``WITHIN(SEQ+(E), W)``, a run opens at the first occurrence and
    collects everything within ``W`` of it; a pseudo event at
    ``first.t_begin + W`` closes and emits the run.  Without an interval
    constraint the node is pull-mode and answers parent queries from the
    child's history instead.
    """

    __slots__ = ("runs",)

    def __init__(self, node: Node, engine: "Engine") -> None:
        super().__init__(node, engine)
        self.runs: dict[tuple, _Chain] = {}

    def copy_from(self, other: "SeqPlusState") -> None:
        super().copy_from(other)
        self.runs = {key: run.copy() for key, run in other.runs.items()}

    def on_child(self, child_index: int, instance: EventInstance) -> None:
        if self.node.mode is not Mode.MIXED:
            return  # pull-mode: occurrences are discovered via query()
        window = self.node.within
        key = project(instance.bindings, self.node.group_by)
        run = self.runs.get(key)
        if (
            run is not None
            and instance.t_end <= run.first.t_begin + window + TIME_EPSILON
        ):
            run.members.append(instance)
            return
        if run is not None:
            self._close(key, run)
        run = _Chain(instance, 0)
        self.runs[key] = run
        self.engine.schedule(
            PseudoEvent(
                self.node.node_id,
                t_create=instance.t_end,
                t_execute=instance.t_begin + window,
                kind="close-run",
                payload={"key": key, "first_t": instance.t_begin},
            )
        )

    def on_pseudo(self, event: PseudoEvent) -> None:
        key = event.payload["key"]
        run = self.runs.get(key)
        if run is None or run.first.t_begin != event.payload["first_t"]:
            return
        self._close(key, run)

    def _close(self, key: tuple, run: _Chain) -> None:
        del self.runs[key]
        bindings = dict(zip(self.node.group_by, key))
        self.engine.emit(
            self.node,
            CompositeInstance("SEQ+", tuple(run.members), bindings),
        )

    def query(
        self,
        t_start: float,
        t_end: float,
        bindings: Bindings,
        closed_start: bool = True,
        closed_end: bool = True,
    ) -> list[EventInstance]:
        child_state = self.engine.states[self.node.children[0].node_id]
        occurrences = child_state.query(
            t_start, t_end, bindings, closed_start, closed_end
        )
        if not occurrences:
            return []
        grouped: dict[tuple, list[EventInstance]] = {}
        for occurrence in occurrences:
            grouped.setdefault(
                project(occurrence.bindings, self.node.group_by), []
            ).append(occurrence)
        return [
            CompositeInstance(
                "SEQ+", tuple(members), dict(zip(self.node.group_by, key))
            )
            for key, members in grouped.items()
        ]


class PeriodicState(RuntimeNode):
    """Periodic ticks anchored at child occurrences (extension operator).

    Each child occurrence starts its own train: ticks at ``t_end + k·p``
    propagate as occurrences (constituent = the anchor, bindings carried
    through) until the next tick would violate the node's interval
    constraint.  The first violating emission is filtered by the engine's
    interval check anyway; the state simply stops rescheduling.
    """

    __slots__ = ("_anchors", "_next_anchor")

    def __init__(self, node: Node, engine: "Engine") -> None:
        super().__init__(node, engine)
        self._anchors: dict[int, EventInstance] = {}
        self._next_anchor = 0

    def copy_from(self, other: "PeriodicState") -> None:
        super().copy_from(other)
        self._anchors = dict(other._anchors)
        self._next_anchor = other._next_anchor

    def on_child(self, child_index: int, instance: EventInstance) -> None:
        anchor_id = self._next_anchor
        self._next_anchor = anchor_id + 1
        self._anchors[anchor_id] = instance
        self._schedule_tick(anchor_id, instance, tick=1)

    def _schedule_tick(self, anchor_id: int, anchor: EventInstance, tick: int) -> None:
        tick_time = anchor.t_end + tick * self.node.period
        if tick_time - anchor.t_begin - self.node.within > TIME_EPSILON:
            del self._anchors[anchor_id]
            return
        self.engine.schedule(
            PseudoEvent(
                self.node.node_id,
                t_create=anchor.t_end,
                t_execute=tick_time,
                kind="periodic-tick",
                payload={"anchor": anchor_id, "tick": tick},
            )
        )

    def on_pseudo(self, event: PseudoEvent) -> None:
        anchor = self._anchors.get(event.payload["anchor"])
        if anchor is None:
            return
        tick = event.payload["tick"]
        self.engine.emit(
            self.node,
            CompositeInstance(
                "PERIODIC",
                (anchor,),
                anchor.bindings,
                t_begin=anchor.t_begin,
                t_end=event.t_execute,
            ),
        )
        self._schedule_tick(event.payload["anchor"], anchor, tick + 1)


def _join_key_vars(node: Node) -> tuple[str, ...]:
    """Shared variables usable as a hash key (guaranteed bound by both sides)."""
    shared = node.shared_variables
    if not shared:
        return ()
    for child in node.children:
        guaranteed = _guaranteed_variables(child)
        if not set(shared) <= guaranteed:
            return ()
    return shared


def _guaranteed_variables(node: Node) -> set[str]:
    """Variables every instance of ``node`` is certain to bind."""
    if node.kind == "obs":
        return set(node.expr.own_variables())
    if node.kind == "or":
        sets = [_guaranteed_variables(child) for child in node.children]
        return set.intersection(*sets) if sets else set()
    if node.kind == "not":
        return set()
    if node.kind in ("seq+", "tseq+"):
        return set(node.group_by)
    guaranteed: set[str] = set()
    for child in node.children:
        guaranteed |= _guaranteed_variables(child)
    return guaranteed


_STATE_CLASSES = {
    "obs": PrimitiveState,
    "or": OrState,
    "and": AndState,
    "not": NotState,
    "seq": SeqState,
    "tseq": SeqState,
    "seq+": SeqPlusState,
    "tseq+": TSeqPlusState,
    "periodic": PeriodicState,
}


def create_state(node: Node, engine: "Engine") -> RuntimeNode:
    """Instantiate the runtime state object for a compiled node."""
    return _STATE_CLASSES[node.kind](node, engine)
