"""Supervised detection: quarantine, circuit breakers, action retry.

The bare :class:`~repro.core.detector.Engine` treats every exception as
fatal — correct for a library primitive, wrong for middleware that must
outlive malformed readings and flaky rule code.  :class:`SupervisedEngine`
wraps an engine with three independent failure boundaries:

* **Poison-event quarantine** — an observation whose processing raises
  (malformed timestamp, broken payload, out-of-order under the RAISE
  policy) is captured into a bounded dead-letter queue with full context
  (exception, traceback, engine clock) instead of crashing the stream.
  Detections produced before the failure are still delivered.

* **Per-rule circuit breaker** — a rule whose condition or actions raise
  repeatedly is isolated: after ``threshold`` consecutive failures its
  activations are skipped (the shared event graph keeps running, other
  rules are unaffected).  With a ``cooldown`` (in engine *logical* time,
  so recovery is deterministic and replayable), the breaker half-opens
  and lets trial activations through; one success closes it.

* **Action retry with dead-letter** — rule actions execute through a
  :class:`RetryPolicy` (configurable attempts, exponential backoff on a
  pluggable ``sleep``); an activation that fails every attempt lands in
  the action dead-letter queue with its bindings, so a detection is
  never silently lost even when its side effects cannot be performed.

All failure paths count into the ``resilience`` rows of
:data:`repro.obs.METRICS` when a metrics registry is attached
(quarantine totals, retry attempt histograms, per-rule breaker state
gauges) and into :attr:`SupervisedEngine.failures` stats always.  See
``docs/resilience.md``.
"""

from __future__ import annotations

import time as _time
import traceback as _traceback
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, Optional

from ..core.detector import (
    ActivationContext,
    DetectionBackend,
    Detection,
    Engine,
    RuleLike,
    SubmitResult,
    submit_skipping,
)
from ..obs.instrument import Instruments
from ..obs.metrics import MetricsRegistry

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "DeadLetterEntry",
    "DeadLetterQueue",
    "ResilienceStats",
    "RetryPolicy",
    "SupervisedEngine",
]


class BreakerState(str, Enum):
    """Circuit breaker states (gauge encoding 0 / 0.5 / 1)."""

    CLOSED = "closed"
    HALF_OPEN = "half-open"
    OPEN = "open"

    @property
    def gauge_value(self) -> float:
        return {"closed": 0.0, "half-open": 0.5, "open": 1.0}[self.value]


class CircuitBreaker:
    """Failure isolation for one rule.

    ``threshold`` consecutive failures trip the breaker to OPEN; while
    open, activations are skipped.  With ``cooldown`` set (seconds of
    engine logical time), the breaker half-opens once the clock passes
    ``opened_at + cooldown`` and admits trial activations; a success
    closes it, a failure re-opens it (restarting the cooldown).  Without
    a cooldown the breaker stays open until :meth:`reset`.
    """

    __slots__ = ("threshold", "cooldown", "state", "consecutive_failures",
                 "opened_at", "opens", "failures")

    def __init__(self, threshold: int = 5, cooldown: Optional[float] = None) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.opens = 0
        self.failures = 0

    def allow(self, now: float) -> bool:
        """May an activation of the guarded rule proceed at time ``now``?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if (
                self.cooldown is not None
                and self.opened_at is not None
                and now - self.opened_at >= self.cooldown
            ):
                self.state = BreakerState.HALF_OPEN
                return True
            return False
        return True  # HALF_OPEN: trial activations pass until one resolves

    def record_failure(self, now: float) -> bool:
        """Count a failure; returns True when this one tripped the breaker."""
        self.failures += 1
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN or (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.threshold
        ):
            already_open = self.state is BreakerState.OPEN
            self.state = BreakerState.OPEN
            self.opened_at = now
            if not already_open:
                self.opens += 1
                return True
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = BreakerState.CLOSED
        self.opened_at = None

    def reset(self) -> None:
        """Manually close the breaker (operator override)."""
        self.record_success()


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry for rule actions.

    ``attempts`` is the total number of tries (1 = no retry).  The delay
    before retry ``k`` (1-based) is ``base_delay * multiplier**(k - 1)``
    capped at ``max_delay``; with the default ``base_delay=0`` retries
    are immediate, which keeps tests and logical-time replays
    deterministic.  ``sleep`` is pluggable — pass a recording stub in
    tests or an event-loop-friendly callable in services.

    Actions are re-executed whole: a rule whose action list partially
    succeeded before raising will re-run the successful prefix.  Keep
    actions idempotent (the shipped SQL actions are) or guard them.
    """

    attempts: int = 3
    base_delay: float = 0.0
    multiplier: float = 2.0
    max_delay: float = 60.0
    sleep: Callable[[float], None] = _time.sleep

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("retry attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("retry delays must be >= 0")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        raw = self.base_delay * (self.multiplier ** (attempt - 1))
        return min(raw, self.max_delay)


@dataclass(frozen=True)
class DeadLetterEntry:
    """One captured failure, with enough context to replay or triage."""

    #: "observation" (poison event), "condition" or "action" (rule code).
    kind: str
    #: The poison observation, or ``None`` for rule failures.
    observation: Optional[Any]
    #: Rule id for rule failures, ``None`` for poison observations.
    rule_id: Optional[str]
    #: Variable bindings of the failed activation (rule failures).
    bindings: dict
    error_type: str
    error: str
    traceback: str
    #: Engine logical clock when the failure happened.
    time: float
    #: Execution attempts consumed (retries + 1 for actions, else 1).
    attempts: int = 1


class DeadLetterQueue:
    """Bounded FIFO of :class:`DeadLetterEntry`; oldest evicted when full.

    ``total`` counts everything ever pushed, ``dropped`` the entries the
    bound evicted, so accounting stays exact even under sustained
    failure storms.
    """

    def __init__(self, capacity: int = 1000) -> None:
        if capacity < 1:
            raise ValueError("dead-letter capacity must be >= 1")
        self.capacity = capacity
        self._entries: deque[DeadLetterEntry] = deque(maxlen=capacity)
        self.total = 0
        self.dropped = 0

    def push(self, entry: DeadLetterEntry) -> None:
        if len(self._entries) == self.capacity:
            self.dropped += 1
        self._entries.append(entry)
        self.total += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def entries(self) -> list[DeadLetterEntry]:
        return list(self._entries)

    def clear(self) -> None:
        self._entries.clear()


@dataclass
class ResilienceStats:
    """Counters for every supervision outcome (the metrics read them)."""

    quarantined: int = 0
    condition_failures: int = 0
    action_failures: int = 0
    action_retries: int = 0
    action_dead_letters: int = 0
    breaker_opens: int = 0
    breaker_skips: int = 0


class _GuardedRule(RuleLike):
    """Supervision proxy satisfying the engine's rule contract.

    Wraps the user's rule so condition/action exceptions are captured,
    counted toward the rule's breaker and (for actions) retried — the
    engine itself never sees them.
    """

    def __init__(self, inner: RuleLike, supervisor: "SupervisedEngine") -> None:
        self.inner = inner
        self.rule_id = inner.rule_id
        self.name = inner.name
        self.event = inner.event
        self._supervisor = supervisor

    @property
    def enabled(self) -> bool:
        return getattr(self.inner, "enabled", True)

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self.inner.enabled = value

    def evaluate_condition(self, context: ActivationContext) -> bool:
        supervisor = self._supervisor
        breaker = supervisor.breaker(self.rule_id)
        if not breaker.allow(context.time):
            supervisor.failures.breaker_skips += 1
            return False
        try:
            return bool(self.inner.evaluate_condition(context))
        except Exception as exc:
            supervisor._record_rule_failure(
                self.rule_id, "condition", exc, context, attempts=1
            )
            return False

    def execute_actions(self, context: ActivationContext) -> None:
        supervisor = self._supervisor
        policy = supervisor.retry
        attempt = 0
        while True:
            attempt += 1
            try:
                self.inner.execute_actions(context)
            except Exception as exc:
                if attempt >= policy.attempts:
                    supervisor._record_rule_failure(
                        self.rule_id, "action", exc, context, attempts=attempt
                    )
                    return
                supervisor.failures.action_retries += 1
                policy.sleep(policy.delay(attempt))
                continue
            break
        if attempt > 1:
            supervisor._count_retry_resolved(attempt)
        supervisor.breaker(self.rule_id).record_success()
        supervisor._sync_breaker_gauge(self.rule_id)

    def __repr__(self) -> str:
        return f"<guarded {self.inner!r}>"


class SupervisedEngine(DetectionBackend):
    """A fault-tolerant front for :class:`~repro.core.detector.Engine`.

    Construct it the way you would an engine — rules plus engine keyword
    arguments; every rule is wrapped in a supervision proxy before the
    engine compiles it::

        supervised = SupervisedEngine(
            rules,
            store=store,
            retry=RetryPolicy(attempts=4, base_delay=0.2),
            breaker_threshold=3,
            breaker_cooldown=60.0,
            metrics=registry,
        )
        for detection in supervised.run(observations):
            ...
        supervised.quarantine.entries()       # poison observations
        supervised.action_dead_letters.entries()

    The wrapped engine is available as :attr:`engine` for checkpointing,
    introspection and metrics; :meth:`checkpoint`/:meth:`restore` pass
    through so supervised engines recover like bare ones.
    """

    def __init__(
        self,
        rules: Iterable[RuleLike] = (),
        *,
        retry: Optional[RetryPolicy] = None,
        breaker_threshold: int = 5,
        breaker_cooldown: Optional[float] = None,
        dead_letter_capacity: int = 1000,
        metrics: Optional[MetricsRegistry] = None,
        metrics_label: str = "main",
        **engine_kwargs: Any,
    ) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        self._breakers: dict[str, CircuitBreaker] = {}
        self.quarantine = DeadLetterQueue(dead_letter_capacity)
        self.action_dead_letters = DeadLetterQueue(dead_letter_capacity)
        self.failures = ResilienceStats()
        self._instr: Optional[Instruments] = (
            Instruments(metrics, "resilience", metrics_label, self)
            if metrics is not None
            else None
        )
        guarded = [self._guard(rule) for rule in rules]
        self.engine = Engine(
            guarded, metrics=metrics, metrics_label=metrics_label, **engine_kwargs
        )

    def _guard(self, rule: RuleLike) -> _GuardedRule:
        if isinstance(rule, _GuardedRule):
            return rule
        return _GuardedRule(rule, self)

    def add_rule(self, rule: RuleLike) -> None:
        self.engine.add_rule(self._guard(rule))

    # -- breakers --------------------------------------------------------------

    def breaker(self, rule_id: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding ``rule_id``."""
        breaker = self._breakers.get(rule_id)
        if breaker is None:
            breaker = CircuitBreaker(self._breaker_threshold, self._breaker_cooldown)
            self._breakers[rule_id] = breaker
        return breaker

    def breaker_states(self) -> dict[str, BreakerState]:
        """rule id -> breaker state, for report/inspection."""
        return {rule_id: b.state for rule_id, b in self._breakers.items()}

    def reset_breaker(self, rule_id: str) -> None:
        """Operator override: close one rule's breaker."""
        self.breaker(rule_id).reset()
        self._sync_breaker_gauge(rule_id)

    def _sync_breaker_gauge(self, rule_id: str) -> None:
        if self._instr is not None:
            self._instr.breaker_states[rule_id].set(
                self.breaker(rule_id).state.gauge_value
            )

    # -- failure recording -----------------------------------------------------

    def _record_rule_failure(
        self,
        rule_id: str,
        stage: str,
        exc: Exception,
        context: ActivationContext,
        attempts: int,
    ) -> None:
        entry = DeadLetterEntry(
            kind=stage,
            observation=None,
            rule_id=rule_id,
            bindings=dict(context.bindings),
            error_type=type(exc).__name__,
            error=str(exc),
            traceback=_traceback.format_exc(),
            time=context.time,
            attempts=attempts,
        )
        instr = self._instr
        if stage == "action":
            self.failures.action_failures += 1
            self.failures.action_dead_letters += 1
            self.action_dead_letters.push(entry)
            if instr is not None:
                instr.retry_attempts.observe(attempts)
        else:
            self.failures.condition_failures += 1
            self.action_dead_letters.push(entry)
        if instr is not None:
            instr.failures[rule_id, stage].inc()
        tripped = self.breaker(rule_id).record_failure(context.time)
        if tripped:
            self.failures.breaker_opens += 1
        self._sync_breaker_gauge(rule_id)

    def _count_retry_resolved(self, attempts: int) -> None:
        if self._instr is not None:
            self._instr.retry_attempts.observe(attempts)

    def _quarantine_observation(self, observation: Any, exc: Exception) -> None:
        self.failures.quarantined += 1
        self.quarantine.push(
            DeadLetterEntry(
                kind="observation",
                observation=observation,
                rule_id=None,
                bindings={},
                error_type=type(exc).__name__,
                error=str(exc),
                traceback=_traceback.format_exc(),
                time=self.engine.clock,
            )
        )

    # -- streaming -------------------------------------------------------------

    def submit_many(
        self,
        observations: Iterable[Any],
        first_seq: "Optional[int]" = None,
    ) -> SubmitResult:
        """Batch submit with per-observation isolation.

        One call to the wrapped engine per batch; when it raises, the
        failing observation (the last of ``exc.partial``) is quarantined,
        what it and the batch before it detected is kept, and the rest
        of the batch goes in the next call — one poison observation does
        not abort the batch.  Quarantine is best-effort isolation: state
        the observation mutated before raising stays mutated (the same
        guarantee a crash-and-restore cycle would give).

        Returns a :class:`~repro.core.detector.SubmitResult` (a ``list``
        of detections) whose ``quarantined`` counter says how many of the
        batch were poison and ``dropped`` how many the wrapped engine's
        out-of-order policy dropped.  ``first_seq`` numbers the batch as
        in ``Engine.submit_many``.
        """
        return submit_skipping(
            self.engine, observations, first_seq, self._quarantine_observation
        )

    def advance_to(self, time: float) -> list[Detection]:
        return self.engine.advance_to(time)

    def flush(self) -> list[Detection]:
        return self.engine.flush()

    # -- passthrough -----------------------------------------------------------

    @property
    def stats(self):
        return self.engine.stats

    @property
    def store(self):
        return self.engine.store

    @property
    def clock(self) -> float:
        return self.engine.clock

    @property
    def last_seq(self) -> int:
        return self.engine.last_seq

    @property
    def metrics(self):
        return self.engine.metrics

    def checkpoint(self) -> dict:
        return self.engine.checkpoint()

    def restore(self, snapshot: dict) -> None:
        self.engine.restore(snapshot)

    # -- reporting -------------------------------------------------------------

    def report(self) -> dict:
        """Plain-data summary of everything supervision has absorbed."""
        return {
            "quarantined": self.failures.quarantined,
            "quarantine_backlog": len(self.quarantine),
            "condition_failures": self.failures.condition_failures,
            "action_failures": self.failures.action_failures,
            "action_retries": self.failures.action_retries,
            "action_dead_letters": self.failures.action_dead_letters,
            "dead_letter_backlog": len(self.action_dead_letters),
            "breaker_opens": self.failures.breaker_opens,
            "breaker_skips": self.failures.breaker_skips,
            "breakers": {
                rule_id: state.value
                for rule_id, state in sorted(self.breaker_states().items())
            },
            "detections": self.engine.stats.detections,
            "observations": self.engine.stats.observations,
            # Late-data loss must be observable, not invisible: DROP-mode
            # discards (and REVISE-mode beyond-horizon drops) show up
            # here even when nobody attached a metrics registry.
            "ooo_dropped": self.engine.stats.dropped_out_of_order,
        }
