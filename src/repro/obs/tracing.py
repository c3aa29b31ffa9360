"""Typed engine tracing: the :class:`EngineObserver` protocol and helpers.

The engine exposes its internals through one method per engine event,
called with the live objects and no intermediate allocation:

* ``on_observation(observation)`` — an observation enters the main loop;
* ``on_emit(node, instance)`` — a node emitted an event occurrence;
* ``on_pseudo(event)`` — a scheduled pseudo event fired;
* ``on_kill(node)`` — a pending match or candidate died;
* ``on_detection(detection)`` — a rule fired;
* ``on_gc(removed, cutoff)`` — a garbage-collection sweep finished.

:class:`EngineObserver` is both the protocol and a no-op base class:
subclass it and override only the hooks you care about.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional, Union

from .metrics import Histogram, MetricFamily

__all__ = [
    "EngineObserver",
    "MulticastObserver",
    "RecordingObserver",
    "Span",
    "as_observer",
]

#: The hook names every observer responds to.
OBSERVER_HOOKS = (
    "on_observation",
    "on_emit",
    "on_pseudo",
    "on_kill",
    "on_detection",
    "on_gc",
)


class EngineObserver:
    """No-op base class / structural contract for engine tracing.

    The engine calls these hooks from its hot path with a single
    ``is not None`` guard, so implementations must be fast and must not
    mutate engine state.  All hooks default to no-ops; override what you
    need.
    """

    __slots__ = ()

    def on_observation(self, observation) -> None:
        """An observation entered the main loop (after ordering checks)."""

    def on_emit(self, node, instance) -> None:
        """``node`` emitted ``instance`` (primitive match or composite)."""

    def on_pseudo(self, event) -> None:
        """A scheduled pseudo event fired."""

    def on_kill(self, node) -> None:
        """A pending match or candidate at ``node`` died."""

    def on_detection(self, detection) -> None:
        """A rule fired; ``detection`` is the full Detection record."""

    def on_gc(self, removed: int, cutoff: float) -> None:
        """A GC sweep reclaimed ``removed`` items older than ``cutoff``."""


class MulticastObserver(EngineObserver):
    """Fan one engine's events out to several observers, in order."""

    __slots__ = ("observers",)

    def __init__(self, *observers: EngineObserver) -> None:
        self.observers = tuple(observers)

    def on_observation(self, observation) -> None:
        for observer in self.observers:
            observer.on_observation(observation)

    def on_emit(self, node, instance) -> None:
        for observer in self.observers:
            observer.on_emit(node, instance)

    def on_pseudo(self, event) -> None:
        for observer in self.observers:
            observer.on_pseudo(event)

    def on_kill(self, node) -> None:
        for observer in self.observers:
            observer.on_kill(node)

    def on_detection(self, detection) -> None:
        for observer in self.observers:
            observer.on_detection(detection)

    def on_gc(self, removed: int, cutoff: float) -> None:
        for observer in self.observers:
            observer.on_gc(removed, cutoff)


class RecordingObserver(EngineObserver):
    """Collects every event as ``(hook, args)`` tuples — tests, debugging."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[tuple[str, tuple]] = []

    def on_observation(self, observation) -> None:
        self.events.append(("observation", (observation,)))

    def on_emit(self, node, instance) -> None:
        self.events.append(("emit", (node, instance)))

    def on_pseudo(self, event) -> None:
        self.events.append(("pseudo", (event,)))

    def on_kill(self, node) -> None:
        self.events.append(("kill", (node,)))

    def on_detection(self, detection) -> None:
        self.events.append(("detection", (detection,)))

    def on_gc(self, removed: int, cutoff: float) -> None:
        self.events.append(("gc", (removed, cutoff)))

    def kinds(self) -> list[str]:
        return [kind for kind, _args in self.events]

    def of_kind(self, kind: str) -> list[tuple]:
        return [args for event_kind, args in self.events if event_kind == kind]


class Span:
    """A context-manager stopwatch feeding a histogram (or a callback).

    >>> from repro.obs import MetricsRegistry, Span
    >>> registry = MetricsRegistry()
    >>> latency = registry.histogram("step_seconds")
    >>> with Span(latency):
    ...     pass
    >>> registry.get("step_seconds").snapshot()["samples"][0]["count"]
    1
    """

    __slots__ = ("sink", "clock", "started", "elapsed")

    def __init__(
        self,
        sink: Union[Histogram, MetricFamily, Callable[[float], Any], None] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if sink is None or callable(sink):
            self.sink = sink
        else:
            self.sink = sink.observe
        self.clock = clock
        self.started: Optional[float] = None
        self.elapsed: Optional[float] = None

    def __enter__(self) -> "Span":
        self.started = self.clock()
        return self

    def __exit__(self, *_exc_info) -> None:
        self.elapsed = self.clock() - self.started
        if self.sink is not None:
            self.sink(self.elapsed)


def as_observer(observer: Any) -> Optional[EngineObserver]:
    """Check an ``observer=`` argument; returns it, or None for None.

    An :class:`EngineObserver`, or any object with every observer hook,
    is used as-is; anything else is a ``TypeError``.
    """
    if observer is None or isinstance(observer, EngineObserver):
        return observer
    if all(callable(getattr(observer, hook, None)) for hook in OBSERVER_HOOKS):
        return observer  # structural match: duck-typed observer
    raise TypeError(
        f"observer must be an EngineObserver (or have every on_* hook), "
        f"got {type(observer).__name__}"
    )
