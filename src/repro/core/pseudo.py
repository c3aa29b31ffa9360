"""Pseudo events: scheduled queries for non-spontaneous events (paper §4.5).

A pseudo event ``e'[tc, te]`` is an artificial event created at time
``tc`` and scheduled to execute at time ``te``; when it fires it queries
its target node for occurrences (or, for ``NOT`` targets, the
*non*-occurrence) of the target event over ``[tc, te]`` and propagates
the results upward.

The engine keeps pseudo events in a queue sorted by execution timestamp
and, when fetching work, always takes the earliest item across the
incoming observation queue and the pseudo queue.  Two refinements over
the paper's prose, both load-bearing for correctness:

* an observation with the *same* timestamp as a pending pseudo event is
  processed first, so that a boundary occurrence (e.g. an ``E2`` arriving
  exactly at the end of a negation window, or a ``TSEQ+`` member arriving
  exactly ``τu`` after its predecessor) is seen before the expiration
  that depends on it fires;
* pseudo events carry a *generation* counter; a chain that was extended
  (or a pending match that was killed) invalidates its outstanding pseudo
  event lazily, without searching the heap.
"""

from __future__ import annotations

import heapq
from typing import Any, Optional


class PseudoEvent:
    """A scheduled query against a target node.

    ``kind`` selects the target node's handler (``"close-chain"``,
    ``"confirm-negation"``, ``"close-run"``); ``payload`` carries handler
    specific state such as the chain's group key and generation number.
    """

    __slots__ = ("target_node_id", "t_create", "t_execute", "kind", "payload")

    def __init__(
        self,
        target_node_id: int,
        t_create: float,
        t_execute: float,
        kind: str,
        payload: Optional[dict[str, Any]] = None,
    ) -> None:
        if t_execute < t_create:
            raise ValueError(
                f"pseudo event executes before it is created: "
                f"[{t_create}, {t_execute}]"
            )
        self.target_node_id = target_node_id
        self.t_create = t_create
        self.t_execute = t_execute
        self.kind = kind
        self.payload = payload or {}

    def __repr__(self) -> str:
        return (
            f"<pseudo {self.kind} -> node {self.target_node_id} "
            f"[{self.t_create:g},{self.t_execute:g}]>"
        )


class PseudoQueue:
    """Min-heap of pseudo events ordered by execution time.

    Ties are broken by insertion order so that same-instant pseudo events
    fire in the order they were scheduled (deterministic replay).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, PseudoEvent]] = []
        #: Next tie-break number (a plain int: readable and copyable).
        self._counter = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(self, event: PseudoEvent) -> None:
        tie = self._counter
        self._counter = tie + 1
        heapq.heappush(self._heap, (event.t_execute, tie, event))

    def peek_time(self) -> Optional[float]:
        """Execution time of the earliest pending pseudo event, if any."""
        return self._heap[0][0] if self._heap else None

    def pop_due(self, now: float, inclusive: bool = True) -> Optional[PseudoEvent]:
        """Pop the earliest pseudo event due at or before ``now``.

        With ``inclusive=False`` only strictly earlier events are due —
        the engine uses this while an observation at exactly ``now`` is
        still waiting to be processed.
        """
        if not self._heap:
            return None
        t_execute = self._heap[0][0]
        due = t_execute <= now if inclusive else t_execute < now
        if not due:
            return None
        return heapq.heappop(self._heap)[2]

    def drain(self) -> list[PseudoEvent]:
        """Remove and return all pending pseudo events in execution order."""
        drained = []
        while self._heap:
            drained.append(heapq.heappop(self._heap)[2])
        return drained
