"""Observation stream utilities: merging, ordering, duplicate injection.

RFID middleware collects streams from many distributed readers and
processes them as one time-ordered stream; :func:`merge_streams` is that
collector.  :func:`inject_duplicates` adds duplicate source *iii* of
§3.1 — multiple tags with the same EPC on one object produce nearly
simultaneous repeat readings.
"""

from __future__ import annotations

import heapq
import random
from typing import Iterable, Iterator, Optional, Sequence

from ..core.instances import Observation


def merge_streams(*streams: Iterable[Observation]) -> Iterator[Observation]:
    """Merge timestamp-ordered observation streams into one ordered stream.

    Lazy k-way heap merge: suitable for unbounded generators.
    """
    return heapq.merge(*streams, key=lambda observation: observation.timestamp)


def sort_stream(observations: Iterable[Observation]) -> list[Observation]:
    """Materialize and stably sort a stream by timestamp."""
    return sorted(observations, key=lambda observation: observation.timestamp)


def inject_duplicates(
    stream: Iterable[Observation],
    rate: float,
    rng: Optional[random.Random] = None,
    max_extra: int = 2,
    delta: float = 0.05,
) -> Iterator[Observation]:
    """Duplicate observations with probability ``rate``.

    Each duplicated observation is repeated 1..``max_extra`` times at
    ``delta``-spaced offsets — the signature of double-tagged objects or
    a tag lingering at a frame boundary.  The output remains ordered as
    long as inter-observation gaps exceed ``max_extra * delta`` (callers
    feeding dense streams should re-sort or enlarge gaps).
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1]: {rate}")
    if rng is None:
        rng = random.Random()
    pending: list[tuple[float, int, Observation]] = []
    counter = 0
    for observation in stream:
        while pending and pending[0][0] <= observation.timestamp:
            yield heapq.heappop(pending)[2]
        yield observation
        if rate and rng.random() < rate:
            extras = rng.randint(1, max_extra)
            for index in range(1, extras + 1):
                duplicate = Observation(
                    observation.reader,
                    observation.obj,
                    observation.timestamp + index * delta,
                    observation.extra,
                )
                counter += 1
                heapq.heappush(pending, (duplicate.timestamp, counter, duplicate))
    while pending:
        yield heapq.heappop(pending)[2]


class ReorderBuffer:
    """Repair bounded out-of-order arrival from distributed readers.

    Real edge deployments receive readings over the network, so a
    reading can arrive a little late.  The buffer holds readings for
    ``delay`` seconds of stream time and releases them in timestamp
    order: a reading is released once an arrival proves the stream has
    advanced ``delay`` past it (the watermark).  Readings older than the
    watermark at arrival are *late* — counted and dropped, matching the
    engine's ``out_of_order="drop"`` policy.

    >>> buffer = ReorderBuffer(delay=5.0)
    >>> out = list(buffer.push(Observation("r", "a", 10.0)))
    >>> out += list(buffer.push(Observation("r", "b", 8.0)))   # late-ish, ok
    >>> out += list(buffer.push(Observation("r", "c", 20.0)))  # watermark 15
    >>> [observation.timestamp for observation in out]
    [8.0, 10.0]
    >>> [observation.timestamp for observation in buffer.drain()]
    [20.0]

    With ``instruments`` attached (the ``reorder`` rows of
    :data:`repro.obs.METRICS`, bound to this buffer), each arrival's
    stream-time lateness (how far behind the maximum timestamp seen it
    arrived; 0 for in-order) goes into a histogram; the occupancy gauge
    and the late-drop counter read :attr:`occupancy` and
    :attr:`dropped_late`.
    """

    def __init__(
        self, delay: float, instruments: "Optional[object]" = None
    ) -> None:
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self.delay = delay
        self.instruments = instruments
        self.clear()

    def clear(self) -> None:
        """Forget every buffered reading, the watermark and the drop count."""
        self.dropped_late = 0
        self._heap: list[tuple[float, int, Observation]] = []
        self._counter = 0
        self._watermark = float("-inf")
        self._max_seen = float("-inf")

    @property
    def occupancy(self) -> int:
        """Readings currently held."""
        return len(self._heap)

    def push(self, observation: Observation) -> Iterator[Observation]:
        """Insert one arrival; yield everything now safely ordered."""
        if self.instruments is not None:
            lateness = self._max_seen - observation.timestamp
            self.instruments.lateness.observe(lateness if lateness > 0 else 0.0)
        if observation.timestamp > self._max_seen:
            self._max_seen = observation.timestamp
        if observation.timestamp < self._watermark:
            self.dropped_late += 1
            return
        self._counter += 1
        heapq.heappush(
            self._heap, (observation.timestamp, self._counter, observation)
        )
        self._watermark = max(
            self._watermark, observation.timestamp - self.delay
        )
        while self._heap and self._heap[0][0] <= self._watermark:
            yield heapq.heappop(self._heap)[2]

    def drain(self) -> Iterator[Observation]:
        """Release everything still buffered (end of stream)."""
        while self._heap:
            yield heapq.heappop(self._heap)[2]

    def reorder(self, arrivals: Iterable[Observation]) -> Iterator[Observation]:
        """Filter a whole arrival sequence into a time-ordered stream."""
        for observation in arrivals:
            yield from self.push(observation)
        yield from self.drain()

    # -- checkpoint support (see repro.resilience.checkpoint) -------------

    def state_dict(self) -> dict:
        """Plain-data snapshot of the buffer: heap, watermark, drop count."""
        entries = [
            {
                "tie": tie,
                "r": observation.reader,
                "o": observation.obj,
                "t": observation.timestamp,
                "x": dict(observation.extra) if observation.extra is not None
                else None,
            }
            for _timestamp, tie, observation in sorted(
                self._heap, key=lambda entry: entry[:2]
            )
        ]
        return {
            "delay": self.delay,
            "entries": entries,
            "next_tie": max((entry["tie"] for entry in entries), default=-1) + 1,
            "watermark": self._watermark,
            "max_seen": self._max_seen,
            "dropped_late": self.dropped_late,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (same ``delay`` required).

        The payload is validated up front: a malformed snapshot (wrong
        type, missing keys, non-numeric entry fields) raises
        :class:`~repro.core.errors.CheckpointError` with the offending
        field named, instead of failing later deep inside ``heapq``
        comparisons.
        """
        from ..core.errors import CheckpointError

        if not isinstance(state, dict):
            raise CheckpointError(
                "reorder snapshot must be a dict, got "
                f"{type(state).__name__}"
            )
        missing = [
            key
            for key in (
                "delay", "entries", "next_tie", "watermark", "max_seen",
                "dropped_late",
            )
            if key not in state
        ]
        if missing:
            raise CheckpointError(
                f"reorder snapshot is missing keys: {', '.join(missing)}"
            )
        if state["delay"] != self.delay:
            raise CheckpointError(
                f"reorder snapshot was taken with delay={state['delay']}, "
                f"this buffer uses delay={self.delay}"
            )
        entries = state["entries"]
        if not isinstance(entries, list):
            raise CheckpointError(
                "reorder snapshot entries must be a list, got "
                f"{type(entries).__name__}"
            )
        heap: list[tuple[float, int, Observation]] = []
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise CheckpointError(
                    f"reorder snapshot entry {index} is not a dict"
                )
            try:
                timestamp = entry["t"]
                tie = entry["tie"]
                observation = Observation(
                    entry["r"], entry["o"], timestamp, entry.get("x")
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"reorder snapshot entry {index} is malformed: {exc!r}"
                ) from exc
            if not isinstance(tie, int):
                raise CheckpointError(
                    f"reorder snapshot entry {index} has a non-integer tie "
                    f"break: {tie!r}"
                )
            heap.append((timestamp, tie, observation))
        for name in ("watermark", "max_seen"):
            if not isinstance(state[name], (int, float)):
                raise CheckpointError(
                    f"reorder snapshot field {name!r} must be a number, got "
                    f"{state[name]!r}"
                )
        if not isinstance(state["next_tie"], int) or not isinstance(
            state["dropped_late"], int
        ):
            raise CheckpointError(
                "reorder snapshot counters (next_tie, dropped_late) must be "
                "integers"
            )
        # Entries were written sorted, which is a valid heap layout.
        self._heap = heap
        self._counter = state["next_tie"]
        self._watermark = state["watermark"]
        self._max_seen = state["max_seen"]
        self.dropped_late = state["dropped_late"]


def assert_ordered(observations: Sequence[Observation]) -> None:
    """Raise ValueError at the first timestamp regression (test helper)."""
    previous = float("-inf")
    for index, observation in enumerate(observations):
        if observation.timestamp < previous:
            raise ValueError(
                f"stream regresses at index {index}: "
                f"{observation.timestamp} < {previous}"
            )
        previous = observation.timestamp
