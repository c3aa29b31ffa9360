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
