"""Chaos harness: seeded fault injection for RFID observation streams.

RFID deployments fail in well-known ways — readers drop out for seconds
at a time, clocks skew, tags are read twice, network buffering delivers
readings late and out of order, and the occasional frame is garbage.
:class:`ChaosInjector` reproduces all of those *deterministically*: it
wraps any observation iterable and, driven by a single
``random.Random(seed)``, perturbs it with

* **reader dropout** — per-reader outage windows during which that
  reader's observations vanish;
* **clock skew** — bounded random timestamp offsets;
* **duplicate bursts** — extra copies of a reading at tiny timestamp
  offsets (the classic "tag read 3× while on the antenna");
* **out-of-order spikes** — readings held back and re-delivered after
  newer ones, with bounded lateness (exercises ``reorder_delay`` and
  :class:`~repro.core.detector.OutOfOrderPolicy`);
* **malformed observations** — :class:`MalformedObservation` objects
  whose timestamps are not numbers, which make an unsupervised engine
  raise (and a :class:`~repro.resilience.supervise.SupervisedEngine`
  quarantine).

The same seed over the same input yields byte-identical fault schedules,
so chaos tests are reproducible and checkpoint/restore equality can be
asserted under fire.  :func:`kill_and_restore_run` drives any
checkpointable engine through a mid-stream kill + restore, the backbone
of the recovery tests and the ``python -m repro chaos`` CLI.

Stream chaos has a network-layer sibling: :mod:`repro.serve.faults`
perturbs the *wire* that carries observations (latency, fragmentation,
resets, byte corruption) with the same seeded-determinism contract.
Its classes — :class:`~repro.serve.faults.NetworkFaultPlan`,
:class:`~repro.serve.faults.ChaosProxy`,
:class:`~repro.serve.faults.FaultyTransport` — are re-exported here so
one import serves both layers of a drill.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from ..core.instances import Observation
from ..serve.faults import (
    ChaosProxy,
    FaultSchedule,
    FaultStats,
    FaultyTransport,
    NetworkFaultPlan,
)

__all__ = [
    "ChaosConfig",
    "ChaosInjector",
    "ChaosProxy",
    "FaultSchedule",
    "FaultStats",
    "FaultyTransport",
    "MalformedObservation",
    "NetworkFaultPlan",
    "SimulatedCrash",
    "corrupt_checkpoint",
    "crash_failpoint",
    "kill_and_restore_run",
    "kill_at_byte",
    "tear_wal_tail",
]


class SimulatedCrash(RuntimeError):
    """The chaos harness's ``kill -9``: raised from a durable engine's
    failpoint to abandon it between two protocol steps.  Tests catch it,
    drop the engine without any cleanup, and drive
    :meth:`~repro.resilience.durability.engine.DurableEngine.recover`."""


def crash_failpoint(stage: str, seq: int) -> Callable[[str, int], None]:
    """A failpoint that raises :class:`SimulatedCrash` at one exact step.

    Assign to :attr:`DurableEngine.failpoint`; fires when the engine
    reaches ``stage`` ("append", "detect", "deliver" or "checkpoint")
    for sequence number ``seq``.
    """

    def failpoint(at_stage: str, at_seq: int) -> None:
        if at_stage == stage and at_seq == seq:
            raise SimulatedCrash(f"simulated crash at {stage} seq={seq}")

    return failpoint


def kill_at_byte(path: str, offset: int) -> int:
    """Truncate ``path`` at ``offset`` bytes — a write cut off mid-record.

    Deterministic by construction; returns the number of bytes removed.
    """
    import os

    size = os.path.getsize(path)
    if not 0 <= offset <= size:
        raise ValueError(f"offset {offset} outside file (0..{size})")
    with open(path, "r+b") as handle:
        handle.truncate(offset)
    return size - offset


def tear_wal_tail(directory: str, *, seed: int = 0) -> tuple[str, int]:
    """Tear the newest WAL segment mid-record, as a crash during append would.

    Picks a deterministic (seeded) truncation point strictly inside the
    final record — after its first byte, before its last — so the torn
    record fails its length or checksum validation and a reader must
    stop at the previous record.  Returns ``(segment_path, bytes_torn)``.
    Raises ``ValueError`` when the log is empty (nothing to tear).
    """
    import os

    from .durability.wal import scan_segment, segment_files, segment_path

    names = segment_files(directory)
    if not names:
        raise ValueError(f"no WAL segments under {directory!r}")
    path = segment_path(directory, names[-1])
    records, valid, total = scan_segment(path, with_payload=False)
    if not records:
        raise ValueError(f"segment {path!r} holds no complete record to tear")
    last_offset = records[-1].offset
    span = total - last_offset
    if span < 2:  # pragma: no cover - records are always header + body
        raise ValueError(f"final record of {path!r} is too small to tear")
    cut = last_offset + 1 + random.Random(seed).randrange(span - 1)
    return path, kill_at_byte(path, cut)


def corrupt_checkpoint(path: str, *, mode: str = "truncate", seed: int = 0) -> None:
    """Damage a checkpoint file the way real crashes and bitrot do.

    ``mode="truncate"`` cuts the file at a seeded interior offset (the
    pre-atomic-write failure this subsystem's ``save_checkpoint``
    prevents — and recovery must still survive when it meets one);
    ``mode="garble"`` overwrites one seeded interior byte with ``0x00``,
    which breaks JSON decoding without changing the length.
    """
    import os

    size = os.path.getsize(path)
    if size < 2:
        raise ValueError(f"checkpoint {path!r} too small to corrupt")
    rng = random.Random(seed)
    offset = 1 + rng.randrange(size - 1)
    if mode == "truncate":
        kill_at_byte(path, offset)
    elif mode == "garble":
        with open(path, "r+b") as handle:
            handle.seek(offset)
            handle.write(b"\x00")
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")


class MalformedObservation:
    """A corrupt reading: shaped like an observation, but not one.

    Carries a non-numeric ``timestamp`` (``None`` or a string), so any
    engine arithmetic or comparison on it raises ``TypeError`` — the
    supervised engine's quarantine path in miniature.  Deliberately not
    an :class:`~repro.core.instances.Observation` subclass: real pipelines
    see arbitrary garbage, not well-typed garbage.
    """

    __slots__ = ("reader", "obj", "timestamp")

    def __init__(self, reader: Any, obj: Any, timestamp: Any) -> None:
        self.reader = reader
        self.obj = obj
        self.timestamp = timestamp

    def __repr__(self) -> str:
        return (
            f"malformed(reader={self.reader!r}, obj={self.obj!r}, "
            f"timestamp={self.timestamp!r})"
        )


@dataclass(frozen=True)
class ChaosConfig:
    """Fault mix for :class:`ChaosInjector`.  All rates are per-reading
    probabilities in ``[0, 1]``; a rate of 0 disables that fault."""

    seed: int = 0
    #: Probability a reading starts an outage for its reader.
    dropout_rate: float = 0.0
    #: Outage length in stream-time seconds.
    dropout_duration: float = 5.0
    #: Probability a reading's timestamp is skewed.
    skew_rate: float = 0.0
    #: Skew is uniform in ``[-max_skew, +max_skew]`` (clamped at 0).
    max_skew: float = 1.0
    #: Probability a reading is re-read (duplicate burst).
    duplicate_rate: float = 0.0
    #: Up to this many extra copies per burst.
    duplicate_max_extra: int = 2
    #: Timestamp offset between copies in a burst.
    duplicate_delta: float = 0.05
    #: Probability a reading is delayed past newer readings.
    disorder_rate: float = 0.0
    #: Delayed readings arrive at most this many seconds late.
    max_lateness: float = 2.0
    #: Probability a garbage frame precedes a reading.
    malformed_rate: float = 0.0


class ChaosInjector:
    """Deterministically perturb an observation stream.

    ``inject`` is a generator — faults are decided reading-by-reading in
    stream order from one seeded PRNG, so two injectors with equal
    configs produce identical outputs for identical inputs.  Fault
    application order per reading: dropout (may consume the reading) →
    skew → disorder hold-back → malformed frame → the reading itself →
    duplicate burst.  :attr:`counts` tallies every fault applied.
    """

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        self.counts: dict[str, int] = {
            "delivered": 0,
            "dropped": 0,
            "skewed": 0,
            "duplicated": 0,
            "delayed": 0,
            "malformed": 0,
        }

    def inject(self, stream: Iterable[Observation]) -> Iterator[Any]:
        rng = self._rng
        config = self.config
        counts = self.counts
        #: reader -> outage end time.
        outages: dict[Any, float] = {}
        #: readings held for late delivery: (release_time, observation).
        held: list[tuple[float, Observation]] = []

        for observation in stream:
            timestamp = observation.timestamp

            # Release held readings whose lateness budget has elapsed —
            # they now arrive *behind* newer readings, i.e. out of order.
            if held:
                due = [entry for entry in held if entry[0] <= timestamp]
                if due:
                    held = [entry for entry in held if entry[0] > timestamp]
                    for _release, late in sorted(due, key=lambda entry: entry[0]):
                        counts["delivered"] += 1
                        yield late

            # Reader dropout windows.
            outage_end = outages.get(observation.reader)
            if outage_end is not None and timestamp < outage_end:
                counts["dropped"] += 1
                continue
            if config.dropout_rate and rng.random() < config.dropout_rate:
                outages[observation.reader] = timestamp + config.dropout_duration
                counts["dropped"] += 1
                continue

            # Clock skew.
            if config.skew_rate and rng.random() < config.skew_rate:
                skew = rng.uniform(-config.max_skew, config.max_skew)
                observation = Observation(
                    observation.reader,
                    observation.obj,
                    max(0.0, timestamp + skew),
                    observation.extra,
                )
                counts["skewed"] += 1

            # Out-of-order spike: hold this reading back, bounded lateness.
            if config.disorder_rate and rng.random() < config.disorder_rate:
                lateness = rng.uniform(0.0, config.max_lateness)
                held.append((observation.timestamp + lateness, observation))
                counts["delayed"] += 1
                continue

            # Garbage frame ahead of the real reading.
            if config.malformed_rate and rng.random() < config.malformed_rate:
                counts["malformed"] += 1
                yield self._malformed(observation, rng)

            counts["delivered"] += 1
            yield observation

            # Duplicate burst: the tag lingers on the antenna.
            if config.duplicate_rate and rng.random() < config.duplicate_rate:
                extras = rng.randint(1, max(1, config.duplicate_max_extra))
                for copy_index in range(1, extras + 1):
                    counts["duplicated"] += 1
                    yield Observation(
                        observation.reader,
                        observation.obj,
                        observation.timestamp + copy_index * config.duplicate_delta,
                        observation.extra,
                    )

        # End of stream: everything still held arrives, oldest deadline first.
        for _release, late in sorted(held, key=lambda entry: entry[0]):
            counts["delivered"] += 1
            yield late

    def _malformed(
        self, observation: Observation, rng: random.Random
    ) -> MalformedObservation:
        variant = rng.randrange(3)
        if variant == 0:
            return MalformedObservation(observation.reader, observation.obj, None)
        if variant == 1:
            return MalformedObservation(
                observation.reader, observation.obj, "not-a-timestamp"
            )
        return MalformedObservation(None, None, None)


def kill_and_restore_run(
    factory: Callable[[], Any],
    observations: Iterable[Any],
    kill_at: int,
    *,
    flush: bool = True,
    via_json: bool = True,
    recover: "Callable[[], Any] | None" = None,
) -> tuple[list, Any]:
    """Run an engine, kill it after ``kill_at`` observations, restore, finish.

    ``factory`` builds the engine (any
    :class:`~repro.core.detector.DetectionBackend`).  The first
    engine processes ``observations[:kill_at]`` and is checkpointed and
    discarded — with ``via_json`` (default) the snapshot additionally
    round-trips through ``json.dumps``/``loads``, proving it survives
    serialization to disk.  A second engine from the same factory
    restores the snapshot and processes the rest.

    With ``recover`` given, the harness drives *durable* recovery
    instead: the first engine is dropped **without** being checkpointed
    (the kill takes whatever its directory holds — a proper crash, not a
    graceful shutdown) and ``recover()`` must hand back the revived
    engine, typically a closure over
    :meth:`~repro.resilience.durability.engine.DurableEngine.recover`.
    ``via_json`` is meaningless in that mode and ignored.

    Returns ``(detections, revived_engine)`` where ``detections`` is the
    concatenated output of both engine lives — which recovery tests
    assert equals an uninterrupted run's output exactly.
    """
    sequence = list(observations)
    if not 0 <= kill_at <= len(sequence):
        raise ValueError(
            f"kill_at {kill_at} outside the stream (0..{len(sequence)})"
        )
    first = factory()
    detections: list = []
    for observation in sequence[:kill_at]:
        detections.extend(first.submit(observation))
    if recover is None:
        snapshot = first.checkpoint()
        if via_json:
            snapshot = json.loads(json.dumps(snapshot))
        # the "kill": nothing of the first life survives but the snapshot
        del first
        revived = factory()
        revived.restore(snapshot)
    else:
        del first  # the "kill": only the durable directory survives
        revived = recover()
    for observation in sequence[kill_at:]:
        detections.extend(revived.submit(observation))
    if flush:
        detections.extend(revived.flush())
    return detections, revived
