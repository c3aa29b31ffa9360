"""The durable engine: log-ahead detection with recover-anywhere semantics.

:class:`DurableEngine` wraps any
:class:`~repro.core.detector.DetectionBackend` (bare
:class:`~repro.core.detector.Engine`,
:class:`~repro.core.sharding.ShardedEngine`,
:class:`~repro.resilience.supervise.SupervisedEngine`) behind three
cooperating pieces of storage under one directory::

    <dir>/wal/wal-*.seg          the write-ahead observation log
    <dir>/checkpoint-<seq>.json  periodic engine snapshots (atomic)
    <dir>/outbox.log             the action-delivery journal

The protocol per batch is *log, then detect, then deliver*:

1. each observation is appended to the WAL under a fresh sequence
   number, the batch in one write (durable per the
   :class:`~repro.resilience.durability.wal.FsyncPolicy`);
2. the engine processes the batch in one ``submit_many(batch,
   first_seq)`` call, so the engine's own checkpoints know how far the
   log has been consumed and the result's ``ends`` tag each detection
   with its observation's seq;
3. each resulting detection is delivered through the
   :class:`~repro.resilience.durability.outbox.ActionOutbox` keyed by
   ``(seq, ordinal)``, the batch in one outbox loop.

:meth:`DurableEngine.submit` is that batch of one.  WAL replay makes the
same detection call per run of records between flush markers, so live
and replayed detection share one path.

Kill the process at *any* point and :meth:`DurableEngine.recover`
rebuilds exactly the pre-crash behaviour: newest restorable checkpoint,
WAL tail replayed on top (detection is deterministic, so replay re-derives
the same detections), already-acked deliveries suppressed by the outbox.
The recovery tests assert the strong form — for a kill after *any*
observation, detections plus external deliveries equal the uninterrupted
run's, exactly once each.

Test hook: assign :attr:`DurableEngine.failpoint` a callable
``(stage, seq)`` and it is invoked at ``"append"`` (logged, not yet
detected), ``"detect"`` (detected, not yet delivered), ``"deliver"``
(acks written) and ``"checkpoint"`` — raising
:class:`~repro.resilience.chaos.SimulatedCrash` there is how the crash
matrix kills the engine between any two protocol steps.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from itertools import groupby
from typing import Any, Callable, Iterable, Optional

from ...core.detector import DetectionBackend, SubmitResult, submit_skipping
from ...core.errors import CheckpointError, WalError
from ...core.instances import Observation
from ...obs.instrument import Instruments
from ...obs.metrics import MetricsRegistry
from ..chaos import MalformedObservation
from ..checkpoint import load_checkpoint, save_checkpoint
from ..supervise import RetryPolicy
from .outbox import JOURNAL_NAME, ActionOutbox
from .wal import (
    FsyncPolicy,
    WalWriter,
    encode_observations,
    read_wal,
    segment_files,
)

__all__ = [
    "DurableEngine",
    "RecoveryReport",
    "checkpoint_files",
    "checkpoint_seq",
]

CHECKPOINT_PATTERN = re.compile(r"^checkpoint-(\d{16})\.json$")

WAL_SUBDIR = "wal"


# -- observation payloads ------------------------------------------------------


def encode_observation(observation: Any) -> dict:
    """WAL payload for one submitted object.

    Well-typed readings become ``{"k": "o", ...}``; anything else that is
    at least observation-shaped (``reader``/``obj``/``timestamp``
    attributes — e.g. the chaos harness's poison frames) is preserved as
    ``{"k": "m", ...}`` so replay re-poisons the engine identically and
    quarantine behaviour reproduces.  Objects without that shape cannot
    be made durable: :class:`~repro.core.errors.WalError`.
    """
    if isinstance(observation, Observation):
        payload: dict = {
            "k": "o",
            "r": observation.reader,
            "o": observation.obj,
            "t": observation.timestamp,
        }
        if observation.extra is not None:
            payload["x"] = dict(observation.extra)
        return payload
    try:
        return {
            "k": "m",
            "r": observation.reader,
            "o": observation.obj,
            "t": observation.timestamp,
        }
    except AttributeError as exc:
        raise WalError(
            f"cannot log {type(observation).__name__!r}: not observation-shaped"
        ) from exc


FLUSH_MARKER = {"k": "f"}

#: Reserved payload key for client provenance: ``[client_id, client_seq]``.
#: The serving layer passes it via ``submit_many(..., client=...)`` so that a
#: recovered engine can tell every client how far its stream got — the
#: frontier is committed in the *same* WAL append as the observation, so
#: there is no crash window in which the observation is durable but its
#: provenance is not.
CLIENT_KEY = "c"


def _frontier_name(seq: int) -> str:
    return f"clients-{seq:016d}.json"


def _note_client(frontiers: dict, payload: dict) -> None:
    """Fold one WAL payload's client provenance into a frontier map."""
    client = payload.get(CLIENT_KEY)
    if client:
        client_id, client_seq = client
        if frontiers.get(client_id, -1) < client_seq:
            frontiers[client_id] = client_seq


def _resolve_client_seqs(client, count: int):
    """Normalize a ``submit_many`` ``client`` argument to per-record seqs.

    ``client`` is either ``(client_id, first_seq)`` — the contiguous
    form, observation ``i`` carries ``first_seq + i`` — or
    ``(client_id, seqs)`` with one ascending client seq per observation.
    The non-contiguous form exists for relays: a router splits one
    client batch across shards, so the subsequence a shard receives has
    gaps, and forcing it back into contiguous runs would shatter the
    batch (and its single WAL commit) into per-gap fragments.

    Returns ``(client_id, indexable_of_seqs)``; raises ``ValueError``
    when an explicit seq list disagrees with the batch length or is not
    strictly ascending (the frontier is the *last* seq — out-of-order
    seqs would silently regress it).
    """
    client_id, start = client
    if isinstance(start, int):
        return client_id, range(start, start + count)
    seqs = tuple(start)
    if len(seqs) != count:
        raise ValueError(
            f"client seqs length {len(seqs)} != batch length {count}"
        )
    if any(b <= a for a, b in zip(seqs, seqs[1:])):
        raise ValueError("client seqs must be strictly ascending")
    return client_id, seqs


def decode_payload(payload: dict) -> Optional[Any]:
    """Inverse of :func:`encode_observation`.

    Returns ``None`` for a flush marker, which carries no observation.
    """
    kind = payload.get("k")
    if kind == "o":
        return Observation(
            payload["r"], payload["o"], payload["t"], payload.get("x")
        )
    if kind == "m":
        return MalformedObservation(
            payload.get("r"), payload.get("o"), payload.get("t")
        )
    if kind == "f":
        return None
    raise WalError(f"unknown WAL payload kind {kind!r}")


# -- checkpoint directory helpers ----------------------------------------------


def checkpoint_files(directory: str) -> list[str]:
    """Checkpoint file names in ``directory``, oldest first."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    return sorted(name for name in names if CHECKPOINT_PATTERN.match(name))


def checkpoint_seq(name: str) -> int:
    match = CHECKPOINT_PATTERN.match(name)
    if match is None:
        raise WalError(f"not a checkpoint file name: {name!r}")
    return int(match.group(1))


def _checkpoint_name(seq: int) -> str:
    return f"checkpoint-{seq:016d}.json"


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`DurableEngine.recover` did, for logs and assertions."""

    #: Sequence number the restored checkpoint covered (-1: none usable).
    checkpoint_seq: int
    #: Checkpoints attempted before one restored (0 when starting cold).
    checkpoints_tried: int
    #: WAL records replayed on top of the checkpoint.
    replayed_records: int
    #: Replayed records whose detection raised and was skipped, as live.
    skipped_records: int
    #: Replayed deliveries skipped because their ack was already journaled.
    suppressed_deliveries: int
    #: Replayed deliveries actually (re-)run — the at-least-once window.
    redelivered: int
    #: Torn bytes truncated from the WAL tail on open.
    torn_bytes_truncated: int
    #: First sequence number the revived engine will assign.
    next_seq: int


def _refuse_retired_layout(directory: str, wal_dir: str) -> None:
    """Fail closed on a directory in the retired per-shard layout.

    Earlier versions kept a sharded deployment as ``manifest.json`` plus
    one log per shard under ``wal/<shard>/``.  Nothing here reads that:
    the top-level log would look empty, and the engine would start cold
    at sequence 0 over state that is still live.
    """
    shard_logs = os.path.isdir(wal_dir) and any(
        os.path.isdir(path) and segment_files(path)
        for path in (os.path.join(wal_dir, name) for name in os.listdir(wal_dir))
    )
    if shard_logs or os.path.exists(os.path.join(directory, "manifest.json")):
        raise WalError(
            f"directory {directory!r} holds the retired per-shard durable "
            "layout (manifest.json, wal/<shard>/ logs), which this version "
            "cannot resume; sharded durability is one log and one snapshot: "
            "DurableEngine(lambda: ShardedEngine(...), fresh_directory)"
        )


class DurableEngine:
    """Crash-consistent wrapper around one detection backend.

    ``factory`` builds the underlying engine from scratch (same rules,
    same order — the checkpoint fingerprint enforces it); the wrapper
    owns ``directory``.  What it wraps is exactly the
    :class:`~repro.core.detector.DetectionBackend` contract —
    ``submit_many(observations, first_seq)``, ``flush()``,
    ``checkpoint()``, ``restore(snapshot)`` — so a
    :class:`~repro.core.sharding.ShardedEngine` factory gives sharded
    durability with no further code: one log (a multicast reading is
    logged once), one ``checkpoint-<seq>.json`` whose atomic replace is
    the consistent cut across shards.  On top of the contract it adds
    ``client=`` provenance on ``submit``/``submit_many``/``flush`` and
    the recovered :attr:`client_frontiers` map.

    A fresh ``DurableEngine`` refuses a directory that already holds a
    log or checkpoints: that state belongs to a previous life and
    silently appending to it would corrupt sequence numbering — call
    :meth:`recover` instead.

    ``sink(detection, seq, ordinal)``, when given, is the external
    effect; it runs under ``retry`` with exactly-once replay protection
    (see :mod:`repro.resilience.durability.outbox`).  Without a sink,
    detections are only returned to the caller and replay re-derives
    engine state without re-running anything external.  For engines
    built with ``OutOfOrderPolicy.REVISE``, ``confidence="final"``
    parks provisional detections until the watermark seals them (and
    cancels retracted ones before delivery); ``provisional_timeout``
    bounds how long an unsealed intent may wait.

    ``checkpoint_every`` observations triggers an automatic
    :meth:`checkpoint_now` (0 disables); the newest ``keep_checkpoints``
    snapshots are retained and the WAL is pruned to the *oldest* retained
    one, so recovery can still fall back past a corrupt newest snapshot.
    """

    def __init__(
        self,
        factory: Callable[[], Any],
        directory: str,
        *,
        fsync: "FsyncPolicy | str" = FsyncPolicy.NEVER,
        checkpoint_every: int = 100,
        keep_checkpoints: int = 2,
        segment_max_bytes: int = 1 << 20,
        sink: Optional[Callable[[Any, int, int], None]] = None,
        retry: Optional[RetryPolicy] = None,
        confidence: str = "immediate",
        provisional_timeout: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        metrics_label: str = "durable",
        _existing: bool = False,
    ) -> None:
        if keep_checkpoints < 1:
            raise ValueError("keep_checkpoints must be >= 1")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 disables)")
        self._factory = factory
        self.directory = directory
        self.checkpoint_every = checkpoint_every
        self.keep_checkpoints = keep_checkpoints
        os.makedirs(directory, exist_ok=True)
        wal_dir = os.path.join(directory, WAL_SUBDIR)
        _refuse_retired_layout(directory, wal_dir)
        if not _existing and (
            checkpoint_files(directory)
            or segment_files(wal_dir)
            or os.path.exists(os.path.join(directory, JOURNAL_NAME))
        ):
            raise WalError(
                f"directory {directory!r} already holds durable state; "
                "use DurableEngine.recover() to resume it"
            )
        self.engine = factory()
        self.wal = WalWriter(
            wal_dir,
            fsync=FsyncPolicy.parse(fsync),
            segment_max_bytes=segment_max_bytes,
        )
        self.outbox: Optional[ActionOutbox] = (
            ActionOutbox(
                directory,
                sink,
                retry=retry,
                fsync=FsyncPolicy.parse(fsync).mode == "always",
                confidence=confidence,
                provisional_timeout=provisional_timeout,
            )
            if sink is not None
            else None
        )
        self._next_seq = self.wal.last_seq + 1
        self._since_checkpoint = 0
        self.checkpoints_written = 0
        #: WAL records :meth:`recover` replayed into the engine.
        self.replayed = 0
        #: Highest client sequence applied, per serving client id — fed by
        #: ``submit(..., client=...)``, made durable with every WAL append
        #: and every checkpoint, rebuilt by :meth:`recover`.
        self.client_frontiers: dict[str, int] = {}
        #: Test hook: ``callable(stage, seq)`` fired between protocol steps.
        self.failpoint: Optional[Callable[[str, int], None]] = None
        if metrics is not None:
            # Bound last: its counters read the WAL and outbox built above.
            self.wal.instruments = Instruments(
                metrics, "durability", metrics_label, self
            )

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self.wal.close()
        if self.outbox is not None:
            self.outbox.close()

    def __enter__(self) -> "DurableEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _fire(self, stage: str, seq: int) -> None:
        if self.failpoint is not None:
            self.failpoint(stage, seq)

    # -- streaming ----------------------------------------------------------

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def submit(
        self, observation: Any, *, client: Optional[tuple[str, int]] = None
    ) -> SubmitResult:
        """:meth:`submit_many` of one observation, ``client`` its
        ``(client_id, client_seq)``."""
        return self.submit_many((observation,), client=client)

    def submit_many(
        self,
        observations: Iterable[Any],
        *,
        client: Optional[tuple[str, int]] = None,
    ) -> SubmitResult:
        """Commit a whole batch: one WAL pass, one detection call, one
        delivery loop.

        Every observation's WAL record — including its per-observation
        ``(client_id, client_seq)`` provenance — is byte-for-byte one
        record per observation, encoded in one template pass
        (:func:`~repro.resilience.durability.wal.encode_observations`)
        and committed with one ``append_encoded`` (one write + one fsync
        under ``FsyncPolicy.ALWAYS``).  ``client`` is ``(client_id,
        first_seq)`` or ``(client_id, per-observation seqs)`` — see
        :func:`_resolve_client_seqs`.  One ``submit_many(batch,
        first_seq)`` call to the wrapped backend detects the batch, its
        ``ends`` tagging each detection with its record's seq, and one
        :meth:`ActionOutbox.deliver_many
        <repro.resilience.durability.outbox.ActionOutbox.deliver_many>`
        loop delivers them in key order ``(seq, ordinal)``.

        Every logged record is detected once, live as on replay: a record
        whose detection raises is skipped at its failure point (what it
        detected before raising is kept), the rest of the batch still
        runs, and the first such error is re-raised after delivery.

        Returns the backend's :class:`~repro.core.detector.SubmitResult`.
        """
        observations = list(observations)
        if not observations:
            return SubmitResult()
        count = len(observations)
        client_id = client_seqs = None
        if client is not None:
            client_id, client_seqs = _resolve_client_seqs(client, count)
        first_seq = self._next_seq
        self.wal.append_encoded(
            encode_observations(
                first_seq, observations, encode_observation,
                client_id, client_seqs,
            )
        )
        if client is not None:
            last = client_seqs[-1]
            if self.client_frontiers.get(client_id, -1) < last:
                self.client_frontiers[client_id] = last
        self._next_seq = first_seq + count
        fire = self.failpoint
        if fire is not None:
            for seq in range(first_seq, first_seq + count):
                fire("append", seq)
        errors: list = []
        result, _ran = self._detect(observations, first_seq, errors)
        self._since_checkpoint += count
        if self.checkpoint_every and self._since_checkpoint >= self.checkpoint_every:
            self.checkpoint_now()
        if errors:
            raise errors[0]
        return result

    def flush(self, *, client: Optional[tuple[str, int]] = None) -> list:
        """Fire end-of-stream expirations — durably.

        The flush itself is a logged event (a marker record), so a crash
        after a flush replays the flush and post-flush deliveries keep
        their exactly-once keys.  ``client`` provenance works exactly as
        in :meth:`submit`.
        """
        seq = self._next_seq
        marker = dict(FLUSH_MARKER)
        if client is not None:
            marker[CLIENT_KEY] = list(client)
        self.wal.append(seq, marker)
        if client is not None:
            _note_client(self.client_frontiers, marker)
        self._next_seq = seq + 1
        self._fire("append", seq)
        detections = self.engine.flush()
        self._deliver(((seq, 0, detections),))
        return detections

    run = DetectionBackend.run

    def _detect(
        self, observations: list, first_seq: int, errors: list
    ) -> tuple[SubmitResult, int]:
        """Detect a run of logged records in one backend call, and
        deliver it; returns the result and how many deliveries ran.

        :func:`~repro.core.detector.submit_skipping` steps past a record
        that raises, appending the error to ``errors``.  The result's
        ``ends`` slice one ``(seq, 0, detections)`` delivery item per
        record; a record with no detections gets one only for the
        failpoint, which sees every seq.
        """
        result = submit_skipping(
            self.engine, observations, first_seq,
            lambda _observation, exc: errors.append(exc),
        )
        every = self.failpoint is not None
        outputs = []
        start = 0
        for seq, end in enumerate(result.ends, first_seq):
            if end > start or every:
                outputs.append((seq, 0, result[start:end]))
            start = end
        return result, self._deliver(outputs)

    def _deliver(self, outputs) -> int:
        """The outbox's delivery loop over ``(seq, 0, detections)`` items;
        returns how many ran the sink.

        Without a sink there is nothing to deliver, and only the
        failpoint's ``detect``/``deliver`` stages fire per seq.
        """
        if self.outbox is not None:
            return self.outbox.deliver_many(outputs, self.failpoint)
        if self.failpoint is not None:
            for seq, _first, _detections in outputs:
                self.failpoint("detect", seq)
                self.failpoint("deliver", seq)
        return 0

    # -- checkpointing ------------------------------------------------------

    def checkpoint_now(self) -> Optional[str]:
        """Snapshot the engine and prune log/journal behind it.

        Returns the checkpoint path, or ``None`` when nothing has been
        logged yet.  Ordering is load-bearing: the WAL is synced *before*
        the snapshot is written (a checkpoint must never claim coverage
        the log cannot back), and pruning happens only after the rename
        that makes the snapshot visible.
        """
        seq = self._next_seq - 1
        if seq < 0:
            return None
        self.wal.sync()
        # The frontier sidecar goes first: once the checkpoint exists (and
        # the WAL behind it may be pruned), the client frontiers it covers
        # must already be on disk.  A crash between the two writes leaves
        # an orphan sidecar and no checkpoint — harmless.
        save_checkpoint(
            {"clients": dict(self.client_frontiers)},
            os.path.join(self.directory, _frontier_name(seq)),
        )
        path = os.path.join(self.directory, _checkpoint_name(seq))
        save_checkpoint(self.engine.checkpoint(), path)
        self._since_checkpoint = 0
        self.checkpoints_written += 1
        self._fire("checkpoint", seq)
        names = checkpoint_files(self.directory)
        for stale in names[: -self.keep_checkpoints]:
            os.unlink(os.path.join(self.directory, stale))
            sidecar = os.path.join(
                self.directory, _frontier_name(checkpoint_seq(stale))
            )
            if os.path.exists(sidecar):
                os.unlink(sidecar)
        retained = names[-self.keep_checkpoints :]
        oldest_covered = checkpoint_seq(retained[0])
        self.wal.prune(oldest_covered)
        if self.outbox is not None:
            self.outbox.compact(oldest_covered)
        return path

    # -- recovery -----------------------------------------------------------

    @classmethod
    def recover(
        cls,
        factory: Callable[[], Any],
        directory: str,
        **kwargs: Any,
    ) -> tuple["DurableEngine", RecoveryReport]:
        """Rebuild a durable engine from whatever a crash left behind.

        Restores the newest checkpoint that loads *and* restores cleanly
        (corrupt or truncated ones are skipped — that is why several are
        kept), truncates the WAL's torn tail, replays every record past
        the checkpoint, and routes replayed detections through the outbox
        so acked deliveries are suppressed and un-acked ones run now.
        Replay output is *not* returned to the caller: the first life
        already returned it.

        Safe to run repeatedly — a second recovery of the same directory
        replays the same records against the same acks and delivers
        nothing twice.
        """
        durable = cls(factory, directory, _existing=True, **kwargs)
        report = durable._replay()
        return durable, report

    def _load_frontiers(self, ckpt_seq: int) -> dict[str, int]:
        """Client frontiers covered by the checkpoint at ``ckpt_seq``.

        The sidecar is written before its checkpoint, so it exists for any
        restorable checkpoint from this code; a missing or corrupt one
        (e.g. a pre-provenance directory) degrades to an empty map — WAL
        replay past the checkpoint fills in what it can.
        """
        try:
            sidecar = load_checkpoint(
                os.path.join(self.directory, _frontier_name(ckpt_seq))
            )
        except (FileNotFoundError, CheckpointError):
            return {}
        clients = sidecar.get("clients")
        if not isinstance(clients, dict):
            return {}
        return {str(key): int(value) for key, value in clients.items()}

    def _replay(self) -> RecoveryReport:
        wal_dir = os.path.join(self.directory, WAL_SUBDIR)
        ckpt_seq = -1
        tried = 0
        for name in reversed(checkpoint_files(self.directory)):
            tried += 1
            engine = self._factory()
            try:
                engine.restore(load_checkpoint(os.path.join(self.directory, name)))
            except (CheckpointError, FileNotFoundError):
                continue
            self.engine = engine
            ckpt_seq = checkpoint_seq(name)
            break
        self.client_frontiers = (
            self._load_frontiers(ckpt_seq) if ckpt_seq >= 0 else {}
        )
        suppressed_before = (
            self.outbox.suppressed if self.outbox is not None else 0
        )
        records = list(read_wal(wal_dir, start_after=ckpt_seq))
        if records and ckpt_seq == -1 and records[0].seq > 0:
            raise WalError(
                f"log starts at sequence {records[0].seq} (earlier segments "
                "were pruned) but no checkpoint could be restored; the "
                "stream prefix is unrecoverable"
            )
        entries = []
        for record in records:
            _note_client(self.client_frontiers, record.payload)
            entries.append((record.seq, decode_payload(record.payload)))
        # One detection call per run of records between flush markers,
        # skipping what raises as the live batch did.
        redelivered = 0
        errors: list = []
        for flushes, run in groupby(entries, key=lambda entry: entry[1] is None):
            run = list(run)
            if flushes:
                for seq, _marker in run:
                    redelivered += self._deliver(((seq, 0, self.engine.flush()),))
            else:
                redelivered += self._detect(
                    [observation for _seq, observation in run], run[0][0], errors
                )[1]
        self.replayed += len(records)
        self._next_seq = max(ckpt_seq, self.wal.last_seq) + 1
        self._since_checkpoint = 0
        suppressed = (
            self.outbox.suppressed - suppressed_before
            if self.outbox is not None
            else 0
        )
        return RecoveryReport(
            checkpoint_seq=ckpt_seq,
            checkpoints_tried=tried,
            replayed_records=self.replayed,
            skipped_records=len(errors),
            suppressed_deliveries=suppressed,
            redelivered=redelivered,
            torn_bytes_truncated=self.wal.truncated_tail_bytes,
            next_seq=self._next_seq,
        )

    # -- passthrough --------------------------------------------------------

    @property
    def stats(self):
        return self.engine.stats

    @property
    def clock(self) -> float:
        return self.engine.clock
