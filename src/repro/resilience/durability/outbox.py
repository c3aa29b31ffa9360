"""Action outbox: exactly-once delivery of detection side effects.

Replaying a write-ahead log re-detects every complex event the first
life already detected — correct for engine state, catastrophic for
external effects (the paper's motivating actions are database writes and
alerts; re-running ``BULK INSERT`` per recovery is not "recovery").  The
transactional-outbox pattern closes the gap: every delivery is journaled
*before* it runs and *acknowledged* after it succeeds, so recovery can
tell "already delivered" from "was about to deliver" and act accordingly.

Journal format: one line per entry, ``<crc32hex> <json>\\n``.  The CRC
covers the JSON bytes; a torn final line fails its checksum and is
dropped on load (the same torn-tail contract as the WAL).  Entry
operations:

* ``i`` — *intent*: delivery ``(seq, ordinal)`` is about to run;
* ``a`` — *ack*: it succeeded;
* ``d`` — *dead*: it exhausted its retries and went to the dead-letter
  queue (counts as resolved — recovery does not retry dead entries);
* ``m`` — *memo*: the delivered detection ids a later ``final`` may
  still have to be checked against (``dids``; ``finals`` holds, in the
  same order, the sequence number of each id's ``final`` or ``null``
  while it has not been seen), rewritten at compaction so id-level
  dedup survives journal pruning.

Intent and ack lines are formatted from templates, not by a JSON
encoder — two per delivery make them the hot path — and must stay
byte-for-byte what ``json.dumps(record, separators=(",", ":"))`` gives,
so anything holding ``json.loads`` reads them.  They are group-committed
(:meth:`ActionOutbox.deliver_many`): one delivery's ack is written with
the next one's intent, before that next sink runs.

The delivery key is ``(seq, ordinal)``: the durable sequence number of
the observation (or flush marker) that produced the detection, plus the
detection's position within that submission's output.  Detection is
deterministic, so the key is stable across replays.

**Confidence horizon** (REVISE streams): with ``confidence="final"``
the outbox parks ``provisional``/``revise`` detections instead of
running the sink, cancels parked intents when their ``retract``
arrives, and delivers on ``final`` — so a speculative detection that
late data later withdraws never causes a side effect.  A parked intent
older than ``provisional_timeout`` wall-clock seconds is released
unsealed (late data starved the watermark); the ack then records the
``detection_id``, so the eventual ``final`` is suppressed by id even
though its ``(seq, ordinal)`` key differs.

The guarantee, precisely: a delivery whose ack reached the journal runs
exactly once; a crash *between* intent and ack — at most one delivery
at a time, since every earlier ack is written before the next sink
runs — makes that one delivery at-least-once (recovery re-runs it, as
it cannot know whether the effect landed).  Keep sinks idempotent — the
journal narrows the duplicate window to single in-flight deliveries; it
cannot erase it without two-phase commit against the sink.
"""

from __future__ import annotations

import json
import os
import time as _time
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..supervise import DeadLetterEntry, DeadLetterQueue, RetryPolicy
from .wal import compact_json

__all__ = ["ActionOutbox", "OutboxEntry", "read_journal"]

JOURNAL_NAME = "outbox.log"


@dataclass(frozen=True)
class OutboxEntry:
    """One decoded journal line."""

    op: str  # "i" intent, "a" ack, "d" dead
    seq: int
    ordinal: int
    detail: dict


#: Journal line framing and the intent/ack bodies: the one spelling of
#: each, shared by the formatters below and :meth:`ActionOutbox._execute`.
_LINE = b"%08x %s\n"
_INTENT = b'{"op":"i","seq":%d,"ord":%d,"rule":%s%s}'
_MARKER = b'{"op":"%s","seq":%d,"ord":%d%s}'


def _checksummed(body: bytes) -> bytes:
    return _LINE % (zlib.crc32(body), body)


def _format_line(record: dict) -> bytes:
    return _checksummed(compact_json(record).encode())


def _did_field(detection_id: str) -> bytes:
    """The optional trailing ``,"did":...`` of an intent or ack line."""
    if not detection_id:
        return b""
    return b',"did":' + compact_json(detection_id).encode()


def _intent_line(
    seq: int, ordinal: int, rule_json: bytes, did_field: bytes = b""
) -> bytes:
    """``_format_line`` of an intent; ``rule_json`` is the encoded rule id.

    :meth:`ActionOutbox._execute` formats the same :data:`_INTENT` inline.
    """
    return _checksummed(_INTENT % (seq, ordinal, rule_json, did_field))


def _marker_line(
    op: bytes, seq: int, ordinal: int, did_field: bytes = b""
) -> bytes:
    """``_format_line`` of ``{"op", "seq", "ord"[, "did"]}``.

    An ack as :meth:`ActionOutbox._execute` writes it, and every line
    :meth:`ActionOutbox.compact` keeps (``op`` is ``a``, ``d`` or ``i``).
    """
    return _checksummed(_MARKER % (op, seq, ordinal, did_field))


def _journal_records(path: str) -> Iterator[tuple[dict, int]]:
    """``(record, line_length)`` over a journal's valid prefix.

    Ends silently at the first torn or checksum-failing line — the one
    rule for what a journal line is, shared by every reader.
    """
    try:
        with open(path, "rb") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        return
    for line in lines:
        if not line.endswith(b"\n") or len(line) < 10:
            return  # torn tail
        crc_hex, _, body = line[:-1].partition(b" ")
        try:
            if zlib.crc32(body) != int(crc_hex, 16):
                return
        except ValueError:
            return
        yield json.loads(body.decode()), len(line)


def read_journal(path: str) -> list[OutboxEntry]:
    """Decode a journal's valid prefix (read-only; used by ``wal inspect``).

    Stops silently at the first torn or checksum-failing line, mirroring
    what :class:`ActionOutbox` accepts when it re-opens the journal.
    """
    return [
        OutboxEntry(record["op"], record["seq"], record["ord"], record)
        for record, _length in _journal_records(path)
    ]


class ActionOutbox:
    """Journaled, retried, exactly-once delivery of detections to a sink.

    ``sink`` receives ``(detection, seq, ordinal)`` and performs the
    external effect.  Failures retry under ``retry``
    (:class:`~repro.resilience.supervise.RetryPolicy`); a delivery that
    exhausts its attempts is journaled dead and captured into
    :attr:`dead_letters` with full context — resolved, never lost, never
    blocking the stream.

    Re-opening an outbox on an existing journal restores the resolved
    set, so :meth:`deliver` called again for an acked key is a no-op
    (counted as *suppressed*) — this is what makes WAL replay safe.

    ``confidence`` selects the horizon: ``"immediate"`` (default) runs
    the sink for every detection handed in; ``"final"`` parks revision-
    tagged detections until they seal (see the module docstring).  The
    parked map is *not* journaled — it is rebuilt deterministically by
    WAL replay, which re-emits the same revision records.
    """

    def __init__(
        self,
        directory: str,
        sink: Callable[[object, int, int], None],
        *,
        retry: Optional[RetryPolicy] = None,
        fsync: bool = False,
        confidence: str = "immediate",
        provisional_timeout: Optional[float] = None,
    ) -> None:
        if confidence not in ("immediate", "final"):
            raise ValueError(
                f"confidence must be 'immediate' or 'final', got {confidence!r}"
            )
        if provisional_timeout is not None and confidence != "final":
            raise ValueError(
                "provisional_timeout is only meaningful with confidence='final'"
            )
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, JOURNAL_NAME)
        self.sink = sink
        self.retry = retry if retry is not None else RetryPolicy()
        self.dead_letters = DeadLetterQueue()
        self.fsync = fsync
        self.confidence = confidence
        self.provisional_timeout = provisional_timeout
        self.delivered = 0
        self.suppressed = 0
        self.retries = 0
        self.held = 0
        self.cancelled = 0
        self.timed_out = 0
        #: (seq, ordinal) -> op of the entry that resolved it ("a" or "d").
        self._resolved: dict[tuple[int, int], str] = {}
        #: intents without a resolution (crash left them in flight).
        self._in_flight: set[tuple[int, int]] = set()
        #: detection_id -> (detection, seq, ordinal, parked_at_monotonic):
        #: provisional intents awaiting their final (confidence="final").
        self._pending: dict[str, tuple[object, int, int, float]] = {}
        #: delivered detection id -> seq of its ``final``, ``None`` until
        #: that final has been seen (timeout-vs-final dedup).  An id is
        #: only needed while its final can still arrive or be replayed, so
        #: :meth:`compact` drops it once a checkpoint covers that seq.
        self._delivered_ids: dict[str, Optional[int]] = {}
        #: a suppressed final told us an id's seq since the last memo.
        self._memo_stale = False
        #: rule id -> its JSON fragment, see :meth:`_rule_field`.
        self._rule_json: dict[str, bytes] = {}
        #: The ack line of the last delivery, until the next journal write
        #: carries it; empty whenever :meth:`deliver_many` is not running.
        self._unwritten_ack = b""
        self._load()
        self._handle = open(self.path, "ab")

    # -- journal ------------------------------------------------------------

    def _load(self) -> None:
        valid_bytes = 0
        for record, length in _journal_records(self.path):
            valid_bytes += length
            operation = record["op"]
            if operation == "m":
                dids = record.get("dids", ())
                # A memo from before ids were dropped has no "finals".
                finals = record.get("finals") or [None] * len(dids)
                self._delivered_ids.update(zip(dids, finals))
                continue
            key = (record["seq"], record["ord"])
            if operation == "i":
                self._in_flight.add(key)
            else:
                self._resolved[key] = operation
                self._in_flight.discard(key)
                if record.get("did"):
                    # The line does not say whether a final resolved the
                    # id: keep it until replay shows that final again.
                    self._delivered_ids.setdefault(record["did"], None)
        try:
            if valid_bytes < os.path.getsize(self.path):
                # Self-heal the torn tail so appends start on a clean line.
                os.truncate(self.path, valid_bytes)
        except FileNotFoundError:
            pass

    def _append_line(self, line: bytes) -> None:
        """Write ``line`` behind any unwritten ack; flushed (and fsynced)."""
        handle = self._handle
        handle.write(self._unwritten_ack + line)
        self._unwritten_ack = b""
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def _append(self, record: dict) -> None:
        self._append_line(_format_line(record))

    def _rule_field(self, rule_id: object) -> bytes:
        """The rule id as JSON, cached: intents repeat a handful of ids."""
        if type(rule_id) is not str:  # no rule, or a foreign type of id
            return compact_json(rule_id).encode()
        rule_json = self._rule_json.get(rule_id)
        if rule_json is None:
            rule_json = self._rule_json[rule_id] = compact_json(rule_id).encode()
        return rule_json

    def close(self) -> None:
        """Close the journal, and the sink when it has a ``close()``."""
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None
        close_sink = getattr(self.sink, "close", None)
        if close_sink is not None:
            close_sink()

    def __enter__(self) -> "ActionOutbox":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- delivery -----------------------------------------------------------

    def is_resolved(self, seq: int, ordinal: int) -> bool:
        return (seq, ordinal) in self._resolved

    @property
    def in_flight(self) -> set[tuple[int, int]]:
        """Intents with no ack/dead marker (interrupted deliveries)."""
        return set(self._in_flight)

    @property
    def pending(self) -> dict[str, tuple[int, int]]:
        """Parked provisional intents: detection_id -> (seq, ordinal)."""
        return {
            did: (seq, ordinal)
            for did, (_detection, seq, ordinal, _at) in self._pending.items()
        }

    def deliver(self, detection: object, seq: int, ordinal: int) -> bool:
        """Run the sink for one detection, exactly once per key.

        :meth:`deliver_many` with one item.  Returns True when the sink
        ran (successfully or into the dead-letter queue), False when the
        delivery was suppressed (already resolved), parked (provisional
        under ``confidence="final"``) or cancelled (retract).
        """
        return self.deliver_many(((seq, ordinal, (detection,)),)) > 0

    def deliver_many(
        self,
        outputs: Iterable[tuple[int, int, Sequence[object]]],
        failpoint: Optional[Callable[[str, int], None]] = None,
    ) -> int:
        """Deliver a batch of submissions' detections, in order.

        ``outputs`` yields ``(seq, first_ordinal, detections)`` with
        ascending ``seq``: the detections one logged submission produced,
        keyed ``(seq, first_ordinal + i)``.  Each key runs the sink
        exactly once across lives (see :meth:`deliver`), and the journal
        is written *group-commit* style: the ack of one delivery goes
        out in the same write as the next delivery's intent — which is
        flushed, and fsynced under ``fsync=True``, before that sink runs
        — and the last ack before this returns, also when it raises.
        ``n`` deliveries cost ``n + 1`` journal writes, the bytes are
        those of one intent write and one ack write per delivery, and a
        crash still finds at most one delivery whose sink ran without
        its ack on disk.

        ``failpoint`` is :attr:`DurableEngine.failpoint
        <repro.resilience.durability.engine.DurableEngine.failpoint>`:
        it fires ``("detect", seq)`` before a submission's detections
        and ``("deliver", seq)`` once their acks are written.

        Returns how many of the detections ran the sink.
        """
        ran = 0
        try:
            for seq, first, detections in outputs:
                if failpoint is not None:
                    failpoint("detect", seq)
                for ordinal, detection in enumerate(detections, first):
                    if self.provisional_timeout is not None:
                        self._flush_timed_out()
                    detection_id = getattr(detection, "detection_id", "")
                    if not detection_id:
                        ran += self._execute(detection, seq, ordinal)
                    elif self._admit(detection, detection_id, seq, ordinal):
                        ran += self._execute(
                            detection, seq, ordinal, detection_id,
                            getattr(detection, "status", "final") == "final",
                        )
                if failpoint is not None:
                    self._append_line(b"")
                    failpoint("deliver", seq)
        finally:
            if self._unwritten_ack:
                self._append_line(b"")
        return ran

    def _admit(
        self, detection: object, detection_id: str, seq: int, ordinal: int
    ) -> bool:
        """Whether a revision-tagged detection goes on to the sink now.

        Parks provisional and revise records and cancels retracts under
        ``confidence="final"``; suppresses an id some earlier delivery
        already ran.
        """
        status = getattr(detection, "status", "final")
        if self.confidence == "final":
            if status in ("provisional", "revise"):
                parked = self._pending.get(detection_id)
                parked_at = parked[3] if parked is not None else _time.monotonic()
                self._pending[detection_id] = (detection, seq, ordinal, parked_at)
                if parked is None:
                    self.held += 1
                return False
            if status == "retract":
                if self._pending.pop(detection_id, None) is not None:
                    self.cancelled += 1
                return False
            # final: the sealed record replaces whatever was parked and
            # delivers under its own key — WAL replay re-emits the same
            # final at the same (seq, ordinal), so key-level dedup works
            # across lives without consulting the (volatile) parked map.
            self._pending.pop(detection_id, None)
        if detection_id in self._delivered_ids:
            # An earlier revision (a timed-out release) already ran this
            # id under another key, or this is its own final replayed.
            if status == "final" and self._delivered_ids[detection_id] != seq:
                self._delivered_ids[detection_id] = seq
                self._memo_stale = True
            self.suppressed += 1
            return False
        return True

    def _flush_timed_out(self) -> None:
        """Release parked intents older than ``provisional_timeout``."""
        if self.provisional_timeout is None or not self._pending:
            return
        deadline = _time.monotonic() - self.provisional_timeout
        expired = [
            did for did, (_d, _s, _o, at) in self._pending.items()
            if at <= deadline
        ]
        for did in expired:
            detection, seq, ordinal, _at = self._pending.pop(did)
            self.timed_out += 1
            if did in self._delivered_ids or (seq, ordinal) in self._resolved:
                continue
            self._execute(detection, seq, ordinal, did, False)

    def _execute(
        self,
        detection: object,
        seq: int,
        ordinal: int,
        detection_id: str = "",
        final: bool = True,
    ) -> bool:
        """Intent, sink (with retries), ack — for a key not yet resolved.

        The intent is written together with the previous delivery's ack
        and flushed before the sink runs; this delivery's ack is left in
        :attr:`_unwritten_ack` for the next write (see
        :meth:`deliver_many`).  ``final`` says the detection is its id's
        sealed revision, so the id's dedup duty ends at ``seq`` (see
        :attr:`_delivered_ids`).
        """
        key = (seq, ordinal)
        if key in self._resolved:
            self.suppressed += 1
            return False
        rule_id = getattr(getattr(detection, "rule", None), "rule_id", None)
        did_field = _did_field(detection_id) if detection_id else b""
        if key not in self._in_flight:
            # _rule_field and _append_line, without a call per delivery.
            rule_json = (
                self._rule_json.get(rule_id) if type(rule_id) is str else None
            )
            if rule_json is None:
                rule_json = self._rule_field(rule_id)
            body = _INTENT % (seq, ordinal, rule_json, did_field)
            handle = self._handle
            handle.write(self._unwritten_ack + _LINE % (zlib.crc32(body), body))
            self._unwritten_ack = b""
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
            self._in_flight.add(key)
        elif self._unwritten_ack:
            self._append_line(b"")
        policy = self.retry
        attempt = 0
        while True:
            attempt += 1
            try:
                self.sink(detection, seq, ordinal)
            except Exception as exc:
                if attempt >= policy.attempts:
                    record = {
                        "op": "d",
                        "seq": seq,
                        "ord": ordinal,
                        "rule": rule_id,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                    if detection_id:
                        record["did"] = detection_id
                    self._append(record)
                    self._resolve(key, "d", detection_id, final)
                    self.dead_letters.push(
                        DeadLetterEntry(
                            kind="delivery",
                            observation=None,
                            rule_id=rule_id,
                            bindings=dict(
                                getattr(
                                    getattr(detection, "instance", None),
                                    "bindings",
                                    {},
                                )
                            ),
                            error_type=type(exc).__name__,
                            error=str(exc),
                            traceback="",
                            time=getattr(detection, "time", float("nan")),
                            attempts=attempt,
                        )
                    )
                    return True
                self.retries += 1
                policy.sleep(policy.delay(attempt))
                continue
            break
        body = _MARKER % (b"a", seq, ordinal, did_field)
        self._unwritten_ack = _LINE % (zlib.crc32(body), body)
        # _resolve(key, "a", ...), inline for the same reason.
        self._resolved[key] = "a"
        self._in_flight.discard(key)
        if detection_id:
            self._delivered_ids[detection_id] = seq if final else None
        self.delivered += 1
        return True

    def _resolve(
        self, key: tuple[int, int], op: str, detection_id: str, final: bool
    ) -> None:
        self._resolved[key] = op
        self._in_flight.discard(key)
        if detection_id:
            self._delivered_ids[detection_id] = key[0] if final else None

    # -- maintenance --------------------------------------------------------

    def compact(self, up_to_seq: int) -> int:
        """Rewrite the journal keeping only entries with ``seq > up_to_seq``.

        Checkpoint pruning makes resolutions at or below the checkpoint
        sequence unreachable by any future replay, so their journal lines
        are dead weight — and so is a delivered detection id whose
        ``final`` sits at or below it.  Returns the number of entries
        dropped.  The rewrite is atomic (temp file + ``os.replace``).
        """
        kept_resolved = {
            key: op for key, op in self._resolved.items() if key[0] > up_to_seq
        }
        kept_in_flight = {key for key in self._in_flight if key[0] > up_to_seq}
        dropped = (len(self._resolved) - len(kept_resolved)) + (
            len(self._in_flight) - len(kept_in_flight)
        )
        if not dropped and not self._memo_stale:
            return 0
        # A final at or below the checkpoint is never replayed, and no
        # later detection shares its id: the id has nothing left to guard.
        self._delivered_ids = {
            did: final_seq
            for did, final_seq in self._delivered_ids.items()
            if final_seq is None or final_seq > up_to_seq
        }
        temp_path = self.path + ".compact"
        with open(temp_path, "wb") as handle:
            if self._delivered_ids:
                # The kept lines are rewritten without their ids, and the
                # dropped ones may have carried an id still waiting for
                # its final; the memo keeps id-level dedup intact.
                dids = sorted(self._delivered_ids)
                handle.write(_format_line({
                    "op": "m", "seq": -1, "ord": 0,
                    "dids": dids,
                    "finals": [self._delivered_ids[did] for did in dids],
                }))
            for seq, ordinal in sorted(kept_in_flight):
                handle.write(_marker_line(b"i", seq, ordinal))
            for (seq, ordinal), op in sorted(kept_resolved.items()):
                handle.write(_marker_line(b"i", seq, ordinal))
                handle.write(_marker_line(op.encode(), seq, ordinal))
            handle.flush()
            os.fsync(handle.fileno())
        self._handle.close()
        os.replace(temp_path, self.path)
        self._handle = open(self.path, "ab")
        self._resolved = kept_resolved
        self._in_flight = kept_in_flight
        self._memo_stale = False
        return dropped

    def entries(self) -> list[OutboxEntry]:
        """Decode the whole journal (diagnostics / ``wal inspect``)."""
        self._handle.flush()
        return read_journal(self.path)
