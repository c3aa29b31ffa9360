"""Segmented write-ahead observation log: the durable input record.

Barga et al.'s CEDR manifesto defines correctness for a streaming engine
across failures as *logged input plus deterministic replay*; RCEDA's
detection loop is deterministic, so everything durability needs from
this module is an append-only, checksummed record of the observations
the engine has consumed, in order, with a monotonic sequence number per
record.

Format
------

The log is a directory of *segments* named ``wal-<first_seq>.seg``.  A
segment is a flat sequence of records; each record is::

    +----------------+----------------+----------------+---------------+
    | length (4B LE) | crc32   (4B LE)| sequence (8B LE)| body bytes    |
    +----------------+----------------+----------------+---------------+

``length`` counts the body bytes only; ``crc32`` covers the sequence
number *and* the body, so a record whose header and body were written
by two different engine lives can never validate.  The body's first
byte is its kind tag, and one reader reads both kinds:

* ``B`` — a **batch record**: the readings of one submitted batch,
  numbered ``sequence, sequence + 1, ...``, under one header and one
  CRC.  Its body is :func:`repro.serve.protocol.pack_batch_record`'s,
  the layout the cluster router relays a sub-batch in (``BRELAY``)::

      <BBI                 tag, flags, reading count
      <H + utf-8           client id                  (flags & 1)
      BBATCH body          interned columns; its first-seq field is
                           the first client seq (0 with a seq column)
      <{count}q            client seq per reading     (flags & 2: a
                           relay's sub-batch, whose seqs have gaps)

* ``{`` — a **per-record JSON record** (one seq): compact JSON of a
  payload dict.  The durable layer writes flush markers and the odd
  readings the columns cannot carry exactly (poison, extras,
  non-``float`` or non-finite timestamps, non-``str`` ids) this way;
  the WAL itself treats these payloads as opaque dicts.  Logs written
  before batch records existed hold only this kind, and read unchanged.

Sequence numbers stay per reading: :func:`read_wal` expands a batch
record into one entry per seq, so a checkpoint seq, an outbox key or a
client frontier means what it always meant.

A crash mid-append leaves a *torn tail*: a final record whose header or
body is incomplete, or whose checksum fails.  Readers detect this and
stop at the last valid record; :class:`WalWriter` truncates the tear
when it re-opens the segment, so the log self-heals on recovery.  A
checksum failure *before* the final record of the final segment is not a
torn tail — it is corruption that replay must not skip over — and
raises :class:`~repro.core.errors.WalError`.

Durability is governed by a :class:`FsyncPolicy`:

* ``FsyncPolicy.ALWAYS`` — fsync after every append; a ``kill -9`` loses
  nothing that :meth:`WalWriter.append` returned for.
* ``FsyncPolicy.BATCH(n)`` — fsync once ``n`` seqs have been appended
  since the last one (and on rotation, checkpoint and close); bounded
  loss window, a fraction of the cost.
* ``FsyncPolicy.NEVER`` — write-through to the OS page cache only;
  survives process death but not power loss.  The cheapest, and the
  right default for drills and benchmarks.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Iterator,
    Optional,
    Sequence,
)

from ...core.errors import WalError
from ...serve.protocol import (
    BATCH_RECORD_HEAD,
    BATCH_TAG,
    FrameError,
    NotPackable,
    pack_batch_record,
    unpack_batch_record,
)

if TYPE_CHECKING:  # pragma: no cover
    from ...obs.instrument import Instruments

__all__ = [
    "FsyncPolicy",
    "WalRecord",
    "WalWriter",
    "SegmentInfo",
    "compact_json",
    "encode_batch",
    "encode_payload",
    "read_wal",
    "scan_segment",
    "scan_wal",
    "segment_files",
    "segment_path",
]

_HEADER = struct.Struct("<IIQ")  # payload length, crc32, sequence number
_SEQ = struct.Struct("<Q")

#: First body byte of a batch record; a JSON record's is always ``{``.
_BATCH_PREFIX = bytes((BATCH_TAG,))

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".seg"

#: ``json.dumps(obj, separators=(",", ":"))`` without building a
#: ``JSONEncoder`` per call: the one encoder behind every per-record
#: JSON record this package writes.
compact_json = json.JSONEncoder(separators=(",", ":")).encode


def encode_payload(payload: dict) -> bytes:
    """Body of one per-record JSON record: ``json.dumps``'s compact bytes."""
    return compact_json(payload).encode()


def _encode_record(seq: int, payload: dict) -> bytes:
    """Header + body of one per-record JSON record, as it sits in a segment."""
    try:
        body = encode_payload(payload)
    except (TypeError, ValueError) as exc:
        raise WalError(
            f"record payload for seq {seq} is not JSON-encodable: {exc}"
        ) from exc
    return _frame_body(seq, body)


def _frame_body(seq: int, body: bytes) -> bytes:
    crc = zlib.crc32(body, zlib.crc32(_SEQ.pack(seq)))
    return _HEADER.pack(len(body), crc, seq) + body


def _batch_body(
    observations: Sequence[Any], client_id: Any, client_seqs: Any
) -> Optional[bytes]:
    """A batch record's body, or ``None`` when the columns cannot carry
    the batch exactly (:func:`~repro.serve.protocol.pack_batch_record`
    raises ``NotPackable``), and the caller writes per-record JSON.

    Contiguous client seqs (a ``range``) are stored as the columns'
    first-seq field; a relay's gapped seqs as the client-seq column.
    """
    first, seqs = 0, None
    if client_id is not None:
        if type(client_seqs) is range:
            first = client_seqs.start
        else:
            seqs = client_seqs
    try:
        return pack_batch_record(first, observations, client_id, seqs)
    except NotPackable:
        return None


def encode_batch(
    first_seq: int,
    observations: Sequence[Any],
    payload_of: Callable[[Any], dict],
    client_id: Any = None,
    client_seqs: Optional[Sequence[int]] = None,
) -> list[tuple[int, int, bytes]]:
    """``(first_seq, count, record)`` for a batch numbered from ``first_seq``.

    A batch the columns carry is **one** batch record: the ``BBATCH``
    columnar body (:func:`~repro.serve.protocol.pack_observations`)
    under one header and one CRC, with ``client_id`` and either the
    first client seq (``client_seqs`` a ``range``) or a client-seq
    column.  Any other batch is one per-record JSON record per reading:
    ``payload_of(observation)``, plus ``[client_id, client_seqs[i]]``
    provenance under ``"c"`` when ``client_id`` is given.
    """
    body = _batch_body(observations, client_id, client_seqs)
    if body is not None:
        return [(first_seq, len(observations), _frame_body(first_seq, body))]
    records = []
    for index, observation in enumerate(observations):
        seq = first_seq + index
        payload = payload_of(observation)
        if client_id is not None:
            payload["c"] = [client_id, client_seqs[index]]
        records.append((seq, 1, _encode_record(seq, payload)))
    return records


def _batch_count(body: bytes, where: str) -> int:
    """The reading count in a batch record's head."""
    try:
        _tag, _flags, count = BATCH_RECORD_HEAD.unpack_from(body, 0)
    except struct.error as exc:
        raise WalError(f"{where}: batch record head is truncated") from exc
    if count == 0:
        raise WalError(f"{where}: batch record holds no readings")
    return count


def _decode_batch(
    body: bytes, where: str
) -> tuple[tuple, Optional[str], Optional[Sequence[int]]]:
    """``(observations, client_id, client_seqs)`` of one batch record.

    A body that passed its CRC but does not decode
    (:func:`~repro.serve.protocol.unpack_batch_record` checks every
    count, length, table index and seq) raises :class:`WalError` rather
    than replaying different readings.
    """
    try:
        first, observations, client_id, client_seqs = unpack_batch_record(body)
    except FrameError as exc:
        raise WalError(f"{where}: malformed batch record ({exc})") from exc
    if client_id is not None and client_seqs is None:
        client_seqs = range(first, first + len(observations))
    return observations, client_id, client_seqs


@dataclass(frozen=True)
class FsyncPolicy:
    """When appended bytes are forced to stable storage.

    Use the class-level singletons/factory, not the constructor:
    ``FsyncPolicy.ALWAYS``, ``FsyncPolicy.BATCH(64)``,
    ``FsyncPolicy.NEVER``.
    """

    mode: str
    batch: int = 1

    ALWAYS: ClassVar["FsyncPolicy"]
    NEVER: ClassVar["FsyncPolicy"]

    @staticmethod
    def BATCH(every: int) -> "FsyncPolicy":
        """Fsync once every ``every`` appends (plus rotation/close)."""
        if every < 1:
            raise ValueError(f"batch size must be >= 1, got {every}")
        return FsyncPolicy("batch", every)

    @classmethod
    def parse(cls, spec: "str | FsyncPolicy") -> "FsyncPolicy":
        """Parse ``"always"`` / ``"never"`` / ``"batch:N"`` (CLI spelling)."""
        if isinstance(spec, cls):
            return spec
        text = str(spec).strip().lower()
        if text == "always":
            return cls.ALWAYS
        if text == "never":
            return cls.NEVER
        if text.startswith("batch:"):
            return cls.BATCH(int(text.split(":", 1)[1]))
        raise ValueError(
            f"bad fsync policy {spec!r} (expected always, never or batch:N)"
        )

    def __str__(self) -> str:
        if self.mode == "batch":
            return f"batch:{self.batch}"
        return self.mode


FsyncPolicy.ALWAYS = FsyncPolicy("always")
FsyncPolicy.NEVER = FsyncPolicy("never")


@dataclass(frozen=True)
class WalRecord:
    """One log entry.

    :func:`scan_segment` returns *physical* records: a per-record JSON
    record (``count`` 1, its ``payload`` dict) or a batch record
    covering ``count`` seqs from ``seq`` (``payload`` ``None``).
    :func:`read_wal` returns one entry per *seq*: a JSON record as is,
    and each reading of a batch record with its decoded ``observation``
    and ``client`` provenance (``(client_id, client_seq)`` or ``None``).
    """

    seq: int
    payload: Optional[dict]
    segment: str
    offset: int
    count: int = 1
    observation: Any = None
    client: Optional[tuple] = None

    @property
    def last_seq(self) -> int:
        return self.seq + self.count - 1


@dataclass(frozen=True)
class SegmentInfo:
    """Diagnostics for one segment (``python -m repro wal inspect``)."""

    name: str
    first_seq: Optional[int]
    last_seq: Optional[int]
    records: int
    valid_bytes: int
    total_bytes: int

    @property
    def torn_bytes(self) -> int:
        return self.total_bytes - self.valid_bytes


def segment_name(first_seq: int) -> str:
    return f"{SEGMENT_PREFIX}{first_seq:016d}{SEGMENT_SUFFIX}"


def segment_files(directory: str) -> list[str]:
    """Segment file names in the directory, in log order."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    return sorted(
        name
        for name in names
        if name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)
    )


def segment_path(directory: str, name: str) -> str:
    return os.path.join(directory, name)


def segment_first_seq(name: str) -> int:
    try:
        return int(name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)])
    except ValueError:
        raise WalError(f"segment file name {name!r} does not encode a sequence")


def _valid_records(data: bytes, name: str) -> tuple[list[tuple], int]:
    """``(offset, seq, body)`` of each record in the valid prefix of a
    segment's bytes, and the valid prefix's length."""
    records = []
    offset = 0
    total = len(data)
    while offset + _HEADER.size <= total:
        length, crc, seq = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            break  # torn tail: body incomplete
        body = data[start:end]
        if zlib.crc32(body, zlib.crc32(_SEQ.pack(seq))) != crc:
            if end < total:
                # Appends are strictly sequential and reopening truncates
                # tears, so nothing is ever written after a torn record:
                # a failing checksum with bytes following it is a record
                # that went bad in place, and skipping it would replay a
                # stream with a hole in the middle.
                raise WalError(
                    f"segment {name}: record at offset {offset} fails its "
                    f"checksum with {total - end} byte(s) following; the "
                    f"log is corrupt, not torn"
                )
            break  # torn tail: checksum fails on the final record
        records.append((offset, seq, body))
        offset = end
    return records, offset


def _json_payload(body: bytes, where: str) -> dict:
    try:
        return json.loads(body.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WalError(
            f"{where} passed its checksum but is not JSON ({exc}); the log "
            "is corrupt"
        ) from exc


def scan_segment(
    path: str, *, with_payload: bool = True
) -> tuple[list[WalRecord], int, int]:
    """Read one segment's valid prefix as physical records.

    Returns ``(records, valid_bytes, total_bytes)`` where ``valid_bytes``
    is the offset of the first torn/corrupt byte (== ``total_bytes`` for
    a clean segment).  A batch record's body is not decoded here, only
    its reading count; with ``with_payload=False`` no JSON payload is
    decoded either (sequence scan only) and every payload is ``None``.
    """
    name = os.path.basename(path)
    with open(path, "rb") as handle:
        data = handle.read()
    valid_records, valid = _valid_records(data, name)
    records = []
    for offset, seq, body in valid_records:
        where = f"segment {name}: record at offset {offset}"
        if body[:1] == _BATCH_PREFIX:
            count = _batch_count(body, where)
            records.append(WalRecord(seq, None, name, offset, count))
        else:
            payload = _json_payload(body, where) if with_payload else None
            records.append(WalRecord(seq, payload, name, offset))
    return records, valid, len(data)


def scan_wal(directory: str) -> list[SegmentInfo]:
    """Per-segment diagnostics for the whole log."""
    infos = []
    for name in segment_files(directory):
        records, valid, total = scan_segment(
            segment_path(directory, name), with_payload=False
        )
        infos.append(
            SegmentInfo(
                name=name,
                first_seq=records[0].seq if records else None,
                last_seq=records[-1].last_seq if records else None,
                records=len(records),
                valid_bytes=valid,
                total_bytes=total,
            )
        )
    return infos


def read_wal(directory: str, *, start_after: int = -1) -> Iterator[WalRecord]:
    """Iterate log entries with ``seq > start_after``, one per seq, in order.

    A batch record is decoded through the columnar codec and expanded
    into one entry per reading (see :class:`WalRecord`), so seqs keep
    their per-reading meaning; ``start_after`` may fall inside a batch
    record, and only its later readings are yielded.

    A torn tail — incomplete bytes or a failing checksum at the end of
    the *final* segment — silently ends iteration (that is the crash the
    WAL exists to absorb).  The same condition in an earlier segment, a
    record that passed its checksum but does not decode, or a
    non-monotonic sequence number anywhere raises
    :class:`~repro.core.errors.WalError`: replay must never skip a hole
    in the middle of the log.
    """
    names = segment_files(directory)
    previous_seq: Optional[int] = None
    for index, name in enumerate(names):
        is_last = index == len(names) - 1
        with open(segment_path(directory, name), "rb") as handle:
            data = handle.read()
        records, valid = _valid_records(data, name)
        if valid < len(data) and not is_last:
            raise WalError(
                f"segment {name} has {len(data) - valid} unreadable byte(s) "
                "but is not the final segment; the log is corrupt, not torn"
            )
        for offset, seq, body in records:
            if previous_seq is not None and seq <= previous_seq:
                raise WalError(
                    f"segment {name}: sequence {seq} at offset "
                    f"{offset} does not advance past {previous_seq}"
                )
            where = f"segment {name}: record at offset {offset}"
            if body[:1] != _BATCH_PREFIX:
                previous_seq = seq
                if seq > start_after:
                    yield WalRecord(seq, _json_payload(body, where), name, offset)
                continue
            observations, client_id, client_seqs = _decode_batch(body, where)
            previous_seq = seq + len(observations) - 1
            if previous_seq <= start_after:
                continue
            skip = max(0, start_after + 1 - seq)
            for at in range(skip, len(observations)):
                yield WalRecord(
                    seq + at,
                    None,
                    name,
                    offset,
                    observation=observations[at],
                    client=(
                        (client_id, client_seqs[at])
                        if client_id is not None
                        else None
                    ),
                )


class WalWriter:
    """Appends length-prefixed, checksummed records; rotates segments.

    Opening a writer on an existing log positions it after the last
    valid record of the newest segment, truncating any torn tail first —
    re-opening *is* tail repair.  Callers own sequence numbering; the
    writer enforces monotonicity.
    """

    def __init__(
        self,
        directory: str,
        *,
        fsync: FsyncPolicy = FsyncPolicy.NEVER,
        segment_max_bytes: int = 1 << 20,
    ) -> None:
        if segment_max_bytes < _HEADER.size + 2:
            raise ValueError("segment_max_bytes is too small to hold a record")
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.fsync_policy = fsync
        self.segment_max_bytes = segment_max_bytes
        #: Attached by ``DurableEngine``: only the fsync histogram is
        #: updated here, the metrics read the counters below.
        self.instruments: "Optional[Instruments]" = None
        self.appended = 0
        self.bytes_written = 0
        self.rotations = 0
        self.fsyncs = 0
        self.truncated_tail_bytes = 0
        self._since_sync = 0
        self._handle = None
        self._segment_size = 0
        self._last_seq = -1
        self._open_tail()

    # -- lifecycle ----------------------------------------------------------

    def _open_tail(self) -> None:
        names = segment_files(self.directory)
        if not names:
            return
        name = names[-1]
        path = segment_path(self.directory, name)
        records, valid, total = scan_segment(path, with_payload=False)
        handle = open(path, "r+b")
        if valid < total:
            handle.truncate(valid)
            handle.flush()
            os.fsync(handle.fileno())
            self.truncated_tail_bytes = total - valid
        handle.seek(valid)
        self._handle = handle
        self._segment_size = valid
        if records:
            self._last_seq = records[-1].last_seq
        else:
            # Empty tail segment: recover the floor from its name so a
            # fresh append cannot reuse a pruned sequence number.
            self._last_seq = segment_first_seq(name) - 1
        # Earlier segments advance the floor too (paranoia against a
        # hand-truncated tail segment).
        for earlier in names[:-1]:
            first = segment_first_seq(earlier)
            self._last_seq = max(self._last_seq, first - 1)

    def close(self) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- appending ----------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Highest sequence number present in the log (-1 when empty)."""
        return self._last_seq

    def append(self, seq: int, payload: dict) -> int:
        """Append one per-record JSON record; returns the bytes it occupies."""
        return self.append_many([(seq, payload)])

    def append_many(self, records: "Sequence[tuple[int, dict]]") -> int:
        """Append a run of ``(seq, payload)`` per-record JSON records in
        one durable call.

        Returns the total bytes written; see :meth:`append_encoded`.
        """
        return self.append_encoded(
            [(seq, 1, _encode_record(seq, payload)) for seq, payload in records]
        )

    def append_encoded(self, records: "Sequence[tuple[int, int, bytes]]") -> int:
        """Append ``(first_seq, count, record)`` triples built by
        :func:`encode_batch` or :func:`_encode_record`, in one durable call.

        The run is written with one (or, across a rotation, a few)
        ``write`` + ``flush`` calls, and fsynced **once** at the end
        under ``FsyncPolicy.ALWAYS`` — the durability contract is per
        *call*, and this returns only after the entire batch is durable.
        ``FsyncPolicy.BATCH(n)`` and :attr:`appended` count seqs, not
        records, so a batch record of 256 readings weighs 256.  Sequence
        numbers must be strictly increasing but need not be contiguous;
        a run that does not advance raises
        :class:`~repro.core.errors.WalError` before anything is written.
        A record never straddles segments; one larger than
        ``segment_max_bytes`` gets a segment of its own.

        Returns the total bytes written.
        """
        if not records:
            return 0
        last = self._last_seq
        seqs = 0
        for seq, count, _record in records:
            if seq <= last:
                raise WalError(
                    f"sequence {seq} does not advance past {last}; "
                    "the log already covers it"
                )
            last = seq + count - 1
            seqs += count
        total = 0
        pending: list[bytes] = []
        pending_bytes = 0

        def write_pending() -> None:
            nonlocal pending, pending_bytes
            if pending:
                self._handle.write(b"".join(pending))
                self._handle.flush()
                self._segment_size += pending_bytes
                pending = []
                pending_bytes = 0

        for seq, _count, record in records:
            if self._handle is None or (
                self._segment_size + pending_bytes > 0
                and self._segment_size + pending_bytes + len(record)
                > self.segment_max_bytes
            ):
                write_pending()
                self._rotate(seq)
            pending.append(record)
            pending_bytes += len(record)
            total += len(record)
        write_pending()
        self._last_seq = last
        self.appended += seqs
        self.bytes_written += total
        if self.fsync_policy.mode == "always":
            self._fsync()
        elif self.fsync_policy.mode == "batch":
            self._since_sync += seqs
            if self._since_sync >= self.fsync_policy.batch:
                self._fsync()
        return total

    def sync(self) -> None:
        """Force everything appended so far to stable storage."""
        if self._handle is not None and (
            self._since_sync or self.fsync_policy.mode != "always"
        ):
            self._fsync()

    def _fsync(self) -> None:
        started = perf_counter()
        os.fsync(self._handle.fileno())
        self._since_sync = 0
        self.fsyncs += 1
        if self.instruments is not None:
            self.instruments.wal_fsync_seconds.observe(perf_counter() - started)

    def _rotate(self, first_seq: int) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self.rotations += 1
        path = segment_path(self.directory, segment_name(first_seq))
        if os.path.exists(path):
            raise WalError(f"segment {path} already exists; refusing to clobber")
        self._handle = open(path, "xb")
        self._segment_size = 0

    # -- pruning ------------------------------------------------------------

    def prune(self, up_to_seq: int) -> list[str]:
        """Delete segments whose records are all ``<= up_to_seq``.

        A segment's coverage ends where the next segment begins, so only
        non-final segments are candidates.  Returns the deleted names.
        """
        names = segment_files(self.directory)
        deleted = []
        for name, successor in zip(names, names[1:]):
            if segment_first_seq(successor) <= up_to_seq + 1:
                os.unlink(segment_path(self.directory, name))
                deleted.append(name)
            else:
                break
        return deleted
