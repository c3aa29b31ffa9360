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
    | length (4B LE) | crc32   (4B LE)| sequence (8B LE)| payload bytes |
    +----------------+----------------+----------------+---------------+

``length`` counts the payload bytes only; ``crc32`` covers the sequence
number *and* the payload, so a record whose header and body were written
by two different engine lives can never validate.  Payloads are compact
JSON objects (the durable layer stores encoded observations and flush
markers in them); the WAL itself treats them as opaque dicts.

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
* ``FsyncPolicy.BATCH(n)`` — fsync every ``n`` appends (and on rotation,
  checkpoint and close); bounded loss window, a fraction of the cost.
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
from json.encoder import encode_basestring_ascii as _json_str
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
from ...core.instances import Observation

if TYPE_CHECKING:  # pragma: no cover
    from ...obs.instrument import Instruments

__all__ = [
    "FsyncPolicy",
    "WalRecord",
    "WalWriter",
    "SegmentInfo",
    "compact_json",
    "encode_observations",
    "encode_payload",
    "read_wal",
    "scan_segment",
    "scan_wal",
    "segment_files",
    "segment_path",
]

_HEADER = struct.Struct("<IIQ")  # payload length, crc32, sequence number
_SEQ = struct.Struct("<Q")

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".seg"

#: ``json.dumps(obj, separators=(",", ":"))`` without building a
#: ``JSONEncoder`` per call: the one encoder behind every compact-JSON
#: record this package writes that has no template of its own.
compact_json = json.JSONEncoder(separators=(",", ":")).encode

_OBSERVATION_KEYS = ("k", "r", "o", "t")
_CLIENT_OBSERVATION_KEYS = ("k", "r", "o", "t", "c")
_float_repr = float.__repr__


def _observation_body(reader, obj, timestamp, client) -> Optional[bytes]:
    """The observation record template: the one place its bytes are spelled.

    ``{"k":"o","r":str,"o":str,"t":finite float}``, optionally followed
    by ``"c":[str,int]`` client provenance (``client`` is that list or
    ``None``), formatted with the two primitives the C encoder itself
    calls (``encode_basestring_ascii`` and ``float.__repr__``).  Returns
    ``None`` for anything else — subclasses, ``int``/``bool``/non-finite
    timestamps, tuple or odd provenance — which the caller hands to
    :data:`compact_json`.
    """
    if not (
        type(reader) is str
        and type(obj) is str
        and type(timestamp) is float
        # nan and +-inf spell differently in JSON than in repr().
        and timestamp - timestamp == 0.0
    ):
        return None
    body = (
        f'{{"k":"o","r":{_json_str(reader)},"o":{_json_str(obj)},'
        f'"t":{_float_repr(timestamp)}'
    )
    if client is None:
        return (body + "}").encode("ascii")
    if (
        type(client) is list
        and len(client) == 2
        and type(client[0]) is str
        and type(client[1]) is int
    ):
        return (
            f'{body},"c":[{_json_str(client[0])},{client[1]}]}}'
        ).encode("ascii")
    return None


def encode_payload(payload: dict) -> bytes:
    """Record body for one payload: exactly ``json.dumps``'s compact bytes.

    Nearly every record is a well-typed observation, which
    :func:`_observation_body` formats from its template; markers,
    extras, poison records and every shape the template refuses go
    through :data:`compact_json`.  ``tests/test_durable_encoding.py``
    holds the two to byte identity.
    """
    keys = tuple(payload)
    if keys == _OBSERVATION_KEYS:
        client = None
    elif keys == _CLIENT_OBSERVATION_KEYS and payload["c"] is not None:
        client = payload["c"]  # a None here would read as "no provenance"
    else:
        return compact_json(payload).encode()
    if payload["k"] == "o":
        body = _observation_body(
            payload["r"], payload["o"], payload["t"], client
        )
        if body is not None:
            return body
    return compact_json(payload).encode()


def _encode_record(seq: int, payload: dict) -> bytes:
    """Header + body of one record, as it sits in a segment."""
    try:
        body = encode_payload(payload)
    except (TypeError, ValueError) as exc:
        raise WalError(
            f"record payload for seq {seq} is not JSON-encodable: {exc}"
        ) from exc
    crc = zlib.crc32(body, zlib.crc32(_SEQ.pack(seq)))
    return _HEADER.pack(len(body), crc, seq) + body


def encode_observations(
    first_seq: int,
    observations: Sequence[Any],
    payload_of: Callable[[Any], dict],
    client_id: Any = None,
    client_seqs: Optional[Sequence[int]] = None,
) -> list[tuple[int, bytes]]:
    """``(seq, record)`` for a batch numbered from ``first_seq``, in one pass.

    A plain :class:`~repro.core.instances.Observation` goes straight from
    its fields through :func:`_observation_body`, with ``[client_id,
    client_seqs[i]]`` provenance when ``client_id`` is given; anything
    the template refuses gets ``payload_of(observation)`` (plus the
    provenance under ``"c"``) and :func:`encode_payload`.  The records
    are byte-for-byte what :meth:`WalWriter.append_many` writes for
    those payloads.
    """
    records = []
    client = None
    for index, observation in enumerate(observations):
        seq = first_seq + index
        if client_id is not None:
            client = [client_id, client_seqs[index]]
        body = None
        if type(observation) is Observation and observation.extra is None:
            body = _observation_body(
                observation.reader, observation.obj, observation.timestamp,
                client,
            )
        if body is None:
            payload = payload_of(observation)
            if client is not None:
                payload["c"] = client
            records.append((seq, _encode_record(seq, payload)))
        else:  # _encode_record's framing, without a call per record
            crc = zlib.crc32(body, zlib.crc32(_SEQ.pack(seq)))
            records.append((seq, _HEADER.pack(len(body), crc, seq) + body))
    return records


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
    """One decoded log record."""

    seq: int
    payload: dict
    segment: str
    offset: int


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


def scan_segment(
    path: str, *, with_payload: bool = True
) -> tuple[list[WalRecord], int, int]:
    """Read one segment's valid prefix.

    Returns ``(records, valid_bytes, total_bytes)`` where ``valid_bytes``
    is the offset of the first torn/corrupt byte (== ``total_bytes`` for
    a clean segment).  With ``with_payload=False`` the payload JSON is
    not decoded (sequence scan only) and record payloads are ``None``.
    """
    records: list[WalRecord] = []
    name = os.path.basename(path)
    with open(path, "rb") as handle:
        data = handle.read()
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
        if with_payload:
            try:
                payload = json.loads(body.decode())
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise WalError(
                    f"segment {name}: record at offset {offset} passed its "
                    f"checksum but is not JSON ({exc}); the log is corrupt"
                ) from exc
        else:
            payload = None
        records.append(WalRecord(seq, payload, name, offset))
        offset = end
    return records, offset, total


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
                last_seq=records[-1].seq if records else None,
                records=len(records),
                valid_bytes=valid,
                total_bytes=total,
            )
        )
    return infos


def read_wal(directory: str, *, start_after: int = -1) -> Iterator[WalRecord]:
    """Iterate valid records with ``seq > start_after``, in order.

    A torn tail — incomplete bytes or a failing checksum at the end of
    the *final* segment — silently ends iteration (that is the crash the
    WAL exists to absorb).  The same condition in an earlier segment, or
    a non-monotonic sequence number anywhere, raises
    :class:`~repro.core.errors.WalError`: replay must never skip a hole
    in the middle of the log.
    """
    names = segment_files(directory)
    previous_seq: Optional[int] = None
    for index, name in enumerate(names):
        is_last = index == len(names) - 1
        records, valid, total = scan_segment(segment_path(directory, name))
        if valid < total and not is_last:
            raise WalError(
                f"segment {name} has {total - valid} unreadable byte(s) but "
                f"is not the final segment; the log is corrupt, not torn"
            )
        for record in records:
            if previous_seq is not None and record.seq <= previous_seq:
                raise WalError(
                    f"segment {name}: sequence {record.seq} at offset "
                    f"{record.offset} does not advance past {previous_seq}"
                )
            previous_seq = record.seq
            if record.seq > start_after:
                yield record


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
            self._last_seq = records[-1].seq
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
        """Append one record; returns the bytes it occupies on disk."""
        return self.append_many([(seq, payload)])

    def append_many(self, records: "Sequence[tuple[int, dict]]") -> int:
        """Append a run of ``(seq, payload)`` records in one durable call.

        Returns the total bytes written; see :meth:`append_encoded`.
        """
        return self.append_encoded(
            [(seq, _encode_record(seq, payload)) for seq, payload in records]
        )

    def append_encoded(self, records: "Sequence[tuple[int, bytes]]") -> int:
        """Append ``(seq, record)`` pairs built by :func:`encode_observations`
        or :func:`_encode_record`, in one durable call.

        The batch fast path behind the serving layer's vectorized
        ingest: the run is written with one (or, across a rotation, a
        few) ``write`` + ``flush`` calls, and fsynced **once** at the end
        under ``FsyncPolicy.ALWAYS`` — the durability contract is per
        *call*, and this returns only after the entire batch is as
        durable as one ``append`` per record would have made it.
        ``FsyncPolicy.BATCH(n)`` counts every record, so its loss window
        is unchanged.  Sequence numbers must be strictly increasing but
        need not be contiguous (a sharded log skips the seqs routed to
        other shards); a run that does not advance raises
        :class:`~repro.core.errors.WalError` before anything is written.
        Record format and rotation boundaries are those of one
        ``append`` per record; replay cannot tell the difference.

        Returns the total bytes written.
        """
        if not records:
            return 0
        last = self._last_seq
        for seq, _record in records:
            if seq <= last:
                raise WalError(
                    f"sequence {seq} does not advance past {last}; "
                    "the log already covers it"
                )
            last = seq
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

        for seq, record in records:
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
        self.appended += len(records)
        self.bytes_written += total
        if self.fsync_policy.mode == "always":
            self._fsync()
        elif self.fsync_policy.mode == "batch":
            self._since_sync += len(records)
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
