"""The RCEDA wire protocol: length-prefixed, versioned, CRC-checked frames.

Every message on a serve connection is one *frame*::

    +----------------+------------+------------------+----------------+
    | length u32 BE  | type u8    | payload bytes    | crc32 u32 BE   |
    +----------------+------------+------------------+----------------+

``length`` counts the type byte plus the payload (not itself, not the
CRC); ``crc32`` covers the same bytes, so a torn or bit-flipped frame is
rejected before any payload parsing.  Payloads are compact JSON — the
framing is binary and version-gated, the payload stays debuggable with
``tcpdump``-level tooling — except ``BBATCH``, ``BDETBATCH`` and
``BRELAY``, whose payloads are the struct-packed columnar layouts
described below.

Frame vocabulary (client → server unless noted):

=============  ====  ======================================================
frame          type  meaning
=============  ====  ======================================================
``HELLO``      0x01  open a session: protocol version, client id, resume
                     seq
``WELCOME``    0x02  (server) session accepted: next expected client seq,
                     the server's ``max_batch``
``BATCH``      0x04  a run of observations numbered ``seq, seq+1, ...``
                     (JSON: the fallback for what ``BBATCH`` cannot carry)
``ACK``        0x05  (server) cumulative: all client seqs ≤ ``seq`` applied
``FLUSH``      0x06  end-of-stream expirations, itself sequenced and acked
``SUBSCRIBE``  0x07  push detections to this session (optional filter)
``DETECTION``  0x08  one rule firing: rule id, time, bindings (decoded;
                     the server pushes batches of them)
``ERROR``      0x09  (server) protocol/processing failure, then close
``BYE``        0x0A  orderly close (either side)
``BBATCH``     0x0B  a BATCH in columns
``DETBATCH``   0x0C  (server) several DETECTION payloads in one JSON frame:
                     the fallback for what ``BDETBATCH`` cannot carry
``PING``       0x0D  liveness probe (either side)
``PONG``       0x0E  answer to a PING, echoing its token
``BDETBATCH``  0x0F  (server) a DETBATCH in columns
``BRELAY``     0x10  a relayed BATCH in columns, with its provenance: the
                     cluster router's sub-batch
=============  ====  ======================================================

One session shape (protocol version 3)
--------------------------------------

Every session speaks the same frames.  A client sends observation
batches as ``BBATCH``: the paper's fixed-shape ``(reader, object, t)``
tuples struct-packed in *columnar* layout with per-batch interned
reader/object string tables, so a 1000-observation batch costs three
``struct`` calls to decode instead of 1000 dict parses.  A subscriber
is pushed each release as one ``BDETBATCH`` and sees every revision.
An idle session is probed with PING.  What the columns cannot carry
(``extra`` payloads, ids that cannot UTF-8-encode, revision tags) falls
back to the JSON ``BATCH``/``DETBATCH`` frame on the same session: the
codec guarantees the *semantics*, the fast layout is an optimization.
A HELLO naming any other protocol version is refused with ``ERROR
version``, so an older peer fails closed rather than receiving frames
it never asked for.  ``HELLO``/``WELCOME`` keep an open
``capabilities`` dict whose unknown keys both sides ignore.

Client sequence numbers start at 0 and increase by one per
observation inside a batch, and by one per ``FLUSH``.  The server
acks cumulatively after the backend has accepted the observation —
when the backend is durable the ack therefore implies the observation
reached the write-ahead log.  A reconnecting client offers its last
acked seq in ``HELLO``; ``WELCOME`` answers with the first seq the
server still needs, and the client resends exactly from there — this is
what makes delivery exactly-once across client crashes and reconnects
(see ``docs/serving.md``).

:class:`FrameDecoder` is the incremental parser: feed it arbitrary byte
chunks, get complete frames out.  :func:`encode_frame` /
:func:`decode_frame` round-trip every frame type (property-tested in
``tests/test_serve_protocol.py``).
"""

from __future__ import annotations

import json
import struct
import zlib
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from math import isfinite
from operator import lt
from typing import Any, Iterator, Optional, Sequence

from ..core.errors import ReproError
from ..core.instances import Observation

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "FrameError",
    "Frame",
    "Hello",
    "Welcome",
    "Batch",
    "BinaryBatch",
    "RelayBatch",
    "Ack",
    "Flush",
    "Subscribe",
    "DetectionFrame",
    "DetectionBatch",
    "BinaryDetectionBatch",
    "NotPackable",
    "ErrorFrame",
    "Bye",
    "Ping",
    "Pong",
    "encode_frame",
    "encode_frame_into",
    "decode_frame",
    "FrameDecoder",
    "encode_observation_payload",
    "pack_observations",
    "unpack_observations",
    "pack_batch_record",
    "unpack_batch_record",
    "decode_observation_payload",
    "detection_payload",
    "detection_frames",
    "tagged_frames",
    "resequenced",
    "push_frame",
    "received_frames",
    "BinaryCodec",
    "get_codec",
]

#: Bumped on any incompatible framing/payload change; HELLO carries it
#: and the server accepts this version only.  Version 3 is the one
#: session shape: columnar batches and pushes, heartbeats and revision
#: records for every peer.
PROTOCOL_VERSION = 3

#: Upper bound on ``length``; anything larger is a corrupt or hostile
#: header and the connection is dropped before allocating a buffer.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct("!I")
_CRC = struct.Struct("!I")


class FrameError(ReproError):
    """A frame could not be encoded, decoded or checksummed."""


# -- observation payloads ------------------------------------------------------


def encode_observation_payload(observation: Observation) -> dict:
    """JSON-safe dict for one observation (same keys as the WAL codec)."""
    payload: dict = {
        "r": observation.reader,
        "o": observation.obj,
        "t": observation.timestamp,
    }
    if observation.extra is not None:
        payload["x"] = dict(observation.extra)
    return payload


def decode_observation_payload(payload: dict) -> Observation:
    try:
        return Observation(
            payload["r"], payload["o"], payload["t"], payload.get("x")
        )
    except (KeyError, TypeError) as exc:
        raise FrameError(f"malformed observation payload: {payload!r}") from exc


def detection_payload(detection: Any) -> dict:
    """JSON-safe dict for one :class:`~repro.core.detector.Detection`.

    Bindings are passed through as-is; rule authors who bind non-JSON
    values and want them pushed over the wire must keep them
    JSON-serializable (EPC strings always are).

    Revision-tagged detections (REVISE-mode
    :class:`~repro.core.speculate.SpeculativeDetection`) additionally
    carry ``did``/``rev``/``status``; plain detections omit the keys.
    """
    payload = {
        "rule": detection.rule.rule_id,
        "time": detection.time,
        "bindings": dict(detection.instance.bindings),
    }
    detection_id = getattr(detection, "detection_id", "")
    if detection_id:
        payload["did"] = detection_id
        payload["rev"] = detection.revision
        payload["status"] = detection.status
    return payload


# -- frame types ---------------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    """Base for everything that crosses the wire.

    Subclasses implement the JSON view via :meth:`to_payload` /
    :meth:`from_payload`; the byte-level body is produced by
    :meth:`encode_body` / :meth:`decode_body`, which default to compact
    JSON and are overridden by the columnar frames (``BBATCH``,
    ``BDETBATCH``, ``BRELAY``).
    Empty ``__slots__``, so a slotted subclass carries no ``__dict__``.
    """

    __slots__ = ()

    TYPE = 0x00

    def to_payload(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_payload(cls, payload: dict) -> "Frame":
        raise NotImplementedError

    def encode_body(self) -> bytes:
        """Payload bytes for this frame (everything after the type byte).

        Strict JSON by default: non-finite floats (``nan``/``inf``)
        would serialize to Python-only ``NaN``/``Infinity`` tokens that
        non-Python peers cannot parse, so they are rejected with
        :class:`FrameError` at encode time.
        """
        try:
            return json.dumps(
                self.to_payload(), separators=(",", ":"), allow_nan=False
            ).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise FrameError(
                f"{type(self).__name__} payload is not JSON-serializable: {exc}"
            ) from exc

    @classmethod
    def decode_body(cls, body: bytes) -> "Frame":
        """Inverse of :meth:`encode_body`; ``body`` excludes the type byte."""
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FrameError(f"undecodable frame payload: {exc}") from exc
        try:
            return cls.from_payload(payload)
        except (KeyError, TypeError) as exc:
            raise FrameError(
                f"malformed {cls.__name__} payload: {payload!r}"
            ) from exc


@dataclass(frozen=True)
class Hello(Frame):
    """Session open: who is calling, speaking which protocol version.

    ``resume_from`` is the client's last acked sequence number (``-1``
    for a fresh stream); the server answers with the first seq it still
    needs, taking the maximum of the client's claim and its own session
    record — whichever side remembers more wins, so nothing is applied
    twice and nothing is skipped.

    ``capabilities`` is an open-ended dict whose unknown keys both
    sides ignore, so the handshake can grow without another version
    bump; the server reads none today.  A HELLO whose ``version`` is not
    :data:`PROTOCOL_VERSION` is refused with ``ERROR version``.
    """

    TYPE = 0x01

    client_id: str
    version: int = PROTOCOL_VERSION
    resume_from: int = -1
    capabilities: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        payload = {
            "client_id": self.client_id,
            "version": self.version,
            "resume_from": self.resume_from,
        }
        if self.capabilities:
            payload["capabilities"] = self.capabilities
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "Hello":
        return cls(
            client_id=payload["client_id"],
            version=payload["version"],
            resume_from=payload.get("resume_from", -1),
            capabilities=payload.get("capabilities") or {},
        )


@dataclass(frozen=True)
class Welcome(Frame):
    """Server accepts the session; ``next_seq`` is where to (re)start.

    ``capabilities`` is an open-ended dict like HELLO's; the server
    sends ``max_batch``, the per-batch observation cap clients chunk
    their batches to.
    """

    TYPE = 0x02

    session_id: str
    next_seq: int
    capabilities: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        payload = {"session_id": self.session_id, "next_seq": self.next_seq}
        if self.capabilities:
            payload["capabilities"] = self.capabilities
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "Welcome":
        return cls(
            session_id=payload["session_id"],
            next_seq=payload["next_seq"],
            capabilities=payload.get("capabilities") or {},
        )


@dataclass(frozen=True)
class Batch(Frame):
    """Observations numbered ``seq, seq + 1, ...`` — one frame, one ack.

    ``prov`` optionally carries the *originating* client's identity when
    the sender is itself a relay (the cluster router): a
    ``(client_id, (seq, ...))`` pair naming the originating client and
    one source sequence number *per observation*.  The receiving server
    logs that provenance in its WAL instead of the relay's own, so
    end-to-end exactly-once dedup keys on the real source.  Unlike the frame's
    own link numbering, source seqs may have gaps — the relay splits
    one source batch across shards — so they travel explicitly; the
    decoder refuses a list that is not strictly ascending or not one
    per observation.  A relay sends the same batch as a columnar
    :class:`RelayBatch`, and a client as a :class:`BinaryBatch`; this
    JSON form is the fallback for what the columns cannot carry.
    """

    TYPE = 0x04

    seq: int
    observations: tuple = ()
    prov: Optional[tuple] = None

    def to_payload(self) -> dict:
        payload = {
            "seq": self.seq,
            "obs": [encode_observation_payload(o) for o in self.observations],
        }
        if self.prov is not None:
            payload["p"] = [self.prov[0], list(self.prov[1])]
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "Batch":
        prov = payload.get("p")
        observations = tuple(
            decode_observation_payload(item) for item in payload["obs"]
        )
        if prov is not None:
            seqs = tuple(prov[1])
            if len(seqs) != len(observations):
                raise FrameError(
                    f"provenance lists {len(seqs)} seqs for "
                    f"{len(observations)} observations"
                )
            _check_ascending(seqs)
            prov = (prov[0], seqs)
        return cls(seq=payload["seq"], observations=observations, prov=prov)

    @property
    def last_seq(self) -> int:
        return self.seq + len(self.observations) - 1


#: Struct shapes for the BBATCH columnar body (all network byte order).
_BB_HEAD = struct.Struct("!QI")  # first client seq (u64), observation count (u32)
_BB_TABLES = struct.Struct("!HI")  # reader table size (u16), object table size (u32)
_BB_BLOB = struct.Struct("!I")  # one string table: utf-8 blob byte length


class NotPackable(FrameError):
    """This batch cannot take a columnar layout; fall back to JSON.

    Raised by :func:`pack_observations` for observations the columnar
    shape cannot carry (``extra`` payloads, ids that are not strings or
    contain NUL characters or lone surrogates, non-finite timestamps,
    overflowing string tables), and by :class:`BinaryDetectionBatch` for
    detections it cannot carry.  :class:`BinaryCodec` catches it and
    re-encodes as a JSON ``BATCH`` — which either handles the oddity or
    rejects it with a :class:`FrameError` of its own; the write-ahead
    log keeps per-record JSON records instead.
    """


def _pack_blob(table: "dict[str, int] | Sequence[str]") -> list[bytes]:
    """One interned string table: ``!I`` blob length, NUL-joined UTF-8."""
    try:
        blob = "\0".join(table).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise NotPackable(f"id is not UTF-8-encodable: {exc}") from exc
    except TypeError as exc:
        raise NotPackable(f"id is not a string: {exc}") from exc
    if table and blob.count(b"\0") != len(table) - 1:
        raise NotPackable("id contains a NUL character")
    if len(blob) > 0xFFFFFFFF:
        raise NotPackable("string table blob overflow")
    return [_BB_BLOB.pack(len(blob)), blob]


def _unpack_blob(body: bytes, offset: int, size: int) -> tuple[list[str], int]:
    """Inverse of :func:`_pack_blob`: ``size`` ids and the end offset."""
    (blob_length,) = _BB_BLOB.unpack_from(body, offset)
    offset += _BB_BLOB.size
    end = offset + blob_length
    if end > len(body):
        raise FrameError("truncated string table")
    table = body[offset:end].decode("utf-8").split("\0") if size else []
    if len(table) != size:
        raise FrameError(
            f"string table has {len(table)} ids, header says {size}"
        )
    return table, end


def _intern(values: list) -> dict:
    """First-occurrence table slot per distinct value, in one C pass."""
    return {value: index for index, value in enumerate(dict.fromkeys(values))}


def pack_observations(first_seq: int, observations: Sequence[Any]) -> bytes:
    """The columnar ``BBATCH`` body for ``observations`` numbered from
    ``first_seq`` (see :class:`BinaryBatch`).

    Raises :class:`NotPackable` for a batch the layout cannot carry.
    Interning costs one ``dict.fromkeys`` per table and one subscript
    per reading, so packing makes no C call per observation.
    """
    count = len(observations)
    if not 0 <= first_seq < 2**64 or count > 0xFFFFFFFF:
        raise NotPackable(f"seq {first_seq}/count {count} out of range")
    if [observation.extra for observation in observations].count(None) != count:
        raise NotPackable("observation carries an extra payload")
    reader_col = [observation.reader for observation in observations]
    object_col = [observation.obj for observation in observations]
    times = [observation.timestamp for observation in observations]
    try:
        readers = _intern(reader_col)
        objects = _intern(object_col)
    except TypeError as exc:  # an unhashable id
        raise NotPackable(f"id is not a string: {exc}") from exc
    if len(readers) > 0xFFFF or len(objects) > 0xFFFFFFFF:
        raise NotPackable("string table overflow")
    try:
        if not all(map(isfinite, times)):
            raise NotPackable("non-finite timestamp")
    except TypeError as exc:
        raise NotPackable(f"timestamp is not a number: {exc}") from exc
    parts = [
        _BB_HEAD.pack(first_seq, count),
        _BB_TABLES.pack(len(readers), len(objects)),
        *_pack_blob(readers),
        *_pack_blob(objects),
        struct.pack(f"!{count}H", *[readers[r] for r in reader_col]),
        struct.pack(f"!{count}I", *[objects[o] for o in object_col]),
        struct.pack(f"!{count}d", *times),
    ]
    return b"".join(parts)


def unpack_observations(body: bytes, offset: int = 0) -> tuple[int, tuple, int]:
    """Inverse of :func:`pack_observations` for the body at ``offset``:
    ``(first_seq, observations, end_offset)``.

    Raises :class:`FrameError` on any structural mismatch: truncation,
    a string table whose id count disagrees with its header, or a table
    index out of range.
    """
    try:
        seq, count = _BB_HEAD.unpack_from(body, offset)
        offset += _BB_HEAD.size
        n_readers, n_objects = _BB_TABLES.unpack_from(body, offset)
        offset += _BB_TABLES.size
        readers, offset = _unpack_blob(body, offset, n_readers)
        objects, offset = _unpack_blob(body, offset, n_objects)
        reader_ix = struct.unpack_from(f"!{count}H", body, offset)
        offset += 2 * count
        object_ix = struct.unpack_from(f"!{count}I", body, offset)
        offset += 4 * count
        times = struct.unpack_from(f"!{count}d", body, offset)
        offset += 8 * count
        observations = tuple(
            map(
                Observation,
                map(readers.__getitem__, reader_ix),
                map(objects.__getitem__, object_ix),
                times,
            )
        )
    except (struct.error, UnicodeDecodeError, IndexError) as exc:
        raise FrameError(f"malformed columnar batch: {exc}") from exc
    return seq, observations, offset


#: Struct shapes for the batch record's own head (little-endian, as the
#: write-ahead log stores it): tag, flags, reading count; then the
#: client id's utf-8 byte length.
BATCH_RECORD_HEAD = struct.Struct("<BBI")
_BR_CLIENT = struct.Struct("<H")
#: First byte of every batch record.
BATCH_TAG = ord("B")
_HAS_CLIENT = 1  # flag: the origin client's id follows the head
_SEQ_COLUMN = 2  # flag: one client seq per reading follows the columns


def _check_ascending(seqs: Sequence[int]) -> None:
    """Raise :class:`FrameError` unless ``seqs`` strictly ascend (one C
    pass): a relay's frontier is its *last* seq, so a list out of order
    would skip readings that were never applied."""
    if not all(map(lt, seqs, seqs[1:])):
        raise FrameError("client seqs do not ascend")


def pack_batch_record(
    first_seq: int,
    observations: Sequence[Any],
    client_id: Optional[str] = None,
    client_seqs: Optional[Sequence[int]] = None,
) -> bytes:
    """A *batch record*: ``observations`` in ``BBATCH``'s columns
    (:func:`pack_observations`, its first-seq field ``first_seq``)
    under a head of their own, with the origin client's id and, when
    ``client_seqs`` is given, one client seq per reading::

        <BBI                 tag ``B``, flags, reading count
        <H + utf-8           client id                  (flags & 1)
        BBATCH body          interned columns
        <{count}q            client seq per reading     (flags & 2)

    The write-ahead log stores this body as its batch record
    (:mod:`repro.resilience.durability.wal`) and the cluster router
    relays it as a :class:`RelayBatch`.  ``client_seqs`` needs a
    ``client_id``.  Raises :class:`NotPackable` unless every reading is
    a plain :class:`~repro.core.instances.Observation` with ``str`` ids
    and a finite ``float`` timestamp, the client id is a ``str`` of at
    most 64 KiB and the seqs are ``int`` — the batches the columns
    carry exactly.
    """
    if set(map(type, observations)) != {Observation}:
        raise NotPackable("not a non-empty batch of plain Observations")
    if set(map(type, [o.timestamp for o in observations])) != {float}:
        raise NotPackable("timestamp is not a float")
    count = len(observations)
    flags = 0
    parts: list = []
    if client_id is not None:
        if type(client_id) is not str:
            raise NotPackable("client id is not a string")
        try:
            raw = client_id.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise NotPackable(f"client id does not encode: {exc}") from exc
        if len(raw) > 0xFFFF:
            raise NotPackable("client id is too long")
        flags = _HAS_CLIENT
        parts = [_BR_CLIENT.pack(len(raw)), raw]
    columns = pack_observations(first_seq, observations)
    tail = b""
    if client_seqs is not None:
        if set(map(type, client_seqs)) != {int}:
            raise NotPackable("client seq is not an int")
        flags |= _SEQ_COLUMN
        try:
            tail = struct.pack(f"<{count}q", *client_seqs)
        except struct.error as exc:
            raise NotPackable(f"client seqs do not pack: {exc}") from exc
    head = BATCH_RECORD_HEAD.pack(BATCH_TAG, flags, count)
    return b"".join((head, *parts, columns, tail))


def unpack_batch_record(
    body: bytes,
) -> tuple[int, tuple, Optional[str], Optional[tuple]]:
    """Inverse of :func:`pack_batch_record`: ``(first_seq, observations,
    client_id, client_seqs)``, ``None`` for what the record omits.

    Every count, length and table index is checked: a body that is
    inconsistent raises :class:`FrameError` — an unknown tag or flags,
    a count the columns disagree with, a truncated client id, client
    seqs that do not strictly ascend, trailing bytes — rather than
    decoding into different readings.
    """
    try:
        tag, flags, count = BATCH_RECORD_HEAD.unpack_from(body, 0)
        if tag != BATCH_TAG:
            raise FrameError(f"batch record has tag {tag}")
        if flags not in (0, _HAS_CLIENT, _HAS_CLIENT | _SEQ_COLUMN):
            raise FrameError(f"batch record has unknown flags {flags}")
        offset = BATCH_RECORD_HEAD.size
        client_id = None
        if flags & _HAS_CLIENT:
            (length,) = _BR_CLIENT.unpack_from(body, offset)
            offset += _BR_CLIENT.size
            raw = body[offset : offset + length]
            if len(raw) != length:
                raise FrameError("batch record client id is truncated")
            client_id = raw.decode("utf-8")
            offset += length
        first, observations, offset = unpack_observations(body, offset)
        if len(observations) != count or not count:
            raise FrameError(
                f"batch record head says {count} readings, its columns "
                f"hold {len(observations)}"
            )
        client_seqs = None
        if flags & _SEQ_COLUMN:
            client_seqs = struct.unpack_from(f"<{count}q", body, offset)
            offset += 8 * count
            _check_ascending(client_seqs)
        if offset != len(body):
            raise FrameError(
                f"batch record has {len(body) - offset} trailing bytes"
            )
    except (struct.error, UnicodeDecodeError) as exc:
        raise FrameError(f"malformed batch record: {exc}") from exc
    return first, observations, client_id, client_seqs


@dataclass(frozen=True)
class BinaryBatch(Batch):
    """A ``Batch`` whose body is struct-packed columns, not JSON.

    Body layout (after the type byte)::

        !QI                 first_seq, count
        !HI                 n_readers, n_objects
        !I + utf-8 blob     interned reader ids, NUL-joined
        !I + utf-8 blob     interned object ids, NUL-joined
        !{count}H           per-observation reader table index
        !{count}I           per-observation object table index
        !{count}d           per-observation timestamp

    RFID streams are fixed-shape ``(reader, object, t)`` tuples with
    tiny reader cardinality, so interning the strings once per batch
    and decoding each column with a single ``struct`` call removes the
    per-observation JSON cost that dominates a JSON ``BATCH``.  Each
    string table travels as one NUL-separated UTF-8 blob — the whole
    table decodes and splits in two C calls instead of one
    length-prefix round per id (ids containing NUL take the JSON
    fallback).  Semantically identical to :class:`Batch`: observations
    are numbered ``seq, seq + 1, ...`` and acked cumulatively.  The
    same body, packed by :func:`pack_observations`, is the write-ahead
    log's batch record (:mod:`repro.resilience.durability.wal`).
    """

    TYPE = 0x0B

    def encode_body(self) -> bytes:
        if self.prov is not None:
            # A relayed batch's provenance travels in a RelayBatch, whose
            # batch record carries the client id and seq column.
            raise NotPackable("batch carries provenance")
        return pack_observations(self.seq, self.observations)

    @classmethod
    def decode_body(cls, body: bytes) -> "BinaryBatch":
        seq, observations, end = unpack_observations(body)
        if end != len(body):
            raise FrameError(f"BinaryBatch has {len(body) - end} trailing bytes")
        return cls(seq=seq, observations=observations)


@dataclass(frozen=True)
class RelayBatch(Batch):
    """A relayed ``Batch`` (one with ``prov``) in columns: ``BRELAY``.

    The body is the write-ahead log's batch record
    (:func:`pack_batch_record`): the ``BBATCH`` columns, whose first-seq
    field is the frame's link ``seq``, the origin client id, and the
    client-seq column.  The cluster router sends it on its worker
    links, so a worker decodes a sub-batch into readings and
    provenance with a few ``struct`` calls and logs it in the layout it
    arrived in.  The decoder refuses a body without provenance, so
    ``prov`` is always ``(client_id, (seq, ...))`` with strictly
    ascending seqs, one per observation.  A sub-batch the columns
    cannot carry (:class:`NotPackable`) goes as a JSON ``BATCH``.
    """

    TYPE = 0x10

    def encode_body(self) -> bytes:
        if self.prov is None:
            raise NotPackable("relay batch carries no provenance")
        origin, seqs = self.prov
        return pack_batch_record(self.seq, self.observations, origin, seqs)

    @classmethod
    def decode_body(cls, body: bytes) -> "RelayBatch":
        seq, observations, origin, seqs = unpack_batch_record(body)
        if seqs is None:
            raise FrameError("relay batch carries no client seqs")
        return cls(seq=seq, observations=observations, prov=(origin, seqs))


@dataclass(frozen=True)
class Ack(Frame):
    """Cumulative acknowledgement: every client seq ≤ ``seq`` is applied."""

    TYPE = 0x05

    seq: int

    def to_payload(self) -> dict:
        return {"seq": self.seq}

    @classmethod
    def from_payload(cls, payload: dict) -> "Ack":
        return cls(seq=payload["seq"])


@dataclass(frozen=True)
class Flush(Frame):
    """Fire end-of-stream expirations; sequenced so the ack is unambiguous.

    ``prov`` is the relay extension (see :class:`Batch`): here one
    ``(client_id, seq)`` pair, the originating client's flush.
    """

    TYPE = 0x06

    seq: int
    prov: Optional[tuple] = None

    def to_payload(self) -> dict:
        payload = {"seq": self.seq}
        if self.prov is not None:
            payload["p"] = [self.prov[0], self.prov[1]]
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "Flush":
        prov = payload.get("p")
        return cls(
            seq=payload["seq"],
            prov=(prov[0], prov[1]) if prov is not None else None,
        )


@dataclass(frozen=True)
class Subscribe(Frame):
    """Ask for detection pushes; ``rules`` optionally filters by rule id."""

    TYPE = 0x07

    rules: Optional[tuple] = None

    def to_payload(self) -> dict:
        return {"rules": list(self.rules) if self.rules is not None else None}

    @classmethod
    def from_payload(cls, payload: dict) -> "Subscribe":
        rules = payload.get("rules")
        return cls(rules=tuple(rules) if rules is not None else None)


@dataclass(frozen=True, slots=True)
class DetectionFrame(Frame):
    """One rule firing pushed to a subscriber: the record every push
    frame carries.  As a frame of its own (``DETECTION``) it still
    round-trips, but the server pushes batches.

    ``seq`` is the client sequence number of the submission that
    triggered it (``-1`` for flush-triggered expirations of another
    session's traffic); ``ordinal`` disambiguates several detections off
    one observation.

    ``detection_id``/``revision``/``status`` carry the REVISE-mode
    revision lifecycle; the keys are omitted from the payload for plain
    detections.  Every subscriber receives the whole lifecycle.

    Slotted: a received detection is one GC-tracked object (its
    bindings dict of strings and floats is untracked), not a frame plus
    a materialised ``__dict__``.
    """

    TYPE = 0x08

    rule: str
    time: float
    bindings: dict = field(default_factory=dict)
    seq: int = -1
    ordinal: int = 0
    detection_id: str = ""
    revision: int = 0
    status: str = ""

    def to_payload(self) -> dict:
        """The JSON view, in the one key order every JSON push uses.

        The bindings are copied: a frame may share its bindings with the
        engine that fired it, and a payload can sit in a push buffer.
        """
        payload = {
            "rule": self.rule,
            "time": self.time,
            "bindings": dict(self.bindings),
            "seq": self.seq,
            "ordinal": self.ordinal,
        }
        if self.detection_id:
            payload["did"] = self.detection_id
            payload["rev"] = self.revision
            payload["status"] = self.status
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "DetectionFrame":
        return cls(
            payload["rule"],
            payload["time"],
            payload.get("bindings", {}),
            payload.get("seq", -1),
            payload.get("ordinal", 0),
            payload.get("did", ""),
            payload.get("rev", 0),
            payload.get("status", ""),
        )


@dataclass(frozen=True)
class DetectionBatch(Frame):
    """Several rule firings pushed in one JSON frame.

    The fallback of :class:`BinaryDetectionBatch` for a release the
    columns cannot carry exactly (revision-tagged records, odd binding
    values).  Each entry of ``detections`` is a :class:`DetectionFrame`
    payload dict, in firing order.

    Toward the server's ``push_queue`` bound a batch counts as a single
    buffered item, so the slow-consumer DROP policy sheds whole batches.
    """

    TYPE = 0x0C

    detections: tuple = ()

    def to_payload(self) -> dict:
        return {"detections": list(self.detections)}

    @classmethod
    def from_payload(cls, payload: dict) -> "DetectionBatch":
        return cls(detections=tuple(payload.get("detections") or ()))


#: Struct shapes for the columnar DETBATCH body (network byte order).
_DB_COUNT = struct.Struct("!I")  # detections (u32)
_DB_RULES = struct.Struct("!H")  # rule table size (u16)
_DB_STRINGS = struct.Struct("!I")  # string table size (u32)
_DB_SHAPES = struct.Struct("!H")  # binding shapes (u16)
_DB_KEYS = struct.Struct("!B")  # keys in one shape (u8)
#: Binding column type codes: a string-table index or a float.
_STR, _FLOAT = ord("s"), ord("d")
_TYPE_CODES = {str: _STR, float: _FLOAT}


def _pack_detections(frames: Sequence["DetectionFrame"]) -> bytes:
    """The columnar body of :class:`BinaryDetectionBatch` (see there).

    Raises :class:`NotPackable` for anything whose JSON round trip the
    columns could not reproduce exactly: revision-tagged frames,
    non-``str`` rule ids or binding keys, times that are not finite
    ``float``s, seqs or ordinals that are not in-range ``int``s,
    binding values other than ``str`` and finite ``float``, and strings
    with NUL characters or lone surrogates.
    """
    count = len(frames)
    rules = [frame.rule for frame in frames]
    times = [frame.time for frame in frames]
    seqs = [frame.seq for frame in frames]
    ordinals = [frame.ordinal for frame in frames]
    if [frame.detection_id for frame in frames].count("") != count:
        raise NotPackable("revision-tagged detection")
    if (
        {*map(type, rules)} - {str}
        or {*map(type, times)} - {float}
        or {*map(type, seqs), *map(type, ordinals)} - {int}
    ):
        raise NotPackable("rule id, time, seq or ordinal of an odd type")
    if not all(map(isfinite, times)):
        raise NotPackable("non-finite detection time")
    # One shape per distinct (keys, value types); each shape's values
    # travel as one typed column per key.
    shapes: dict = {}
    shape_ix = []
    rows: list[list] = []
    for frame in frames:
        bindings = frame.bindings
        values = tuple(bindings.values())
        shape = (tuple(bindings), tuple(map(type, values)))
        index = shapes.get(shape)
        if index is None:
            index = shapes[shape] = len(shapes)
            rows.append([])
        shape_ix.append(index)
        rows[index].append(values)
    if len(shapes) > 0xFFFF:
        raise NotPackable("binding shape table overflow")
    strings_seen: list = []
    layouts = []
    for (keys, types), shape_rows in zip(shapes, rows):
        if len(keys) > 0xFF or {*map(type, keys)} - {str}:
            raise NotPackable("binding keys that are not strings")
        try:
            codes = bytes(map(_TYPE_CODES.__getitem__, types))
        except KeyError as exc:
            raise NotPackable(f"binding value of type {exc}") from exc
        columns = list(zip(*shape_rows)) if keys else []
        for code, column in zip(codes, columns):
            if code == _STR:
                strings_seen.extend(column)
            elif not all(map(isfinite, column)):
                raise NotPackable("non-finite binding value")
        strings_seen.extend(keys)
        layouts.append((keys, codes, columns))
    rule_table = _intern(rules)
    strings = _intern(strings_seen)
    if len(rule_table) > 0xFFFF:
        raise NotPackable("rule table overflow")
    parts = [
        _DB_COUNT.pack(count),
        _DB_RULES.pack(len(rule_table)),
        *_pack_blob(rule_table),
        _DB_STRINGS.pack(len(strings)),
        *_pack_blob(strings),
        _DB_SHAPES.pack(len(layouts)),
    ]
    for keys, codes, _columns in layouts:
        parts.append(_DB_KEYS.pack(len(keys)))
        parts.append(struct.pack(f"!{len(keys)}I", *[strings[k] for k in keys]))
        parts.append(codes)
    try:
        parts += [
            struct.pack(f"!{count}H", *[rule_table[r] for r in rules]),
            struct.pack(f"!{count}H", *shape_ix),
            struct.pack(f"!{count}d", *times),
            struct.pack(f"!{count}q", *seqs),
            struct.pack(f"!{count}I", *ordinals),
        ]
    except struct.error as exc:
        raise NotPackable(f"seq or ordinal out of range: {exc}") from exc
    for _keys, codes, columns in layouts:
        for code, column in zip(codes, columns):
            if code == _STR:
                parts.append(
                    struct.pack(
                        f"!{len(column)}I", *[strings[v] for v in column]
                    )
                )
            else:
                parts.append(struct.pack(f"!{len(column)}d", *column))
    return b"".join(parts)


def _unpack_detections(body: bytes) -> tuple:
    """Inverse of :func:`_pack_detections`: a tuple of DetectionFrames.

    Every count, length and table index is checked against the body, so
    a structurally inconsistent body raises :class:`FrameError` instead
    of decoding into different detections.
    """
    try:
        (count,) = _DB_COUNT.unpack_from(body, 0)
        offset = _DB_COUNT.size
        (n_rules,) = _DB_RULES.unpack_from(body, offset)
        rule_table, offset = _unpack_blob(body, offset + _DB_RULES.size, n_rules)
        (n_strings,) = _DB_STRINGS.unpack_from(body, offset)
        strings, offset = _unpack_blob(
            body, offset + _DB_STRINGS.size, n_strings
        )
        (n_shapes,) = _DB_SHAPES.unpack_from(body, offset)
        offset += _DB_SHAPES.size
        shapes = []
        for _ in range(n_shapes):
            (n_keys,) = _DB_KEYS.unpack_from(body, offset)
            offset += _DB_KEYS.size
            keys = tuple(
                map(
                    strings.__getitem__,
                    struct.unpack_from(f"!{n_keys}I", body, offset),
                )
            )
            offset += 4 * n_keys
            codes = body[offset : offset + n_keys]
            offset += n_keys
            if len(codes) != n_keys or codes.strip(b"sd"):
                raise FrameError("bad binding column type code")
            if len(set(keys)) != n_keys:
                raise FrameError("repeated binding key in one shape")
            shapes.append((keys, codes))
        rule_ix = struct.unpack_from(f"!{count}H", body, offset)
        offset += 2 * count
        shape_ix = struct.unpack_from(f"!{count}H", body, offset)
        offset += 2 * count
        times = struct.unpack_from(f"!{count}d", body, offset)
        offset += 8 * count
        seqs = struct.unpack_from(f"!{count}q", body, offset)
        offset += 8 * count
        ordinals = struct.unpack_from(f"!{count}I", body, offset)
        offset += 4 * count
        rules = list(map(rule_table.__getitem__, rule_ix))
        per_shape = []
        for index, (keys, codes) in enumerate(shapes):
            rows = shape_ix.count(index)
            columns = []
            for code in codes:
                if code == _STR:
                    column = struct.unpack_from(f"!{rows}I", body, offset)
                    offset += 4 * rows
                    columns.append(list(map(strings.__getitem__, column)))
                else:
                    columns.append(struct.unpack_from(f"!{rows}d", body, offset))
                    offset += 8 * rows
            if keys:
                per_shape.append([dict(zip(keys, row)) for row in zip(*columns)])
            else:
                per_shape.append([{} for _ in range(rows)])
    except (struct.error, UnicodeDecodeError, IndexError) as exc:
        raise FrameError(f"malformed columnar DETBATCH: {exc}") from exc
    if sum(map(len, per_shape)) != count:
        raise FrameError("DETBATCH shape index out of range")
    if offset != len(body):
        raise FrameError(f"DETBATCH has {len(body) - offset} trailing bytes")
    iterators = [iter(rows) for rows in per_shape]
    bindings = list(map(next, map(iterators.__getitem__, shape_ix)))
    return _frames(rules, times, bindings, seqs, ordinals)


#: The slot setters of a DetectionFrame, in field order.
_FRAME_SLOTS = tuple(
    DetectionFrame.__dict__[name].__set__
    for name in (
        "rule", "time", "bindings", "seq", "ordinal",
        "detection_id", "revision", "status",
    )
)
_consume = deque(maxlen=0).extend


def detection_frames(detections: Sequence[Any], seq: int) -> list:
    """The push records of one release of plain
    :class:`~repro.core.detector.Detection` objects, ``(seq, ordinal)``
    with ordinals ``0, 1, ...``, built column by column.

    Bindings are shared, not copied: a frame lives until it is encoded,
    and :meth:`DetectionFrame.to_payload` copies them for JSON pushes.
    """
    return list(
        _frames(
            [detection.rule.rule_id for detection in detections],
            [detection.time for detection in detections],
            [detection.instance.bindings for detection in detections],
            repeat(seq),
            range(len(detections)),
        )
    )


def tagged_frames(detections: Sequence[Any], seq: int) -> list:
    """:func:`detection_frames` for revision-tagged detections (REVISE's
    :class:`~repro.core.speculate.SpeculativeDetection`), with their
    ``detection_id``/``revision``/``status``; an untagged detection in
    the release gets a plain frame."""
    return [
        DetectionFrame(
            detection.rule.rule_id,
            detection.time,
            detection.instance.bindings,
            seq,
            ordinal,
            getattr(detection, "detection_id", ""),
            getattr(detection, "revision", 0),
            getattr(detection, "status", ""),
        )
        for ordinal, detection in enumerate(detections)
    ]


def resequenced(frames: Sequence[DetectionFrame], seq: int) -> list:
    """``frames`` (the cluster router's fan-in, numbered by the workers)
    renumbered as one release: ``seq``, ordinals ``0, 1, ...``."""
    return list(
        _frames(
            [frame.rule for frame in frames],
            [frame.time for frame in frames],
            [frame.bindings for frame in frames],
            repeat(seq),
            range(len(frames)),
            [frame.detection_id for frame in frames],
            [frame.revision for frame in frames],
            [frame.status for frame in frames],
        )
    )


def _frames(rules, times, bindings, seqs, ordinals, *tags) -> tuple:
    """DetectionFrames from equal-length columns; without the three
    ``tags`` columns (id, revision, status) the frames are plain.

    The frozen dataclass ``__init__`` is a Python call with eight
    ``object.__setattr__`` calls per frame; filling each slot column by
    column from C (``map`` over the slot descriptors) builds the same
    frames about three times faster, with no Python frame per detection.
    """
    count = len(rules)
    frames = tuple(map(object.__new__, repeat(DetectionFrame, count)))
    if not tags:
        tags = (repeat("", count), repeat(0, count), repeat("", count))
    columns = (rules, times, bindings, seqs, ordinals, *tags)
    for setter, column in zip(_FRAME_SLOTS, columns):
        _consume(map(setter, frames, column))
    return frames


@dataclass(frozen=True)
class BinaryDetectionBatch(Frame):
    """A DETBATCH of :class:`DetectionFrame` objects in columnar layout:
    the push frame of every release.

    Body layout (after the type byte)::

        !I                  count
        !H + !I + blob      rule-id table: size, NUL-joined UTF-8
        !I + !I + blob      string table (binding keys and string values)
        !H                  binding shapes, then per shape:
          !B + !{k}I + k B    key count, key string indices, type codes
        !{count}H           per-detection rule table index
        !{count}H           per-detection binding shape index
        !{count}d           per-detection time
        !{count}q           per-detection client seq
        !{count}I           per-detection ordinal
        per shape, per key  one column over that shape's detections:
                            !{n}I string index (``s``) or !{n}d (``d``)

    The client decodes it straight into frames: per shape, one ``dict``
    per detection from its typed columns, then one ``DetectionFrame``
    per detection — no payload dicts in between.  A batch the columns
    cannot carry exactly (see :func:`_pack_detections`) goes out as a
    JSON :class:`DetectionBatch` instead; :meth:`pack` makes that choice.
    """

    TYPE = 0x0F

    detections: tuple = ()
    #: The packed body, when :meth:`pack` already built it.
    body: bytes = field(default=b"", compare=False, repr=False)

    @classmethod
    def pack(cls, frames: Sequence[DetectionFrame]) -> Frame:
        """The push frame for ``frames``: columnar, or the JSON
        ``DETBATCH`` fallback when the columns cannot carry them."""
        frames = tuple(frames)
        try:
            return cls(frames, _pack_detections(frames))
        except NotPackable:
            return DetectionBatch(
                detections=tuple(frame.to_payload() for frame in frames)
            )

    def encode_body(self) -> bytes:
        return self.body or _pack_detections(self.detections)

    @classmethod
    def decode_body(cls, body: bytes) -> "BinaryDetectionBatch":
        return cls(_unpack_detections(body))


def push_frame(frames: Sequence[DetectionFrame]) -> Frame:
    """The one frame a subscriber is pushed for one release: a columnar
    ``BDETBATCH``, or the JSON ``DETBATCH`` fallback, whose payloads
    hold copies of the bindings (:meth:`BinaryDetectionBatch.pack`)."""
    return BinaryDetectionBatch.pack(frames)


def received_frames(frame: Frame) -> tuple:
    """The DetectionFrames a received push frame (``BDETBATCH`` or its
    JSON ``DETBATCH`` fallback) carries; ``()`` for every other frame."""
    kind = frame.__class__
    if kind is BinaryDetectionBatch:
        return frame.detections
    if kind is DetectionBatch:
        return tuple(map(DetectionFrame.from_payload, frame.detections))
    return ()


@dataclass(frozen=True)
class ErrorFrame(Frame):
    """Protocol or processing failure; the server closes after sending it.

    ``retry_after`` (optional, seconds) rides on *transient* errors —
    today ``overloaded``, when the submit queue saturated and the server
    shed this session — telling the client's backoff when a reconnect is
    worth attempting.  The key is omitted from the payload when unset.
    """

    TYPE = 0x09

    code: str
    message: str
    retry_after: Optional[float] = None

    def to_payload(self) -> dict:
        payload = {"code": self.code, "message": self.message}
        if self.retry_after is not None:
            payload["retry_after"] = self.retry_after
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ErrorFrame":
        return cls(
            code=payload["code"],
            message=payload["message"],
            retry_after=payload.get("retry_after"),
        )


@dataclass(frozen=True)
class Bye(Frame):
    """Orderly goodbye."""

    TYPE = 0x0A

    def to_payload(self) -> dict:
        return {}

    @classmethod
    def from_payload(cls, payload: dict) -> "Bye":
        return cls()


@dataclass(frozen=True)
class Ping(Frame):
    """Liveness probe; the peer answers with a :class:`Pong` echoing
    ``token``.  The server probes every session that stays idle past
    ``ServeConfig.heartbeat_interval``.
    """

    TYPE = 0x0D

    token: int = 0

    def to_payload(self) -> dict:
        return {"token": self.token}

    @classmethod
    def from_payload(cls, payload: dict) -> "Ping":
        return cls(token=payload.get("token", 0))


@dataclass(frozen=True)
class Pong(Frame):
    """Answer to a :class:`Ping`; carries the probe's token back."""

    TYPE = 0x0E

    token: int = 0

    def to_payload(self) -> dict:
        return {"token": self.token}

    @classmethod
    def from_payload(cls, payload: dict) -> "Pong":
        return cls(token=payload.get("token", 0))


_FRAME_TYPES: dict[int, type] = {
    cls.TYPE: cls
    for cls in (
        Hello,
        Welcome,
        Batch,
        BinaryBatch,
        RelayBatch,
        Ack,
        Flush,
        Subscribe,
        DetectionFrame,
        DetectionBatch,
        BinaryDetectionBatch,
        ErrorFrame,
        Bye,
        Ping,
        Pong,
    )
}


# -- encode / decode -----------------------------------------------------------


def encode_frame(frame: Frame) -> bytes:
    """Serialize one frame to its wire bytes (header + body + CRC).

    The body comes from :meth:`Frame.encode_body` — strict compact JSON
    for every frame except the columnar ones, which pack structs.  Non-JSON
    values (including non-finite floats, whose ``NaN``/``Infinity``
    tokens only Python's parser accepts) are rejected with
    :class:`FrameError` at encode time rather than poisoning the wire.
    """
    payload = frame.encode_body()
    length = 1 + len(payload)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds MAX_FRAME_BYTES")
    crc = zlib.crc32(payload, zlib.crc32(bytes((frame.TYPE,))))
    return b"".join(
        (_HEADER.pack(length), bytes((frame.TYPE,)), payload, _CRC.pack(crc))
    )


def encode_frame_into(frame: Frame, buffer: bytearray) -> int:
    """Append one encoded frame to ``buffer``; returns bytes appended.

    The batch fast path: clients keep one ``bytearray`` per connection
    and pack a whole run of frames into it, handing the transport a
    single buffer instead of allocating per-frame ``bytes``.
    """
    payload = frame.encode_body()
    length = 1 + len(payload)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds MAX_FRAME_BYTES")
    crc = zlib.crc32(payload, zlib.crc32(bytes((frame.TYPE,))))
    buffer += _HEADER.pack(length)
    buffer.append(frame.TYPE)
    buffer += payload
    buffer += _CRC.pack(crc)
    return _HEADER.size + length + _CRC.size


def decode_frame(data: bytes) -> tuple[Frame, int]:
    """Decode one frame from the head of ``data``.

    Returns ``(frame, consumed_bytes)``.  Raises :class:`FrameError` on
    a corrupt header, CRC mismatch, unknown type or malformed payload —
    and also when ``data`` does not yet hold a complete frame (stream
    callers should use :class:`FrameDecoder`, which buffers partial
    frames instead of raising).
    """
    if len(data) < _HEADER.size:
        raise FrameError("incomplete frame header")
    (length,) = _HEADER.unpack_from(data)
    if length < 1 or length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} out of bounds")
    total = _HEADER.size + length + _CRC.size
    if len(data) < total:
        raise FrameError("incomplete frame body")
    body = data[_HEADER.size : _HEADER.size + length]
    (crc,) = _CRC.unpack_from(data, _HEADER.size + length)
    if zlib.crc32(body) != crc:
        raise FrameError("frame CRC mismatch")
    frame_type = body[0]
    cls = _FRAME_TYPES.get(frame_type)
    if cls is None:
        raise FrameError(f"unknown frame type 0x{frame_type:02x}")
    return cls.decode_body(body[1:]), total


class FrameDecoder:
    """Incremental frame parser for a byte stream.

    Feed it whatever chunk sizes the transport produces; it buffers
    partial frames and yields each complete one exactly once::

        decoder = FrameDecoder()
        for frame in decoder.feed(chunk):
            handle(frame)

    Corruption (bad CRC, bogus length, unknown type) raises
    :class:`FrameError` — framing is lost at that point, so the caller
    must drop the connection.
    """

    __slots__ = ("_buffer", "frames_decoded", "bytes_consumed")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.frames_decoded = 0
        self.bytes_consumed = 0

    def feed(self, data: bytes) -> Iterator[Frame]:
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _HEADER.size:
                return
            (length,) = _HEADER.unpack_from(self._buffer)
            if length < 1 or length > MAX_FRAME_BYTES:
                raise FrameError(f"frame length {length} out of bounds")
            total = _HEADER.size + length + _CRC.size
            if len(self._buffer) < total:
                return
            frame, consumed = decode_frame(bytes(self._buffer[:total]))
            del self._buffer[:consumed]
            self.frames_decoded += 1
            self.bytes_consumed += consumed
            yield frame

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward the next (incomplete) frame."""
        return len(self._buffer)


# -- the ingest codec -----------------------------------------------------------


class BinaryCodec:
    """How a client lays one observation batch onto the wire: a
    struct-packed ``BBATCH``, or a JSON ``BATCH`` for a batch the
    columns cannot carry (``extra`` payloads, unpackable ids), a batch
    of one included.  The server accepts both frame shapes on every
    session, so callers never see a difference beyond bytes-on-wire.
    """

    name = "binary"

    def encode_batch_into(
        self, buffer: bytearray, seq: int, observations: Sequence[Observation]
    ) -> int:
        """Append the frame for one batch to ``buffer``; return byte count."""
        observations = tuple(observations)
        try:
            return encode_frame_into(BinaryBatch(seq, observations), buffer)
        except NotPackable:
            return encode_frame_into(Batch(seq, observations), buffer)

    def encode_batch(
        self, seq: int, observations: Sequence[Observation]
    ) -> bytes:
        """Convenience non-buffered form of :meth:`encode_batch_into`."""
        buffer = bytearray()
        self.encode_batch_into(buffer, seq, observations)
        return bytes(buffer)


_BINARY_CODEC = BinaryCodec()


def get_codec(name: str) -> BinaryCodec:
    """The ingest codec: ``"binary"`` is the only name there is."""
    if name != _BINARY_CODEC.name:
        raise FrameError(f"unknown wire codec {name!r}")
    return _BINARY_CODEC
