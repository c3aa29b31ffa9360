"""Columnar batches on both sides of the durable served path.

* The columnar ``DETBATCH`` (:class:`BinaryDetectionBatch`) decodes to
  the same frames as the JSON ``DETBATCH`` for every batch the JSON path
  accepts, and takes the JSON fallback for everything it cannot carry.
* A structure-aware mutation of a columnar ``DETBATCH`` body or of a WAL
  batch record raises ``FrameError``/``WalError``; it never decodes into
  different detections or readings.
* The router's columnar relay frame (``BRELAY``, :class:`RelayBatch`)
  is the WAL batch record's body: a structure-aware mutation of it, or
  a flipped bit, raises ``FrameError``, and a worker session that is
  sent one ends with ERROR having applied nothing.
* A torn batch record at the WAL tail is truncated, and its readings are
  submitted again on resume.
"""

import gc
import os
import struct
import tempfile
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Observation
from repro.__main__ import _build_engine, _packing_stream
from repro.apps import containment_rule, location_rule
from repro.core.errors import WalError
from repro.resilience import kill_and_restore_run, tear_wal_tail
from repro.resilience.durability import DurableEngine, read_wal
from repro.resilience.durability import wal as wal_module
from repro.resilience.durability.engine import encode_observation
from repro.scenarios.pack import canon_detections
from repro.serve.protocol import (
    Batch,
    BinaryDetectionBatch,
    DetectionBatch,
    DetectionFrame,
    FrameError,
    RelayBatch,
    decode_frame,
    encode_frame,
    pack_batch_record,
)

# -- the columnar DETBATCH ------------------------------------------------------

hostile = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from(['"', "\\", "\x00", "é", "\ud800", "😀"]),
    ),
    max_size=8,
)
plain = st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                       blacklist_characters="\x00"),
                max_size=8)
any_float = st.floats(allow_nan=True, allow_infinity=True)
scalar = st.one_of(
    hostile, any_float, st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(), st.none(),
)
value = st.one_of(
    plain, plain, st.floats(allow_nan=False, allow_infinity=False),
    scalar, st.lists(scalar, max_size=2),
    st.dictionaries(plain, scalar, max_size=2),
)
key = st.one_of(plain, plain, plain, hostile)


@st.composite
def frames(draw):
    """Detection frames as a server builds them, odd shapes included."""
    rule = draw(st.one_of(plain, hostile, st.integers(0, 9), st.none()))
    time = draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), any_float,
        st.integers(-5, 5),
    ))
    bindings = draw(st.dictionaries(key, value, max_size=4))
    seq = draw(st.one_of(
        st.integers(min_value=-1, max_value=2**63 - 1),
        st.integers(min_value=-(2**70), max_value=2**70), st.booleans(),
    ))
    ordinal = draw(st.one_of(
        st.integers(min_value=0, max_value=2**32 - 1), st.integers(-3, 2**40),
    ))
    if draw(st.integers(0, 5)) == 0:
        return DetectionFrame(
            rule, time, bindings, seq, ordinal,
            draw(plain.filter(bool)), draw(st.integers(0, 3)),
            draw(st.sampled_from(["provisional", "final", "retracted"])),
        )
    return DetectionFrame(rule, time, bindings, seq, ordinal)


def _typed(frames):
    """Frames with their field types spelled out: ``1 == 1.0`` and
    ``0.0 == -0.0`` in Python, but not on the wire."""
    return [repr(frame) for frame in frames]


def _received(wire):
    frame, consumed = decode_frame(wire)
    assert consumed == len(wire)
    if isinstance(frame, BinaryDetectionBatch):
        return list(frame.detections)
    return [DetectionFrame.from_payload(p) for p in frame.detections]


class TestColumnarDetectionBatch:
    @given(st.lists(frames(), max_size=6))
    @example([])
    @example([DetectionFrame("r1", 2.5, {"o1": "x", "t1": 1.5}, 4, 0)])
    @example([DetectionFrame("r1", -0.0, {"o": "a", "t": -0.0}, -1, 0),
              DetectionFrame("r2", 3.0, {}, 7, 1),
              DetectionFrame("r1", 4.0, {"o": "b", "t": 2.0}, 7, 2)])
    @example([DetectionFrame("r", 1.0, {"o": "\x00"}, 0, 0)])
    @example([DetectionFrame("r", 1.0, {"o": "\ud800"}, 0, 0)])
    @example([DetectionFrame("r", 1.0, {"n": 1, "b": True, "z": None}, 0, 0)])
    @example([DetectionFrame("r", 1.0, {"nested": {"a": [1.5]}}, 0, 0)])
    @example([DetectionFrame("r", float("inf"), {}, 0, 0)])
    @example([DetectionFrame("r", 1.0, {"t": float("nan")}, 0, 0)])
    @example([DetectionFrame("r", 1.0, {}, 0, 0, "d1", 2, "final")])
    @settings(max_examples=400, deadline=None)
    def test_decodes_to_the_json_batch_frames(self, batch):
        try:
            json_wire = encode_frame(
                DetectionBatch(tuple(f.to_payload() for f in batch))
            )
        except FrameError:
            # What JSON refuses, the fallback refuses the same way.
            with pytest.raises(FrameError):
                encode_frame(BinaryDetectionBatch.pack(batch))
            return
        expected = _received(json_wire)
        pushed = BinaryDetectionBatch.pack(batch)
        got = _received(encode_frame(pushed))
        assert got == expected
        assert _typed(got) == _typed(expected)

    def test_plain_batches_take_the_columns(self):
        batch = [
            DetectionFrame("r1", 0.5 * i, {"o1": f"tag{i % 3}", "t1": 0.25 * i},
                           9, i)
            for i in range(40)
        ] + [DetectionFrame("r2", 30.0, {"o2": "case-é"}, 9, 40)]
        pushed = BinaryDetectionBatch.pack(batch)
        assert isinstance(pushed, BinaryDetectionBatch)
        wire = encode_frame(pushed)
        json_wire = encode_frame(
            DetectionBatch(tuple(f.to_payload() for f in batch))
        )
        assert len(wire) < len(json_wire) / 2
        assert _received(wire) == batch

    @pytest.mark.parametrize(
        "odd",
        [
            DetectionFrame("r", 1.0, {}, 0, 0, "d", 1, "provisional"),
            DetectionFrame("r", 1, {}, 0, 0),
            DetectionFrame("r", 1.0, {"n": 3}, 0, 0),
            DetectionFrame("r", 1.0, {"b": False}, 0, 0),
            DetectionFrame("r", 1.0, {"z": None}, 0, 0),
            DetectionFrame("r", 1.0, {"l": ["x"]}, 0, 0),
            DetectionFrame("r\x00", 1.0, {}, 0, 0),
            DetectionFrame("r", 1.0, {"k": "\ud800"}, 0, 0),
            DetectionFrame("r", 1.0, {}, True, 0),
            DetectionFrame("r", 1.0, {}, 0, -1),
        ],
        ids=["revision", "int-time", "int", "bool", "none", "nested", "nul",
             "surrogate", "bool-seq", "negative-ordinal"],
    )
    def test_odd_batches_fall_back_to_json(self, odd):
        pushed = BinaryDetectionBatch.pack([odd])
        assert type(pushed) is DetectionBatch
        assert _received(encode_frame(pushed)) == [odd]

    def test_decoded_frame_is_one_tracked_object(self):
        """A received detection is one GC-tracked object: the slotted
        frame, with no ``__dict__`` and an untracked bindings dict."""
        batch = [DetectionFrame("r1", 1.5, {"o1": "x", "t1": 0.5}, 3, 0)]
        json_wire = encode_frame(DetectionBatch((batch[0].to_payload(),)))
        wires = [encode_frame(BinaryDetectionBatch.pack(batch)), json_wire]
        for wire in wires:
            (frame,) = _received(wire)
            assert not hasattr(frame, "__dict__")
            assert gc.is_tracked(frame)
            parts = [p for p in gc.get_referents(frame) if p is not DetectionFrame]
            assert frame.bindings in parts
            assert not any(map(gc.is_tracked, parts))


# -- structure-aware mutations --------------------------------------------------

plain_frames = st.lists(
    st.builds(
        DetectionFrame,
        st.sampled_from(["r1", "r2", "rule-é"]),
        st.floats(allow_nan=False, allow_infinity=False),
        st.fixed_dictionaries(
            {"o1": plain},
            optional={"t1": st.floats(allow_nan=False, allow_infinity=False),
                      "o2": plain},
        ),
        st.integers(min_value=-1, max_value=2**40),
        st.integers(min_value=0, max_value=2**20),
    ),
    min_size=1,
    max_size=6,
)


def _detbatch_layout(body):
    """Offsets of the columnar DETBATCH fields a mutation aims at."""
    (count,) = struct.unpack_from("!I", body, 0)
    (n_rules,) = struct.unpack_from("!H", body, 4)
    (blob,) = struct.unpack_from("!I", body, 6)
    strings_at = 10 + blob
    (n_strings,) = struct.unpack_from("!I", body, strings_at)
    (blob,) = struct.unpack_from("!I", body, strings_at + 4)
    shapes_at = strings_at + 8 + blob
    (n_shapes,) = struct.unpack_from("!H", body, shapes_at)
    offset = shapes_at + 2
    keys_at = codes_at = None
    for _ in range(n_shapes):
        (n_keys,) = struct.unpack_from("!B", body, offset)
        keys_at, codes_at = offset + 1, offset + 1 + 4 * n_keys
        offset = codes_at + n_keys
    return dict(
        count=count, n_rules=n_rules, strings_at=strings_at,
        n_strings=n_strings, shapes_at=shapes_at, n_shapes=n_shapes,
        keys_at=keys_at, codes_at=codes_at, rules_ix_at=offset,
        shapes_ix_at=offset + 2 * count,
    )


class TestDetectionBatchMutations:
    @given(plain_frames, st.data())
    @settings(max_examples=300, deadline=None)
    def test_structural_mutations_raise(self, batch, data):
        pushed = BinaryDetectionBatch.pack(batch)
        assert isinstance(pushed, BinaryDetectionBatch)
        body = bytearray(pushed.body)
        at = _detbatch_layout(body)
        kind = data.draw(st.sampled_from([
            "truncate", "extend", "count", "rule-table", "string-table",
            "shapes", "key-index", "type-code", "rule-index", "shape-index",
        ]))
        if kind == "truncate":
            body = body[: data.draw(st.integers(0, len(body) - 1))]
        elif kind == "extend":
            body += data.draw(st.binary(min_size=1, max_size=8))
        elif kind == "count":
            value = data.draw(st.integers(0, 2**32 - 1).filter(
                lambda v: v != at["count"]))
            struct.pack_into("!I", body, 0, value)
        elif kind == "rule-table":
            value = data.draw(st.integers(0, 0xFFFF).filter(
                lambda v: v != at["n_rules"]))
            struct.pack_into("!H", body, 4, value)
        elif kind == "string-table":
            value = data.draw(st.integers(0, 2**32 - 1).filter(
                lambda v: v != at["n_strings"]))
            struct.pack_into("!I", body, at["strings_at"], value)
        elif kind == "shapes":
            value = data.draw(st.integers(0, 0xFFFF).filter(
                lambda v: v != at["n_shapes"]))
            struct.pack_into("!H", body, at["shapes_at"], value)
        elif kind == "key-index":
            value = data.draw(st.integers(at["n_strings"], 2**32 - 1))
            struct.pack_into("!I", body, at["keys_at"], value)
        elif kind == "type-code":
            body[at["codes_at"]] = data.draw(
                st.integers(0, 255).filter(lambda v: v not in b"sd"))
        elif kind == "rule-index":
            value = data.draw(st.integers(at["n_rules"], 0xFFFF))
            struct.pack_into("!H", body, at["rules_ix_at"], value)
        else:
            value = data.draw(st.integers(at["n_shapes"], 0xFFFF))
            struct.pack_into("!H", body, at["shapes_ix_at"], value)
        with pytest.raises(FrameError):
            BinaryDetectionBatch.decode_body(bytes(body))

    @given(plain_frames, st.data())
    @settings(max_examples=200, deadline=None)
    def test_flipped_bits_never_decode(self, batch, data):
        wire = bytearray(encode_frame(BinaryDetectionBatch.pack(batch)))
        bit = data.draw(st.integers(0, 8 * len(wire) - 1))
        wire[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(FrameError):
            decode_frame(bytes(wire))


# -- the WAL batch record ---------------------------------------------------------

readings = st.lists(
    st.builds(
        Observation,
        st.sampled_from(["r1", "r2", "dock-é"]),
        plain,
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=6,
)


def _batch_layout(body, has_client):
    """Offsets of the batch-record fields a mutation aims at."""
    offset = 6
    client_len_at = None
    if has_client:
        client_len_at = offset
        (length,) = struct.unpack_from("<H", body, offset)
        offset += 2 + length
    columns_at = offset
    count, = struct.unpack_from("!I", body, columns_at + 8)
    n_readers, n_objects = struct.unpack_from("!HI", body, columns_at + 12)
    (blob,) = struct.unpack_from("!I", body, columns_at + 18)
    objects_at = columns_at + 22 + blob
    (blob,) = struct.unpack_from("!I", body, objects_at)
    readers_ix_at = objects_at + 4 + blob
    return dict(
        count=count, client_len_at=client_len_at, columns_at=columns_at,
        n_readers=n_readers, n_objects=n_objects, readers_ix_at=readers_ix_at,
        objects_ix_at=readers_ix_at + 2 * count,
    )


def _segment(directory, records):
    """Write framed ``(seq, body)`` records as one segment."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, wal_module.segment_name(0)), "wb") as handle:
        for seq, body in records:
            handle.write(wal_module._frame_body(seq, body))


def _segment_bytes(directory, data):
    with open(os.path.join(directory, wal_module.segment_name(0)), "wb") as handle:
        handle.write(data)


def _expanded(directory):
    return [
        (r.seq, r.payload, r.observation, r.client) for r in read_wal(directory)
    ]


class TestBatchRecordMutations:
    @given(readings, st.booleans(), st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_structural_mutations_raise(self, batch, has_client, tail, data):
        client_seqs = range(5, 5 + len(batch))
        body = wal_module._batch_body(
            batch, "cli" if has_client else None, client_seqs
        )
        assert body is not None and body[0] == wal_module.BATCH_TAG
        body = bytearray(body)
        at = _batch_layout(body, has_client)
        kinds = [
            "truncate", "extend", "head-count", "flags", "columns-count",
            "reader-table", "object-table", "reader-index", "object-index",
        ]
        if has_client:
            kinds.append("client-length")
        kind = data.draw(st.sampled_from(kinds))
        if kind == "truncate":
            body = body[: data.draw(st.integers(0, len(body) - 1))]
        elif kind == "extend":
            body += data.draw(st.binary(min_size=1, max_size=8))
        elif kind == "head-count":
            value = data.draw(st.integers(0, 2**32 - 1).filter(
                lambda v: v != at["count"]))
            struct.pack_into("<I", body, 2, value)
        elif kind == "flags":
            body[1] = data.draw(st.integers(0, 255).filter(
                lambda v: v != body[1]))
        elif kind == "columns-count":
            value = data.draw(st.integers(0, 2**32 - 1).filter(
                lambda v: v != at["count"]))
            struct.pack_into("!I", body, at["columns_at"] + 8, value)
        elif kind == "reader-table":
            value = data.draw(st.integers(0, 0xFFFF).filter(
                lambda v: v != at["n_readers"]))
            struct.pack_into("!H", body, at["columns_at"] + 12, value)
        elif kind == "object-table":
            value = data.draw(st.integers(0, 2**32 - 1).filter(
                lambda v: v != at["n_objects"]))
            struct.pack_into("!I", body, at["columns_at"] + 14, value)
        elif kind == "reader-index":
            value = data.draw(st.integers(at["n_readers"], 0xFFFF))
            struct.pack_into("!H", body, at["readers_ix_at"], value)
        elif kind == "object-index":
            value = data.draw(st.integers(at["n_objects"], 2**32 - 1))
            struct.pack_into("!I", body, at["objects_ix_at"], value)
        else:
            value = data.draw(st.integers(0, 0xFFFF).filter(
                lambda v: v != len("cli")))
            struct.pack_into("<H", body, at["client_len_at"], value)
        # A CRC-valid record that does not decode is corruption, wherever
        # it sits: mid-log or as the final record.
        records = [(0, bytes(body))]
        if not tail:
            records.append((100, b'{"k":"f"}'))
        with tempfile.TemporaryDirectory() as directory:
            _segment(directory, records)
            with pytest.raises(WalError):
                _expanded(directory)

    @given(readings, st.data())
    @settings(max_examples=200, deadline=None)
    def test_flipped_bits_fail_closed(self, batch, data):
        body = wal_module._batch_body(batch, "cli", range(len(batch)))
        record = bytearray(wal_module._frame_body(0, body))
        bit = data.draw(st.integers(0, 8 * len(record) - 1))
        record[bit // 8] ^= 1 << (bit % 8)
        marker = wal_module._frame_body(100, b'{"k":"f"}')
        # Mid-log or as the final record, the damage is corruption or a
        # torn tail (a flipped length pointing past the end): the log
        # raises or ends before it — never other readings.
        for segment in (bytes(record) + marker, bytes(record)):
            with tempfile.TemporaryDirectory() as directory:
                _segment_bytes(directory, segment)
                try:
                    entries = _expanded(directory)
                except WalError:
                    entries = []
                assert entries == []

    def test_old_segments_read_with_batch_records_after_them(self, tmp_path):
        """A log of per-record JSON records — all a log held before batch
        records existed — is read by the same reader, and a revived
        engine appends batch records after it."""
        stream = [Observation("r1", f"o{i}", float(i)) for i in range(6)]
        directory = str(tmp_path / "state")
        with wal_module.WalWriter(os.path.join(directory, "wal")) as wal:
            wal.append_many([
                (seq, dict(encode_observation(o), c=["old", seq]))
                for seq, o in enumerate(stream[:3])
            ])
        durable, report = DurableEngine.recover(lambda: _build_engine([]), directory)
        with durable:
            assert report.replayed_records == 3
            assert durable.client_frontiers == {"old": 2}
            durable.submit_many(stream[3:], client=("old", 3))
        entries = list(read_wal(os.path.join(directory, "wal")))
        assert [r.seq for r in entries] == list(range(6))
        assert [r.payload is None for r in entries] == [False] * 3 + [True] * 3
        assert [r.client for r in entries[3:]] == [("old", 3), ("old", 4), ("old", 5)]
        assert [r.observation for r in entries[3:]] == stream[3:]

    def test_unknown_record_kind_is_refused(self, tmp_path):
        directory = str(tmp_path / "wal")
        _segment(directory, [(0, b"Z\x00\x01"), (1, b'{"k":"f"}')])
        with pytest.raises(WalError, match="not JSON"):
            _expanded(directory)

    def test_start_after_inside_a_batch_record(self, tmp_path):
        stream = [Observation("r1", f"o{i}", float(i)) for i in range(5)]
        directory = str(tmp_path / "wal")
        with wal_module.WalWriter(directory) as wal:
            wal.append_encoded(wal_module.encode_batch(
                10, stream, encode_observation, "c", range(0, 5)
            ))
            assert wal.last_seq == 14
        entries = list(read_wal(directory, start_after=12))
        assert [(r.seq, r.client) for r in entries] == [(13, ("c", 3)), (14, ("c", 4))]
        assert [r.observation for r in entries] == stream[3:]


# -- the relay frame: a WAL batch record on the wire --------------------------------


@st.composite
def relayed(draw):
    """A relayed sub-batch: link seq, readings, ascending gapped seqs."""
    batch = draw(readings)
    gaps = draw(st.lists(st.integers(1, 2**20), min_size=len(batch),
                         max_size=len(batch)))
    seqs, seq = [], draw(st.integers(0, 2**20))
    for gap in gaps:
        seqs.append(seq)
        seq += gap
    return draw(st.integers(0, 2**40)), tuple(batch), ("cli", tuple(seqs))


class TestRelayBatchMutations:
    @given(relayed())
    @settings(max_examples=100, deadline=None)
    def test_round_trips_as_the_wal_batch_record(self, relay):
        seq, batch, prov = relay
        frame = RelayBatch(seq, batch, prov)
        assert decode_frame(encode_frame(frame))[0] == frame
        # The same body the WAL logs for these readings, but for the
        # first-seq field: the link seq here, 0 beside a seq column there.
        body = frame.encode_body()
        logged = wal_module._batch_body(batch, *prov)
        columns_at = 6 + 2 + len("cli")
        assert body[:columns_at] == logged[:columns_at]
        assert body[columns_at + 8 :] == logged[columns_at + 8 :]

    @given(relayed(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_structural_mutations_raise(self, relay, data):
        seq, batch, prov = relay
        body = bytearray(RelayBatch(seq, batch, prov).encode_body())
        at = _batch_layout(body, True)
        seqs_at = len(body) - 8 * len(batch)
        kinds = [
            "truncate", "extend", "tag", "head-count", "flags",
            "columns-count", "reader-table", "object-table", "reader-index",
            "object-index", "client-length",
        ]
        if len(batch) > 1:
            kinds.append("seq-order")
        kind = data.draw(st.sampled_from(kinds))
        if kind == "truncate":
            body = body[: data.draw(st.integers(0, len(body) - 1))]
        elif kind == "extend":
            body += data.draw(st.binary(min_size=1, max_size=8))
        elif kind == "tag":
            body[0] = data.draw(st.integers(0, 255).filter(
                lambda v: v != wal_module.BATCH_TAG))
        elif kind == "head-count":
            value = data.draw(st.integers(0, 2**32 - 1).filter(
                lambda v: v != at["count"]))
            struct.pack_into("<I", body, 2, value)
        elif kind == "flags":
            body[1] = data.draw(st.integers(0, 255).filter(
                lambda v: v != body[1]))
        elif kind == "columns-count":
            value = data.draw(st.integers(0, 2**32 - 1).filter(
                lambda v: v != at["count"]))
            struct.pack_into("!I", body, at["columns_at"] + 8, value)
        elif kind == "reader-table":
            value = data.draw(st.integers(0, 0xFFFF).filter(
                lambda v: v != at["n_readers"]))
            struct.pack_into("!H", body, at["columns_at"] + 12, value)
        elif kind == "object-table":
            value = data.draw(st.integers(0, 2**32 - 1).filter(
                lambda v: v != at["n_objects"]))
            struct.pack_into("!I", body, at["columns_at"] + 14, value)
        elif kind == "reader-index":
            value = data.draw(st.integers(at["n_readers"], 0xFFFF))
            struct.pack_into("!H", body, at["readers_ix_at"], value)
        elif kind == "object-index":
            value = data.draw(st.integers(at["n_objects"], 2**32 - 1))
            struct.pack_into("!I", body, at["objects_ix_at"], value)
        elif kind == "client-length":
            value = data.draw(st.integers(0, 0xFFFF).filter(
                lambda v: v != len("cli")))
            struct.pack_into("<H", body, at["client_len_at"], value)
        else:
            index = data.draw(st.integers(1, len(batch) - 1))
            earlier = struct.unpack_from("<q", body, seqs_at + 8 * (index - 1))
            value = data.draw(st.integers(-(2**63), earlier[0]))
            struct.pack_into("<q", body, seqs_at + 8 * index, value)
        with pytest.raises(FrameError):
            RelayBatch.decode_body(bytes(body))

    @given(relayed(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_flipped_bits_never_decode(self, relay, data):
        wire = bytearray(encode_frame(RelayBatch(*relay)))
        bit = data.draw(st.integers(0, 8 * len(wire) - 1))
        wire[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(FrameError):
            decode_frame(bytes(wire))

    def test_a_body_without_provenance_is_refused(self):
        batch = [Observation("r1", "o1", 1.0)]
        for body in (pack_batch_record(0, batch), pack_batch_record(0, batch, "cli")):
            with pytest.raises(FrameError, match="no client seqs"):
                RelayBatch.decode_body(body)

    def test_json_fallback_refuses_what_the_columns_refuse(self):
        """The JSON ``BATCH`` relay checks its provenance the same way."""
        batch = (Observation("r1", "o1", 1.0), Observation("r1", "o2", 2.0))
        for seqs in ((4, 4), (5, 3), (1,)):
            wire = encode_frame(Batch(0, batch, ("cli", seqs)))
            with pytest.raises(FrameError):
                decode_frame(wire)


def _hostile_relay(kind):
    """A ``BRELAY`` frame with a valid CRC around a ``kind`` of bad body."""
    batch = [Observation("r1", f"o{i}", float(i)) for i in range(3)]
    body = bytearray(pack_batch_record(0, batch, "cli", (2, 5, 9)))
    if kind == "count":
        struct.pack_into("<I", body, 2, 4)
    elif kind == "seq-order":
        body = bytearray(pack_batch_record(0, batch, "cli", (2, 9, 5)))
    elif kind == "client-id":
        body = body[: 6 + 2 + 2]
    else:
        body += b"\0"
    typed = bytes((RelayBatch.TYPE,)) + bytes(body)
    return b"".join((
        struct.pack("!I", len(typed)), typed,
        struct.pack("!I", zlib.crc32(typed)),
    ))


@pytest.mark.parametrize(
    "kind", ["count", "seq-order", "client-id", "trailing"]
)
def test_hostile_relay_ends_the_worker_session_unapplied(tmp_path, kind):
    import asyncio

    from repro.serve import CepServer
    from repro.serve.protocol import ErrorFrame, FrameDecoder, Hello, Welcome

    with pytest.raises(FrameError):
        decode_frame(_hostile_relay(kind))

    async def scenario(durable):
        async with CepServer(durable) as server:
            reader, writer = server.connect_loopback()
            writer.write(encode_frame(Hello("router@s0")))
            writer.write(_hostile_relay(kind))
            await writer.drain()
            frames, decoder = [], FrameDecoder()
            while data := await asyncio.wait_for(reader.read(65536), 5):
                frames.extend(decoder.feed(data))
            return frames

    with DurableEngine(_drill_engine, str(tmp_path / "worker")) as durable:
        frames = asyncio.run(scenario(durable))
        assert [type(f) for f in frames] == [Welcome, ErrorFrame]
        assert frames[1].code == "frame"
        assert durable.next_seq == 0
        assert durable.client_frontiers == {}
    assert list(read_wal(str(tmp_path / "worker" / "wal"))) == []


def test_the_link_relays_columns_to_every_worker(tmp_path, monkeypatch):
    """The link sends packable sub-batches as ``BRELAY`` frames, and the
    worker logs every reading under its source seq."""
    import asyncio

    from repro.serve import CepServer
    from repro.serve.cluster import CepRouter, plan_cluster

    received = []
    handle_frame = CepServer._handle_frame

    async def spy(self, session, frame):
        received.append(type(frame))
        return await handle_frame(self, session, frame)

    monkeypatch.setattr(CepServer, "_handle_frame", spy)
    stream = _packing_stream(8, 7)
    plan = plan_cluster([containment_rule()], 1)
    (shard,) = plan.shard_plan.shard_names

    async def scenario(durable):
        worker = CepServer(durable)
        port = await worker.serve_tcp("127.0.0.1", 0)
        router = CepRouter(plan, {shard: ("127.0.0.1", port)})
        await router.start()
        try:
            for first in range(0, len(stream), 16):
                await router.submit_many(
                    stream[first : first + 16], client=("c", first)
                )
        finally:
            await router.close()
            await worker.close()

    with DurableEngine(_drill_engine, str(tmp_path / "worker")) as durable:
        asyncio.run(scenario(durable))
        assert durable.client_frontiers == {"c": len(stream) - 1}
    entries = list(read_wal(str(tmp_path / "worker" / "wal")))
    assert [r.client for r in entries] == [("c", i) for i in range(len(stream))]
    batches = {kind for kind in received if issubclass(kind, Batch)}
    assert batches == {RelayBatch}


# -- torn batch records -----------------------------------------------------------


def _drill_engine():
    return _build_engine([containment_rule(), location_rule()])


class TestTornBatchRecord:
    def test_torn_batch_record_is_truncated_and_resubmitted(self, tmp_path):
        """Two batches, the second torn mid-record: recovery keeps the
        first, drops every reading of the second, and resubmitting them
        gives the uninterrupted run's detections and deliveries."""
        stream = _packing_stream(8, 7)
        head, tail = stream[:20], stream[20:]
        deliveries, expected_deliveries = [], []

        def sink_into(target):
            return lambda det, seq, ordinal: target.append((seq, ordinal))

        with DurableEngine(
            _drill_engine, str(tmp_path / "base"),
            sink=sink_into(expected_deliveries),
        ) as base:
            expected = canon_detections(
                base.submit_many(head) + base.submit_many(tail) + base.flush()
            )
        directory = str(tmp_path / "drill")
        with DurableEngine(
            _drill_engine, directory, sink=sink_into(deliveries)
        ) as first:
            got = list(first.submit_many(head))
            first.submit_many(tail)  # its output is lost with the tear
        wal_dir = os.path.join(directory, "wal")
        _path, torn = tear_wal_tail(wal_dir, seed=3)
        assert torn > 0
        revived, report = DurableEngine.recover(
            _drill_engine, directory, sink=sink_into(deliveries)
        )
        with revived:
            assert report.next_seq == len(head)
            assert report.replayed_records == len(head)
            assert report.torn_bytes_truncated > 0
            got += revived.submit_many(stream[revived.next_seq :])
            got += revived.flush()
        assert canon_detections(got) == expected
        # The first life's acks for the torn readings suppress their
        # redelivery: every delivery ran exactly once.
        assert sorted(deliveries) == sorted(expected_deliveries)

    def test_kill_and_restore_run_resubmits_a_torn_tail(self, tmp_path):
        stream = _packing_stream(8, 7)
        with DurableEngine(_drill_engine, str(tmp_path / "base")) as base:
            expected = canon_detections(list(base.run(stream)))
        directory = str(tmp_path / "drill")

        def recover():
            tear_wal_tail(os.path.join(directory, "wal"), seed=5)
            revived, report = DurableEngine.recover(_drill_engine, directory)
            assert report.torn_bytes_truncated > 0
            assert report.next_seq == 29
            return revived

        detections, revived = kill_and_restore_run(
            lambda: DurableEngine(_drill_engine, directory),
            stream, 30, recover=recover,
        )
        revived.close()
        assert canon_detections(detections) == expected



# -- who receives columns ----------------------------------------------------------


def _columnar(peer):
    """The detections a raw peer received in BDETBATCH frames."""
    return [
        detection
        for frame in peer.frames
        if isinstance(frame, BinaryDetectionBatch)
        for detection in frame.detections
    ]


class TestBinaryPushSessions:
    def test_every_subscriber_gets_columns(self):
        """Every subscriber is pushed BDETBATCH, whatever its HELLO
        offers — the capabilities once read are ignored keys now — with
        equal detections all round."""
        import asyncio

        from repro.serve import AsyncClient, CepServer, loopback_connector
        from repro.serve.protocol import Hello, Subscribe, Welcome
        from tests.test_serve_codecs import (
            RawPeer,
            canon_engine,
            canon_frames,
            packing_stream,
            plain_engine,
        )

        stream = packing_stream(cases=4, seed=9)
        expected = canon_engine(plain_engine().run(stream))
        capabilities = {
            "columns": {"codecs": ["binary"], "batch_push": True,
                        "binary_push": True},
            "json-codec": {"codecs": ["json"], "batch_push": True,
                           "binary_push": True},
            "older": {"codecs": ["binary"], "batch_push": True},
        }

        async def scenario():
            async with CepServer(plain_engine()) as server:
                peers = {}
                for name, offered in capabilities.items():
                    peer = peers[name] = RawPeer(server)
                    await peer.send(Hello(client_id=name, capabilities=offered))
                    await peer.pump_until(
                        lambda p=peer: any(isinstance(f, Welcome) for f in p.frames)
                    )
                    await peer.send(Subscribe())
                ingest = AsyncClient(
                    loopback_connector(server), batch_size=256, subscribe=True
                )
                async with ingest:
                    await ingest.submit_many(stream)
                    await ingest.flush(timeout=10)
                    for peer in peers.values():
                        await peer.pump_until(
                            lambda p=peer: len(p.detections) >= len(expected)
                        )
                    return peers, list(ingest.detections)

        peers, client_detections = asyncio.run(scenario())
        for peer in peers.values():
            assert canon_frames(_columnar(peer)) == expected
            assert _columnar(peer) == peer.detections
        assert canon_frames(client_detections) == expected
