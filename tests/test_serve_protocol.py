"""Wire-protocol tests: frame round-trips, corruption, incremental decode."""

import json
import random
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Observation
from repro.serve import (
    MAX_FRAME_BYTES,
    Ack,
    Batch,
    Bye,
    DetectionFrame,
    ErrorFrame,
    Flush,
    FrameDecoder,
    FrameError,
    Hello,
    Ping,
    Pong,
    Subscribe,
    Welcome,
    decode_frame,
    encode_frame,
    get_codec,
)
from repro.serve.protocol import (
    decode_observation_payload,
    encode_observation_payload,
)

OBS = Observation("reader-1", "urn:epc:item:1", 12.5)

ALL_FRAMES = [
    Hello(client_id="c1", resume_from=41),
    Welcome(session_id="s9", next_seq=42),
    Batch(seq=3, observations=(OBS, Observation("r2", "o2", 13.0, {"k": 1}))),
    Ack(seq=99),
    Flush(seq=100),
    Subscribe(rules=("r1", "r2")),
    Subscribe(rules=None),
    DetectionFrame(rule="r1", time=20.0, bindings={"o1": "x"}, seq=5, ordinal=2),
    ErrorFrame(code="sequence", message="got 7, expected 3"),
    ErrorFrame(code="overloaded", message="queue full", retry_after=2.5),
    Ping(token=17),
    Pong(token=17),
    Bye(),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "frame", ALL_FRAMES, ids=lambda f: type(f).__name__
    )
    def test_every_frame_type_round_trips(self, frame):
        data = encode_frame(frame)
        decoded, consumed = decode_frame(data)
        assert decoded == frame
        assert consumed == len(data)

    def test_observation_extra_survives(self):
        observation = Observation("r", "o", 1.0, {"temp": 21.5})
        payload = encode_observation_payload(observation)
        back = decode_observation_payload(payload)
        assert back.extra == {"temp": 21.5}
        assert back.reader == "r" and back.timestamp == 1.0

    def test_frames_concatenate(self):
        blob = b"".join(encode_frame(frame) for frame in ALL_FRAMES)
        out = []
        while blob:
            frame, consumed = decode_frame(blob)
            out.append(frame)
            blob = blob[consumed:]
        assert out == ALL_FRAMES

    @given(
        seq=st.integers(min_value=0, max_value=2**53),
        reader=st.text(min_size=1, max_size=20),
        obj=st.text(min_size=1, max_size=20),
        timestamp=st.floats(
            allow_nan=False, allow_infinity=False, width=32
        ),
    )
    def test_submit_round_trips_any_observation(
        self, seq, reader, obj, timestamp
    ):
        frame = Batch(seq=seq, observations=(Observation(reader, obj, timestamp),))
        decoded, _ = decode_frame(encode_frame(frame))
        assert decoded == frame


class TestCorruption:
    def test_crc_mismatch_rejected(self):
        data = bytearray(encode_frame(Ack(seq=5)))
        data[6] ^= 0xFF  # flip a payload bit; the CRC no longer matches
        with pytest.raises(FrameError, match="CRC"):
            decode_frame(bytes(data))

    def test_unknown_frame_type_rejected(self):
        body = bytes((0x7F,)) + b"{}"
        data = (
            struct.pack("!I", len(body))
            + body
            + struct.pack("!I", __import__("zlib").crc32(body))
        )
        with pytest.raises(FrameError, match="unknown frame type"):
            decode_frame(data)

    def test_truncated_header_rejected(self):
        with pytest.raises(FrameError, match="incomplete"):
            decode_frame(b"\x00\x00")

    def test_truncated_body_rejected(self):
        data = encode_frame(Bye())
        with pytest.raises(FrameError, match="incomplete"):
            decode_frame(data[:-3])

    def test_bogus_length_rejected(self):
        data = struct.pack("!I", MAX_FRAME_BYTES + 1) + b"\x00" * 16
        with pytest.raises(FrameError, match="out of bounds"):
            decode_frame(data)

    def test_oversize_frame_refused_at_encode(self):
        frame = ErrorFrame(code="x", message="y" * (MAX_FRAME_BYTES + 1))
        with pytest.raises(FrameError, match="MAX_FRAME_BYTES"):
            encode_frame(frame)

    def test_unserializable_payload_refused(self):
        frame = DetectionFrame(rule="r", time=0.0, bindings={"bad": object()})
        with pytest.raises(FrameError, match="not JSON-serializable"):
            encode_frame(frame)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_refused_at_encode(self, value):
        # json.dumps would emit NaN/Infinity tokens only Python's parser
        # accepts, breaking the debuggable-JSON wire contract for other
        # peers — reject them before they reach the wire.
        frame = Batch(seq=0, observations=(Observation("r", "o", value),))
        with pytest.raises(FrameError, match="not JSON-serializable"):
            encode_frame(frame)

    def test_malformed_payload_rejected(self):
        body = bytes((Ack.TYPE,)) + json.dumps({"wrong": 1}).encode()
        data = (
            struct.pack("!I", len(body))
            + body
            + struct.pack("!I", __import__("zlib").crc32(body))
        )
        with pytest.raises(FrameError, match="malformed Ack"):
            decode_frame(data)

    def test_malformed_observation_payload_rejected(self):
        with pytest.raises(FrameError, match="malformed observation"):
            decode_observation_payload({"r": "only-a-reader"})


class TestFrameDecoder:
    def test_byte_at_a_time(self):
        blob = b"".join(encode_frame(frame) for frame in ALL_FRAMES)
        decoder = FrameDecoder()
        out = []
        for index in range(len(blob)):
            out.extend(decoder.feed(blob[index : index + 1]))
        assert out == ALL_FRAMES
        assert decoder.frames_decoded == len(ALL_FRAMES)
        assert decoder.bytes_consumed == len(blob)
        assert decoder.pending_bytes == 0

    def test_many_frames_in_one_chunk(self):
        blob = b"".join(encode_frame(Ack(seq=i)) for i in range(50))
        decoder = FrameDecoder()
        frames = list(decoder.feed(blob))
        assert [frame.seq for frame in frames] == list(range(50))

    def test_partial_frame_is_buffered_not_raised(self):
        data = encode_frame(Welcome(session_id="s", next_seq=3))
        decoder = FrameDecoder()
        assert list(decoder.feed(data[:5])) == []
        assert decoder.pending_bytes == 5
        assert list(decoder.feed(data[5:])) == [
            Welcome(session_id="s", next_seq=3)
        ]

    def test_corruption_raises_mid_stream(self):
        good = encode_frame(Ack(seq=1))
        bad = bytearray(encode_frame(Ack(seq=2)))
        bad[-1] ^= 0xFF
        decoder = FrameDecoder()
        with pytest.raises(FrameError):
            list(decoder.feed(good + bytes(bad)))

    @given(st.integers(min_value=1, max_value=64))
    def test_arbitrary_chunking(self, chunk):
        blob = b"".join(encode_frame(frame) for frame in ALL_FRAMES)
        decoder = FrameDecoder()
        out = []
        for start in range(0, len(blob), chunk):
            out.extend(decoder.feed(blob[start : start + chunk]))
        assert out == ALL_FRAMES


class TestRetryAfterCompat:
    def test_absent_retry_after_stays_absent_on_the_wire(self):
        # The hint must not appear at all when unset: the ERROR payload
        # stays the closed two-key dict every peer has always parsed.
        frame = ErrorFrame(code="frame", message="bad crc")
        payload = json.loads(encode_frame(frame)[5:-4].decode())
        assert "retry_after" not in payload
        decoded, _ = decode_frame(encode_frame(frame))
        assert decoded.retry_after is None

    def test_retry_after_round_trips(self):
        frame = ErrorFrame(code="overloaded", message="busy", retry_after=0.25)
        decoded, _ = decode_frame(encode_frame(frame))
        assert decoded.retry_after == 0.25


def _encode_batch(layout, seq, chunk):
    """One batch's bytes: the codec's (``binary``, columns with the JSON
    fallback) or an all-JSON ``BATCH`` (``json``)."""
    if layout == "json":
        return encode_frame(Batch(seq, tuple(chunk)))
    return get_codec("binary").encode_batch(seq, chunk)


def _ingest_stream(layout, observations, batch=5):
    """A realistic client byte stream: HELLO, batches, FLUSH, BYE."""
    blob = bytearray(encode_frame(Hello(client_id="frag", resume_from=-1)))
    seq = 0
    for start in range(0, len(observations), batch):
        chunk = observations[start : start + batch]
        blob += _encode_batch(layout, seq, chunk)
        seq += len(chunk)
    blob += encode_frame(Flush(seq=seq))
    blob += encode_frame(Bye())
    return bytes(blob)


def _decoded_observations(frames):
    out = []
    for frame in frames:
        if isinstance(frame, Batch):
            out.extend(frame.observations)
    return out


_FRAG_OBSERVATIONS = [
    Observation(f"reader-{i % 3}", f"urn:epc:item:{i}", float(i)) for i in range(23)
] + [
    # One batch the binary codec cannot pack — exercises the JSON
    # fallback frame inside a binary stream.
    Observation("reader-x", "urn:epc:item:x", 99.0, {"temp": 21.5})
]


class TestAdversarialFragmentation:
    """The decoder must survive any split the network can produce.

    This is the unit-level face of the chaos drill: `ChaosProxy`
    fragments live traffic at arbitrary byte offsets, and every split
    must yield the same frames — or a clean `FrameError`, never a
    wrong frame.
    """

    @pytest.mark.parametrize("layout", ["json", "binary"])
    def test_byte_at_a_time(self, layout):
        blob = _ingest_stream(layout, _FRAG_OBSERVATIONS)
        decoder = FrameDecoder()
        frames = []
        for index in range(len(blob)):
            frames.extend(decoder.feed(blob[index : index + 1]))
        assert _decoded_observations(frames) == _FRAG_OBSERVATIONS
        assert decoder.pending_bytes == 0

    @pytest.mark.parametrize("layout", ["json", "binary"])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_seeded_random_splits(self, layout, seed):
        blob = _ingest_stream(layout, _FRAG_OBSERVATIONS)
        rng = random.Random(seed)
        decoder = FrameDecoder()
        frames = []
        start = 0
        while start < len(blob):
            end = min(len(blob), start + rng.randint(1, 97))
            frames.extend(decoder.feed(blob[start:end]))
            start = end
        assert _decoded_observations(frames) == _FRAG_OBSERVATIONS
        assert decoder.pending_bytes == 0

    @pytest.mark.parametrize("layout", ["json", "binary"])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_corrupt_frame_mid_stream_never_decodes_wrong(
        self, layout, seed
    ):
        # Flip one payload byte of a mid-stream frame, then feed the
        # whole blob in random fragments: every frame decoded before
        # the corruption must be genuine, and the corrupt frame must
        # surface as FrameError — not as an altered observation.
        rng = random.Random(seed)
        pieces = [encode_frame(Hello(client_id="frag", resume_from=-1))]
        seq = 0
        for start in range(0, len(_FRAG_OBSERVATIONS), 5):
            chunk = _FRAG_OBSERVATIONS[start : start + 5]
            pieces.append(_encode_batch(layout, seq, chunk))
            seq += len(chunk)
        victim = rng.randrange(1, len(pieces))
        corrupted = bytearray(pieces[victim])
        # Flip inside the body (skip the 4-byte length prefix and the
        # type byte) so the length field stays sane and the CRC check
        # is what must catch it.
        corrupted[rng.randrange(5, len(corrupted) - 4)] ^= 0xFF
        pieces[victim] = bytes(corrupted)
        blob = b"".join(pieces)
        good_prefix = _decoded_observations(
            FrameDecoder().feed(b"".join(pieces[:victim]))
        )
        decoder = FrameDecoder()
        frames = []
        start = 0
        with pytest.raises(FrameError):
            while start < len(blob):
                end = min(len(blob), start + rng.randint(1, 97))
                frames.extend(decoder.feed(blob[start:end]))
                start = end
        seen = _decoded_observations(frames)
        assert seen == good_prefix[: len(seen)]
        for observation in seen:
            assert observation in _FRAG_OBSERVATIONS
