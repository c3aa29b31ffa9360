"""Wire-codec tests: the one session shape, binary layout, mixed frames.

Covers the ingest codec end to end:

* the one codec name, and handshakes that fail closed: another protocol
  version, a retired frame type, an offer of another codec;
* ``BBATCH`` round-trips for arbitrary unicode ids (property-style),
  the JSON fallback for unpackable batches, and decode hardening;
* a mixed-frame soak: a client whose readings carry ``extra`` (so every
  batch it sends is a JSON ``BATCH``) and a ``BBATCH`` client sharing
  one durable server across a crash/recover cycle, with identical
  detections and exactly-once frontiers for both;
* the engine-side :class:`SubmitResult` compatibility contract and the
  client's chunk-granular unacked buffer.
"""

import asyncio
import math
import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, Observation
from repro.apps import containment_rule, location_rule
from repro.core.detector import FunctionRegistry, SubmitResult
from repro.core.sharding import ShardedEngine
from repro.resilience.durability import DurableEngine
from repro.serve import (
    PROTOCOL_VERSION,
    Ack,
    AsyncClient,
    Batch,
    BinaryBatch,
    CepServer,
    ErrorFrame,
    Flush,
    FrameDecoder,
    FrameError,
    Hello,
    Subscribe,
    Welcome,
    encode_frame,
    get_codec,
    loopback_connector,
)
from repro.serve.client import _FLUSH
from repro.serve.protocol import BinaryDetectionBatch, received_frames
from repro.simulator import PackingConfig, simulate_packing
from repro.store import RfidStore


def packing_stream(cases=5, seed=3):
    trace = simulate_packing(PackingConfig(cases=cases), rng=random.Random(seed))
    return trace.observations


def build_rules():
    return [containment_rule(), location_rule()]


def plain_engine():
    return Engine(build_rules(), store=RfidStore(), functions=FunctionRegistry())


def canon_engine(detections):
    return [
        (d.rule.rule_id, round(d.time, 9), tuple(sorted(d.bindings.items())))
        for d in detections
    ]


def canon_frames(frames):
    return [
        (f.rule, round(f.time, 9), tuple(sorted(f.bindings.items())))
        for f in frames
    ]


def decode_one(data: bytes):
    frames = list(FrameDecoder().feed(data))
    assert len(frames) == 1, frames
    return frames[0]


async def eventually(predicate, timeout=5.0, message="condition not reached"):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError(message)
        await asyncio.sleep(0.01)


def json_batch(seq, observations):
    """The JSON ``BATCH`` bytes of a batch: the codec's fallback."""
    return encode_frame(Batch(seq, tuple(observations)))


# -- one codec, one session shape ----------------------------------------------


class TestCodecRegistry:
    def test_builtin_codecs_registered(self):
        assert get_codec("binary").name == "binary"
        with pytest.raises(FrameError, match="unknown wire codec"):
            get_codec("json")

    def test_unknown_codec_rejected(self):
        with pytest.raises(FrameError, match="unknown wire codec"):
            get_codec("brotli-ultra")

    def test_client_rejects_typo_codec_at_construction(self):
        with pytest.raises(ValueError, match="unknown wire codec"):
            AsyncClient(lambda: None, codec="binray")
        with pytest.raises(ValueError, match="unknown wire codec"):
            AsyncClient(lambda: None, codec="json")


class TestHandshakeFailsClosed:
    """A peer that is not a protocol-3 peer is refused before it is
    applied anything or pushed anything it did not ask for."""

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_protocol_version_is_refused(self, version, tmp_path):
        """``ERROR version`` naming protocol 3 is the only answer, and
        the batch and flush behind the HELLO are never applied or
        logged."""
        stream = packing_stream(cases=1)
        directory = str(tmp_path / "durable")

        async def scenario():
            durable = DurableEngine(plain_engine, directory)
            try:
                async with CepServer(durable) as server:
                    peer = RawPeer(server)
                    await peer.send(
                        Hello(client_id="old", version=version),
                        Batch(0, tuple(stream[:4])),
                        Flush(seq=4),
                    )
                    await peer.pump_until(lambda: peer.frames)
                    return peer.frames, server.stats.submitted
            finally:
                durable.close()

        frames, submitted = asyncio.run(scenario())
        (error,) = frames
        assert isinstance(error, ErrorFrame) and error.code == "version"
        assert f"protocol {PROTOCOL_VERSION}" in error.message
        assert submitted == 0
        recovered, report = DurableEngine.recover(plain_engine, directory)
        try:
            assert report.replayed_records == 0
            assert recovered.client_frontiers == {}
        finally:
            recovered.close()

    def test_retired_submit_frame_type_is_refused(self):
        """Type 0x03 (the single-observation SUBMIT of older protocols)
        decodes as unknown: ``ERROR frame``, nothing applied."""
        body = b'{"seq":0,"obs":{"r":"r1","o":"o1","t":1.0}}'
        crc = zlib.crc32(bytes((0x03,)) + body)
        raw = (
            struct.pack("!I", 1 + len(body)) + bytes((0x03,)) + body
            + struct.pack("!I", crc)
        )

        async def scenario():
            engine = plain_engine()
            async with CepServer(engine) as server:
                peer = RawPeer(server)
                await peer.send(Hello(client_id="submitter"))
                peer.writer.write(raw)
                await peer.writer.drain()
                await peer.pump_until(
                    lambda: any(isinstance(f, ErrorFrame) for f in peer.frames)
                )
                return peer, server, engine

        peer, server, engine = asyncio.run(scenario())
        welcome, error = peer.frames
        assert isinstance(welcome, Welcome)
        assert welcome.capabilities == {"max_batch": 8192}
        assert error.code == "frame"
        assert "unknown frame type 0x03" in error.message
        assert server.stats.submitted == 0
        assert engine.stats.observations == 0

    def test_a_json_codec_offer_still_gets_columns(self):
        """Capabilities are an open dict the server does not read: a
        HELLO offering only JSON is pushed ``BDETBATCH`` like any peer."""
        stream = packing_stream(cases=4, seed=9)
        expected = canon_engine(plain_engine().run(stream))

        async def scenario():
            async with CepServer(plain_engine()) as server:
                watcher = RawPeer(server)
                await watcher.send(
                    Hello(
                        client_id="watcher",
                        capabilities={"codecs": ["json"], "batch_push": False},
                    ),
                    Subscribe(),
                )
                ingest = AsyncClient(loopback_connector(server), batch_size=256)
                async with ingest:
                    await ingest.submit_many(stream)
                    await ingest.flush(timeout=10)
                await watcher.pump_until(
                    lambda: len(watcher.detections) >= len(expected)
                )
                return watcher

        watcher = asyncio.run(scenario())
        assert canon_frames(watcher.detections) == expected
        pushes = [f for f in watcher.frames if received_frames(f)]
        assert pushes
        assert {type(f) for f in pushes} == {BinaryDetectionBatch}


# -- the binary layout ---------------------------------------------------------


ids = st.text(
    alphabet=st.characters(blacklist_characters="\0", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=24,
)


class TestBinaryBatchRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                ids,
                ids,
                st.floats(
                    allow_nan=False, allow_infinity=False, width=64
                ),
            ),
            min_size=1,
            max_size=20,
        ),
        seq=st.integers(min_value=0, max_value=2**63),
        layout=st.sampled_from(["json", "binary"]),
    )
    def test_any_unicode_ids_round_trip(self, rows, seq, layout):
        """Reader/object ids — ASCII, CJK, emoji, whatever — survive the
        wire bit-exactly in columns and in the JSON fallback (satellite:
        the non-ASCII id round-trip fix)."""
        observations = [Observation(r, o, t) for r, o, t in rows]
        if layout == "json":
            data = json_batch(seq, observations)
        else:
            data = get_codec("binary").encode_batch(seq, observations)
        frame = decode_one(data)
        decoded = list(frame.observations)
        assert [(d.reader, d.obj) for d in decoded] == [
            (r, o) for r, o, _t in rows
        ]
        assert [d.timestamp for d in decoded] == [t for _r, _o, t in rows]
        assert frame.seq == seq

    def test_non_ascii_ids_end_to_end(self):
        """The same ids through a live server: what is acked is what the
        engine saw, in columns and in the JSON fallback (readings with
        an ``extra`` payload)."""
        exotic = [
            Observation("читатель-1", "objé-α", 1.0),
            Observation("読み取り機", "🏷️-tag", 2.0),
            Observation("reader‮bidi", "obßject", 3.0),
        ]

        async def scenario(observations):
            engine = plain_engine()
            seen = []
            original = engine.submit_many

            def spy(observations, *args, **kwargs):
                seen.extend(observations)
                return original(observations, *args, **kwargs)

            engine.submit_many = spy
            async with CepServer(engine) as server:
                client = AsyncClient(loopback_connector(server))
                async with client:
                    await client.submit_many(observations)
                    await client.flush(timeout=10)
            return [(o.reader, o.obj, o.timestamp) for o in seen]

        want = [(o.reader, o.obj, o.timestamp) for o in exotic]
        assert asyncio.run(scenario(exotic)) == want
        tagged = [
            Observation(o.reader, o.obj, o.timestamp, {"rssi": -40})
            for o in exotic
        ]
        assert asyncio.run(scenario(tagged)) == want

    def test_binary_is_smaller_than_json(self):
        # Unique tags: the id strings dominate, but the framing still wins.
        unique = [
            Observation(f"dock-{i % 3}", f"urn:epc:id:sgtin:{i:012d}", float(i))
            for i in range(200)
        ]
        binary = get_codec("binary").encode_batch(0, unique)
        as_json = json_batch(0, unique)
        assert isinstance(decode_one(binary), BinaryBatch)
        assert len(binary) < len(as_json)
        # Re-read tags (portals see the same cases repeatedly): interning
        # ships each id once and the batch shrinks by multiples.
        reread = [
            Observation(f"dock-{i % 3}", f"urn:epc:id:sgtin:{i % 8:012d}", float(i))
            for i in range(200)
        ]
        binary = get_codec("binary").encode_batch(0, reread)
        as_json = json_batch(0, reread)
        assert len(binary) < len(as_json) // 3


class TestBinaryFallback:
    def test_nul_id_falls_back_to_json_batch(self):
        observations = [
            Observation("r\0eader", "o1", 1.0),
            Observation("r2", "o2", 2.0),
        ]
        frame = decode_one(get_codec("binary").encode_batch(5, observations))
        assert type(frame) is Batch
        assert frame.seq == 5
        assert [o.reader for o in frame.observations] == ["r\0eader", "r2"]

    def test_single_unpackable_falls_back_to_batch(self):
        frame = decode_one(
            get_codec("binary").encode_batch(
                9, [Observation("r", "o", 1.0, {"weight": 3})]
            )
        )
        assert type(frame) is Batch
        assert frame.seq == 9
        (observation,) = frame.observations
        assert observation.extra == {"weight": 3}

    def test_extra_payload_falls_back_and_survives(self):
        observations = [
            Observation("r1", "o1", 1.0, {"rssi": -40}),
            Observation("r2", "o2", 2.0),
        ]
        frame = decode_one(get_codec("binary").encode_batch(0, observations))
        assert type(frame) is Batch
        assert frame.observations[0].extra == {"rssi": -40}

    def test_non_finite_timestamp_fails_like_json(self):
        bad = [Observation("r", "o", math.inf), Observation("r", "o", 1.0)]
        with pytest.raises(FrameError):
            get_codec("binary").encode_batch(0, bad)
        with pytest.raises(FrameError):
            json_batch(0, bad)


class TestBinaryBatchDecodeHardening:
    def valid_body(self, n=3):
        observations = [
            Observation(f"r{i}", f"o{i}", float(i)) for i in range(n)
        ]
        return BinaryBatch(seq=0, observations=tuple(observations)).encode_body()

    def test_round_trip_of_reference_body(self):
        frame = BinaryBatch.decode_body(self.valid_body())
        assert len(frame.observations) == 3

    def test_truncated_body_rejected(self):
        body = self.valid_body()
        with pytest.raises(FrameError):
            BinaryBatch.decode_body(body[: len(body) - 4])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(FrameError, match="trailing"):
            BinaryBatch.decode_body(self.valid_body() + b"\x00")

    def test_truncated_string_table_rejected(self):
        # Lie about the reader-blob length: points past the body end.
        # Layout: 12 header bytes + 6 table-count bytes, then the
        # 4-byte reader-blob length.
        body = bytearray(self.valid_body())
        body[18:22] = (2**31).to_bytes(4, "big")
        with pytest.raises(FrameError, match="truncated|malformed"):
            BinaryBatch.decode_body(bytes(body))

    def test_table_count_mismatch_rejected(self):
        # Claim one more reader than the blob actually holds.
        body = bytearray(self.valid_body())
        body[12:14] = (4).to_bytes(2, "big")
        with pytest.raises(FrameError):
            BinaryBatch.decode_body(bytes(body))

    def test_invalid_utf8_in_table_rejected(self):
        body = bytearray(self.valid_body())
        body[22] = 0xFF  # first byte of the reader blob
        with pytest.raises(FrameError, match="malformed"):
            BinaryBatch.decode_body(bytes(body))

    def test_empty_batch_round_trips(self):
        frame = BinaryBatch.decode_body(
            BinaryBatch(seq=7, observations=()).encode_body()
        )
        assert frame.seq == 7
        assert frame.observations == ()


# -- raw peers and the mixed-frame soak ----------------------------------------


class RawPeer:
    """A frame-level loopback peer with an explicit HELLO of our choosing."""

    def __init__(self, server):
        self.reader, self.writer = server.connect_loopback()
        self._decoder = FrameDecoder()
        self.frames = []
        self.detections = []
        self.acked = -1

    async def send(self, *frames):
        self.writer.write(b"".join(map(encode_frame, frames)))
        await self.writer.drain()

    async def pump(self, timeout=0.2):
        """Read whatever is available, sorting frames into buckets."""
        try:
            data = await asyncio.wait_for(self.reader.read(65536), timeout)
        except asyncio.TimeoutError:
            return
        for frame in self._decoder.feed(data):
            if isinstance(frame, Ack):
                self.acked = max(self.acked, frame.seq)
                continue
            self.frames.append(frame)
            self.detections.extend(received_frames(frame))

    async def pump_until(self, predicate, timeout=5.0):
        deadline = asyncio.get_running_loop().time() + timeout
        while not predicate():
            if asyncio.get_running_loop().time() > deadline:
                raise AssertionError("raw peer timed out")
            await self.pump()


def with_extra(observations):
    """The same readings with an ``extra`` payload, which the columns
    cannot carry: every batch of them goes as a JSON ``BATCH``."""
    return [
        Observation(o.reader, o.obj, o.timestamp, {"dock": "legacy"})
        for o in observations
    ]


class TestMixedFrameSoak:
    def test_json_and_binary_clients_share_a_durable_server(self, tmp_path):
        """A client whose batches all fall back to JSON ``BATCH`` and a
        ``BBATCH`` client interleave on one durable server, survive a
        crash/recover, and both end with the full, identical detection
        stream and exactly-once frontiers."""
        stream = packing_stream(cases=8, seed=21)
        expected = canon_engine(plain_engine().run(stream))
        directory = str(tmp_path / "mixed-durable")
        quarter = len(stream) // 4
        cuts = [quarter, 2 * quarter, 3 * quarter]
        # Detections the first two quarters fire *without* an
        # end-of-stream flush — what subscribers see mid-stream.
        prefix = canon_engine(plain_engine().submit_many(stream[: cuts[1]]))
        # The frame classes each client's batches arrived as.
        received = {}

        def spied(server):
            handle = server._handle_frame

            async def spy(session, frame):
                if isinstance(frame, Batch):
                    received.setdefault(session.client_id, set()).add(
                        type(frame)
                    )
                return await handle(session, frame)

            server._handle_frame = spy
            return server

        def client(server, client_id, resume_from=-1):
            return AsyncClient(
                loopback_connector(server),
                client_id=client_id,
                subscribe=True,
                resume_from=resume_from,
                batch_size=32,
            )

        async def first_life():
            durable = DurableEngine(plain_engine, directory)
            try:
                async with spied(CepServer(durable)) as server:
                    legacy = client(server, "legacy-dock")
                    modern = client(server, "modern-dock")
                    async with legacy, modern:
                        # Interleaved, strictly ordered ingest: the JSON
                        # client takes the first quarter, the binary one
                        # the second.
                        await legacy.submit_many(with_extra(stream[: cuts[0]]))
                        await legacy.drain(timeout=10)
                        await modern.submit_many(stream[cuts[0] : cuts[1]])
                        await modern.drain(timeout=10)
                        await eventually(
                            lambda: len(legacy.detections) >= len(prefix)
                        )
                        await eventually(
                            lambda: len(modern.detections) >= len(prefix)
                        )
                        assert canon_frames(legacy.detections) == prefix
                        assert canon_frames(modern.detections) == prefix
                        return legacy.last_acked, modern.last_acked
            finally:
                durable.close()

        async def second_life(legacy_acked, modern_acked):
            durable, _report = DurableEngine.recover(plain_engine, directory)
            try:
                async with spied(CepServer(durable)) as server:
                    # Frontiers rebuilt from WAL provenance for both the
                    # JSON records and the batch records.
                    assert server.client_frontier("legacy-dock") == legacy_acked
                    assert server.client_frontier("modern-dock") == modern_acked
                    legacy = client(
                        server, "legacy-dock", resume_from=legacy_acked - 2
                    )
                    modern = client(
                        server, "modern-dock", resume_from=modern_acked
                    )
                    async with legacy, modern:
                        # The server's record wins over the under-reported
                        # ack.
                        assert legacy.last_acked == legacy_acked
                        await legacy.submit_many(
                            with_extra(stream[cuts[1] : cuts[2]])
                        )
                        await legacy.drain(timeout=10)
                        await modern.submit_many(stream[cuts[2] :])
                        await modern.flush(timeout=10)
                        late = len(expected) - len(prefix)
                        await eventually(
                            lambda: len(legacy.detections) >= late
                        )
                        await eventually(
                            lambda: len(modern.detections) >= late
                        )
                        assert server.stats.duplicates_skipped == 0
                        return (
                            canon_frames(legacy.detections),
                            canon_frames(modern.detections),
                        )
            finally:
                durable.close()

        legacy_acked, modern_acked = asyncio.run(first_life())
        assert legacy_acked == cuts[0] - 1
        legacy_late, modern_late = asyncio.run(
            second_life(legacy_acked, modern_acked)
        )
        assert prefix + legacy_late == expected
        assert prefix + modern_late == expected
        assert received == {"legacy-dock": {Batch}, "modern-dock": {BinaryBatch}}


# -- engine-side SubmitResult contract ----------------------------------------


class TestSubmitResultContract:
    def make_backend(self, kind, tmp_path):
        if kind == "plain":
            return plain_engine(), lambda: None
        if kind == "sharded":
            backend = ShardedEngine(
                build_rules(),
                max_shards=3,
                store=RfidStore(),
                functions=FunctionRegistry(),
            )
            return backend, lambda: None
        durable = DurableEngine(plain_engine, str(tmp_path / "d"))
        return durable, durable.close

    @pytest.mark.parametrize("kind", ["plain", "sharded", "durable"])
    def test_submit_many_returns_submit_result(self, kind, tmp_path):
        backend, closer = self.make_backend(kind, tmp_path)
        try:
            stream = packing_stream(cases=3, seed=7)
            result = backend.submit_many(stream)
            assert isinstance(result, SubmitResult)
            # The legacy contract: it IS the detection list.
            assert isinstance(result, list)
            assert result.detections is result
            assert result.accepted == len(stream)
            assert result.dropped == 0
            assert result.quarantined == 0
            assert canon_engine(result) == canon_engine(
                plain_engine().run(stream)
            )
            assert "accepted=" in repr(result)
        finally:
            closer()

    def test_empty_batch_is_an_empty_result(self):
        result = plain_engine().submit_many([])
        assert isinstance(result, SubmitResult)
        assert list(result) == []
        assert (result.accepted, result.dropped) == (0, 0)


# -- chunk-granular unacked buffer --------------------------------------------


class TestPendingChunks:
    def make_client(self):
        return AsyncClient(lambda: None, batch_size=10)

    def obs(self, n, start=0):
        return [Observation("r", f"o{start + i}", float(start + i)) for i in range(n)]

    def test_full_runs_are_dropped_whole(self):
        client = self.make_client()
        client._pending = [(0, self.obs(4)), (4, self.obs(4, 4))]
        client._advance_acks(3)
        assert client.last_acked == 3
        assert [entry[0] for entry in client._pending] == [4]

    def test_partial_ack_trims_the_head_run(self):
        client = self.make_client()
        run = self.obs(6)
        client._pending = [(0, run)]
        client._advance_acks(3)
        first, rest = client._pending[0]
        assert first == 4
        assert rest == run[4:]

    def test_flush_markers_are_acked_away(self):
        client = self.make_client()
        client._pending = [(0, self.obs(3)), (3, _FLUSH), (4, self.obs(2, 4))]
        client._advance_acks(3)
        assert [entry[0] for entry in client._pending] == [4]
        client._advance_acks(5)
        assert client._pending == []

    def test_stale_ack_is_ignored(self):
        client = self.make_client()
        client._pending = [(5, self.obs(2, 5))]
        client._advance_acks(6)
        client._advance_acks(4)  # out-of-order duplicate ack
        assert client.last_acked == 6
        assert client._pending == []

    def test_resend_merges_and_resplits_to_the_limit(self):
        client = self.make_client()
        client._server_max_batch = 4
        sent = []

        async def record_chunk(first, chunk):
            sent.append(("chunk", first, len(chunk)))

        async def record_raw(frame):
            sent.append(("flush", frame.seq))

        client._write_chunk = record_chunk
        client._send_raw = record_raw
        client._pending = [
            (0, self.obs(6)),
            (6, _FLUSH),
            (7, self.obs(2, 7)),
            (9, self.obs(1, 9)),
        ]
        asyncio.run(client._resend_pending())
        assert sent == [
            ("chunk", 0, 4),
            ("chunk", 4, 2),
            ("flush", 6),
            ("chunk", 7, 3),
        ]
