"""Unit tests for the network fault injector and the liveness machinery.

`tests/test_serve_chaos.py` runs the full soak drill; this file pins
the building blocks in isolation: schedule determinism (the property
that makes a failing chaos run reproducible from its seed), byte
preservation under fragmentation, CRC detection of injected
corruption, reset semantics, heartbeats, idle reaping, overload
shedding, and the sync client's leak reporting.
"""

import asyncio
import logging

import pytest

from repro import Engine, Observation
from repro.apps import containment_rule, location_rule
from repro.serve import (
    Ack,
    AsyncClient,
    Batch,
    CepServer,
    Client,
    ErrorFrame,
    FaultStats,
    FaultyTransport,
    FrameDecoder,
    FrameError,
    Hello,
    NetworkFaultPlan,
    ServeConfig,
    Welcome,
    encode_frame,
    loopback_connector,
    loopback_pair,
)

OBS = Observation("reader-1", "urn:epc:item:1", 12.5)

#: Every fault class enabled, rates high enough that a 40-chunk run
#: exercises them all.
BUSY_PLAN = NetworkFaultPlan(
    seed=11,
    jitter=0.001,
    fragment_rate=0.5,
    fragment_cuts=4,
    stall_rate=0.3,
    stall_seconds=0.01,
    reset_rate=0.2,
    corrupt_rate=0.3,
)

#: Deterministic chunk sizes spanning tiny to multi-frame.
CHUNKS = [bytes([i % 251]) * (1 + (i * 37) % 197) for i in range(40)]


def replay(plan, label, chunks):
    """Run a schedule over ``chunks``; return comparable decisions."""
    schedule = plan.schedule(label)
    decisions = []
    for chunk in chunks:
        out = schedule.plan_chunk(chunk)
        decisions.append((list(out.segments), round(out.delay, 12), out.reset))
    return decisions, schedule.stats


async def eventually(predicate, timeout=5.0, message="condition not reached"):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError(message)
        await asyncio.sleep(0.01)


class Raw:
    """A frame-level loopback client for poking at the protocol directly."""

    def __init__(self, server):
        self.reader, self.writer = server.connect_loopback()
        self._decoder = FrameDecoder()
        self._frames = []

    async def send(self, frame):
        self.writer.write(encode_frame(frame))
        await self.writer.drain()

    async def recv(self, timeout=2.0):
        while not self._frames:
            data = await asyncio.wait_for(self.reader.read(65536), timeout)
            if not data:
                raise AssertionError("peer closed while waiting for a frame")
            self._frames.extend(self._decoder.feed(data))
        return self._frames.pop(0)

    async def recv_until(self, frame_type, timeout=2.0):
        while True:
            frame = await self.recv(timeout)
            if isinstance(frame, frame_type):
                return frame


def build_engine():
    return Engine([containment_rule(), location_rule()])


class TestScheduleDeterminism:
    def test_same_seed_and_label_replays_identically(self):
        first, first_stats = replay(BUSY_PLAN, "up:0", CHUNKS)
        second, second_stats = replay(BUSY_PLAN, "up:0", CHUNKS)
        assert first == second
        assert first_stats.as_dict() == second_stats.as_dict()
        # The plan is busy enough that the run exercised real faults.
        assert first_stats.faults_fired > 0

    def test_directions_draw_independent_schedules(self):
        up, _ = replay(BUSY_PLAN, "up:0", CHUNKS)
        down, _ = replay(BUSY_PLAN, "down:0", CHUNKS)
        assert up != down

    def test_reseeding_changes_the_schedule(self):
        original, _ = replay(BUSY_PLAN, "up:0", CHUNKS)
        reseeded, _ = replay(BUSY_PLAN.reseeded(BUSY_PLAN.seed + 1), "up:0", CHUNKS)
        assert original != reseeded
        assert BUSY_PLAN.reseeded(99).fragment_rate == BUSY_PLAN.fragment_rate

    def test_fragmentation_preserves_bytes(self):
        plan = NetworkFaultPlan(seed=5, fragment_rate=1.0, fragment_cuts=8)
        schedule = plan.schedule("frag")
        for chunk in CHUNKS:
            out = schedule.plan_chunk(chunk)
            assert b"".join(out.segments) == chunk
            assert not out.reset
        assert schedule.stats.fragments > 0
        assert schedule.stats.corruptions == 0

    def test_zeroed_plan_forwards_verbatim(self):
        schedule = NetworkFaultPlan(seed=3).schedule("idle")
        for chunk in CHUNKS:
            out = schedule.plan_chunk(chunk)
            assert out.segments == [chunk]
            assert out.delay == 0.0 and not out.reset
        assert schedule.stats.faults_fired == 0
        assert schedule.stats.bytes_forwarded == sum(len(c) for c in CHUNKS)

    def test_shared_stats_aggregate_across_directions(self):
        stats = FaultStats()
        BUSY_PLAN.schedule("up:0", stats=stats).plan_chunk(CHUNKS[0])
        BUSY_PLAN.schedule("down:0", stats=stats).plan_chunk(CHUNKS[1])
        assert stats.chunks == 2

    @pytest.mark.parametrize("seed", range(20))
    def test_corruption_never_decodes_a_wrong_frame(self, seed):
        # One flipped byte anywhere in the frame must never survive to
        # a decoded frame: CRC failure (or, for a length-byte flip, an
        # incomplete frame) — a wrong Ack would be silent data loss.
        plan = NetworkFaultPlan(seed=seed, corrupt_rate=1.0)
        schedule = plan.schedule("corrupt")
        out = schedule.plan_chunk(encode_frame(Ack(seq=123456)))
        assert schedule.stats.corruptions == 1
        decoder = FrameDecoder()
        try:
            frames = list(decoder.feed(b"".join(out.segments)))
        except FrameError:
            return
        assert frames == []


class TestFaultyTransport:
    def test_fragmented_writes_decode_identically(self):
        async def scenario():
            a_end, b_end = loopback_pair()
            plan = NetworkFaultPlan(seed=9, fragment_rate=1.0, fragment_cuts=8)
            reader, writer = FaultyTransport(*a_end, plan.schedule("client"))
            sent = [Ack(seq=i) for i in range(30)]
            for frame in sent:
                writer.write(encode_frame(frame))
                await writer.drain()
            peer_reader, _peer_writer = b_end
            decoder = FrameDecoder()
            received = []
            while len(received) < len(sent):
                data = await asyncio.wait_for(peer_reader.read(65536), 2.0)
                assert data, "peer closed early"
                received.extend(decoder.feed(data))
            assert received == sent
            assert writer._schedule.stats.fragments > 0

        asyncio.run(scenario())

    def test_injected_reset_breaks_the_writer(self):
        async def scenario():
            a_end, _b_end = loopback_pair()
            plan = NetworkFaultPlan(seed=1, reset_rate=1.0)
            _reader, writer = FaultyTransport(*a_end, plan.schedule("client"))
            with pytest.raises(ConnectionResetError):
                writer.write(b"x" * 64)
            assert writer.is_closing()
            # The break is sticky: the connection is gone, not flaky.
            with pytest.raises(ConnectionResetError):
                writer.write(b"y")
            with pytest.raises(ConnectionResetError):
                await writer.drain()

        asyncio.run(scenario())

    def test_corrupted_stream_is_rejected_by_the_decoder(self):
        async def scenario():
            a_end, b_end = loopback_pair()
            # Seed chosen so the flip lands past the length prefix (the
            # corruption test above covers every landing zone).
            plan = NetworkFaultPlan(seed=2, corrupt_rate=1.0)
            _reader, writer = FaultyTransport(*a_end, plan.schedule("client"))
            writer.write(encode_frame(Ack(seq=7)))
            await writer.drain()
            peer_reader, _peer_writer = b_end
            data = await asyncio.wait_for(peer_reader.read(65536), 2.0)
            decoder = FrameDecoder()
            try:
                frames = list(decoder.feed(data))
            except FrameError:
                return
            assert frames == []

        asyncio.run(scenario())


class TestLiveness:
    def test_v2_client_is_pinged_and_answers(self):
        async def scenario():
            config = ServeConfig(heartbeat_interval=0.05)
            async with CepServer(build_engine(), config=config) as server:
                client = AsyncClient(loopback_connector(server))
                async with client:
                    await eventually(
                        lambda: client.heartbeats > 0,
                        message="client never saw a PING",
                    )
                    await eventually(
                        lambda: server.stats.pongs_received > 0,
                        message="server never saw the PONG",
                    )
                    assert server.stats.pings_sent > 0
                    assert server.stats.sessions_reaped == 0
                    # Answering PINGs kept the session alive.
                    assert server.stats.sessions_active == 1

        asyncio.run(scenario())

    def test_idle_session_is_reaped_with_error(self):
        async def scenario():
            config = ServeConfig(idle_deadline=0.1)
            async with CepServer(build_engine(), config=config) as server:
                raw = Raw(server)
                await raw.send(Hello(client_id="quiet", resume_from=-1))
                await raw.recv_until(Welcome)
                error = await raw.recv_until(ErrorFrame, timeout=5.0)
                assert error.code == "idle"
                assert server.stats.sessions_reaped == 1

        asyncio.run(scenario())

    def test_pre_handshake_session_is_reaped(self):
        # A peer whose HELLO was lost (e.g. to corruption) must not
        # hold its connection forever.
        async def scenario():
            config = ServeConfig(idle_deadline=0.1)
            async with CepServer(build_engine(), config=config) as server:
                reader, writer = server.connect_loopback()
                writer.write(b"\xff\xff")  # a torn length prefix, then silence
                await writer.drain()
                await eventually(
                    lambda: server.stats.sessions_reaped == 1,
                    message="pre-handshake session never reaped",
                )

        asyncio.run(scenario())


class TestOverloadShedding:
    def test_saturated_queue_sheds_with_retry_after(self):
        async def scenario():
            config = ServeConfig(
                submit_queue=1, overload_grace=0.05, retry_after=0.5
            )
            server = CepServer(build_engine(), config=config)
            # Park the writer so the submit queue can only fill: the
            # test targets the shed path, not backend throughput.
            parked = asyncio.get_running_loop().create_future()

            async def parked_writer():
                await parked

            server._writer_task = asyncio.ensure_future(parked_writer())
            try:
                raw = Raw(server)
                await raw.send(Hello(client_id="flood", resume_from=-1))
                await raw.recv_until(Welcome)
                for seq in range(4):
                    await raw.send(Batch(seq, (OBS,)))
                error = await raw.recv_until(ErrorFrame, timeout=5.0)
                assert error.code == "overloaded"
                assert error.retry_after == 0.5
                assert server.stats.overloads_shed == 1
            finally:
                parked.set_result(None)
                # close() enqueues a stop sentinel; make room for it in
                # the still-saturated bounded queue.
                while not server._queue.empty():
                    server._queue.get_nowait()
                await server.close()

        asyncio.run(scenario())


class _StuckThread:
    name = "repro-serve-client"

    def join(self, timeout=None):
        pass

    def is_alive(self):
        return True


class TestClientThreadLeak:
    def test_stop_loop_reports_a_leaked_io_thread(self, caplog):
        client = Client.__new__(Client)
        client._loop = asyncio.new_event_loop()
        client._thread = _StuckThread()
        with caplog.at_level(logging.WARNING, logger="repro.serve.client"):
            stopped = client._stop_loop()
        assert stopped is False
        assert "did not stop within" in caplog.text
        client._loop.close()

    def test_close_is_idempotent_after_loop_teardown(self):
        # An explicit close() after a `with` block must repeat the
        # verdict, not raise on the already-closed event loop.
        client = Client.__new__(Client)
        client._closed = True
        client._stopped = True
        assert client.close() is True

    def test_stop_loop_true_when_thread_exits(self):
        class DeadThread(_StuckThread):
            def is_alive(self):
                return False

        client = Client.__new__(Client)
        client._loop = asyncio.new_event_loop()
        client._thread = DeadThread()
        assert client._stop_loop() is True
        assert client._loop.is_closed()
