"""End-to-end serving tests over the in-memory loopback transport.

The correctness bar for the serving layer: detections observed over the
wire must equal an in-process run of the same rules over the same
stream — for every backend (plain, sharded, durable) — and the
resume-from-seq contract must hold across client crashes and server
restarts (durable backend, WAL tail).
"""

import asyncio
import random

import pytest

from repro import Engine, Observation
from repro.apps import containment_rule, location_rule
from repro.core.detector import FunctionRegistry
from repro.core.sharding import ShardedEngine
from repro.obs import MetricsRegistry, rollup
from repro.resilience.durability import DurableEngine
from repro.serve import (
    Ack,
    AsyncClient,
    Batch,
    Bye,
    CepServer,
    ClientError,
    ErrorFrame,
    FrameDecoder,
    Hello,
    RetryConfig,
    ServeConfig,
    SlowConsumerPolicy,
    Subscribe,
    Welcome,
    encode_frame,
    loopback_connector,
)
from repro.simulator import PackingConfig, simulate_packing
from repro.store import RfidStore


def packing_stream(cases=5, seed=3):
    trace = simulate_packing(PackingConfig(cases=cases), rng=random.Random(seed))
    return trace.observations


def build_rules():
    return [containment_rule(), location_rule()]


def plain_engine():
    return Engine(build_rules(), store=RfidStore(), functions=FunctionRegistry())


def expected_detections(stream):
    return canon_engine(plain_engine().run(stream))


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


async def eventually(predicate, timeout=5.0, message="condition not reached"):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError(message)
        await asyncio.sleep(0.01)


class Raw:
    """A frame-level loopback client for poking at the protocol directly."""

    def __init__(self, server, max_buffer=None):
        if max_buffer is None:
            self.reader, self.writer = server.connect_loopback()
        else:
            self.reader, self.writer = server.connect_loopback(max_buffer)
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


def make_backend(kind, tmp_path):
    """Returns ``(backend, closer)`` for one parametrized backend kind."""
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
    durable = DurableEngine(plain_engine, str(tmp_path / "durable"))
    return durable, durable.close


class TestWireEquivalence:
    @pytest.mark.parametrize("kind", ["plain", "sharded", "durable"])
    def test_detections_over_wire_match_in_process(self, kind, tmp_path):
        stream = packing_stream()
        expected = expected_detections(stream)
        assert expected  # the workload must actually detect something

        async def scenario():
            backend, closer = make_backend(kind, tmp_path)
            try:
                async with CepServer(backend) as server:
                    client = AsyncClient(
                        loopback_connector(server), subscribe=True, batch_size=7
                    )
                    async with client:
                        await client.submit_many(stream)
                        await client.flush(timeout=10)
                        await eventually(
                            lambda: len(client.detections) >= len(expected)
                        )
                        return canon_frames(client.detections), server.stats
            finally:
                closer()

        got, stats = asyncio.run(scenario())
        assert got == expected
        assert stats.submitted == len(stream)
        assert stats.duplicates_skipped == 0

    def test_separate_subscriber_sees_ingestors_detections(self):
        stream = packing_stream()
        expected = expected_detections(stream)

        async def scenario():
            async with CepServer(plain_engine()) as server:
                watcher = AsyncClient(
                    loopback_connector(server), client_id="watcher", subscribe=True
                )
                ingest = AsyncClient(
                    loopback_connector(server), client_id="ingest", batch_size=16
                )
                async with watcher, ingest:
                    await ingest.submit_many(stream)
                    await ingest.flush(timeout=10)
                    await eventually(
                        lambda: len(watcher.detections) >= len(expected)
                    )
                    return (
                        canon_frames(watcher.detections),
                        list(ingest.detections),
                    )

        watched, ingested = asyncio.run(scenario())
        assert watched == expected
        assert ingested == []  # no subscription, no pushes

    def test_rule_filter_limits_pushes(self):
        stream = packing_stream()
        expected = expected_detections(stream)
        rule_ids = {entry[0] for entry in expected}
        assert len(rule_ids) > 1, "need a multi-rule workload to filter"
        chosen = sorted(rule_ids)[0]

        async def scenario():
            async with CepServer(plain_engine()) as server:
                client = AsyncClient(
                    loopback_connector(server),
                    subscribe=True,
                    rules=[chosen],
                    batch_size=8,
                )
                async with client:
                    await client.submit_many(stream)
                    await client.flush(timeout=10)
                    wanted = [e for e in expected if e[0] == chosen]
                    await eventually(
                        lambda: len(client.detections) >= len(wanted)
                    )
                    await asyncio.sleep(0.05)  # would catch over-delivery
                    return canon_frames(client.detections)

        got = asyncio.run(scenario())
        assert got == [entry for entry in expected if entry[0] == chosen]


class TestProtocolEnforcement:
    def test_hello_must_come_first(self):
        async def scenario():
            async with CepServer(plain_engine()) as server:
                raw = Raw(server)
                await raw.send(Batch(0, (Observation("r", "o", 0),)))
                frame = await raw.recv()
                assert isinstance(frame, ErrorFrame)
                assert frame.code == "protocol"

        asyncio.run(scenario())

    def test_version_mismatch_refused(self):
        async def scenario():
            async with CepServer(plain_engine()) as server:
                raw = Raw(server)
                await raw.send(Hello(client_id="c", version=99))
                frame = await raw.recv()
                assert isinstance(frame, ErrorFrame)
                assert frame.code == "version"

        asyncio.run(scenario())

    def test_second_session_for_live_client_supersedes_first(self):
        # A client that died without a FIN (power loss, partition) leaves
        # its old session dangling until TCP times out; its reconnect
        # must not be refused behind that corpse — newest wins.
        async def scenario():
            async with CepServer(plain_engine()) as server:
                first = Raw(server)
                await first.send(Hello(client_id="dup"))
                assert isinstance(await first.recv(), Welcome)
                await first.send(Batch(0, (Observation("r", "a", 0),)))
                await first.recv_until(Ack)
                second = Raw(server)
                await second.send(Hello(client_id="dup"))
                welcome = await second.recv()
                assert isinstance(welcome, Welcome)
                # The frontier carries over: seq 0 is already applied.
                assert welcome.next_seq == 1
                assert server.stats.sessions_superseded == 1
                # The stale session is told why and then closed.
                frame = await first.recv_until(ErrorFrame)
                assert frame.code == "superseded"
                await eventually(lambda: server.stats.sessions_active == 1)
                # The survivor keeps working.
                await second.send(Batch(1, (Observation("r", "b", 1),)))
                ack = await second.recv_until(Ack)
                assert ack.seq == 1

        asyncio.run(scenario())

    def test_sequence_gap_errors_and_disconnects(self):
        async def scenario():
            async with CepServer(plain_engine()) as server:
                raw = Raw(server)
                await raw.send(Hello(client_id="gap"))
                assert isinstance(await raw.recv(), Welcome)
                await raw.send(Batch(5, (Observation("r", "o", 0),)))
                frame = await raw.recv_until(ErrorFrame)
                assert frame.code == "sequence"
                await eventually(lambda: server.stats.sessions_active == 0)
                assert server.stats.submitted == 0

        asyncio.run(scenario())

    def test_duplicates_below_frontier_are_skipped(self):
        async def scenario():
            async with CepServer(plain_engine()) as server:
                raw = Raw(server)
                await raw.send(Hello(client_id="dups"))
                welcome = await raw.recv()
                assert welcome.next_seq == 0
                await raw.send(Batch(0, (Observation("r", "a", 0),)))
                ack = await raw.recv_until(Ack)
                assert ack.seq == 0
                # Retransmit seq 0 (as a crashed client would), then continue.
                await raw.send(Batch(0, (Observation("r", "a", 0),)))
                await raw.send(Batch(1, (Observation("r", "b", 1),)))
                ack = await raw.recv_until(Ack)
                assert ack.seq == 1
                assert server.stats.duplicates_skipped == 1
                assert server.stats.submitted == 2
                assert server.client_frontier("dups") == 1

        asyncio.run(scenario())


class TestResume:
    def test_client_crash_and_resume_is_exactly_once(self):
        stream = packing_stream(cases=6, seed=11)
        expected = expected_detections(stream)
        half = len(stream) // 2

        async def scenario():
            async with CepServer(plain_engine()) as server:
                first = AsyncClient(
                    loopback_connector(server),
                    client_id="station-1",
                    subscribe=True,
                    batch_size=4,
                )
                await first.connect()
                await first.submit_many(stream[:half])
                await first.drain(timeout=10)
                early = list(first.detections)
                acked = first.last_acked
                assert acked == half - 1
                # The crash: the transport dies without a BYE.
                first._teardown_transport()
                await eventually(lambda: server.stats.sessions_active == 0)

                # New client life; it persisted nothing but its last ack
                # (and here even under-reports it — the server record wins).
                second = AsyncClient(
                    loopback_connector(server),
                    client_id="station-1",
                    subscribe=True,
                    resume_from=acked - 2,
                    batch_size=4,
                )
                async with second:
                    assert second.last_acked == acked  # learned from WELCOME
                    await second.submit_many(stream[half:])
                    await second.flush(timeout=10)
                    remaining = len(expected) - len(early)
                    await eventually(
                        lambda: len(second.detections) >= remaining
                    )
                    assert server.stats.duplicates_skipped == 0
                    assert server.stats.submitted == len(stream)
                    return canon_frames(early) + canon_frames(second.detections)

        assert asyncio.run(scenario()) == expected

    def test_durable_server_restart_resume_via_wal(self, tmp_path):
        stream = packing_stream(cases=6, seed=5)
        expected = expected_detections(stream)
        directory = str(tmp_path / "serve-durable")
        half = len(stream) // 2

        async def first_life():
            durable = DurableEngine(plain_engine, directory)
            try:
                async with CepServer(durable) as server:
                    client = AsyncClient(
                        loopback_connector(server),
                        client_id="station-1",
                        subscribe=True,
                        batch_size=5,
                    )
                    async with client:
                        await client.submit_many(stream[:half])
                        await client.drain(timeout=10)
                        # Acked ⇒ in the WAL: the durable backend appends
                        # before detecting, and the server acks after.
                        return client.last_acked, list(client.detections)
            finally:
                durable.close()

        async def second_life(resume_from, already):
            durable, report = DurableEngine.recover(plain_engine, directory)
            assert report.replayed_records >= half
            try:
                async with CepServer(durable) as server:
                    client = AsyncClient(
                        loopback_connector(server),
                        client_id="station-1",
                        subscribe=True,
                        resume_from=resume_from,
                        batch_size=5,
                    )
                    async with client:
                        # The restarted server rebuilt this client's
                        # frontier from WAL provenance; here it agrees
                        # with the client's own persisted ack.
                        assert server.client_frontier("station-1") == resume_from
                        assert client.last_acked == resume_from
                        await client.submit_many(stream[half:])
                        await client.flush(timeout=10)
                        remaining = len(expected) - already
                        await eventually(
                            lambda: len(client.detections) >= remaining
                        )
                        assert server.stats.duplicates_skipped == 0
                        return list(client.detections)
            finally:
                durable.close()

        acked, early = asyncio.run(first_life())
        assert acked == half - 1
        late = asyncio.run(second_life(acked, len(early)))
        assert canon_frames(early) + canon_frames(late) == expected

    def test_durable_restart_with_lost_acks_is_exactly_once(self, tmp_path):
        """Server crashes after WAL-appending observations whose ACKs
        never reached the client.

        The reconnecting client then under-reports ``resume_from`` and
        resends observations the WAL already holds; the restarted server
        must recognise them via the frontier it rebuilt from WAL
        provenance — not apply them a second time.
        """
        stream = packing_stream(cases=6, seed=5)
        directory = str(tmp_path / "serve-durable-lostack")
        half = len(stream) // 2
        lost = 3  # applied + logged, but their ACKs never arrive
        assert len(stream) > half + lost

        async def scenario():
            current = {}

            async def connector():
                return current["server"].connect_loopback()

            durable = DurableEngine(plain_engine, directory)
            server = CepServer(durable)
            await server.start()
            current["server"] = server
            client = AsyncClient(connector, client_id="station-1", batch_size=1)
            await client.connect()
            await client.submit_many(stream[:half])
            await client.drain(timeout=10)
            assert client.last_acked == half - 1
            # Ack loss: the client stops reading; the next submissions
            # are applied and WAL-appended, but their acks are lost.
            client._receiver.cancel()
            for observation in stream[half : half + lost]:
                await client.submit(observation)
            await eventually(
                lambda: server.client_frontier("station-1") == half + lost - 1
            )
            # The crash: both the transport and the server process die.
            client._teardown_transport()
            await server.close()
            durable.close()

            durable2, _report = DurableEngine.recover(plain_engine, directory)
            # The frontier was rebuilt from WAL provenance — ahead of the
            # client's own ack record.
            assert durable2.client_frontiers == {"station-1": half + lost - 1}
            server2 = CepServer(durable2)
            await server2.start()
            current["server"] = server2
            try:
                # Reconnect resends the unacked tail; the server must
                # recognise it as already applied, not apply it again.
                await client.connect()
                assert client.last_acked == half + lost - 1
                await client.submit_many(stream[half + lost :])
                await client.flush(timeout=10)
                assert server2.stats.submitted == len(stream) - half - lost
                await client.close()
                return durable2.next_seq
            finally:
                await server2.close()
                durable2.close()

        next_seq = asyncio.run(scenario())
        # One WAL record per observation plus the flush — a duplicate
        # application would have appended extra records.
        assert next_seq == len(stream) + 1

    def test_connect_gives_up_after_retries(self):
        async def refuse():
            raise ConnectionRefusedError("nobody home")

        async def scenario():
            client = AsyncClient(
                refuse,
                retry=RetryConfig(max_attempts=3, backoff_base=0.001),
            )
            with pytest.raises(ClientError, match="3 attempts"):
                await client.connect()

        asyncio.run(scenario())


class TestClientRecordCap:
    def test_idle_client_records_are_bounded(self):
        # Auto-id clients get a fresh id per process; without a cap the
        # server would keep one frontier record per dead client forever.
        async def scenario():
            config = ServeConfig(client_record_cap=3)
            async with CepServer(plain_engine(), config=config) as server:
                for index in range(6):
                    raw = Raw(server)
                    await raw.send(Hello(client_id=f"ephemeral-{index}"))
                    assert isinstance(await raw.recv(), Welcome)
                    await raw.send(Bye())
                    await eventually(lambda: server.stats.sessions_active == 0)
                summary = server.session_summary()
                assert summary["client_records"] == 3
                assert server.stats.client_records_evicted == 3

        asyncio.run(scenario())

    def test_exactly_cap_records_keeps_all(self):
        # The boundary itself: cap records is *at* the bound, not past
        # it — nothing may be evicted until record cap+1 arrives.
        async def scenario():
            config = ServeConfig(client_record_cap=3)
            async with CepServer(plain_engine(), config=config) as server:
                for index in range(3):
                    raw = Raw(server)
                    await raw.send(Hello(client_id=f"edge-{index}"))
                    assert isinstance(await raw.recv(), Welcome)
                    await raw.send(Bye())
                    await eventually(lambda: server.stats.sessions_active == 0)
                assert server.session_summary()["client_records"] == 3
                assert server.stats.client_records_evicted == 0
                # cap+1: exactly one eviction, and it is the
                # least-recently-connected record.
                raw = Raw(server)
                await raw.send(Hello(client_id="edge-3"))
                assert isinstance(await raw.recv(), Welcome)
                assert server.session_summary()["client_records"] == 3
                assert server.stats.client_records_evicted == 1
                assert "edge-0" not in server._clients
                assert "edge-3" in server._clients

        asyncio.run(scenario())

    def test_live_sessions_are_never_evicted_even_above_cap(self):
        # Every record pinned by a live connection survives, even when
        # the live sessions alone exceed the cap — eviction only ever
        # considers idle records.
        async def scenario():
            config = ServeConfig(client_record_cap=2)
            async with CepServer(plain_engine(), config=config) as server:
                raws = []
                for index in range(4):
                    raw = Raw(server)
                    await raw.send(Hello(client_id=f"live-{index}"))
                    assert isinstance(await raw.recv(), Welcome)
                    raws.append(raw)
                assert server.session_summary()["client_records"] == 4
                assert server.stats.client_records_evicted == 0
                assert all(
                    server._clients[f"live-{index}"].active_session
                    is not None
                    for index in range(4)
                )
                # Once they disconnect they become candidates: the next
                # handshake prunes the now-idle surplus down to the cap.
                for raw in raws:
                    await raw.send(Bye())
                await eventually(lambda: server.stats.sessions_active == 0)
                raw = Raw(server)
                await raw.send(Hello(client_id="latecomer"))
                assert isinstance(await raw.recv(), Welcome)
                assert server.session_summary()["client_records"] == 2
                assert "latecomer" in server._clients

        asyncio.run(scenario())


class TestSlowConsumers:
    def _congest(self, policy):
        """Run a never-reading subscriber against a small push buffer.

        A release is one push frame, so the ingest batches are small
        enough that the stream's releases outnumber the buffer."""
        stream = packing_stream()

        async def scenario():
            config = ServeConfig(push_queue=4, push_policy=policy)
            async with CepServer(plain_engine(), config=config) as server:
                slow = Raw(server, max_buffer=64)
                await slow.send(Hello(client_id="slow"))
                assert isinstance(await slow.recv(), Welcome)
                await slow.send(Subscribe())
                await asyncio.sleep(0)  # let the subscription register
                async with AsyncClient(
                    loopback_connector(server), client_id="ingest", batch_size=4
                ) as ingest:
                    await ingest.submit_many(stream)
                    await ingest.flush(timeout=10)
                summary = server.session_summary()
                return server.stats, summary

        return asyncio.run(scenario())

    def test_drop_policy_sheds_oldest_and_keeps_session(self):
        stats, summary = self._congest(SlowConsumerPolicy.DROP)
        assert stats.detections_dropped > 0
        assert stats.disconnects == 0
        clients = [entry["client"] for entry in summary["sessions"]]
        assert "slow" in clients  # still connected, just shedding

    def test_disconnect_policy_closes_the_session(self):
        stats, summary = self._congest(SlowConsumerPolicy.DISCONNECT)
        assert stats.disconnects >= 1
        clients = [entry["client"] for entry in summary["sessions"]]
        assert "slow" not in clients

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="bad slow-consumer policy"):
            SlowConsumerPolicy.coerce("shrug")


class TestServeMetrics:
    def test_instruments_mirror_stats(self):
        stream = packing_stream()
        expected = expected_detections(stream)
        registry = MetricsRegistry()

        async def scenario():
            server = CepServer(plain_engine(), metrics=registry)
            async with server:
                client = AsyncClient(
                    loopback_connector(server), subscribe=True, batch_size=8
                )
                async with client:
                    await client.submit_many(stream)
                    await client.flush(timeout=10)
                    await eventually(
                        lambda: len(client.detections) >= len(expected)
                    )
                return server.stats

        stats = asyncio.run(scenario())
        assert rollup(registry, "rceda_serve_submitted_total") == len(stream)
        assert (
            rollup(registry, "rceda_serve_detections_pushed_total")
            == stats.detections_pushed
            == len(expected)
        )
        assert rollup(registry, "rceda_serve_frames_total") == (
            stats.frames_in + stats.frames_out
        )
        assert rollup(registry, "rceda_serve_bytes_total") == (
            stats.bytes_in + stats.bytes_out
        )
        assert rollup(registry, "rceda_serve_acks_total") == stats.acks_sent
        assert rollup(registry, "rceda_serve_sessions_active") == 0


class TestAckCoalescing:
    def test_ack_ignoring_client_gets_cumulative_ack(self):
        async def scenario():
            async with CepServer(plain_engine()) as server:
                raw = Raw(server)
                await raw.send(Hello(client_id="burst"))
                assert isinstance(await raw.recv(), Welcome)
                for seq in range(50):
                    await raw.send(
                        Batch(seq, (Observation("r", f"o{seq}", seq),))
                    )
                await eventually(lambda: server.client_frontier("burst") == 49)
                final = await raw.recv_until(Ack)
                while True:  # drain any interleaved smaller acks
                    try:
                        final = await raw.recv_until(Ack, timeout=0.1)
                    except asyncio.TimeoutError:
                        break
                assert final.seq == 49
                # Coalescing: far fewer ack frames than submissions.
                assert server.stats.acks_sent <= 50

        asyncio.run(scenario())
