"""Router sessions are ``CepServer`` sessions; epochs pipeline.

A :class:`~repro.serve.cluster.Cluster` serves its router backend with
the one ``CepServer``, so everything ``ServeConfig`` promises a client
of a single server — the configured heartbeat, idle reaping, the
client-record cap, the slow-consumer bound — holds for a client of the
cluster.  And the server's in-order release path keeps many epochs in
flight: a shard whose worker is down holds every epoch open without
stalling ingestion (its link queues the sub-batches), and once the
worker restarts they release in submission order, detections ahead of
the ack that covers them.  A client that reconnects meanwhile resends
from its ack frontier and the worker drops the copies.
"""

import asyncio

import pytest

from repro import Engine
from repro.lang import parse_rules
from repro.serve import (
    Ack,
    Batch,
    Bye,
    ErrorFrame,
    FrameDecoder,
    Hello,
    Ping,
    ServeConfig,
    SlowConsumerPolicy,
    Subscribe,
    Welcome,
    encode_frame,
)
from repro.serve.client import AsyncClient, tcp_connector
from repro.serve.cluster import Cluster
from repro.serve.drill import cluster_program
from repro.serve.protocol import received_frames
from repro.simulator import simulate_multi_packing
from repro.store import RfidStore


def build_workload():
    trace = simulate_multi_packing(
        lines=2, cases_per_line=6, items_per_case=5, seed=5
    )
    return cluster_program(trace.reader_pairs), list(trace.observations)


async def eventually(predicate, timeout=10.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition not reached"
        await asyncio.sleep(0.01)


class RawPeer:
    """A frame-level peer over a ``(reader, writer)`` pair; :meth:`tcp`
    dials one."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self._decoder = FrameDecoder()
        self._frames = []

    @classmethod
    async def tcp(cls, port):
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def send(self, *frames):
        for frame in frames:
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

    def close(self):
        self.writer.close()


async def hold_shard(cluster):
    """Crash the one worker and wait until its link is between
    connections: the link then queues every sub-batch, holding its
    epochs open.  ``cluster.restart_worker(node)`` releases them."""
    (node,) = cluster.workers
    (shard,) = cluster.router.links
    await cluster.kill_worker(node)
    link = cluster.router.links[shard]
    await eventually(lambda: not link._connected.is_set())
    return node, shard


def one_worker_cluster(tmp_path, **config):
    program, _stream = build_workload()
    return Cluster(
        program,
        workers=1,
        directory=str(tmp_path / "cluster"),
        inprocess=True,
        router_config=ServeConfig(**config),
    )


class TestRouterSessions:
    """A router session is a ``CepServer`` session: same liveness, same
    load limits, configured through ``Cluster(router_config=...)``."""

    def test_idle_session_is_pinged_at_the_configured_heartbeat(self, tmp_path):
        async def scenario():
            cluster = one_worker_cluster(tmp_path, heartbeat_interval=0.25)
            try:
                peer = await RawPeer.tcp(await cluster.start())
                loop = asyncio.get_running_loop()
                sent = loop.time()
                await peer.send(Hello(client_id="hb"))
                welcome = await peer.recv_until(Welcome)
                ping = await peer.recv_until(Ping)
                waited = loop.time() - sent
                peer.close()
                return welcome, ping, waited, cluster.server.stats.pings_sent
            finally:
                await cluster.stop()

        welcome, ping, waited, pings = asyncio.run(scenario())
        # WELCOME carries no heartbeat key: every session is probed.
        assert welcome.capabilities == {"max_batch": 8192}
        assert ping.token >= 1 and pings >= 1
        # Idle for the interval, then probed within a liveness tick.
        assert 0.25 <= waited < 2.0

    def test_silent_peer_is_reaped_with_error_idle(self, tmp_path):
        async def scenario():
            cluster = one_worker_cluster(tmp_path, idle_deadline=0.1)
            try:
                peer = await RawPeer.tcp(await cluster.start())
                await peer.send(Hello(client_id="quiet"))
                await peer.recv_until(Welcome)
                error = await peer.recv_until(ErrorFrame, timeout=5.0)
                peer.close()
                return error.code, cluster.server.stats.sessions_reaped
            finally:
                await cluster.stop()

        assert asyncio.run(scenario()) == ("idle", 1)

    def test_client_records_are_bounded(self, tmp_path):
        async def scenario():
            cluster = one_worker_cluster(tmp_path, client_record_cap=2)
            try:
                port = await cluster.start()
                for index in range(5):
                    peer = await RawPeer.tcp(port)
                    await peer.send(Hello(client_id=f"ephemeral-{index}"))
                    await peer.recv_until(Welcome)
                    await peer.send(Bye())
                    await eventually(
                        lambda: cluster.server.stats.sessions_active == 0
                    )
                    peer.close()
                return (
                    cluster.server.session_summary()["client_records"],
                    cluster.server.stats.client_records_evicted,
                )
            finally:
                await cluster.stop()

        assert asyncio.run(scenario()) == (2, 3)

    def test_stalled_subscriber_is_bounded_by_push_queue(self, tmp_path):
        _program, stream = build_workload()

        async def scenario():
            cluster = one_worker_cluster(
                tmp_path, push_queue=2, push_policy=SlowConsumerPolicy.DROP
            )
            try:
                port = await cluster.start()
                # Never reads, behind a 64-byte transport: its sender
                # stalls on the first frame and its push buffer fills.
                stalled = RawPeer(*cluster.server.connect_loopback(64))
                await stalled.send(Hello(client_id="stalled"), Subscribe())
                await eventually(lambda: cluster.server.stats.sessions_active == 1)
                ingest = AsyncClient(
                    tcp_connector("127.0.0.1", port),
                    client_id="ingest",
                    batch_size=4,
                )
                async with ingest:
                    await ingest.submit_many(stream)
                    await ingest.flush(timeout=30)
                return cluster.server.stats, cluster.server.session_summary()
            finally:
                await cluster.stop()

        stats, summary = asyncio.run(scenario())
        assert stats.detections_dropped > 0
        assert stats.disconnects == 0
        (stalled,) = [
            entry for entry in summary["sessions"] if entry["client"] == "stalled"
        ]
        assert stalled["push_buffered"] == 2


BATCH = 10


async def send_batches(peer, stream):
    for first in range(0, len(stream), BATCH):
        batch = tuple(stream[first : first + BATCH])
        await peer.send(Batch(seq=first, observations=batch))


async def read_until_acked(peer, last):
    """``("detection"|"ack", seq)`` in arrival order, up to ``Ack(last)``."""
    events = []
    while events[-1:] != [("ack", last)]:
        frame = await peer.recv(timeout=10.0)
        if isinstance(frame, Ack):
            events.append(("ack", frame.seq))
        else:
            events.extend(("detection", d.seq) for d in received_frames(frame))
    return events


def assert_released_in_order(events):
    """Acks rise; every detection arrives before the ack covering it."""
    assert any(kind == "detection" for kind, _seq in events)
    acked = -1
    for kind, seq in events:
        assert seq > acked
        if kind == "ack":
            acked = seq
    released = [seq for kind, seq in events if kind == "detection"]
    assert released == sorted(released)


class TestEpochPipelining:
    def test_paused_shard_holds_epochs_open_then_releases_in_order(
        self, tmp_path
    ):
        # The writer never waits on one epoch: with the only shard's
        # worker down, every batch is accepted and its epoch stays open;
        # once it restarts they release in submission order.
        _program, stream = build_workload()
        epochs = -(-len(stream) // BATCH)

        async def scenario():
            cluster = one_worker_cluster(tmp_path)
            try:
                port = await cluster.start()
                router = cluster.router
                node, _shard = await hold_shard(cluster)
                peer = await RawPeer.tcp(port)
                await peer.send(Hello(client_id="pipe"), Subscribe())
                await peer.recv_until(Welcome)
                await send_batches(peer, stream)
                await eventually(lambda: router.epochs_open == epochs)
                with pytest.raises(asyncio.TimeoutError):
                    await peer.recv(timeout=0.2)  # nothing acked or pushed
                await cluster.restart_worker(node)
                events = await read_until_acked(peer, len(stream) - 1)
                peer.close()
                return events, router.epochs_open
            finally:
                await cluster.stop()

        events, still_open = asyncio.run(scenario())
        assert still_open == 0
        assert_released_in_order(events)

    def test_unreleased_epochs_are_bounded_by_the_submit_queue(self, tmp_path):
        # Unreleased epochs hold submit-queue slots: with the shard's
        # worker down, two epochs open, two more batches wait in the
        # queue, and the writer takes no more until something releases.
        _program, stream = build_workload()

        async def scenario():
            cluster = one_worker_cluster(tmp_path, submit_queue=2)
            try:
                port = await cluster.start()
                router = cluster.router
                node, _shard = await hold_shard(cluster)
                peer = await RawPeer.tcp(port)
                await peer.send(Hello(client_id="bounded"))
                await peer.recv_until(Welcome)
                await send_batches(peer, stream[: 6 * BATCH])
                summary = cluster.server.session_summary
                await eventually(lambda: summary()["submit_queue_depth"] == 2)
                await asyncio.sleep(0.1)
                held = router.epochs_open, summary()["submit_queue_depth"]
                await cluster.restart_worker(node)
                events = await read_until_acked(peer, 6 * BATCH - 1)
                peer.close()
                return held, events[-1], router.epochs_open
            finally:
                await cluster.stop()

        held, last, still_open = asyncio.run(scenario())
        assert held == (2, 2)
        assert last == ("ack", 6 * BATCH - 1)
        assert still_open == 0

    def test_reconnect_reroutes_unacked_seqs_and_workers_dedupe(
        self, tmp_path
    ):
        # HELLO rewinds the dedup frontier to the ack frontier: a client
        # that reconnects while its epochs are open resends them, the
        # front server routes them again, and the worker drops the
        # copies by provenance — every detection still arrives once.
        program, stream = build_workload()
        epochs = -(-len(stream) // BATCH)

        async def scenario():
            cluster = one_worker_cluster(tmp_path)
            try:
                port = await cluster.start()
                router = cluster.router
                node, shard = await hold_shard(cluster)
                first = await RawPeer.tcp(port)
                await first.send(Hello(client_id="flaky"))
                await first.recv_until(Welcome)
                await send_batches(first, stream)
                await eventually(lambda: router.epochs_open == epochs)
                second = await RawPeer.tcp(port)
                await second.send(Hello(client_id="flaky"), Subscribe())
                welcome = await second.recv_until(Welcome)
                await send_batches(second, stream)
                await eventually(lambda: router.epochs_open == 2 * epochs)
                await cluster.restart_worker(node)
                events = await read_until_acked(second, len(stream) - 1)
                first.close()
                second.close()
                (worker,) = cluster.workers.values()
                skipped = (
                    cluster.server.stats.duplicates_skipped,
                    worker.servers[shard].stats.duplicates_skipped,
                )
                return welcome.next_seq, events, router.stats.routed, skipped
            finally:
                await cluster.stop()

        next_seq, events, routed, skipped = asyncio.run(scenario())
        assert next_seq == 0
        assert routed == 2 * len(stream)
        assert skipped == (0, len(stream))  # the front routed, the worker dropped
        assert_released_in_order(events)
        once = Engine(parse_rules(program), store=RfidStore()).submit_many(stream)
        assert sum(kind == "detection" for kind, _seq in events) == len(once)
