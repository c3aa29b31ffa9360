"""One detection record on the served path, and the bytes it leaves as.

Between a backend's release and the socket a pushed detection is a
:class:`~repro.serve.protocol.DetectionFrame`, on a direct ``CepServer``
and through the cluster router alike.  These tests pin what that must
not change and what it fixed:

* JSON ``DETBATCH`` bytes of plain detections equal the ones built the
  old way — ``detection_payload`` plus ``seq`` and ``ordinal`` per
  firing — for releases the columns cannot carry (the JSON fallback),
  directly and through the router, and the columns carry the same
  detections otherwise;
* every JSON push of a revision-tagged detection uses one key order,
  :meth:`DetectionFrame.to_payload`'s;
* the router's worker link is an ordinary binary-push subscriber: it
  receives ``BDETBATCH`` frames;
* an in-process worker kill leaves no file handle open.
"""

import asyncio
import gc
import json
import struct
import sys
import warnings
import zlib

import pytest

from repro import Engine, Observation, OutOfOrderPolicy
from repro.lang import parse_rules
from repro.serve import CepServer, loopback_connector
from repro.serve.client import AsyncClient, tcp_connector
from repro.serve.cluster import CepRouter, Cluster, WorkerLink, plan_cluster
from repro.serve.drill import cluster_program, kill_server, stand_up_server, tear_down
from repro.serve.protocol import (
    Ack,
    Batch,
    BinaryDetectionBatch,
    DetectionBatch,
    Flush,
    Hello,
    Subscribe,
    Welcome,
    decode_frame,
    detection_payload,
    encode_frame,
    received_frames,
)
from repro.simulator import simulate_multi_packing
from repro.store import RfidStore

DETBATCH = 0x0C
BATCH = 8


def workload(packable=True):
    trace = simulate_multi_packing(
        lines=1, cases_per_line=10, items_per_case=4, seed=5
    )
    stream = list(trace.observations)
    if not packable:
        # A NUL in every object id: the columns refuse such bindings,
        # so a binary session gets the JSON fallback.
        stream = [
            Observation(o.reader, o.obj + "\x00", o.timestamp) for o in stream
        ]
    return cluster_program(trace.reader_pairs), stream


def frame_bytes(frame_type, payload):
    body = json.dumps(payload, separators=(",", ":"), allow_nan=False).encode()
    crc = zlib.crc32(bytes((frame_type,)) + body)
    return (
        struct.pack("!I", 1 + len(body)) + bytes((frame_type,)) + body
        + struct.pack("!I", crc)
    )


def _split(wire):
    """(raw bytes, frame) per complete frame at the head of ``wire``."""
    out, offset = [], 0
    while len(wire) - offset >= 4:
        end = offset + 8 + struct.unpack_from("!I", wire, offset)[0]
        if end > len(wire):
            break
        out.append((wire[offset:end], decode_frame(wire[offset:end])[0]))
        offset = end
    return out


def expected_pushes(program, stream):
    """The JSON push bytes of one subscriber, built the old way: one
    ``detection_payload`` per firing plus its ``seq`` and ``ordinal``,
    one ``DETBATCH`` per release."""
    engine = Engine(parse_rules(program), context="chronicle", store=RfidStore())
    releases = []
    for first in range(0, len(stream), BATCH):
        chunk = stream[first : first + BATCH]
        releases.append((first + len(chunk) - 1, engine.submit_many(chunk)))
    releases.append((len(stream), engine.flush()))
    wire = b""
    for seq, detections in releases:
        payloads = []
        for ordinal, detection in enumerate(detections):
            payload = detection_payload(detection)
            payload["seq"] = seq
            payload["ordinal"] = ordinal
            payloads.append(payload)
        if payloads:
            wire += frame_bytes(DETBATCH, {"detections": payloads})
    return wire


class RawPeer:
    """A loopback peer that keeps the raw bytes it receives."""

    def __init__(self, server):
        self.reader, self.writer = server.connect_loopback()
        self.data = b""

    async def send(self, *frames):
        self.writer.write(b"".join(map(encode_frame, frames)))
        await self.writer.drain()

    async def pump(self):
        try:
            chunk = await asyncio.wait_for(self.reader.read(65536), 0.05)
        except asyncio.TimeoutError:
            return
        self.data += chunk

    def pushes(self):
        """The push frames after WELCOME, and the detections they carry."""
        pushed = [(raw, f) for raw, f in _split(self.data)
                  if not isinstance(f, (Welcome, Ack))]
        count = sum(len(received_frames(f)) for _raw, f in pushed)
        return pushed, count


async def serve_stream(server, stream, expected_count):
    """Subscribe one session, submit ``stream`` in JSON batches of
    :data:`BATCH` and a flush from an ingest peer, and return the
    subscriber's push frames once all have arrived."""
    subscriber = RawPeer(server)
    await subscriber.send(Hello(client_id="subscriber"), Subscribe())
    ingest = RawPeer(server)
    await ingest.send(Hello(client_id="ingest"))
    for first in range(0, len(stream), BATCH):
        await ingest.send(
            Batch(seq=first, observations=tuple(stream[first : first + BATCH]))
        )
    await ingest.send(Flush(seq=len(stream)))
    loop = asyncio.get_running_loop()
    deadline = loop.time() + 20
    while subscriber.pushes()[1] < expected_count:
        assert loop.time() < deadline, "pushes never arrived"
        await subscriber.pump()
    await subscriber.pump()  # nothing more may follow
    return subscriber.pushes()[0]


def run_direct(program, stream, count):
    async def scenario():
        engine = Engine(
            parse_rules(program), context="chronicle", store=RfidStore()
        )
        async with CepServer(engine) as server:
            return await serve_stream(server, stream, count)

    return asyncio.run(scenario())


def run_routed(program, stream, count, directory):
    async def scenario():
        cluster = Cluster(
            program, workers=1, directory=directory,
            inprocess=True,
        )
        try:
            await cluster.start()
            return await serve_stream(cluster.server, stream, count)
        finally:
            await cluster.stop()

    return asyncio.run(scenario())


@pytest.fixture
def link_frames(monkeypatch):
    """The classes of every frame the router's worker links handle."""
    seen = []
    on_frame = WorkerLink._on_frame

    def spy(self, frame):
        seen.append(type(frame))
        return on_frame(self, frame)

    monkeypatch.setattr(WorkerLink, "_on_frame", spy)
    return seen


class TestPlainPushBytes:
    @pytest.mark.parametrize("topology", ["direct", "router"])
    @pytest.mark.parametrize("packable", [True, False], ids=["columns", "nul"])
    def test_json_bytes_equal_the_payload_dict_bytes(
        self, topology, packable, tmp_path, link_frames
    ):
        program, stream = workload(packable)
        expected = expected_pushes(program, stream)
        want = [d for _raw, f in _split(expected) for d in received_frames(f)]
        count = len(want)
        # Releases of one firing and of several.
        assert {len(f.detections) == 1 for _raw, f in _split(expected)} == {
            True, False
        }
        if topology == "direct":
            pushed = run_direct(program, stream, count)
        else:
            pushed = run_routed(program, stream, count, str(tmp_path / "c"))
        if not packable:
            # The JSON fallback: one DETBATCH per release, whatever its
            # size.
            assert b"".join(raw for raw, _frame in pushed) == expected
        else:
            frames = [frame for _raw, frame in pushed]
            assert {type(f) for f in frames} == {BinaryDetectionBatch}
            assert [d for f in frames for d in f.detections] == want
        if topology == "router":
            # The worker link is an ordinary binary-push subscriber.
            pushes = set(link_frames) - {Ack, Welcome}
            assert pushes == (
                {BinaryDetectionBatch} if packable else {DetectionBatch}
            )


# -- revision-tagged pushes: one key order ------------------------------------

REVISION_PROGRAM = """
CREATE RULE missing_case, item never cased
ON WITHIN(observation('dock', o, t1); NOT observation('case', o, t2), 5sec)
IF true
DO ALERT 'missing case'
"""

TAGGED_KEYS = ["rule", "time", "bindings", "seq", "ordinal", "did", "rev",
               "status"]


def revise_engine():
    return Engine(
        parse_rules(REVISION_PROGRAM),
        store=RfidStore(),
        out_of_order=OutOfOrderPolicy.REVISE,
        revise_horizon=100.0,
    )


def revision_stream():
    """Two provisional answers, a retraction by a late read, finals."""
    return [
        Observation("dock", "o1", 0.0),
        Observation("dock", "o2", 10.0),
        Observation("dock", "o4", 11.0),
        Observation("case", "o1", 2.0),
        Observation("dock", "o3", 120.0),
        Observation("dock", "o5", 250.0),
    ]


class TestRevisionKeyOrder:
    @pytest.mark.parametrize("topology", ["direct", "router"])
    def test_every_json_push_uses_to_payload_order(self, topology):
        stream = revision_stream()

        async def scenario():
            if topology == "direct":
                async with CepServer(revise_engine()) as server:
                    return await serve_revisions(server, stream)
            plan = plan_cluster(parse_rules(REVISION_PROGRAM), 1)
            (shard,) = plan.shard_plan.shard_names
            worker = CepServer(revise_engine())
            port = await worker.serve_tcp("127.0.0.1", 0)
            router = CepRouter(plan, {shard: ("127.0.0.1", port)})
            await router.start()
            front = CepServer(router)
            try:
                return await serve_revisions(front, stream)
            finally:
                await front.close()
                await router.close()
                await worker.close()

        pushed = asyncio.run(scenario())
        sizes = set()
        for raw, _frame in pushed:
            # Tagged records take the columns' JSON fallback.
            assert raw[4] == DETBATCH
            payloads = json.loads(raw[5:-4])["detections"]
            sizes.add(len(payloads))
            for payload in payloads:
                assert list(payload) == TAGGED_KEYS
        # A release of one record and one of several.
        assert 1 in sizes and max(sizes) > 1


async def serve_revisions(server, stream):
    subscriber = RawPeer(server)
    await subscriber.send(Hello(client_id="subscriber"), Subscribe())
    producer = AsyncClient(
        loopback_connector(server), client_id="producer", batch_size=1
    )
    async with producer:
        # Two readings in one batch, then one at a time: both push sizes.
        await producer.submit_many(stream[:2])
        await producer.drain(timeout=10)
        for observation in stream[2:]:
            await producer.submit_many([observation])
            await producer.drain(timeout=10)
        await producer.flush(timeout=10)
    loop = asyncio.get_running_loop()
    deadline = loop.time() + 10
    while not any(_has_final(f) for _raw, f in subscriber.pushes()[0]):
        assert loop.time() < deadline, "finals never arrived"
        await subscriber.pump()
    return subscriber.pushes()[0]


def _has_final(frame):
    return any(f.status == "final" for f in received_frames(frame))


# -- an in-process kill closes what a dying process would ---------------------


def test_inprocess_kill_leaves_no_open_handles(tmp_path):
    """Kill, restart and recover a worker with ``ResourceWarning`` as an
    error: the aborted engines' WAL, journal and sink handles are closed
    by the kill, not left to the collector."""
    trace = simulate_multi_packing(
        lines=2, cases_per_line=4, items_per_case=5, seed=5
    )
    program = cluster_program(trace.reader_pairs)
    stream = list(trace.observations)

    async def scenario():
        cluster = Cluster(
            program, workers=2, directory=str(tmp_path / "kill"), sink=True,
            inprocess=True,
        )
        try:
            port = await cluster.start()
            client = AsyncClient(
                tcp_connector("127.0.0.1", port), client_id="kill",
                subscribe=True, batch_size=8,
            )
            async with client:
                half = len(stream) // 2
                await client.submit_many(stream[:half])
                await client.drain(timeout=30)
                victim = sorted(cluster.workers)[0]
                await cluster.kill_worker(victim)
                await cluster.restart_worker(victim)
                await client.submit_many(stream[half:])
                await client.flush(timeout=30)
        finally:
            await cluster.stop()

    assert not _leaked_handles(scenario)


def test_server_kill_leaves_no_open_handles(tmp_path):
    """The drill's server kill (``stand_up_server`` + ``kill_server``)
    with ``ResourceWarning`` as an error: the dead life's WAL segment
    and ``outbox.log`` are closed before the directory is recovered."""
    trace = simulate_multi_packing(
        lines=1, cases_per_line=4, items_per_case=5, seed=5
    )
    rules = parse_rules(cluster_program(trace.reader_pairs))
    stream = list(trace.observations)

    async def scenario():
        stand = await stand_up_server(
            str(tmp_path / "kill"),
            lambda: Engine(rules, context="chronicle", store=RfidStore()),
        )
        client = stand.client("kill", batch_size=8)
        try:
            await client.connect()
            half = len(stream) // 2
            await client.submit_many(stream[:half])
            await client.drain(timeout=30)
            await kill_server(stand)
            await client.submit_many(stream[half:])
            await client.flush(timeout=30)
        finally:
            await tear_down(stand, client)
        assert len(stand.servers) == 2
        assert stand.recovery.replayed_records >= half

    assert not _leaked_handles(scenario)


def _leaked_handles(scenario):
    """Run ``scenario`` with ``ResourceWarning`` as an error; the
    warnings raised, from finalizers too."""
    unraisable = []
    hook = sys.unraisablehook
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        sys.unraisablehook = unraisable.append
        try:
            asyncio.run(scenario())
            gc.collect()
        finally:
            sys.unraisablehook = hook
    return [
        str(entry.exc_value) for entry in unraisable
        if isinstance(entry.exc_value, ResourceWarning)
    ]
