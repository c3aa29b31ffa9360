"""Hot-path guards: making a record durable builds no JSON encoder, and
commits a batch at a time.

WAL bodies and outbox intent/ack lines have fixed shapes and are
formatted from templates (``repro.resilience.durability``).  The
regression this guards against is the one that made the outbox the
slowest layer of the served path: ``json.dumps(record, separators=...)``
per record, each call constructing a ``JSONEncoder``.  It is a count,
not a timing, so it is deterministic on any host: the number of encoder
constructions — and of trips through the general encoder at all — over a
``DurableEngine.submit_many`` run with a sink must depend on the number
of checkpoints only, never on observations or detections.

The second guard counts Python calls per observation (``sys.setprofile``
``"call"`` events) over ``DurableEngine.submit_many`` plus ``flush``:
the group-commit path encodes a batch's WAL records in one template pass,
detects the batch in one ``Engine.submit_many`` call whose ``ends`` tag
each detection with its record's seq, and delivers the detections in one
outbox loop, so what is left per observation is the engine's own work,
the record template and the deliveries.  With a WAL call, an encoder and
two journal writes per record the returns-fraud count was 38.5 (the bare
engine's is 21.2), and the cluster worker's program — ``file_sink`` and
a checkpoint every 500 observations — cost 35.7; one batch commit took
them to 26.9 and 22.75, and one detection call per batch to 23.9 and
19.7.  Packing each batch into one columnar WAL batch record, instead
of one JSON record per observation, took them to 22.9 and 18.8.

The third guard counts what the WAL itself costs per observation on
the same returns-fraud run: bytes logged (the interned columns are
about 35 B per reading, where one JSON record per reading was 113 B on
the served path) and C-level calls made from ``wal.py`` (``c_call``
events whose caller is in that file; 15.0 per observation when each
reading was its own templated record, and a handful per batch now).

The fourth guard counts ``os.fsync`` calls per automatic checkpoint of
the cluster worker's program: 4 (the WAL, the checkpoint file and its
directory, the outbox compaction), where a ``clients-*.json`` frontier
sidecar and its directory made 6.  The fifth counts what the router's
link carries to a durable worker: no JSON ``BATCH`` for a packable
sub-batch, and 47.536 bytes per relayed observation in columnar
``BRELAY`` batch records, where the JSON ``BATCH`` with ``prov`` took
77.306.

The last guard counts Python calls per pushed detection from the
backend's release to the subscriber's encoded push bytes, for a direct
``CepServer`` subscriber and through the router.  Every pushed firing
is one ``DetectionFrame`` from release to wire: 1.145 calls direct, and
2.81 routed, where the router fanned in a payload dict per firing from
a JSON link (6.31).  Two runs must count exactly the same, and the
count runs with the garbage collector off, after a collection, so
finalizers left by earlier tests do not land in it.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import sys

import pytest

from repro import Engine, FunctionRegistry
from repro.lang import parse_rules
from repro.resilience.durability import DurableEngine
from repro.resilience.durability import wal as wal_module
from repro.scenarios import get_pack
from repro.serve import CepServer
from repro.serve.cluster import CepRouter, file_sink, plan_cluster
from repro.serve.protocol import (
    Ack,
    Batch,
    FrameDecoder,
    Hello,
    encode_frame_into,
    received_frames,
)
from repro.serve.server import _Session
from repro.store import RfidStore
from repro.workload import GeneratedWorkload, WorkloadConfig

BATCH = 250
CHECKPOINTS = 2
#: Observations per client batch on the served path.
BATCH_SERVED = 256


def _run_counting(monkeypatch, tmp_path, workload, n_observations):
    """(encoders built, general-encoder calls, deliveries) for one run."""
    built = []
    encoded = []
    original_init = json.JSONEncoder.__init__
    original_iterencode = json.JSONEncoder.iterencode

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original_init(self, *args, **kwargs)

    def counting_iterencode(self, *args, **kwargs):
        encoded.append(1)
        return original_iterencode(self, *args, **kwargs)

    observations = workload.observations[:n_observations]
    assert len(observations) == n_observations
    deliveries = []
    with DurableEngine(
        lambda: Engine(workload.rules, context="chronicle"),
        str(tmp_path / f"state-{n_observations}"),
        checkpoint_every=n_observations // CHECKPOINTS,
        sink=lambda detection, seq, ordinal: deliveries.append(seq),
    ) as durable:
        with monkeypatch.context() as patch:
            patch.setattr(json.JSONEncoder, "__init__", counting_init)
            patch.setattr(json.JSONEncoder, "iterencode", counting_iterencode)
            for start in range(0, n_observations, BATCH):
                durable.submit_many(
                    observations[start : start + BATCH], client=("guard", start)
                )
        assert durable.checkpoints_written == CHECKPOINTS
        assert durable.wal.appended == n_observations
    return len(built), len(encoded), len(deliveries)


def test_encoder_use_does_not_scale_with_records(
    monkeypatch, tmp_path, small_workload
):
    built_1k, encoded_1k, delivered_1k = _run_counting(
        monkeypatch, tmp_path, small_workload, 1000
    )
    built_2k, encoded_2k, delivered_2k = _run_counting(
        monkeypatch, tmp_path, small_workload, 2000
    )
    assert delivered_1k > 100 and delivered_2k >= 2 * delivered_1k - 10
    # Twice the observations and detections, the same encoder work: what
    # is left is the checkpoint file per checkpoint.
    assert (built_2k, encoded_2k) == (built_1k, encoded_1k)
    assert built_2k <= 4 * CHECKPOINTS
    assert encoded_2k <= 4 * CHECKPOINTS


def _generated(pack, size):
    source = get_pack(pack).episode_source(lines=4)
    config = WorkloadConfig(
        pack=pack, seed=7, target_observations=size, lines=4,
        cardinality=100_000, theta=0.9,
    )
    return source, list(GeneratedWorkload(source, config))


def _returns_fraud(directory, size):
    """Store-reading and -writing rules, a no-op sink, no checkpoints."""
    source, observations = _generated("returns-fraud", size)

    def make_engine():
        store = RfidStore()
        for reader, location in source.placements():
            store.place_reader(reader, location)
        return Engine(
            source.rules(), store=store, functions=FunctionRegistry(),
            context="chronicle",
        )

    durable = DurableEngine(
        make_engine, directory, checkpoint_every=0, sink=lambda *_: None
    )
    return durable, observations


def _cluster_worker(directory, size):
    """What a cluster worker builds: ``file_sink``, Cluster's cadence."""
    source, observations = _generated("packing", size)
    program = source.program
    durable = DurableEngine(
        lambda: Engine(
            parse_rules(program), context="chronicle", store=RfidStore()
        ),
        directory,
        checkpoint_every=500,
        sink=file_sink(os.path.join(directory, "deliveries.jsonl")),
    )
    return durable, observations


def durable_calls_per_observation(build, directory, size) -> float:
    durable, observations = build(directory, size)
    with durable:
        durable.submit(observations[0])  # builds the engine's plan
        rest = observations[1:]
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(count)
        try:
            for start in range(0, len(rest), BATCH_SERVED):
                durable.submit_many(
                    rest[start : start + BATCH_SERVED], client=("guard", start)
                )
            durable.flush()
        finally:
            sys.setprofile(None)
    return calls / len(rest)


@pytest.mark.parametrize(
    "build, sizes, ceiling",
    [(_returns_fraud, (4000, 8000), 23.5), (_cluster_worker, (4000,), 19.5)],
    ids=["returns-fraud", "cluster-worker"],
)
def test_durable_calls_per_observation_are_bounded(
    tmp_path, build, sizes, ceiling
):
    counts = [
        durable_calls_per_observation(build, str(tmp_path / str(size)), size)
        for size in sizes
    ]
    print("\ndurable calls per observation: " + ", ".join(
        f"{count:.2f} at {size}" for count, size in zip(counts, sizes)
    ))
    # Flat where nothing grows with the stream; a checkpoint's size does.
    assert max(counts) - min(counts) <= 0.1
    assert counts[0] <= ceiling


def wal_cost_per_observation(directory, size) -> tuple[float, float]:
    """(WAL bytes, C calls made from ``wal.py``) per observation through
    ``DurableEngine.submit_many`` on returns-fraud, served batch size."""
    durable, observations = _returns_fraud(directory, size)
    wal_file = wal_module.__file__
    with durable:
        durable.submit(observations[0])  # builds the engine's plan
        rest = observations[1:]
        before = durable.wal.bytes_written
        c_calls = 0

        def count(frame, event, arg):
            nonlocal c_calls
            if event == "c_call" and frame.f_code.co_filename == wal_file:
                c_calls += 1

        sys.setprofile(count)
        try:
            for start in range(0, len(rest), BATCH_SERVED):
                durable.submit_many(
                    rest[start : start + BATCH_SERVED], client=("guard", start)
                )
        finally:
            sys.setprofile(None)
        written = durable.wal.bytes_written - before
    return written / len(rest), c_calls / len(rest)


def test_wal_bytes_and_c_calls_per_observation_are_bounded(tmp_path):
    costs = [
        wal_cost_per_observation(str(tmp_path / str(size)), size)
        for size in (4000, 8000)
    ]
    print("\nWAL per observation: " + ", ".join(
        f"{b:.2f} B and {c:.3f} C calls at {size}"
        for (b, c), size in zip(costs, (4000, 8000))
    ))
    for bytes_per, c_calls_per in costs:
        assert bytes_per <= 40
        assert c_calls_per <= 1


# -- fsyncs per checkpoint -----------------------------------------------------


def fsyncs_per_checkpoint(monkeypatch, directory, size=4000):
    """``os.fsync`` calls made by each automatic checkpoint of the
    cluster worker's program over served batches, in order, and how many
    the run made outside a checkpoint (none: ``FsyncPolicy.NEVER``)."""
    durable, observations = _cluster_worker(directory, size)
    fsyncs = 0
    real_fsync = os.fsync

    def counting_fsync(fd):
        nonlocal fsyncs
        fsyncs += 1
        real_fsync(fd)

    per_checkpoint = []
    checkpoint_now = durable.checkpoint_now

    def counted_checkpoint():
        before = fsyncs
        path = checkpoint_now()
        per_checkpoint.append(fsyncs - before)
        return path

    durable.checkpoint_now = counted_checkpoint
    with durable:
        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", counting_fsync)
            for start in range(0, len(observations), BATCH_SERVED):
                durable.submit_many(
                    observations[start : start + BATCH_SERVED],
                    client=("guard", start),
                )
        assert durable.checkpoints_written == len(per_checkpoint)
    return per_checkpoint, fsyncs - sum(per_checkpoint)


def test_fsyncs_per_checkpoint_are_pinned(monkeypatch, tmp_path):
    """The WAL, the checkpoint file and its directory, and the outbox
    compaction: 4 per checkpoint, where the ``clients-*.json`` sidecar
    and its directory made 6.  The second checkpoint's compaction finds
    nothing new to drop (the oldest retained checkpoint is still the
    first) and skips its rewrite."""
    per_checkpoint, elsewhere = fsyncs_per_checkpoint(
        monkeypatch, str(tmp_path / "state")
    )
    print(f"\nfsyncs per checkpoint: {per_checkpoint}, {elsewhere} elsewhere")
    assert elsewhere == 0
    assert per_checkpoint == [4, 3, 4, 4, 4, 4, 4]


# -- the relay: router link bytes ------------------------------------------------


async def relay_link_frames(directory, size=4000):
    """``(JSON BATCH frames, link bytes per relayed observation)`` of the
    router's sub-batches to one durable worker, on the cluster worker's
    ``packing`` program in served batches over real localhost TCP.

    Every packable sub-batch goes as one columnar ``BRELAY``; the bytes
    are those of the link's batch frames, counted as the worker's
    decoder consumes them.
    """
    durable, observations = _cluster_worker(directory, size)
    program = get_pack("packing").episode_source(lines=4).program
    plan = plan_cluster(parse_rules(program), 1)
    (shard,) = plan.shard_plan.shard_names
    json_batches = batch_bytes = 0
    feed = FrameDecoder.feed

    def counting_feed(decoder, data):
        nonlocal json_batches, batch_bytes
        consumed = decoder.bytes_consumed
        for frame in feed(decoder, data):
            if isinstance(frame, Batch):
                json_batches += frame.__class__ is Batch
                batch_bytes += decoder.bytes_consumed - consumed
            consumed = decoder.bytes_consumed
            yield frame

    with durable:
        worker = CepServer(durable)
        port = await worker.serve_tcp("127.0.0.1", 0)
        router = CepRouter(plan, {shard: ("127.0.0.1", port)})
        await router.start()
        FrameDecoder.feed = counting_feed
        try:
            for start in range(0, len(observations), BATCH_SERVED):
                await router.submit_many(
                    observations[start : start + BATCH_SERVED],
                    client=("guard", start),
                )
        finally:
            FrameDecoder.feed = feed
            await router.close()
            await worker.close()
        assert durable.client_frontiers == {"guard": len(observations) - 1}
    return json_batches, batch_bytes / len(observations)


def test_relay_sends_columns_with_pinned_bytes(tmp_path):
    """Zero JSON ``BATCH`` frames for packable sub-batches (there were
    16, one per sub-batch), and the link bytes per relayed observation
    pinned: 47.536 in ``BRELAY`` batch records, where the JSON ``BATCH``
    with ``prov`` took 77.306."""
    json_batches, per_observation = asyncio.run(
        relay_link_frames(str(tmp_path / "worker"))
    )
    print(f"\nrelay: {json_batches} JSON BATCH frames, "
          f"{per_observation:.3f} link bytes per observation")
    assert json_batches == 0
    assert round(per_observation, 3) == 47.536


# -- the push path: backend release to encoded push bytes ---------------------

def _subscribed(server, hello):
    """A session of ``server`` after a real handshake and SUBSCRIBE, with
    no transport: the guard plays its sender task (:func:`_drain`)."""
    session = _Session(hello.client_id, None, None)
    server._sessions.add(session)
    server._handshake(session, hello)
    session.subscribed = True
    _drain(session, bytearray())  # the WELCOME
    return session


def _drain(session, buffer):
    """Encode what ``CepServer._sender_loop`` would write for ``session``."""
    outbound = session.outbound
    while not outbound.empty():
        item = outbound.get_nowait()
        if item.__class__ is list:  # the coalesced ["ack", seq] box
            session.tail_ack = None
            encode_frame_into(Ack(seq=item[1]), buffer)
        elif item == "push":
            encode_frame_into(session.push_buffer.popleft(), buffer)
        else:
            encode_frame_into(item, buffer)


def _profiled(step, counter):
    """Count ``step`` alone: a collection inside the window would run
    finalizers left by whatever ran before, so the collector runs first
    and stays off until the profiler is unhooked."""
    gc.collect()
    gc.disable()
    sys.setprofile(counter)
    try:
        step()
    finally:
        sys.setprofile(None)
        gc.enable()


async def push_calls_per_detection(routed, size=2000):
    """Python calls per pushed detection, from the backend's release to
    the subscriber's encoded push bytes, on the cluster worker's
    ``packing`` program in served batches.

    Direct: ``CepServer._release`` of each batch's detections, then the
    subscriber's frames.  Routed (one worker, as ``cluster-w1``): the
    worker's release to its link session, the link's frame handling
    (``WorkerLink._on_frame``) of those bytes, and the front server's
    release of the epoch.  Detection itself, and the router's split and
    relay of the batch, happen outside the count.  A coroutine only
    because the router's epochs are futures of the running loop.
    """
    source, observations = _generated("packing", size)
    rules = parse_rules(source.program)
    plan = plan_cluster(rules, 1)
    (shard,) = plan.shard_plan.shard_names
    engine = Engine(rules, context="chronicle", store=RfidStore())
    if routed:
        router = CepRouter(plan, {shard: ("127.0.0.1", 0)})
        link = router.links[shard]
        worker = CepServer(engine)
        link_session = _subscribed(worker, link.hello())
        server = CepServer(router)
    else:
        server = CepServer(engine)
    subscriber = _subscribed(server, Hello("guard"))
    pushed = bytearray()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    for first in range(0, size, BATCH_SERVED):
        batch = observations[first : first + BATCH_SERVED]
        last = first + len(batch) - 1
        if routed:
            released = router.submit_many(batch, client=("guard", first))
            entry = link.pending[-1]
            detections = engine.submit_many(entry.observations)
        else:
            released = engine.submit_many(batch)

        def release():
            if routed:
                worker._release(link_session.record, entry.last, detections)
                wire = bytearray()
                _drain(link_session, wire)
                for frame in FrameDecoder().feed(bytes(wire)):
                    link._on_frame(frame)
            server._release(subscriber.record, last, released)
            _drain(subscriber, pushed)

        _profiled(release, count)
    received = sum(
        len(received_frames(frame)) for frame in FrameDecoder().feed(bytes(pushed))
    )
    return calls / received, received


@pytest.mark.parametrize(
    "routed, ceiling", [(False, 1.15), (True, 2.82)], ids=["direct", "router"]
)
def test_push_calls_per_detection_are_pinned(routed, ceiling):
    runs = [asyncio.run(push_calls_per_detection(routed)) for _ in range(2)]
    print(f"\npush calls per detection: {runs[0][0]:.3f} "
          f"over {runs[0][1]} detections")
    assert runs[0] == runs[1]
    assert runs[0][1] > 100
    assert runs[0][0] <= ceiling
