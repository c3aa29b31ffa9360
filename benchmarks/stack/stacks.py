"""The rungs: ways of pushing one input through more and more of the stack.

Every layer is driven from outside through public calls and read
through its always-on counters.  A rung runner builds a fresh stack,
times first submit → last expected detection, tears the stack down and
returns a :class:`Pass`; the isolated-call measurements at the bottom
time one layer's entry point on the same batches.
"""

from __future__ import annotations

import asyncio
import gc
import os
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from harness import SinkAudit, Spans, audit_sink_file
from spec import BATCH

from repro.resilience.durability import (
    DurableEngine,
    FsyncPolicy,
    WalWriter,
    encode_observation,
    segment_files,
)
from repro.resilience.durability.engine import CLIENT_KEY
from repro.serve import (
    AsyncClient,
    CepServer,
    ServeConfig,
    loopback_connector,
    tcp_connector,
)
from repro.serve.cluster import SINK_FILENAME, Cluster
from repro.serve.protocol import (
    Batch,
    DetectionBatch,
    DetectionFrame,
    FrameDecoder,
    detection_payload,
    encode_frame,
    get_codec,
)

#: How long a served pass waits, after the flush ack, for detections
#: still in flight before it lets the oracle count them as missing.
DETECTION_TAIL_S = 10.0
#: The open-loop generator wakes at least this often (the issue's ≤5 ms).
TICK_S = 0.002
CLIENT_ID = "bench"


@dataclass
class Pass:
    """One pass of one rung."""

    elapsed_s: float
    cpu_s: float
    #: detections as the caller of this rung sees them (Detection
    #: objects in-process, DetectionFrames over the wire)
    got: list
    #: observations the backend reports applied
    applied: int
    engine: Any = None
    audit: Optional[SinkAudit] = None
    stats: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def release(self) -> None:
        """Keep the numbers, drop the objects, once the pass is judged.

        A pass is kept for its timings; were it to keep its detections
        and engine too, every later pass would run (and collect garbage)
        over a heap one stream larger, and ``peak_rss_mb`` would measure
        the harness.
        """
        if self.engine is not None:
            self.stats["engine_stats"] = self.engine.stats
            store = getattr(self.engine, "store", None)
            if store is not None:
                self.stats["store_rows"] = sum(store.counts().values())
        self.stats["records"] = len(self.got)
        self.got = []
        self.engine = None
        self.audit = None


# -- in-process rungs --------------------------------------------------------------


def engine_pass(
    make_engine: Callable[[], Any], batches: Sequence, spans: Spans, label: str,
    pass_index: int = 0,
) -> Pass:
    """Batches through a bare ``Engine.submit_many``, then ``flush``."""
    engine = make_engine()
    got: list = []
    gc.collect()
    cpu0, t0 = time.process_time(), time.perf_counter()
    with spans.span(label, pass_index=pass_index):
        for batch in batches:
            with spans.call("engine.submit_many"):
                got += engine.submit_many(batch)
        with spans.call("engine.flush"):
            got += engine.flush()
    elapsed, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    return Pass(elapsed, cpu, got, engine.stats.observations, engine=engine)


def durable_pass(
    factory: Callable[[], Any],
    batches: Sequence,
    directory: str,
    spans: Spans,
    label: str,
    pass_index: int = 0,
    *,
    checkpoint_every: int,
    sink: Optional[Callable] = None,
    before_close: Optional[Callable[[DurableEngine], None]] = None,
) -> Pass:
    """Batches through an in-process ``DurableEngine`` (WAL, maybe outbox).

    Carries the same ``(client_id, seq)`` provenance the server would,
    so this rung and the served ones write identical WAL records.
    """
    durable = DurableEngine(
        factory,
        directory,
        fsync="never",
        checkpoint_every=checkpoint_every,
        sink=sink,
    )
    try:
        got: list = []
        seq = 0
        gc.collect()
        cpu0, t0 = time.process_time(), time.perf_counter()
        with spans.span(label, pass_index=pass_index):
            for batch in batches:
                with spans.call("durable.submit_many"):
                    got += durable.submit_many(batch, client=(CLIENT_ID, seq))
                seq += len(batch)
            with spans.call("durable.flush"):
                got += durable.flush(client=(CLIENT_ID, seq))
        elapsed, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        result = Pass(
            elapsed,
            cpu,
            got,
            durable.stats.observations,
            engine=durable,
            stats={"checkpoints_written": durable.checkpoints_written},
        )
        if before_close is not None:
            before_close(durable)
        return result
    finally:
        durable.close()


# -- served rungs ------------------------------------------------------------------


class Receiver:
    """``on_detection`` callback: counts, and stamps arrivals when asked."""

    def __init__(self, expected: Optional[int]) -> None:
        self.expected = expected
        self.count = 0
        self.done = asyncio.Event()
        #: ``(arrival perf_counter, detection time)`` per frame, when on
        self.stamps: Optional[list] = None
        if expected == 0:
            self.done.set()

    def __call__(self, frame: DetectionFrame) -> None:
        self.count += 1
        if self.stamps is not None:
            self.stamps.append((time.perf_counter(), frame.time))
        if self.count == self.expected:
            self.done.set()


def _subscribed_client(connector: Callable, receiver: Receiver) -> AsyncClient:
    """The one client every served rung uses."""
    return AsyncClient(
        connector,
        client_id=CLIENT_ID,
        codec="binary",
        batch_size=BATCH,
        subscribe=True,
        on_detection=receiver,
    )


class ServedStack:
    """``AsyncClient`` → (loopback | TCP) → ``CepServer`` → ``DurableEngine``."""

    def __init__(
        self,
        factory: Callable[[], Any],
        directory: str,
        expected: Optional[int],
        *,
        transport: str,
        checkpoint_every: int,
        sink: Callable,
    ) -> None:
        self.factory = factory
        self.directory = directory
        self.transport = transport
        self.kwargs = dict(
            fsync="never", checkpoint_every=checkpoint_every, sink=sink
        )
        self.receiver = Receiver(expected)
        self.push_queue = (expected or 0) + 64
        self.durable: Any = None
        self.server: Any = None
        self.client: Any = None
        self.aborted = False

    async def start(self) -> None:
        self.durable = DurableEngine(self.factory, self.directory, **self.kwargs)
        # The push queue is sized past the expected detections so the
        # slow-consumer policy never fires: this measures the clean path.
        self.server = CepServer(
            self.durable, config=ServeConfig(push_queue=self.push_queue)
        )
        if self.transport == "tcp":
            port = await self.server.serve_tcp("127.0.0.1", 0)
            connector = tcp_connector("127.0.0.1", port)
        else:
            await self.server.start()
            connector = loopback_connector(self.server)
        self.client = _subscribed_client(connector, self.receiver)
        await self.client.connect()

    async def stop(self) -> None:
        if self.client is not None:
            await self.client.close()
        if self.server is not None and not self.aborted:
            await self.server.close()
        if self.durable is not None:
            self.durable.close()

    async def abort(self) -> None:
        """``kill -9`` the server; the durable directory is left as it fell."""
        await self.server.abort()
        self.aborted = True

    def finish(self, result: Pass, submitted: int) -> Pass:
        """Attach what the stack's counters say about the pass just run."""
        result.applied = self.durable.stats.observations
        result.engine = self.durable
        stats = self.server.stats
        result.stats.update(
            frames_in=stats.frames_in,
            frames_out=stats.frames_out,
            bytes_in=stats.bytes_in,
            bytes_out=stats.bytes_out,
            acks_sent=stats.acks_sent,
            detections_pushed=stats.detections_pushed,
            detections_dropped=stats.detections_dropped,
            reconnects=self.client.reconnects,
            checkpoints_written=self.durable.checkpoints_written,
            outbox_delivered=self.durable.outbox.delivered,
        )
        # The end-of-stream FLUSH takes its own seq: all three frontiers
        # must sit exactly on it.
        frontiers = {
            "client": self.client.last_acked,
            "server": self.server.client_frontier(CLIENT_ID),
            "durable": self.durable.client_frontiers.get(CLIENT_ID, -1),
        }
        if set(frontiers.values()) != {submitted}:
            result.problems.append(
                f"frontiers disagree: {frontiers}, submitted {submitted}"
            )
        return result


class ClusterStack:
    """``AsyncClient`` → ``CepRouter`` → one ``WorkerProcess`` subprocess."""

    def __init__(
        self, program: str, directory: str, expected: Optional[int]
    ) -> None:
        self.directory = directory
        self.receiver = Receiver(expected)
        self.cluster = Cluster(
            program,
            workers=1,
            directory=directory,
            sink=True,
            inprocess=False,
            router_config=ServeConfig(push_queue=(expected or 0) + 64),
        )
        self.client: Any = None

    async def start(self) -> None:
        port = await self.cluster.start()
        self.client = _subscribed_client(
            tcp_connector("127.0.0.1", port), self.receiver
        )
        await self.client.connect()

    async def stop(self) -> None:
        if self.client is not None:
            await self.client.close()
        await self.cluster.stop()

    def finish(self, result: Pass, submitted: int) -> Pass:
        """Router counters and the worker's on-disk sink, after ``stop``."""
        router = self.cluster.router.stats
        result.stats.update(
            epochs=router.epochs,
            routed=router.routed,
            multicast=router.multicast,
            reconnects=self.client.reconnects + router.worker_reconnects,
        )
        # The worker is another process: what it applied is what the
        # router routed and the client saw acked.
        result.applied = router.routed
        if self.client.last_acked != submitted:
            result.problems.append(
                f"client acked {self.client.last_acked}, submitted {submitted}"
            )
        (shard, node), = self.cluster.plan.assignment.items()
        result.audit = audit_sink_file(
            os.path.join(self.directory, node, shard, SINK_FILENAME)
        )
        return result


async def closed_loop(
    stack: Any, batches: Sequence, spans: Spans, label: str, pass_index: int = 0
) -> Pass:
    """One client; the next batch goes after the previous write drains.

    Timed from the first submit to the last expected detection received,
    not merely to the flush ack.
    """
    client, receiver = stack.client, stack.receiver
    gc.collect()
    cpu0, t0 = time.process_time(), time.perf_counter()
    with spans.span(label, pass_index=pass_index):
        for batch in batches:
            with spans.call("client.submit_many"):
                await client.submit_many(batch)
        with spans.call("client.flush"):
            await client.flush(timeout=120.0)
        with spans.call("client.await_detections"):
            await _await_tail(receiver)
    elapsed, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    return Pass(elapsed, cpu, client.detections, 0)


async def _await_tail(receiver: Receiver) -> None:
    if receiver.expected is None:
        return
    try:
        await asyncio.wait_for(receiver.done.wait(), DETECTION_TAIL_S)
    except asyncio.TimeoutError:
        pass  # the oracle comparison counts what never arrived


async def open_loop(
    stack: Any, observations: Sequence, rate: int, spans: Spans
) -> Pass:
    """Observation ``i`` is due at ``t0 + i/rate``, whatever the system does.

    Each detection is timed from the *due* time of its trigger — the
    first observation whose timestamp reaches the detection's ``time`` —
    so a stall is charged to every observation queued behind it.  The
    returned pass carries sorted ``latencies`` (seconds) and ``lags``
    (how late the generator handed over each tick's oldest observation)
    in its ``stats``.
    """
    client, receiver = stack.client, stack.receiver
    receiver.stamps = []
    timestamps = [observation.timestamp for observation in observations]
    total = len(observations)
    lags = []
    sent = 0
    gc.collect()
    cpu0 = time.process_time()
    with spans.span("open_loop"):
        t0 = time.perf_counter()
        while sent < total:
            now = time.perf_counter()
            due = min(total, int((now - t0) * rate) + 1)
            if due > sent:
                lags.append(now - (t0 + sent / rate))
                await client.submit_many(observations[sent:due])
                sent = due
            await asyncio.sleep(TICK_S)
        await client.flush(timeout=120.0)
        await _await_tail(receiver)
        elapsed = time.perf_counter() - t0
    latencies = sorted(
        arrived - (t0 + bisect_left(timestamps, when) / rate)
        for arrived, when in receiver.stamps
    )
    return Pass(
        elapsed,
        time.process_time() - cpu0,
        client.detections,
        0,
        stats={"latencies": latencies, "lags": sorted(lags)},
    )


# -- isolated calls ----------------------------------------------------------------


def _timed(spans: Spans, name: str, parent: Optional[int], work: Callable) -> float:
    with spans.span(name, parent=parent):
        started = time.perf_counter()
        work()
        return time.perf_counter() - started


def measure_wal(
    batches: Sequence, directory: str, spans: Spans, parent: Optional[int],
    *, fsync: str,
) -> dict:
    """``WalWriter.append_many`` of the workload's batches, nothing else."""
    records = []
    seq = 0
    for batch in batches:
        run = []
        for observation in batch:
            payload = encode_observation(observation)
            payload[CLIENT_KEY] = [CLIENT_ID, seq]
            run.append((seq, payload))
            seq += 1
        records.append(run)
    writer = WalWriter(directory, fsync=FsyncPolicy.parse(fsync))
    try:
        elapsed = _timed(
            spans,
            f"wal.append_many[{fsync}]",
            parent,
            lambda: [writer.append_many(run) for run in records],
        )
        return {
            "append_s": elapsed,
            "bytes": writer.bytes_written,
            "appends": writer.appended,
            "segments": len(segment_files(directory)),
        }
    finally:
        writer.close()


def measure_obs_codec(
    batches: Sequence, codec_name: str, spans: Spans, parent: Optional[int],
    *, relay: bool = False,
) -> tuple[float, float]:
    """Encode then decode every batch; returns ``(encode_s, decode_s)``.

    ``relay=True`` is what the router sends a worker: a JSON ``BATCH``
    carrying one source sequence number per observation.
    """
    buffer = bytearray()
    starts = []
    seq = 0
    for batch in batches:
        starts.append(seq)
        seq += len(batch)

    def encode() -> None:
        if relay:
            for first, batch in zip(starts, batches):
                prov = (CLIENT_ID, tuple(range(first, first + len(batch))))
                buffer.extend(
                    encode_frame(Batch(first, tuple(batch), prov=prov))
                )
        else:
            codec = get_codec(codec_name)
            for first, batch in zip(starts, batches):
                codec.encode_batch_into(buffer, first, batch)

    kind = "relay" if relay else codec_name
    encode_s = _timed(spans, f"protocol.encode_obs[{kind}]", parent, encode)
    data = bytes(buffer)
    decoded = []
    decode_s = _timed(
        spans,
        f"protocol.decode_obs[{kind}]",
        parent,
        lambda: decoded.extend(FrameDecoder().feed(data)),
    )
    if sum(len(frame.observations) for frame in decoded) != seq:
        raise AssertionError(f"{kind} codec round trip lost observations")
    return encode_s, decode_s


def measure_det_codec(
    groups: Sequence, spans: Spans, parent: Optional[int]
) -> tuple[float, float]:
    """The detection push path: one DETBATCH per submit's detections."""
    buffer = bytearray()

    def encode() -> None:
        for seq, group in enumerate(groups):
            payloads = []
            for ordinal, detection in enumerate(group):
                payload = detection_payload(detection)
                payload["seq"] = seq
                payload["ordinal"] = ordinal
                payloads.append(payload)
            if len(payloads) > 1:
                buffer.extend(encode_frame(DetectionBatch(tuple(payloads))))
            elif payloads:
                buffer.extend(
                    encode_frame(DetectionFrame.from_payload(payloads[0]))
                )

    encode_s = _timed(spans, "protocol.encode_det", parent, encode)
    data = bytes(buffer)
    frames: list = []

    def decode() -> None:
        for frame in FrameDecoder().feed(data):
            if isinstance(frame, DetectionBatch):
                frames.extend(
                    DetectionFrame.from_payload(p) for p in frame.detections
                )
            else:
                frames.append(frame)

    decode_s = _timed(spans, "protocol.decode_det", parent, decode)
    if len(frames) != sum(len(group) for group in groups):
        raise AssertionError("detection codec round trip lost detections")
    return encode_s, decode_s


def measure_sql(
    observations: Sequence, ops: int, spans: Spans, parent: Optional[int]
) -> dict:
    """``Table.insert``/``lookup`` at the workload's cardinality, and the
    paper's Rule 3 ``UPDATE … 'UC'`` + ``INSERT`` pair as SQL *text*."""
    from repro.store import RfidStore

    store = RfidStore()
    sale = store.database.table("SALE")
    rows = [[o.obj, o.reader, o.timestamp] for o in observations]
    insert_s = _timed(
        spans, "sql.Table.insert", parent, lambda: [sale.insert(r) for r in rows]
    )
    sale.lookup("object_epc", rows[0][0])  # builds the index, untimed
    lookup_s = _timed(
        spans,
        "sql.Table.lookup",
        parent,
        lambda: [sale.lookup("object_epc", r[0]) for r in rows],
    )
    database = store.database
    pairs = [
        {"o": o.obj, "loc": o.reader, "t": o.timestamp} for o in observations[:ops]
    ]

    def rule3() -> None:
        for params in pairs:
            database.execute(
                "UPDATE OBJECTLOCATION SET tend = t "
                "WHERE object_epc = o AND tend = 'UC'",
                params,
            )
            database.execute(
                "INSERT INTO OBJECTLOCATION VALUES (o, loc, t, 'UC')", params
            )

    text_s = _timed(spans, "sql.Database.execute[rule3]", parent, rule3)
    return {
        "sql.insert_us": insert_s / len(rows) * 1e6,
        "sql.lookup_us": lookup_s / len(rows) * 1e6,
        "sql.execute_text_us": text_s / len(pairs) * 1e6,
    }
