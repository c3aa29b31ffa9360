"""repro.serve.cluster — multi-process sharded serving behind a router.

The paper's deployment story is a fleet of readers feeding one logical
detection service; a single Python process caps that service at one GIL.
This module promotes :class:`~repro.core.sharding.ShardedEngine`'s
placement to real processes:

* :func:`plan_cluster` — the deterministic placement: rules go to shards
  via :func:`repro.core.sharding.plan_shards` (the same single source of
  truth the in-process coordinator uses), at most one per node plus the
  catch-all shard, and shard *i* goes to node *i* mod N;
* :class:`ShardWorker` — one worker node: a :class:`~repro.serve.CepServer`
  per assigned shard, each over its own ``DurableEngine`` with a
  per-shard WAL (and, optionally, an exactly-once file sink);
* :class:`WorkerProcess` — the same worker as a supervised subprocess
  (``python -m repro cluster worker``), which is what buys real
  multi-core throughput;
* :class:`CepRouter` — the cluster's detection *backend*: splits every
  batch by the shard plan, relays sub-batches to workers with *source
  provenance* (the end client's id and seqs: in columns, as the
  worker's WAL batch record, or as the ``prov`` extension of
  :mod:`repro.serve.protocol` when the columns cannot carry them) and
  collects worker acks and detections back into per-batch *epochs*,
  each a future of its fan-in;
* :class:`Cluster` — spawn workers and the router from one config and
  serve the router with one :class:`~repro.serve.CepServer`, kill and
  recover workers.

Clients talk to that ``CepServer``, so a router session gets exactly a
server session: the same handshake, resume, heartbeat, idle
reaping, overload shedding, slow-consumer policy and client-record cap.

Delivery contract (documented, and exercised by the cluster drill):

* **Ingestion is exactly-once end to end.**  A worker logs each
  observation with the *end client's* ``(client_id, seq)`` provenance,
  so its recovered frontier dedupes router resends after any crash on
  either side of the router.  A reconnecting client resends from its
  ack frontier (the server rewinds its dedup frontier there), and the
  workers drop what they already applied.
* **Detection pushes are at-most-once across worker crashes.**  A
  detection whose push was lost with a dying worker is not regenerated
  (its observation is deduped on resend); durable *sinks* on the workers
  remain exactly-once via the action outbox.  Subscribers never see a
  duplicate.
* **Push order is deterministic**: the server releases epochs in client
  submission order, detections before the ack; within an epoch,
  detections are grouped by shard in route order (order of first
  appearance in the batch), then each worker's firing order, and
  revision-tagged detections are sorted by ``(detection_id, revision)``;
  ``seq`` is the client batch's last sequence number and ordinals run
  ``0..n-1``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, Optional
from uuid import uuid4

from ..core.errors import ReproError
from ..core.sharding import ShardPlan, plan_shards
from ..obs.instrument import Instruments
from ..obs.metrics import MetricsRegistry
from .protocol import (
    Ack,
    Batch,
    ErrorFrame,
    Flush,
    Frame,
    FrameDecoder,
    FrameError,
    Hello,
    NotPackable,
    Ping,
    Pong,
    RelayBatch,
    Subscribe,
    Welcome,
    detection_payload,
    encode_frame_into,
    received_frames,
)
from .server import CepServer, ServeConfig, ServeError

__all__ = [
    "CepRouter",
    "Cluster",
    "ClusterPlan",
    "ShardWorker",
    "WorkerProcess",
    "file_sink",
    "plan_cluster",
    "run_worker",
]

SINK_FILENAME = "deliveries.jsonl"

_revision_key = attrgetter("detection_id", "revision")


# ---------------------------------------------------------------------------
# placement: shards -> nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterPlan:
    """Where every shard lives: rules → shards → nodes, deterministic."""

    shard_plan: ShardPlan
    nodes: tuple
    #: shard name -> node name.
    assignment: dict

    def shards_for(self, node: str) -> list[str]:
        return [
            shard for shard, owner in self.assignment.items() if owner == node
        ]


def plan_cluster(rules: Iterable[Any], workers: int) -> ClusterPlan:
    """Compute the full two-level placement for a cluster of ``workers``
    nodes, named ``worker-0..N-1``.

    The rules split into at most one shard per node (plus the catch-all
    shard for wildcard rules), and shard *i* of the plan goes to node
    *i* mod N — so no node holds more than ceil(shards / nodes).  A
    subprocess worker recomputes this plan from the rules and the
    worker count alone.
    """
    if workers < 1:
        raise ValueError("need at least one node")
    node_names = tuple(f"worker-{index}" for index in range(workers))
    shard_plan = plan_shards(list(rules), workers)
    assignment = {
        shard: node_names[index % workers]
        for index, shard in enumerate(shard_plan.shard_names)
    }
    return ClusterPlan(
        shard_plan=shard_plan, nodes=node_names, assignment=assignment
    )


# ---------------------------------------------------------------------------
# worker: CepServer-per-shard over per-shard durable engines
# ---------------------------------------------------------------------------


#: ``json.dumps(payload, sort_keys=True)`` without an encoder per call.
_sorted_json = json.JSONEncoder(sort_keys=True).encode


class _FileSink:
    """The sink :func:`file_sink` returns: one append handle per sink."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[Any] = None

    def __call__(self, detection: Any, seq: int, ordinal: int) -> None:
        payload = detection_payload(detection)
        payload["seq"] = seq
        payload["ordinal"] = ordinal
        handle = self._handle
        if handle is None:
            handle = self._handle = open(self.path, "a", encoding="utf-8")
        handle.write(_sorted_json(payload) + "\n")
        # Flushed per line: audits read the file while the shard runs.
        handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def file_sink(path: str) -> Callable[[Any, int, int], None]:
    """An append-only JSONL sink for exactly-once delivery audits.

    One line per delivery: rule id, detection time, sorted bindings and
    the ``(seq, ordinal)`` outbox key.  The cluster drill reads these
    back to prove no detection was delivered twice across a crash.  The
    file is opened on the first delivery and kept open; each line is
    flushed before the sink returns, and the outbox closes the sink when
    its ``DurableEngine`` closes.
    """
    return _FileSink(path)


def _has_durable_state(directory: str) -> bool:
    from ..resilience.durability.engine import WAL_SUBDIR

    if not os.path.isdir(directory):
        return False
    if os.path.isdir(os.path.join(directory, WAL_SUBDIR)):
        return True
    return any(
        name.startswith("checkpoint-") for name in os.listdir(directory)
    )


class ShardWorker:
    """One worker node: a server + durable engine per assigned shard.

    Runs in-process (tests, single-machine toys) or as the body of a
    ``python -m repro cluster worker`` subprocess (:func:`run_worker`).
    Each shard gets its own directory under ``directory`` holding its
    WAL, checkpoints, outbox journal and optional delivery sink; a
    worker started over existing state recovers it.
    """

    def __init__(
        self,
        plan: ShardPlan,
        shards: Iterable[str],
        directory: str,
        *,
        host: str = "127.0.0.1",
        context: str = "chronicle",
        fsync: str = "never",
        checkpoint_every: int = 500,
        sink: bool = False,
        recover: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.plan = plan
        self.shards = list(shards)
        unknown = [s for s in self.shards if s not in plan.rules]
        if unknown:
            raise ReproError(f"plan has no shards named {unknown}")
        self.directory = directory
        self.host = host
        self.context = context
        self.fsync = fsync
        self.checkpoint_every = checkpoint_every
        self.sink = sink
        self.recover = recover
        self.metrics = metrics
        self.servers: dict[str, CepServer] = {}
        self.engines: dict[str, Any] = {}
        self.ports: dict[str, int] = {}

    def _build_engine(self, shard: str) -> Any:
        from ..core.detector import Engine
        from ..resilience.durability import DurableEngine
        from ..store import RfidStore

        rules = self.plan.rules[shard]
        context = self.context

        # Each engine gets a private in-memory store so rule actions
        # (ALERT / INSERT ...) have somewhere to land; the *audited*
        # external effect of a worker is its sink, not the store.
        def factory() -> Engine:
            return Engine(rules, context=context, store=RfidStore())

        shard_dir = os.path.join(self.directory, shard)
        os.makedirs(shard_dir, exist_ok=True)
        sink_fn = (
            file_sink(os.path.join(shard_dir, SINK_FILENAME))
            if self.sink
            else None
        )
        kwargs: dict[str, Any] = dict(
            fsync=self.fsync,
            checkpoint_every=self.checkpoint_every,
            sink=sink_fn,
        )
        if self.metrics is not None:
            kwargs.update(metrics=self.metrics, metrics_label=shard)
        if self.recover or _has_durable_state(shard_dir):
            durable, _report = DurableEngine.recover(
                factory, shard_dir, **kwargs
            )
            return durable
        return DurableEngine(factory, shard_dir, **kwargs)

    async def start(self) -> dict[str, int]:
        """Serve every assigned shard; returns shard -> bound port."""
        for shard in self.shards:
            engine = self._build_engine(shard)
            server = CepServer(
                engine, metrics=self.metrics, metrics_label=f"{shard}-serve"
            )
            port = await server.serve_tcp(self.host, 0)
            self.engines[shard] = engine
            self.servers[shard] = server
            self.ports[shard] = port
        return dict(self.ports)

    async def stop(self, *, checkpoint: bool = True) -> None:
        for server in self.servers.values():
            await server.close()
        for engine in self.engines.values():
            if checkpoint:
                engine.checkpoint_now()
            engine.close()
        self.servers.clear()
        self.engines.clear()
        self.ports.clear()

    async def abort(self) -> None:
        """In-process crash: servers drop mid-flight, no checkpoint.

        Mirrors :meth:`CepServer.abort` — the durable directories are
        left exactly as a SIGKILL would, ready for ``recover()``.  The
        engines' WAL, journal and sink handles are closed as a dying
        process's would be: every write on them is flushed per call, so
        closing adds no byte.
        """
        for server in self.servers.values():
            await server.abort()
        for engine in self.engines.values():
            engine.close()
        self.servers.clear()
        self.engines.clear()
        self.ports.clear()


# -- subprocess worker entry -------------------------------------------------


def load_worker_spec(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _worker_for_spec(spec: dict) -> ShardWorker:
    """The :class:`ShardWorker` a worker spec describes.

    Recomputes the shard plan from the spec's rule program and worker
    count (placement is a pure function, so router and workers agree
    without coordination).
    """
    from ..lang import parse_rules

    plan = plan_shards(parse_rules(spec["program"]), int(spec["workers"]))
    return ShardWorker(
        plan,
        spec["shards"],
        spec["directory"],
        host=spec.get("host", "127.0.0.1"),
        context=spec.get("context", "chronicle"),
        fsync=spec.get("fsync", "never"),
        checkpoint_every=int(spec.get("checkpoint_every", 500)),
        sink=bool(spec.get("sink", False)),
        recover=bool(spec.get("recover", False)),
    )


async def run_worker(spec: dict, *, announce: Any = None) -> None:
    """Body of ``python -m repro cluster worker --spec <file>``.

    Serves the shards the spec assigns (see :func:`_worker_for_spec`),
    announces ``shard <name> <port>`` lines plus a final ``ready`` on
    ``announce`` (default stdout), and runs until SIGTERM/SIGINT — which
    trigger a graceful checkpoint + close.
    """
    announce = announce if announce is not None else sys.stdout
    worker = _worker_for_spec(spec)
    ports = await worker.start()
    for shard, port in ports.items():
        print(f"shard {shard} {port}", file=announce, flush=True)
    print("ready", file=announce, flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # non-Unix loops
            pass
    await stop.wait()
    await worker.stop(checkpoint=True)


class WorkerProcess:
    """A :class:`ShardWorker` in its own OS process, supervised.

    This is the multi-core path: each subprocess owns its shards'
    engines and WALs outright, so N workers really are N interpreters.
    ``kill()`` is SIGKILL (the drill's crash), :meth:`terminate` is the
    graceful SIGTERM stop (checkpoint and close), and :meth:`start` with
    ``recover=True`` in the spec is how a supervisor resurrects a killed
    node in place.
    """

    def __init__(self, node: str, spec: dict) -> None:
        self.node = node
        self.spec = dict(spec)
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.ports: dict[str, int] = {}

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    async def start(self, *, recover: bool = False) -> dict[str, int]:
        spec = dict(self.spec)
        if recover:
            spec["recover"] = True
        os.makedirs(spec["directory"], exist_ok=True)
        spec_path = os.path.join(spec["directory"], "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        env = dict(os.environ)
        # src/repro/serve/cluster.py -> src/, the directory holding `repro`.
        src_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro",
            "cluster",
            "worker",
            "--spec",
            spec_path,
            stdout=asyncio.subprocess.PIPE,
            env=env,
        )
        ports: dict[str, int] = {}
        assert self.proc.stdout is not None
        while True:
            line = await self.proc.stdout.readline()
            if not line:
                raise ServeError(
                    f"worker {self.node} exited before becoming ready "
                    f"(rc={self.proc.returncode})"
                )
            text = line.decode().strip()
            if text == "ready":
                break
            if text.startswith("shard "):
                _, shard, port = text.split()
                ports[shard] = int(port)
        self.ports = ports
        return dict(ports)

    def kill(self) -> None:
        """SIGKILL — the crash the chaos drill injects."""
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()

    async def terminate(self, timeout: float = 15.0) -> None:
        """SIGTERM and wait: the worker checkpoints and closes cleanly."""
        if self.proc is None or self.proc.returncode is not None:
            return
        self.proc.terminate()
        try:
            await asyncio.wait_for(self.proc.wait(), timeout)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()

    async def wait(self) -> int:
        if self.proc is None:
            return 0
        return await self.proc.wait()


# ---------------------------------------------------------------------------
# the router
# ---------------------------------------------------------------------------


class _Epoch:
    """One client batch (or flush) in flight across the workers.

    ``waiting`` holds the shards whose cumulative link ack does not yet
    cover their sub-batch; ``order`` fixes the deterministic detection
    grouping; ``detections`` accumulates the workers' DetectionFrames
    per shard; ``future`` resolves to the epoch's fan-in once nothing is
    waiting.
    """

    __slots__ = ("waiting", "order", "detections", "future")

    def __init__(self, order: tuple) -> None:
        self.waiting = set(order)
        self.order = order
        self.detections: dict[str, list] = {shard: [] for shard in order}
        self.future = asyncio.get_running_loop().create_future()


@dataclass
class _LinkSend:
    """One unacked sub-batch (or flush) on a worker link."""

    first: int
    last: int
    observations: tuple
    prov_seqs: tuple
    origin: str
    flush: bool
    epoch: _Epoch


class WorkerLink:
    """The router's session to one shard's server.

    A single connection is both the ingest session (sub-batches with
    source provenance, link-sequenced, as columnar ``BRELAY`` frames,
    which every server session decodes) and an ordinary binary-push
    subscriber: the worker pushes detections back on it as columnar
    ``BDETBATCH`` frames, which decode straight into DetectionFrames.
    The link survives worker crashes: between connections it queues
    sub-batches in ``pending``, then redials with ``resume_from`` at
    its ack frontier and resends every pending sub-batch — the worker's
    recovered provenance frontier turns replayed observations into
    no-ops, so resends are exactly-once.
    """

    #: Reconnect backoff: base * 2^n, capped.
    _BACKOFF_BASE = 0.05
    _BACKOFF_MAX = 1.0

    def __init__(
        self,
        shard: str,
        host: str,
        port: int,
        *,
        router: "CepRouter",
    ) -> None:
        self.shard = shard
        self.host = host
        self.port = port
        self.router = router
        #: Unique per router life: a restarted router must look like a
        #: *new* link client to the worker, or the worker's in-memory
        #: link-seq frontier from the previous life would silently
        #: swallow the new life's seq-0 batches as duplicates.
        self.client_id = f"router-{uuid4().hex[:12]}@{shard}"
        self.next_seq = 0
        self.last_acked = -1
        self.pending: deque[_LinkSend] = deque()
        self._epoch_by_last: dict[int, _Epoch] = {}
        self.reconnects = 0
        self.closed = False
        self._writer: Any = None
        self._connected = asyncio.Event()
        self._task: Optional[asyncio.Task] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._task = asyncio.ensure_future(self._run())
        await self._connected.wait()

    async def close(self) -> None:
        self.closed = True
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:
                pass
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    def retarget(self, host: Optional[str] = None, port: Optional[int] = None) -> None:
        """Point the link at a new endpoint (a recovered worker).

        Takes effect immediately: the current transport is dropped and
        the run loop redials, resending everything unacked.
        """
        if host is not None:
            self.host = host
        if port is not None:
            self.port = port
        self._connected.clear()
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:
                pass

    # -- connection ---------------------------------------------------------

    async def _run(self) -> None:
        attempt = 0
        while not self.closed:
            try:
                reader = await self._connect_once()
                attempt = 0
                await self._read_frames(reader)
            except (
                ConnectionError,
                OSError,
                FrameError,
                asyncio.IncompleteReadError,
            ):
                pass
            if self.closed:
                return
            self._connected.clear()
            self.reconnects += 1
            self.router.stats.worker_reconnects += 1
            delay = min(self._BACKOFF_MAX, self._BACKOFF_BASE * 2**attempt)
            attempt += 1
            await asyncio.sleep(delay)

    def hello(self) -> Hello:
        """The link's HELLO, offered on every (re)connect."""
        return Hello(client_id=self.client_id, resume_from=self.last_acked)

    async def _connect_once(self) -> Any:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self._writer = writer
        buffer = bytearray()
        encode_frame_into(self.hello(), buffer)
        encode_frame_into(Subscribe(), buffer)
        writer.write(bytes(buffer))
        await writer.drain()
        # The WELCOME arrives on the same decoder the frame loop keeps.
        self._decoder = FrameDecoder()
        welcomed = False
        while not welcomed:
            data = await reader.read(64 * 1024)
            if not data:
                raise ConnectionResetError("worker closed during handshake")
            for frame in self._decoder.feed(data):
                if isinstance(frame, Welcome):
                    welcomed = True
                elif isinstance(frame, ErrorFrame):
                    raise ConnectionResetError(
                        f"worker rejected link: {frame.code}: {frame.message}"
                    )
        for entry in self.pending:
            self._write_entry(entry)
        await writer.drain()
        self._connected.set()
        return reader

    def _write_entry(self, entry: _LinkSend) -> None:
        """Write one sub-batch: a columnar ``BRELAY``, or a JSON ``BATCH``
        with ``prov`` when the columns cannot carry it."""
        buffer = bytearray()
        if entry.flush:
            frame: Frame = Flush(
                seq=entry.first, prov=(entry.origin, entry.prov_seqs[0])
            )
        else:
            prov = (entry.origin, entry.prov_seqs)
            frame = Batch(entry.first, entry.observations, prov)
            try:
                encode_frame_into(
                    RelayBatch(entry.first, entry.observations, prov), buffer
                )
            except NotPackable:
                pass  # the JSON fallback below
        if not buffer:
            encode_frame_into(frame, buffer)
        self._writer.write(bytes(buffer))

    # -- inbound ------------------------------------------------------------

    async def _read_frames(self, reader: Any) -> None:
        decoder = self._decoder
        while not self.closed:
            data = await reader.read(64 * 1024)
            if not data:
                return
            for frame in decoder.feed(data):
                self._on_frame(frame)

    def _on_frame(self, frame: Frame) -> None:
        if frame.__class__ is Ack:
            self._on_ack(frame.seq)
        elif received := received_frames(frame):
            self._on_detections(received)
        elif frame.__class__ is Ping:
            buffer = bytearray()
            encode_frame_into(Pong(token=frame.token), buffer)
            self._writer.write(bytes(buffer))
        elif frame.__class__ is ErrorFrame:
            raise ConnectionResetError(
                f"worker error: {frame.code}: {frame.message}"
            )

    def _on_ack(self, seq: int) -> None:
        if seq > self.last_acked:
            self.last_acked = seq
        completed = []
        while self.pending and self.pending[0].last <= seq:
            entry = self.pending.popleft()
            self._epoch_by_last.pop(entry.last, None)
            completed.append(entry.epoch)
        for epoch in completed:
            epoch.waiting.discard(self.shard)
            if not epoch.waiting:
                self.router._complete(epoch)

    def _on_detections(self, frames: tuple) -> None:
        for frame in frames:
            epoch = self._epoch_by_last.get(frame.seq)
            if epoch is None:
                # A resend regenerated nothing for this sub-batch, yet a
                # pre-crash push straggled in — or the epoch was already
                # released.  At-most-once push: drop, count.
                self.router.stats.unattributed_detections += 1
                continue
            epoch.detections[self.shard].append(frame)

    # -- outbound (called synchronously by the router) ----------------------

    def send(
        self,
        observations: tuple,
        prov_seqs: tuple,
        origin: str,
        epoch: _Epoch,
        *,
        flush: bool = False,
    ) -> None:
        """Queue one sub-batch (or, with ``flush``, one FLUSH) and write
        it unless the link is between connections."""
        first = self.next_seq
        last = first + max(len(observations), 1) - 1
        self.next_seq = last + 1
        entry = _LinkSend(
            first, last, observations, prov_seqs, origin, flush, epoch
        )
        self.pending.append(entry)
        self._epoch_by_last[last] = epoch
        if self._connected.is_set():
            self._write_entry(entry)


@dataclass
class RouterStats:
    """Always-on routing and fan-in counters (the ``cluster`` metrics read them).

    Session counters (sessions, errors, duplicates skipped) belong to
    the :class:`CepServer` that serves the router.
    """

    routed: int = 0
    multicast: int = 0
    epochs: int = 0
    detections_forwarded: int = 0
    unattributed_detections: int = 0
    worker_reconnects: int = 0


class CepRouter:
    """The cluster's detection backend: split by plan, relay, fan in.

    :class:`Cluster` serves it with the one :class:`CepServer`, so a
    client gets exactly a server's session layer — frames, resume,
    heartbeats, idle reaping, overload shedding, slow-consumer
    policy, the client-record cap.  Behind it, :meth:`submit_many`
    splits each batch along the shard plan and relays the sub-batches
    with source provenance; it and :meth:`flush` return a future that
    resolves to the epoch's fan-in once every shard it touched has
    acked.  ``CepServer`` releases those futures in submission order
    (its release contract); the module docstring has the delivery
    contract.

    The router keeps no detection state and nothing on disk: client
    frontiers live in the workers' WALs, keyed by the *end* client, so
    a restarted router re-learns them from client HELLOs and worker
    dedup.
    """

    #: Always empty — the frontiers live in the workers' WALs.  Having
    #: the attribute makes ``CepServer`` pass ``client=`` provenance.
    client_frontiers: Mapping = MappingProxyType({})

    def __init__(
        self,
        plan: ClusterPlan,
        endpoints: dict,
        *,
        metrics: Optional[MetricsRegistry] = None,
        metrics_label: str = "router",
    ) -> None:
        self.plan = plan
        self.stats = RouterStats()
        #: Epochs relayed to workers but not yet complete.
        self.epochs_open = 0
        self.links: dict[str, WorkerLink] = {
            shard: WorkerLink(shard, host, port, router=self)
            for shard, (host, port) in endpoints.items()
        }
        missing = [s for s in plan.shard_plan.shard_names if s not in self.links]
        if missing:
            raise ServeError(f"no endpoints for shards {missing}")
        if metrics is not None:
            Instruments(metrics, "cluster", metrics_label, self)

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        for link in self.links.values():
            if link._task is None:
                await link.start()

    async def close(self) -> None:
        for link in self.links.values():
            await link.close()

    def retarget(self, shard: str, host: Optional[str] = None, port: Optional[int] = None) -> None:
        """Redirect one shard's link (worker respawned elsewhere)."""
        self.links[shard].retarget(host, port)

    # -- the backend --------------------------------------------------------

    def submit_many(self, observations: list, client: tuple) -> asyncio.Future:
        """Relay one client batch; returns a future of its fan-in.

        ``client`` is ``(client_id, first_seq)``: observation ``i``
        travels with source seq ``first_seq + i``, which is what the
        workers dedupe on.
        """
        origin, first = client
        by_shard: dict[str, tuple[list, list]] = {}
        routes = self.plan.shard_plan.routes_for_reader
        multicast = 0
        for offset, observation in enumerate(observations):
            targets = routes(observation.reader)
            multicast += max(0, len(targets) - 1)
            for shard in targets:
                bucket = by_shard.get(shard)
                if bucket is None:
                    bucket = by_shard[shard] = ([], [])
                bucket[0].append(observation)
                bucket[1].append(first + offset)
        epoch = self._open_epoch(tuple(by_shard))
        self.stats.routed += len(observations)
        self.stats.multicast += multicast
        for shard, (obs_list, prov_seqs) in by_shard.items():
            self.links[shard].send(
                tuple(obs_list), tuple(prov_seqs), origin, epoch
            )
        return epoch.future

    def flush(self, client: tuple) -> asyncio.Future:
        """Relay a client FLUSH to every shard; a future of its fan-in."""
        origin, seq = client
        epoch = self._open_epoch(tuple(self.links))
        for link in self.links.values():
            link.send((), (seq,), origin, epoch, flush=True)
        return epoch.future

    # -- fan-in -------------------------------------------------------------

    def _open_epoch(self, order: tuple) -> _Epoch:
        epoch = _Epoch(order)
        self.stats.epochs += 1
        self.epochs_open += 1
        if not order:  # routed nowhere: complete already
            self._complete(epoch)
        return epoch

    def _complete(self, epoch: _Epoch) -> None:
        """Every shard acked: resolve the epoch's future with its fan-in.

        Frames group by the epoch's route order (shards in order of
        first appearance in the batch), each shard's in firing order.
        """
        frames: list = []
        for shard in epoch.order:
            frames.extend(epoch.detections[shard])
        # Revision-tagged fan-in must be deterministic regardless of
        # which shard's push won the race: order by (detection_id,
        # revision).  The sort is stable and untagged frames share the
        # empty id, so they keep their shard order, ahead of tagged ones.
        frames.sort(key=_revision_key)
        self.epochs_open -= 1
        self.stats.detections_forwarded += len(frames)
        epoch.future.set_result(frames)


# ---------------------------------------------------------------------------
# one-config orchestration
# ---------------------------------------------------------------------------


class Cluster:
    """Spawn workers and a served router from one config; supervise both.

    ``inprocess=True`` keeps the workers in this event loop (tests,
    drills without multi-core claims); otherwise each node is a
    :class:`WorkerProcess` subprocess and the cluster actually spans
    cores.  The nodes are fixed at construction: ``workers`` of them,
    each serving the shards :func:`plan_cluster` assigns it.  ``program``
    is rule-language source — text, because it must cross a process
    boundary and re-parse identically on both sides.
    """

    def __init__(
        self,
        program: str,
        *,
        workers: int = 2,
        directory: str,
        host: str = "127.0.0.1",
        context: str = "chronicle",
        fsync: str = "never",
        checkpoint_every: int = 500,
        sink: bool = False,
        inprocess: bool = False,
        router_config: Optional[ServeConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        from ..lang import parse_rules

        self.program = program
        self.directory = directory
        self.host = host
        self.context = context
        self.fsync = fsync
        self.checkpoint_every = checkpoint_every
        self.sink = sink
        self.inprocess = inprocess
        self.router_config = router_config
        self.metrics = metrics
        self.plan = plan_cluster(parse_rules(program), workers)
        self.router: Optional[CepRouter] = None
        #: The front server: the one session layer, serving the router.
        self.server: Optional[CepServer] = None
        self.workers: dict[str, Any] = {}
        self.endpoints: dict[str, tuple[str, int]] = {}

    def _spec_for(self, node: str) -> dict:
        return {
            "program": self.program,
            "workers": len(self.plan.nodes),
            "shards": self.plan.shards_for(node),
            "directory": os.path.join(self.directory, node),
            "host": self.host,
            "context": self.context,
            "fsync": self.fsync,
            "checkpoint_every": self.checkpoint_every,
            "sink": self.sink,
        }

    async def start(
        self, *, router_host: str = "127.0.0.1", router_port: int = 0
    ) -> int:
        """Start every worker node, then the router; returns its port."""
        for node in self.plan.nodes:
            shards = self.plan.shards_for(node)
            if not shards:
                continue
            ports = await self._start_node(node, recover=False)
            for shard, port in ports.items():
                self.endpoints[shard] = (self.host, port)
        self.router = CepRouter(self.plan, self.endpoints, metrics=self.metrics)
        await self.router.start()
        self.server = CepServer(
            self.router,
            config=self.router_config,
            metrics=self.metrics,
            metrics_label="router",
        )
        return await self.server.serve_tcp(router_host, router_port)

    async def _start_node(self, node: str, *, recover: bool) -> dict[str, int]:
        if self.inprocess:
            worker = ShardWorker(
                self.plan.shard_plan,
                self.plan.shards_for(node),
                os.path.join(self.directory, node),
                host=self.host,
                context=self.context,
                fsync=self.fsync,
                checkpoint_every=self.checkpoint_every,
                sink=self.sink,
                recover=recover,
            )
            ports = await worker.start()
        else:
            worker = WorkerProcess(node, self._spec_for(node))
            ports = await worker.start(recover=recover)
        self.workers[node] = worker
        return ports

    async def kill_worker(self, node: str) -> None:
        """Crash one node: SIGKILL (subprocess) or abort (in-process)."""
        worker = self.workers[node]
        if self.inprocess:
            await worker.abort()
        else:
            worker.kill()
            await worker.wait()

    async def restart_worker(self, node: str) -> dict[str, int]:
        """Recover a crashed node in place and retarget its links."""
        ports = await self._start_node(node, recover=True)
        for shard, port in ports.items():
            self.endpoints[shard] = (self.host, port)
            if self.router is not None:
                self.router.retarget(shard, self.host, port)
        return ports

    async def stop(self) -> None:
        if self.server is not None:
            await self.server.close()
        if self.router is not None:
            await self.router.close()
        for worker in self.workers.values():
            if self.inprocess:
                await worker.stop()
            else:
                await worker.terminate()
        self.workers.clear()
