"""repro.serve.cluster — multi-process sharded serving behind a router.

The paper's deployment story is a fleet of readers feeding one logical
detection service; a single Python process caps that service at one GIL.
This module promotes :class:`~repro.core.sharding.ShardedEngine`'s
placement to real processes:

* :func:`plan_cluster` — the deterministic placement: rules go to shards
  via :func:`repro.core.sharding.plan_shards` (the same single source of
  truth the in-process coordinator uses), shards go to worker *nodes*
  via a consistent-hash ring, so adding a node moves few shards;
* :class:`ShardWorker` — one worker node: a :class:`~repro.serve.CepServer`
  per assigned shard, each over its own ``DurableEngine`` with a
  per-shard WAL (and, optionally, an exactly-once file sink);
* :class:`WorkerProcess` — the same worker as a supervised subprocess
  (``python -m repro cluster worker``), which is what buys real
  multi-core throughput;
* :class:`CepRouter` — the front end: speaks the ordinary wire protocol
  to clients, splits every batch by the shard plan, forwards sub-batches
  to workers with *source provenance* (the end client's id and seqs, the
  ``prov`` extension of :mod:`repro.serve.protocol`), collects worker
  acks and detections back into per-batch *epochs*, and releases epochs
  in strict submission order — detections first, then the client's ack;
* :class:`Cluster` — spawn workers + router from one config, kill and
  recover workers, migrate shards by checkpoint handoff.

Delivery contract (documented, and exercised by the cluster drill):

* **Ingestion is exactly-once end to end.**  A worker logs each
  observation with the *end client's* ``(client_id, seq)`` provenance,
  so its recovered frontier dedupes router resends after any crash on
  either side of the router.
* **Detection pushes are at-most-once across worker crashes.**  A
  detection whose push was lost with a dying worker is not regenerated
  (its observation is deduped on resend); durable *sinks* on the workers
  remain exactly-once via the action outbox.  Subscribers never see a
  duplicate.
* **Push order is deterministic**: epochs release in client submission
  order; within an epoch, detections are grouped by the observation's
  shard route order, then each worker's firing order, with ``seq`` set
  to the client batch's last sequence number and ordinals renumbered
  ``0..n-1``.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import os
import shutil
import signal
import sys
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional
from uuid import uuid4

from ..core.errors import ReproError
from ..core.sharding import ShardPlan, plan_shards
from ..obs.instrument import Instruments
from ..obs.metrics import MetricsRegistry
from .protocol import (
    MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    Ack,
    Batch,
    Bye,
    DetectionBatch,
    DetectionFrame,
    ErrorFrame,
    Flush,
    Frame,
    FrameDecoder,
    FrameError,
    Hello,
    Ping,
    Pong,
    Submit,
    Subscribe,
    Welcome,
    detection_payload,
    encode_frame_into,
    negotiate_codec,
)
from .server import CepServer, ServeConfig, ServeError

__all__ = [
    "CepRouter",
    "Cluster",
    "ClusterPlan",
    "HashRing",
    "ShardWorker",
    "WorkerProcess",
    "file_sink",
    "plan_cluster",
    "run_worker",
]

SINK_FILENAME = "deliveries.jsonl"


# ---------------------------------------------------------------------------
# placement: shards -> nodes
# ---------------------------------------------------------------------------


def _ring_hash(key: str) -> int:
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


class HashRing:
    """Consistent hashing of keys onto nodes, with virtual nodes.

    Every process that builds a ring over the same node names derives
    the same assignment, and adding or removing one node only remaps the
    keys that hashed to it — which is what keeps shard migration
    incremental instead of a full reshuffle.
    """

    def __init__(self, nodes: Iterable[str], vnodes: int = 64) -> None:
        points: list[tuple[int, str]] = []
        for node in nodes:
            for replica in range(vnodes):
                points.append((_ring_hash(f"{node}#{replica}"), node))
        if not points:
            raise ValueError("need at least one node")
        points.sort()
        self._points = points
        self._hashes = [point for point, _node in points]

    def node_for(self, key: str) -> str:
        index = bisect.bisect(self._hashes, _ring_hash(key))
        return self._points[index % len(self._points)][1]

    def nodes_for(self, key: str) -> "Iterable[str]":
        """Distinct nodes in ring order starting at ``key``'s point.

        The bounded-load assignment walks this sequence and takes the
        first node with spare capacity, so a full node spills its
        overflow onto its ring successor — deterministically.
        """
        index = bisect.bisect(self._hashes, _ring_hash(key))
        seen: set[str] = set()
        count = len(self._points)
        for step in range(count):
            node = self._points[(index + step) % count][1]
            if node not in seen:
                seen.add(node)
                yield node


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


def plan_cluster(
    rules: Iterable[Any],
    nodes: "int | Iterable[str]",
    *,
    max_shards: Optional[int] = None,
    group_members: Optional[dict] = None,
) -> ClusterPlan:
    """Compute the full two-level placement for a cluster.

    ``nodes`` is a node count (named ``worker-0..N-1``) or explicit node
    names.  ``max_shards`` defaults to the node count — one shard per
    node when the rules allow it; pass more to pre-split for future
    migration headroom.
    """
    if isinstance(nodes, int):
        if nodes < 1:
            raise ValueError("need at least one node")
        node_names = tuple(f"worker-{index}" for index in range(nodes))
    else:
        node_names = tuple(nodes)
        if not node_names:
            raise ValueError("need at least one node")
    shard_plan = plan_shards(
        list(rules), max_shards or len(node_names), group_members=group_members
    )
    ring = HashRing(node_names)
    # Consistent hashing with bounded loads: no node takes more than
    # ceil(shards / nodes), overflow spills to the ring successor.  A
    # plain ring is allowed to put every shard on one node (and with
    # two shards it will, a coin-flip of the time) — which would turn
    # "add a worker" into a no-op for throughput.
    shard_names = shard_plan.shard_names
    capacity = -(-len(shard_names) // len(node_names))
    loads = {node: 0 for node in node_names}
    assignment: dict[str, str] = {}
    for shard in shard_names:
        for node in ring.nodes_for(shard):
            if loads[node] < capacity:
                assignment[shard] = node
                loads[node] += 1
                break
    return ClusterPlan(
        shard_plan=shard_plan, nodes=node_names, assignment=assignment
    )


# ---------------------------------------------------------------------------
# worker: CepServer-per-shard over per-shard durable engines
# ---------------------------------------------------------------------------


def file_sink(path: str) -> Callable[[Any, int, int], None]:
    """An append-only JSONL sink for exactly-once delivery audits.

    One line per delivery: rule id, detection time, sorted bindings and
    the ``(seq, ordinal)`` outbox key.  The cluster drill reads these
    back to prove no detection was delivered twice across a crash.
    """

    def sink(detection: Any, seq: int, ordinal: int) -> None:
        payload = detection_payload(detection)
        payload["seq"] = seq
        payload["ordinal"] = ordinal
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")

    return sink


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
    WAL, checkpoints, outbox journal and optional delivery sink — which
    is exactly the unit a migration moves.
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
        serve_config: Optional[ServeConfig] = None,
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
        self.serve_config = serve_config or ServeConfig()
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
            await self.start_shard(shard)
        return dict(self.ports)

    async def start_shard(self, shard: str) -> int:
        """Bring up (or adopt, with existing state on disk) one shard."""
        if shard in self.servers:
            raise ServeError(f"shard {shard!r} is already being served")
        if shard not in self.shards:
            self.shards.append(shard)
        engine = self._build_engine(shard)
        server = CepServer(
            engine,
            config=self.serve_config,
            metrics=self.metrics,
            metrics_label=f"{shard}-serve",
        )
        port = await server.serve_tcp(self.host, 0)
        self.engines[shard] = engine
        self.servers[shard] = server
        self.ports[shard] = port
        return port

    async def release_shard(self, shard: str, *, checkpoint: bool = True) -> str:
        """Stop serving one shard and hand back its state directory.

        With ``checkpoint`` the durable engine snapshots before closing,
        so the adopting node replays (almost) nothing; without it the
        WAL tail is replayed on adoption — both are safe, the drill's
        migration leg deliberately exercises the tail-replay path.
        """
        server = self.servers.pop(shard)
        engine = self.engines.pop(shard)
        self.ports.pop(shard, None)
        self.shards.remove(shard)
        await server.close()
        if checkpoint:
            engine.checkpoint_now()
        engine.close()
        return os.path.join(self.directory, shard)

    async def adopt_shard(self, shard: str, source_dir: str) -> int:
        """Move a released shard directory under this node and serve it."""
        target = os.path.join(self.directory, shard)
        if os.path.abspath(source_dir) != os.path.abspath(target):
            os.makedirs(self.directory, exist_ok=True)
            shutil.move(source_dir, target)
        return await self.start_shard(shard)

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
        """In-process crash: servers drop mid-flight, engines stay open.

        Mirrors :meth:`CepServer.abort` — the durable directories are
        left exactly as a SIGKILL would, ready for ``recover()``.
        """
        for server in self.servers.values():
            await server.abort()
        self.servers.clear()
        self.engines.clear()
        self.ports.clear()


# -- subprocess worker entry -------------------------------------------------


def load_worker_spec(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


async def run_worker(spec: dict, *, announce: Any = None) -> None:
    """Body of ``python -m repro cluster worker --spec <file>``.

    Recomputes the shard plan from the spec's rule program (placement is
    a pure function, so router and workers agree without coordination),
    serves the assigned shards, announces ``shard <name> <port>`` lines
    plus a final ``ready`` on ``announce`` (default stdout), and runs
    until SIGTERM/SIGINT — which trigger a graceful checkpoint + close,
    the first half of a migration handoff.
    """
    from ..lang import parse_rules

    announce = announce if announce is not None else sys.stdout
    rules = parse_rules(spec["program"])
    plan = plan_shards(rules, int(spec["max_shards"]))
    worker = ShardWorker(
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
    graceful SIGTERM handoff, and :meth:`start` with ``recover=True`` in
    the spec is how a supervisor resurrects a killed node in place.
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
    grouping; ``detections`` accumulates worker payload dicts per shard.
    Epochs release strictly in creation (= client submission) order.
    """

    __slots__ = ("record", "end_seq", "waiting", "order", "detections")

    def __init__(self, record: "_ClientState", end_seq: int, order: tuple) -> None:
        self.record = record
        self.end_seq = end_seq
        self.waiting = set(order)
        self.order = order
        self.detections: dict[str, list] = {shard: [] for shard in order}


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
    source provenance, link-sequenced) and the subscriber (the worker
    pushes detections back on it).  The link survives worker crashes: it
    redials with ``resume_from`` at its ack frontier and resends every
    pending sub-batch — the worker's recovered provenance frontier turns
    replayed observations into no-ops, so resends are exactly-once.
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
        self._idle = asyncio.Event()
        self._idle.set()
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
        """Point the link at a new endpoint (recovery, migration).

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

    async def _connect_once(self) -> Any:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self._writer = writer
        hello = Hello(
            client_id=self.client_id,
            resume_from=self.last_acked,
            capabilities={
                # JSON only: sub-batches carry the prov key, which the
                # columnar binary body cannot represent anyway.
                "codecs": ["json"],
                "resume": True,
                "batch_push": True,
                "heartbeat": True,
                # The link must see the full revision lifecycle: the
                # router re-pushes records to its own subscribers, where
                # per-subscriber gating strips them if need be.
                "revisions": True,
            },
        )
        buffer = bytearray()
        encode_frame_into(hello, buffer)
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
        self._resend_pending()
        await writer.drain()
        self._connected.set()
        return reader

    def _resend_pending(self) -> None:
        for entry in self.pending:
            self._write_entry(entry)

    def _write_entry(self, entry: _LinkSend) -> None:
        if entry.flush:
            frame: Frame = Flush(
                seq=entry.first, prov=(entry.origin, entry.prov_seqs[0])
            )
        else:
            frame = Batch(
                seq=entry.first,
                observations=entry.observations,
                prov=(entry.origin, entry.prov_seqs),
            )
        buffer = bytearray()
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
                if frame.__class__ is Ack:
                    self._on_ack(frame.seq)
                elif frame.__class__ is DetectionBatch:
                    self._on_detections(list(frame.detections))
                elif frame.__class__ is DetectionFrame:
                    self._on_detections([frame.to_payload()])
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
        if not self.pending:
            self._idle.set()
        for epoch in completed:
            epoch.waiting.discard(self.shard)
        if completed:
            self.router._release_ready()

    def _on_detections(self, payloads: list) -> None:
        for payload in payloads:
            epoch = self._epoch_by_last.get(payload.get("seq"))
            if epoch is None:
                # A resend regenerated nothing for this sub-batch, yet a
                # pre-crash push straggled in — or the epoch was already
                # released.  At-most-once push: drop, count.
                self.router.stats.unattributed_detections += 1
                continue
            epoch.detections[self.shard].append(payload)

    # -- outbound (called synchronously by the router) ----------------------

    def send_batch(
        self,
        observations: list,
        prov_seqs: list,
        origin: str,
        epoch: _Epoch,
    ) -> None:
        first = self.next_seq
        last = first + len(observations) - 1
        self.next_seq = last + 1
        entry = _LinkSend(
            first=first,
            last=last,
            observations=tuple(observations),
            prov_seqs=tuple(prov_seqs),
            origin=origin,
            flush=False,
            epoch=epoch,
        )
        self.pending.append(entry)
        self._idle.clear()
        self._epoch_by_last[last] = epoch
        if self._connected.is_set():
            self._write_entry(entry)

    def send_flush(self, origin: str, source_seq: int, epoch: _Epoch) -> None:
        seq = self.next_seq
        self.next_seq += 1
        entry = _LinkSend(
            first=seq,
            last=seq,
            observations=(),
            prov_seqs=(source_seq,),
            origin=origin,
            flush=True,
            epoch=epoch,
        )
        self.pending.append(entry)
        self._idle.clear()
        self._epoch_by_last[seq] = epoch
        if self._connected.is_set():
            self._write_entry(entry)

    async def drain(self) -> None:
        if self._connected.is_set() and self._writer is not None:
            try:
                await self._writer.drain()
            except (ConnectionError, OSError):
                pass

    async def wait_idle(self) -> None:
        """Block until every pending sub-batch has been acked."""
        await self._idle.wait()


class _ClientState:
    """Router-side memory of one end client."""

    __slots__ = ("client_id", "last_routed", "last_acked", "active_session")

    def __init__(self, client_id: str) -> None:
        self.client_id = client_id
        #: Highest seq accepted into an epoch (dedup frontier for the
        #: reader loop).
        self.last_routed = -1
        #: Highest seq released (acked to the client).
        self.last_acked = -1
        self.active_session: Optional["_RouterSession"] = None


class _RouterSession:
    __slots__ = (
        "session_id",
        "reader",
        "writer",
        "codec",
        "batch_push",
        "revisions",
        "subscribed",
        "rule_filter",
        "alive",
        "outbound",
        "record",
    )

    def __init__(self, session_id: str, reader: Any, writer: Any) -> None:
        self.session_id = session_id
        self.reader = reader
        self.writer = writer
        self.codec = "json"
        self.batch_push = False
        self.revisions = False
        self.subscribed = False
        self.rule_filter: Optional[frozenset] = None
        self.alive = True
        self.outbound: asyncio.Queue = asyncio.Queue()
        self.record: Optional[_ClientState] = None


@dataclass
class RouterStats:
    """Always-on router counters (the ``cluster`` metrics read them)."""

    sessions_opened: int = 0
    routed: int = 0
    multicast: int = 0
    epochs: int = 0
    duplicates_skipped: int = 0
    detections_forwarded: int = 0
    unattributed_detections: int = 0
    worker_reconnects: int = 0
    errors_sent: int = 0


class CepRouter:
    """The cluster's front door: one wire-protocol endpoint, N workers.

    Clients speak to it exactly as they would to a single
    :class:`CepServer` (same frames, same resume semantics, binary codec
    welcome); behind it, every batch is split along the shard plan and
    fanned out with source provenance.  See the module docstring for the
    delivery contract.

    The router itself is deliberately stateless across restarts: client
    frontiers live in the workers' WALs (keyed by the *end* client), so
    a restarted router re-learns them from client HELLOs and worker
    dedup — there is nothing on the router's disk to lose.
    """

    _SEND_COALESCE_BYTES = 64 * 1024

    def __init__(
        self,
        plan: ClusterPlan,
        endpoints: dict,
        *,
        config: Optional[ServeConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        metrics_label: str = "router",
    ) -> None:
        self.plan = plan
        self.config = config or ServeConfig()
        self.stats = RouterStats()
        self.links: dict[str, WorkerLink] = {
            shard: WorkerLink(shard, host, port, router=self)
            for shard, (host, port) in endpoints.items()
        }
        missing = [s for s in plan.shard_plan.shard_names if s not in self.links]
        if missing:
            raise ServeError(f"no endpoints for shards {missing}")
        self._epochs: deque[_Epoch] = deque()
        self._records: dict[str, _ClientState] = {}
        self._sessions: set[_RouterSession] = set()
        self._session_counter = 0
        #: shard -> gate Event; a *cleared* gate pauses routing to that
        #: shard (migration drain).  Absent = open.
        self._gates: dict[str, asyncio.Event] = {}
        self._tcp_server: Any = None
        self._tasks: set[asyncio.Task] = set()
        self._closed = False
        if metrics is not None:
            Instruments(metrics, "cluster", metrics_label, self)

    @property
    def epochs_open(self) -> int:
        """Epochs forwarded to workers but not yet released."""
        return len(self._epochs)

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        for link in self.links.values():
            if link._task is None:
                await link.start()

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0) -> int:
        await self.start()
        self._tcp_server = await asyncio.start_server(
            self._accept, host, port
        )
        return self._tcp_server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        for session in list(self._sessions):
            self._disconnect(session)
        for link in self.links.values():
            await link.close()
        for task in list(self._tasks):
            task.cancel()
        for task in list(self._tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    # -- migration ----------------------------------------------------------

    async def pause_shard(self, shard: str) -> None:
        """Stop routing to ``shard`` and wait until its link is idle.

        New client batches touching the shard block (TCP backpressure on
        those clients) until :meth:`resume_shard`; once this returns,
        the worker holds every routed observation in its WAL and has no
        sub-batch outstanding — safe to checkpoint and move.
        """
        gate = self._gates.get(shard)
        if gate is None:
            gate = asyncio.Event()
            gate.set()
            self._gates[shard] = gate
        gate.clear()
        await self.links[shard].wait_idle()

    def resume_shard(
        self,
        shard: str,
        host: Optional[str] = None,
        port: Optional[int] = None,
    ) -> None:
        """Reopen a paused shard, optionally at a new endpoint."""
        if host is not None or port is not None:
            self.links[shard].retarget(host, port)
        gate = self._gates.get(shard)
        if gate is not None:
            gate.set()

    def retarget(self, shard: str, host: Optional[str] = None, port: Optional[int] = None) -> None:
        """Redirect one shard's link (worker respawned elsewhere)."""
        self.links[shard].retarget(host, port)

    # -- sessions -----------------------------------------------------------

    async def _accept(self, reader: Any, writer: Any) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        self._session_counter += 1
        session = _RouterSession(f"r{self._session_counter}", reader, writer)
        self._sessions.add(session)
        self.stats.sessions_opened += 1
        sender = asyncio.ensure_future(self._sender_loop(session))
        self._tasks.add(sender)
        sender.add_done_callback(self._tasks.discard)
        try:
            await self._reader_loop(session)
        finally:
            self._disconnect(session)
            try:
                await sender
            except asyncio.CancelledError:
                pass
            if task is not None:
                self._tasks.discard(task)

    def _disconnect(self, session: _RouterSession) -> None:
        if not session.alive:
            return
        session.alive = False
        self._sessions.discard(session)
        record = session.record
        if record is not None and record.active_session is session:
            record.active_session = None
        session.outbound.put_nowait("close")

    def _send_frame(self, session: _RouterSession, frame: Frame) -> None:
        if session.alive:
            session.outbound.put_nowait(frame)

    def _send_error(self, session: _RouterSession, code: str, message: str) -> None:
        self.stats.errors_sent += 1
        self._send_frame(session, ErrorFrame(code=code, message=message))

    async def _sender_loop(self, session: _RouterSession) -> None:
        writer = session.writer
        buffer = bytearray()
        try:
            while True:
                item = await session.outbound.get()
                buffer.clear()
                closing = False
                while True:
                    if item == "close":
                        closing = True
                    else:
                        encode_frame_into(item, buffer)
                    if closing or len(buffer) >= self._SEND_COALESCE_BYTES:
                        break
                    try:
                        item = session.outbound.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                if buffer:
                    writer.write(bytes(buffer))
                    await writer.drain()
                if closing:
                    break
        except (ConnectionError, RuntimeError, OSError):
            pass
        finally:
            self._disconnect(session)
            try:
                writer.close()
            except Exception:
                pass

    async def _reader_loop(self, session: _RouterSession) -> None:
        decoder = FrameDecoder()
        greeted = False
        try:
            while session.alive:
                data = await session.reader.read(self.config.read_chunk)
                if not data:
                    return
                for frame in decoder.feed(data):
                    if not greeted:
                        if not isinstance(frame, Hello):
                            self._send_error(
                                session, "protocol", "expected HELLO first"
                            )
                            return
                        if not self._handshake(session, frame):
                            return
                        greeted = True
                        continue
                    if not await self._handle_frame(session, frame):
                        return
        except FrameError as exc:
            self._send_error(session, "frame", str(exc))
        except (ConnectionError, asyncio.IncompleteReadError):
            return

    def _handshake(self, session: _RouterSession, hello: Hello) -> bool:
        if not MIN_PROTOCOL_VERSION <= hello.version <= PROTOCOL_VERSION:
            self._send_error(
                session,
                "version",
                f"router speaks protocols {MIN_PROTOCOL_VERSION}"
                f"..{PROTOCOL_VERSION}, client spoke {hello.version}",
            )
            return False
        record = self._records.get(hello.client_id)
        if record is None:
            record = _ClientState(hello.client_id)
            self._records[hello.client_id] = record
        record.last_acked = max(record.last_acked, hello.resume_from)
        # Rewind the routing frontier to the ack frontier: seqs routed
        # but unacked must be accepted again on resend (their original
        # epochs may have released toward a session that is now gone;
        # workers dedupe the re-route by provenance).
        record.last_routed = record.last_acked
        stale = record.active_session
        if stale is not None:
            self._send_error(
                stale,
                "superseded",
                f"client id {hello.client_id!r} opened a newer session",
            )
            self._disconnect(stale)
        record.active_session = session
        session.record = record
        codecs = self.config.codec_preference()
        session.codec = negotiate_codec(hello, codecs)
        session.batch_push = bool(hello.capabilities.get("batch_push"))
        session.revisions = hello.version >= 2 and bool(
            hello.capabilities.get("revisions")
        )
        self._send_frame(
            session,
            Welcome(
                session_id=session.session_id,
                next_seq=record.last_acked + 1,
                capabilities={
                    "codec": session.codec,
                    "codecs": list(codecs),
                    "resume": True,
                    "batch_push": True,
                    "max_batch": self.config.max_batch,
                    "heartbeat": 0.0,
                    "revisions": True,
                },
            ),
        )
        return True

    async def _handle_frame(self, session: _RouterSession, frame: Frame) -> bool:
        if isinstance(frame, Batch):  # BinaryBatch included
            return await self._ingest(
                session, frame.seq, list(frame.observations)
            )
        if isinstance(frame, Submit):
            return await self._ingest(session, frame.seq, [frame.observation])
        if isinstance(frame, Flush):
            return await self._ingest_flush(session, frame.seq)
        if isinstance(frame, Subscribe):
            session.subscribed = True
            session.rule_filter = (
                frozenset(frame.rules) if frame.rules is not None else None
            )
            return True
        if isinstance(frame, Ping):
            self._send_frame(session, Pong(token=frame.token))
            return True
        if isinstance(frame, Pong):
            return True
        if isinstance(frame, Bye):
            return False
        self._send_error(
            session, "protocol", f"unexpected {type(frame).__name__} frame"
        )
        return False

    # -- routing ------------------------------------------------------------

    async def _await_gates(self, shards: Iterable[str]) -> None:
        for shard in shards:
            gate = self._gates.get(shard)
            if gate is not None and not gate.is_set():
                await gate.wait()

    async def _ingest(
        self, session: _RouterSession, first: int, observations: list
    ) -> bool:
        record = session.record
        assert record is not None
        expected = record.last_routed + 1
        if first > expected:
            self._send_error(
                session, "sequence", f"got seq {first}, expected {expected}"
            )
            return False
        skip = min(expected - first, len(observations))
        if skip:
            self.stats.duplicates_skipped += skip
            observations = observations[skip:]
            first += skip
        if not observations:
            # Entirely below the routing frontier: remind the client of
            # its ack frontier (the originals are in flight or released).
            if record.last_acked >= 0:
                self._send_frame(session, Ack(seq=record.last_acked))
            return True
        end_seq = first + len(observations) - 1
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
        await self._await_gates(by_shard)
        epoch = _Epoch(record, end_seq, tuple(by_shard))
        self._epochs.append(epoch)
        record.last_routed = end_seq
        self.stats.routed += len(observations)
        self.stats.multicast += multicast
        self.stats.epochs += 1
        for shard, (obs_list, prov_seqs) in by_shard.items():
            self.links[shard].send_batch(
                obs_list, prov_seqs, record.client_id, epoch
            )
        self._release_ready()
        for shard in by_shard:
            await self.links[shard].drain()
        return True

    async def _ingest_flush(self, session: _RouterSession, seq: int) -> bool:
        record = session.record
        assert record is not None
        expected = record.last_routed + 1
        if seq > expected:
            self._send_error(
                session, "sequence", f"got flush seq {seq}, expected {expected}"
            )
            return False
        if seq < expected:
            self.stats.duplicates_skipped += 1
            if record.last_acked >= 0:
                self._send_frame(session, Ack(seq=record.last_acked))
            return True
        order = tuple(self.links)
        await self._await_gates(order)
        epoch = _Epoch(record, seq, order)
        self._epochs.append(epoch)
        record.last_routed = seq
        self.stats.epochs += 1
        for shard in order:
            self.links[shard].send_flush(record.client_id, seq, epoch)
        self._release_ready()
        for shard in order:
            await self.links[shard].drain()
        return True

    # -- fan-in -------------------------------------------------------------

    def _release_ready(self) -> None:
        while self._epochs and not self._epochs[0].waiting:
            epoch = self._epochs.popleft()
            self._finish_epoch(epoch)

    def _finish_epoch(self, epoch: _Epoch) -> None:
        payloads: list = []
        for shard in epoch.order:
            payloads.extend(epoch.detections[shard])
        if any("did" in payload for payload in payloads):
            # Revision-tagged fan-in must be deterministic regardless of
            # which shard's push won the race: order by (detection_id,
            # revision).  The sort is stable, so untagged payloads keep
            # their shard order (and sort ahead on the empty id).
            payloads.sort(
                key=lambda payload: (
                    payload.get("did", ""), payload.get("rev", -1)
                )
            )
        if payloads:
            for ordinal, payload in enumerate(payloads):
                payload["seq"] = epoch.end_seq
                payload["ordinal"] = ordinal
            self._push(payloads)
        record = epoch.record
        if epoch.end_seq > record.last_acked:
            record.last_acked = epoch.end_seq
        session = record.active_session
        if session is not None and session.alive:
            self._send_frame(session, Ack(seq=record.last_acked))

    def _push(self, payloads: list) -> None:
        subscribers = [
            s for s in self._sessions if s.alive and s.subscribed
        ]
        if not subscribers:
            return
        pushed = 0
        for subscriber in subscribers:
            if subscriber.rule_filter is None:
                wanted = payloads
            else:
                wanted = [
                    payload
                    for payload in payloads
                    if payload["rule"] in subscriber.rule_filter
                ]
            if not subscriber.revisions:
                # Same contract as CepServer: non-capable subscribers
                # see only finals, revision keys stripped.
                wanted = [
                    {k: v for k, v in payload.items()
                     if k not in ("did", "rev", "status")}
                    for payload in wanted
                    if payload.get("status", "final") == "final"
                ]
            if not wanted:
                continue
            pushed += len(wanted)
            if subscriber.batch_push and len(wanted) > 1:
                self._send_frame(
                    subscriber, DetectionBatch(detections=tuple(wanted))
                )
            else:
                for payload in wanted:
                    self._send_frame(
                        subscriber, DetectionFrame.from_payload(payload)
                    )
        self.stats.detections_forwarded += pushed


# ---------------------------------------------------------------------------
# one-config orchestration
# ---------------------------------------------------------------------------


class Cluster:
    """Spawn workers and a router from one config; supervise both.

    ``inprocess=True`` keeps the workers in this event loop (tests,
    migration drills without multi-core claims); otherwise each node is
    a :class:`WorkerProcess` subprocess and the cluster actually spans
    cores.  ``program`` is rule-language source — text, because it must
    cross a process boundary and re-parse identically on both sides.
    """

    def __init__(
        self,
        program: str,
        *,
        workers: int = 2,
        directory: str,
        max_shards: Optional[int] = None,
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
        rules = parse_rules(program)
        self.max_shards = max_shards or workers
        self.plan = plan_cluster(rules, workers, max_shards=self.max_shards)
        self.router: Optional[CepRouter] = None
        self.workers: dict[str, Any] = {}
        self.endpoints: dict[str, tuple[str, int]] = {}

    def _spec_for(self, node: str) -> dict:
        return {
            "program": self.program,
            "max_shards": self.max_shards,
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
        self.router = CepRouter(
            self.plan,
            self.endpoints,
            config=self.router_config,
            metrics=self.metrics,
        )
        return await self.router.serve_tcp(router_host, router_port)

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

    async def migrate_shard(self, shard: str, to_node: str) -> int:
        """Move one shard to another node by checkpoint handoff.

        drain (pause routing, wait for the link to go idle) →
        checkpoint (the source releases the shard, snapshotting it) →
        transfer (the state directory moves under the target node) →
        retarget (the router resumes the shard at its new endpoint).
        Only supported for in-process nodes; subprocess nodes migrate by
        ``terminate()`` + respawning with an updated spec.
        """
        if not self.inprocess:
            raise ServeError(
                "live single-shard migration needs in-process nodes; "
                "for subprocess nodes, terminate and respawn with an "
                "updated shard list"
            )
        from_node = self.plan.assignment[shard]
        if from_node == to_node:
            return self.endpoints[shard][1]
        if self.router is not None:
            await self.router.pause_shard(shard)
        source: ShardWorker = self.workers[from_node]
        state_dir = await source.release_shard(shard, checkpoint=True)
        target = self.workers.get(to_node)
        if target is None:
            target = ShardWorker(
                self.plan.shard_plan,
                [],
                os.path.join(self.directory, to_node),
                host=self.host,
                context=self.context,
                fsync=self.fsync,
                checkpoint_every=self.checkpoint_every,
                sink=self.sink,
            )
            self.workers[to_node] = target
        port = await target.adopt_shard(shard, state_dir)
        self.plan.assignment[shard] = to_node
        self.endpoints[shard] = (self.host, port)
        if self.router is not None:
            self.router.resume_shard(shard, self.host, port)
        return port

    async def stop(self) -> None:
        if self.router is not None:
            await self.router.close()
        for worker in self.workers.values():
            if self.inprocess:
                await worker.stop()
            else:
                await worker.terminate()
        self.workers.clear()
