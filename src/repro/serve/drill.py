"""One drill procedure: exactly-once serving, demonstrated under fire.

The bridge between the physical and the virtual world can only be
trusted if every detection reaches the virtual world exactly once.
Four drills check it, and all of them run the procedure written here:

1. build a seeded stream and its oracle;
2. stand up a durable topology whose sinks feed one :class:`SinkAudit`
   (:func:`stand_up_server`, :func:`stand_up_cluster`);
3. stream the input from clients in slices (:func:`stream_slices`);
4. optionally kill one component mid-slice and bring it back
   (:func:`kill_server`, :func:`kill_worker`);
5. flush;
6. audit the sink, the WAL and the ack frontiers against the oracle
   (:func:`audit_sink`, :func:`audit_wal`, :func:`check_frontier`) and
   write the report (:func:`run_drill`).

Each drill supplies only its workload, its fault, its kill target and
its extra checks and report sections: ``chaos serve``
(:func:`run_chaos_serve_drill`), ``chaos skew``
(:func:`run_chaos_skew_drill`), ``chaos cluster``
(:func:`run_cluster_drill`) and ``smoke``
(:func:`repro.workload.run_smoke_drill`).  Every schedule is a pure
function of the seed (timing interleavings vary, correctness must not),
so a failing run reproduces from the seed its report echoes.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from ..resilience.durability import DurableEngine, decode_record, read_wal
from ..resilience.durability.engine import WAL_SUBDIR
from ..scenarios.pack import canon_detection, canon_detections
from .client import AsyncClient, RetryConfig, tcp_connector
from .cluster import SINK_FILENAME, Cluster
from .faults import ChaosProxy, NetworkFaultPlan
from .protocol import detection_payload
from .server import CepServer, ServeConfig

__all__ = [
    "cluster_program",
    "default_fault_plan",
    "run_chaos_serve_drill",
    "run_chaos_skew_drill",
    "run_cluster_drill",
]

#: Patient reconnects: a client must outlive a server kill and rebirth.
DRILL_RETRY = RetryConfig(
    max_attempts=80, backoff_base=0.01, backoff_max=0.2, op_timeout=30.0
)

#: A kill lands while the third of four slices is in flight.
KILL_SLICE = 2


def obs_key(observation: Any) -> tuple:
    """One observation as a comparable tuple (for WAL == stream audits)."""
    extra = getattr(observation, "extra", None)
    return (
        observation.reader,
        observation.obj,
        observation.timestamp,
        tuple(sorted(extra.items())) if extra else None,
    )


def split_slices(stream: list, parts: int) -> list:
    """``stream`` cut into exactly ``parts`` consecutive slices."""
    size = max(1, (len(stream) + parts - 1) // parts)
    slices = [stream[i : i + size] for i in range(0, len(stream), size)]
    slices.extend([] for _ in range(parts - len(slices)))
    return slices


def attributes(source: Any, names: str) -> dict:
    """The space-separated ``names`` of ``source``, for a report section."""
    return {name: getattr(source, name) for name in names.split()}


class Checks(dict):
    """A drill's invariant checks, in the shape its report carries them:
    call it to record one, read ``ok`` for the verdict."""

    def __call__(self, name: str, ok: bool, detail: str = "") -> None:
        self[name] = {"ok": bool(ok), "detail": detail}

    @property
    def ok(self) -> bool:
        return all(check["ok"] for check in self.values())


async def close_quietly(*closers, timeout: Optional[float] = None) -> None:
    """Await each ``close()`` in turn; one that fails or hangs past
    ``timeout`` must not keep the rest of a drill's teardown from running."""
    for close in closers:
        try:
            await asyncio.wait_for(close(), timeout)
        except Exception:
            pass


def write_report(report: dict, report_path: Optional[str]) -> dict:
    """Write ``report`` as JSON when a path is given; returns it."""
    if report_path:
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        report["report_path"] = report_path
    return report


def run_drill(
    drill: Callable,
    prefix: str,
    directory: Optional[str],
    timeout: float,
    report_path: Optional[str],
) -> dict:
    """Run ``drill(directory)`` (a fresh temporary directory when None)
    under a wall-clock bound; returns and writes its report."""
    directory = directory or tempfile.mkdtemp(prefix=prefix)
    report = asyncio.run(asyncio.wait_for(drill(directory), timeout))
    report["directory"] = directory
    return write_report(report, report_path)


# -- step 2: one durable topology with a recording sink ----------------------


class SinkAudit:
    """The one sink audit: every delivery a topology's sinks made.

    A server has one delivery journal, a cluster one per shard.  Within a
    journal the outbox delivers in ``(seq, ordinal)`` key order, so a key
    that fails to increase is a repeat or a replay out of order; across
    journals, a detection id delivered twice is a repeat.  That takes
    O(1) memory per journal; ``keep`` also keeps each delivery in
    canonical form, for oracles that are detection lists.
    """

    def __init__(self, keep: bool = True) -> None:
        self.count = 0
        self.per_rule: dict[str, int] = {}
        self.statuses: set[str] = set()
        self.in_order = True
        self.repeated_ids = 0
        self.delivered: Optional[list] = [] if keep else None
        self.last_keys: dict[str, tuple[int, int]] = {}
        self._ids: set[str] = set()

    def __call__(self, detection: Any, seq: int, ordinal: int) -> None:
        """The sink of a ``DurableEngine``: one server, one journal."""
        payload = detection_payload(detection)
        self.record("server", dict(payload, seq=seq, ordinal=ordinal))

    def record(self, journal: str, payload: dict) -> None:
        """One delivery, in the form a cluster worker's file sink writes."""
        key = (payload["seq"], payload["ordinal"])
        self.in_order &= key > self.last_keys.get(journal, (-1, -1))
        self.last_keys[journal] = key
        self.count += 1
        rule = payload["rule"]
        self.per_rule[rule] = self.per_rule.get(rule, 0) + 1
        self.statuses.add(payload.get("status", "final"))
        if payload.get("did"):
            self.repeated_ids += payload["did"] in self._ids
            self._ids.add(payload["did"])
        if self.delivered is not None:
            self.delivered.append(
                canon_detection(rule, payload["time"], payload["bindings"])
            )


@dataclass
class Stand:
    """One durable topology under drill, and the audit of its sinks.

    ``port`` is where clients dial: the proxy when a fault plan fronts
    the server, else the server itself, which moves to a new port each
    time it is recovered.  ``servers`` holds each life of the server.
    """

    directory: str
    sink: SinkAudit
    cluster: Optional[Cluster] = None
    proxy: Optional[ChaosProxy] = None
    durable: Any = None
    recovery: Any = None
    revive: Optional[Callable] = None
    servers: list = field(default_factory=list)
    port: int = 0

    @property
    def server(self) -> CepServer:
        return self.servers[-1]

    def client(self, client_id: str, **options: Any) -> AsyncClient:
        """A client that follows the topology across a kill."""

        async def connect():
            return await tcp_connector("127.0.0.1", self.port)()

        return AsyncClient(connect, client_id=client_id, **options)

    def wal_paths(self) -> dict[str, str]:
        """Journal name -> WAL directory: ``server``, or one per shard."""
        if self.cluster is None:
            return {"server": os.path.join(self.directory, WAL_SUBDIR)}
        return {
            shard: os.path.join(self.directory, node, shard, WAL_SUBDIR)
            for shard, node in sorted(self.cluster.plan.assignment.items())
        }


async def stand_up_server(
    directory: str,
    factory: Callable,
    *,
    plan: Optional[NetworkFaultPlan] = None,
    config: Optional[ServeConfig] = None,
    keep: bool = True,
    **durable_kwargs: Any,
) -> Stand:
    """A ``DurableEngine`` delivering to a :class:`SinkAudit`, behind a
    ``CepServer`` on TCP, fronted by a ``ChaosProxy`` running ``plan``
    when one is given.  ``checkpoint_every=0``: no checkpoint means no
    WAL pruning, so the audit can read the whole stream back."""
    stand = Stand(directory, SinkAudit(keep))
    kwargs = dict(checkpoint_every=0, sink=stand.sink, **durable_kwargs)

    async def serve(recover: bool) -> None:
        if recover:
            stand.durable, stand.recovery = DurableEngine.recover(
                factory, directory, **kwargs
            )
        else:
            stand.durable = DurableEngine(factory, directory, **kwargs)
        stand.servers.append(CepServer(stand.durable, config=config))
        port = await stand.server.serve_tcp("127.0.0.1", 0)
        if stand.proxy is None:
            stand.port = port
        else:
            stand.proxy.retarget(port=port)

    stand.revive = lambda: serve(recover=True)
    await serve(recover=False)
    if plan is not None:
        stand.proxy = ChaosProxy(plan, "127.0.0.1", stand.port)
        stand.port = await stand.proxy.start()
    return stand


async def stand_up_cluster(
    directory: str, program: str, *, keep: bool = True, **options: Any
) -> Stand:
    """A router and shard workers (``options`` go to ``Cluster``), each
    shard on its own ``DurableEngine`` with a file sink that
    :func:`tear_down` reads into the audit once the cluster stops."""
    cluster = Cluster(program, directory=directory, sink=True, **options)
    stand = Stand(directory, SinkAudit(keep), cluster=cluster)
    try:
        stand.port = await cluster.start()
    except BaseException:
        await close_quietly(cluster.stop)
        raise
    stand.servers.append(cluster.server)
    return stand


async def tear_down(stand: Stand, *clients: AsyncClient) -> None:
    """Close the clients and the topology, whatever state a drill left
    them in, so the audits read settled files."""
    await close_quietly(*(client.close for client in clients), timeout=5.0)
    if stand.proxy is not None:
        await close_quietly(stand.proxy.close)
    if stand.cluster is None:
        await close_quietly(stand.server.close)
        stand.durable.close()
        return
    await close_quietly(stand.cluster.stop)
    for shard, node in sorted(stand.cluster.plan.assignment.items()):
        path = os.path.join(stand.directory, node, shard, SINK_FILENAME)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    stand.sink.record(shard, json.loads(line))


# -- steps 3 and 4: stream in slices, kill one component mid-slice -----------


async def submit_slice(client: AsyncClient, observations: Iterable) -> int:
    """Submit one slice observation by observation, then wait for its acks
    (small writes keep a proxy fed with many distinct chunks, which is
    what fault rates act on); returns how many were submitted."""
    count = 0
    for observation in observations:
        await client.submit(observation)
        count += 1
    await client.drain()
    return count


async def kill_server(stand: Stand) -> None:
    """The server kill/recover sequence, 50 ms into a slice.

    ``CepServer.abort`` drops the submit queue and every session without
    BYE, as a crash would; clients keep what went unapplied in their
    unacked buffers.  The dead life's engine is closed, as the dying
    process would have closed its WAL segment and journal.
    ``DurableEngine.recover`` rebuilds the engine from the directory
    alone and it is served on a new port, which clients (or the proxy)
    follow.
    """
    await asyncio.sleep(0.05)
    await stand.server.abort()
    stand.durable.close()
    await stand.revive()


async def kill_worker(stand: Stand, node: str, client: AsyncClient) -> tuple:
    """The worker kill/recover sequence, as a slice starts.

    ``Cluster.kill_worker`` crashes ``node`` (SIGKILL, or ``abort()``
    in-process); for 100 ms the slice streams into the hole, the router
    buffering the node's sub-batches; ``Cluster.restart_worker`` brings
    it back and the router resends.  Returns ``client``'s ack frontier
    at the kill and its seqs still unacked at the restart.
    """
    acked = client.last_acked
    await stand.cluster.kill_worker(node)
    await asyncio.sleep(0.1)
    unacked = (client._next_seq - 1) - client.last_acked
    await stand.cluster.restart_worker(node)
    return acked, unacked


async def stream_slices(
    stand: Stand, schedule: list, kill: Optional[str] = None
) -> dict:
    """Stream each ``(client, slice)`` of ``schedule`` in turn, each acked
    before the next starts, so the backend applies the oracle's order
    even when several clients share the stream.

    ``kill`` names what dies while slice :data:`KILL_SLICE` is in flight:
    ``"server"``, or a worker node.  Returns how many observations were
    submitted and, for a worker kill, what :func:`kill_worker` saw.
    """
    seen = {"submitted": 0}
    for index, (client, observations) in enumerate(schedule):
        pump = asyncio.ensure_future(submit_slice(client, observations))
        if kill is not None and index == KILL_SLICE:
            if stand.cluster is None:
                await kill_server(stand)
            else:
                seen["acked"], seen["unacked"] = await kill_worker(
                    stand, kill, client
                )
        seen["submitted"] += await pump
    return seen


def scheduled(schedule: list) -> list:
    """What a WAL must hold after ``schedule``: ``(client_id, client_seq,
    obs_key)`` per observation, in order, each client counting from 0."""
    next_seq: Counter = Counter()
    expected = []
    for client, observations in schedule:
        for observation in observations:
            seq = next_seq[client.client_id]
            next_seq[client.client_id] += 1
            expected.append((client.client_id, seq, obs_key(observation)))
    return expected


# -- step 6: one sink audit, one WAL audit, one frontier check ----------------


def audit_sink(
    check: Checks, audit: SinkAudit, oracle: Any, *, once: str, match: str
) -> None:
    """Exactly-once delivery (check ``once``) and, unless ``oracle`` is
    None, delivery equal to it (check ``match``).

    A dict oracle holds per-rule counts.  A list oracle holds canonical
    detections: one journal must deliver them in order; several journals
    together, as a multiset, since each orders only its own.
    """
    check(
        once,
        audit.in_order and not audit.repeated_ids,
        f"{audit.count} deliveries, keys strictly increasing per journal, "
        f"{audit.repeated_ids} repeated detection ids",
    )
    if isinstance(oracle, dict):
        detail = f"delivered={audit.per_rule} expected={oracle}"
        check(match, audit.per_rule == oracle, detail)
    elif oracle is not None:
        got = audit.delivered
        if len(audit.last_keys) > 1:
            got, oracle = Counter(got), Counter(oracle)
        detail = f"delivered={audit.count} oracle={len(oracle)}"
        check(match, got == oracle, detail)


def wal_records(path: str):
    """``(client_id, client_seq, observation)`` per seq of the WAL at
    ``path``: the ids are None for an entry without client provenance,
    the observation None for a flush marker."""
    for record in read_wal(path):
        observation, client = decode_record(record)
        client_id, seq = client or (None, None)
        yield client_id, seq, observation


def audit_wal(check: Checks, name: str, path: str, expected: list) -> None:
    """The WAL at ``path`` holds exactly ``expected`` (see
    :func:`scheduled`): the same readings with the same provenance, in
    order, no duplicates, no gaps."""
    got = [
        (client_id, seq, obs_key(observation))
        for client_id, seq, observation in wal_records(path)
        if observation is not None
    ]
    check(name, got == expected, f"wal={len(got)} expected={len(expected)}")


def check_frontier(
    check: Checks, name: str, client: Any, server: int, wal: int
) -> None:
    """The last seq ``client`` issued, its cumulative ack, the server's
    applied record and the WAL all agree (see :func:`frontier_views`)."""
    views = dict(issued=client._next_seq - 1, client=client.last_acked)
    views.update(server=server, wal=wal)
    detail = " ".join(f"{view}={seq}" for view, seq in views.items())
    check(name, len(set(views.values())) == 1, detail)


def frontier_views(stand: Stand, client_id: str) -> tuple[int, int]:
    """The server's and the WAL's view of ``client_id``'s frontier.  With
    several WALs it is the smallest of the highest seq each holds: the
    router relays a FLUSH to every shard, so after one they agree."""
    highest = [
        max((seq for owner, seq, _ in wal_records(p) if owner == client_id), default=-1)
        for p in stand.wal_paths().values()
    ]
    return stand.server.client_frontier(client_id), min(highest)


#: Report sections: the attributes each one carries (see :func:`attributes`).
RECOVERY = "replayed_records suppressed_deliveries redelivered torn_bytes_truncated"
SERVER_STATS = (
    "reconnects pings_sent pongs_received sessions_reaped duplicates_skipped "
    "errors_sent"
)
ROUTER_STATS = (
    "routed multicast epochs detections_forwarded unattributed_detections "
    "worker_reconnects"
)


# -- chaos serve -------------------------------------------------------------


def default_fault_plan(seed: int = 7) -> NetworkFaultPlan:
    """The standard drill mix: hostile but survivable.

    Rates are per transport chunk and deliberately high — a soak with a
    few dozen chunks must still fire every fault class.
    """
    return NetworkFaultPlan(
        seed=seed,
        jitter=0.002,
        fragment_rate=0.35,
        fragment_cuts=6,
        stall_rate=0.08,
        stall_seconds=0.01,
        reset_rate=0.12,
        corrupt_rate=0.08,
    )


def run_chaos_serve_drill(
    seed: int = 7,
    cases: int = 20,
    plan: Optional[NetworkFaultPlan] = None,
    *,
    directory: Optional[str] = None,
    heartbeat_interval: float = 0.05,
    idle_deadline: float = 2.0,
    timeout: float = 120.0,
    report_path: Optional[str] = None,
    scenario: str = "packing",
) -> dict:
    """Run the network chaos soak; returns (and optionally writes) its report.

    Two clients stream through a seeded ``ChaosProxy`` that fragments,
    corrupts, resets and stalls, and the server dies mid-slice.  ``scenario`` names any registered scenario
    pack, so the soak can exercise e.g. SQL-conditioned rules
    (``returns-fraud``) or pseudo-event TSEQs (``cold-chain``), not just
    packing.  Extra checks: per-client WAL provenance, the fault plan
    fired, an idle session is probed.  The same ``seed`` replays
    the same fault schedule — echo it with every failure.
    """
    from ..scenarios import get_pack

    if plan is None:
        plan = default_fault_plan(seed)
    elif plan.seed != seed:
        plan = plan.reseeded(seed)
    run = get_pack(scenario).build(seed=seed, size=cases)
    factory = run.engine_factory()
    stream = list(run.observations)
    baseline = canon_detections(factory().run(stream))

    async def drill(directory: str) -> dict:
        config = ServeConfig(
            heartbeat_interval=heartbeat_interval, idle_deadline=idle_deadline
        )
        stand = await stand_up_server(directory, factory, plan=plan, config=config)
        options = dict(batch_size=4, retry=DRILL_RETRY)
        a = stand.client(f"drill-a-{seed}", **options)
        b = stand.client(f"drill-b-{seed}", **options)
        schedule = list(zip((a, b, b, a), split_slices(stream, 4)))
        try:
            await a.connect()
            await b.connect()
            await stream_slices(stand, schedule, kill="server")
            # Let the link go quiet so the server's liveness loop probes
            # the idle session; a chaos reset can kill the session
            # mid-wait, so reconnect (the pending buffer is empty).
            deadline = time.monotonic() + 10.0
            while b.heartbeats == 0 and time.monotonic() < deadline:
                if not b._connected:
                    await b.connect()
                await asyncio.sleep(heartbeat_interval)
            # One end-of-stream flush, exactly like the baseline run's.
            await b.flush()
            await a.drain()
        finally:
            await tear_down(stand, a, b)

        check = Checks()
        path = stand.wal_paths()["server"]
        audit_wal(check, "wal_matches_stream", path, scheduled(schedule))
        provenance: dict[str, list] = {}
        for client_id, seq, _ in wal_records(path):
            if client_id:
                provenance.setdefault(client_id, []).append(seq)
        check(
            "client_provenance_contiguous",
            set(provenance) == {a.client_id, b.client_id}
            and all(s == list(range(s[0], s[-1] + 1)) for s in provenance.values()),
            str({client_id: len(s) for client_id, s in provenance.items()}),
        )
        audit_sink(
            check,
            stand.sink,
            baseline,
            once="sink_no_duplicates",
            match="detections_match_baseline",
        )
        for c in (a, b):
            views = frontier_views(stand, c.client_id)
            check_frontier(check, f"frontier_{c.client_id}", c, *views)
        # The plan fired — and no corrupt frame was decoded, or the
        # audits above could not all hold.
        faults = stand.proxy.stats
        check(
            "faults_fired",
            faults.fragments > 0 and faults.corruptions > 0 and faults.resets > 0,
            f"fragments={faults.fragments} corruptions={faults.corruptions} "
            f"resets={faults.resets} stalls={faults.stalls}",
        )
        check("heartbeats", b.heartbeats > 0, f"b answered {b.heartbeats} pings")
        client_stats = "client_id reconnects heartbeats frame_errors last_acked"
        return {
            "ok": check.ok,
            "seed": seed,
            "scenario": scenario,
            "cases": cases,
            "observations": len(stream),
            "plan": plan.describe(),
            "checks": dict(check),
            "faults": faults.as_dict(),
            "proxy": attributes(
                stand.proxy, "connections_accepted connections_refused"
            ),
            "clients": {
                "a": attributes(a, client_stats),
                "b": attributes(b, client_stats),
            },
            # Both lives of the server, summed.
            "server": {
                name: sum(getattr(server.stats, name) for server in stand.servers)
                for name in SERVER_STATS.split()
            },
            "recovery": attributes(stand.recovery, RECOVERY),
        }

    return run_drill(drill, "chaos-serve-", directory, timeout, report_path)


# -- chaos skew --------------------------------------------------------------

#: Shelf bulk-read period (seconds).  The outfield rule's window equals
#: it, so a held-back re-read routinely arrives *after* the speculative
#: window close — the provisional-then-retract scenario.
SHELF_PERIOD = 2.0


def _outfield_rule():
    """Outfield negation over the shelf reader (paper Rule 2 pattern)."""
    from ..core.expressions import Not, Seq, Var, Within, obs
    from ..rules import AlertAction, Rule

    event = Within(
        Seq(
            obs("shelf1", Var("o"), t=Var("t1")),
            Not(obs("shelf1", Var("o"), t=Var("t2"))),
        ),
        SHELF_PERIOD,
    )
    return Rule(
        "outfield",
        "item left the shelf",
        event,
        actions=[AlertAction("item {o} left the shelf at {time}")],
    )


def _skew_workload(cases: int, seed: int, horizon: float):
    """(factory, arrival stream, in-order oracle, fault counts)."""
    import random

    from ..core.detector import Engine, FunctionRegistry, OutOfOrderPolicy
    from ..core.speculate import canonical_key
    from ..resilience.chaos import ChaosConfig, ChaosInjector
    from ..scenarios import get_pack
    from ..simulator import ShelfConfig, simulate_shelf
    from ..store import RfidStore

    packing = get_pack("packing").build(seed=seed, size=cases)

    def engine(**options: Any) -> Engine:
        rules = list(packing.rules) + [_outfield_rule()]
        return Engine(
            rules, store=RfidStore(), functions=FunctionRegistry(), **options
        )

    def factory() -> Engine:
        return engine(out_of_order=OutOfOrderPolicy.REVISE, revise_horizon=horizon)

    # Two interleaved sources: a packing line (TSeq containment windows)
    # and a smart shelf whose periodic bulk re-reads feed the outfield
    # negation — where a held-back re-read makes the speculative engine
    # provisionally declare a removal it must then take back.
    shelf = simulate_shelf(
        ShelfConfig(
            reader="shelf1",
            read_period=SHELF_PERIOD,
            items=max(8, cases),
            arrival_window=(0.0, 90.0),
            stay_range=(5.0, 25.0),
        ),
        rng=random.Random(seed + 1),
    )
    trace_observations = sorted(
        packing.observations + shelf.observations,
        key=lambda observation: observation.timestamp,
    )
    injector = ChaosInjector(
        ChaosConfig(
            seed=seed,
            skew_rate=0.15,
            max_skew=0.5,
            disorder_rate=0.25,
            max_lateness=2.0,
            duplicate_rate=0.10,
            duplicate_max_extra=2,
        )
    )
    arrival = list(injector.inject(trace_observations))
    # The in-order oracle: same readings, canonical stream order, plain
    # in-order engine.  REVISE's finals must converge to exactly this.
    oracle = canon_detections(engine().run(sorted(arrival, key=canonical_key)))
    return factory, arrival, oracle, injector.counts


def run_chaos_skew_drill(
    seed: int = 11,
    cases: int = 16,
    *,
    horizon: float = 6.0,
    directory: Optional[str] = None,
    timeout: float = 120.0,
    report_path: Optional[str] = None,
) -> dict:
    """Run the skew drill; returns (and optionally writes) its report.

    A seeded ``ChaosInjector`` skews, disorders and duplicates a packing
    line interleaved with a smart shelf, into a REVISE engine whose
    outbox delivers finals only, and the server dies mid-slice.  The
    sink must receive exactly the in-order oracle's detections —
    finals only, exactly once, with real retractions along the way.
    ``horizon`` is the engine's ``revise_horizon``; it must exceed the
    fault mix's worst-case lateness (disorder ``max_lateness`` plus
    skew), or ``nothing_outside_horizon`` fails loudly rather than
    letting readings vanish.  The same ``seed`` replays the same
    perturbation schedule.
    """
    factory, arrival, oracle, faults = _skew_workload(cases, seed, horizon)

    async def drill(directory: str) -> dict:
        stand = await stand_up_server(directory, factory, confidence="final")
        client = stand.client(f"skew-{seed}", batch_size=8, retry=DRILL_RETRY)
        try:
            await client.connect()
            # The kill lands with speculation live: the reorder buffer
            # holds readings, the outbox parked provisionals.  Recovery
            # must rebuild both from the WAL alone.
            schedule = [(client, part) for part in split_slices(arrival, 4)]
            await stream_slices(stand, schedule, kill="server")
            # The flush seals every surviving speculation, exactly like
            # the oracle run's own flush.
            await client.flush()
        finally:
            await tear_down(stand, client)

        check = Checks()
        audit_sink(
            check,
            stand.sink,
            oracle,
            once="sink_exactly_once",
            match="finals_match_inorder_oracle",
        )
        statuses = sorted(stand.sink.statuses)
        finals_only = set(statuses) <= {"final"}
        check("only_finals_delivered", finals_only, f"statuses={statuses}")
        stats, outbox = stand.durable.engine.stats, stand.durable.outbox
        late = stats.dropped_too_late
        check("nothing_outside_horizon", late == 0, f"dropped_too_late={late}")
        fired = {name: faults[name] for name in ("skewed", "delayed", "duplicated")}
        check(
            "faults_fired",
            all(fired.values()),
            " ".join(f"{name}={count}" for name, count in fired.items()),
        )
        check(
            "speculation_exercised",
            stats.speculative > 0 and stats.retracted > 0,
            f"speculative={stats.speculative} revised={stats.revised} "
            f"retracted={stats.retracted} sealed={stats.sealed}",
        )
        check(
            "outbox_held_the_line",
            outbox.held > 0 and not outbox.pending,
            f"held={outbox.held} cancelled={outbox.cancelled} "
            f"still_pending={len(outbox.pending)}",
        )
        speculation = "speculative revised retracted sealed dropped_too_late"
        return {
            "ok": check.ok,
            "seed": seed,
            "cases": cases,
            "horizon": horizon,
            "observations": len(arrival),
            "checks": dict(check),
            "faults": dict(faults),
            "engine": attributes(stats, speculation),
            "outbox": attributes(outbox, "held cancelled timed_out"),
            "client": attributes(client, "client_id reconnects last_acked"),
            "recovery": attributes(stand.recovery, RECOVERY),
        }

    return run_drill(drill, "chaos-skew-", directory, timeout, report_path)


# -- chaos cluster -----------------------------------------------------------


def cluster_program(
    reader_pairs, *, rules_per_pair: int = 1, decoys_per_pair: int = 0
) -> str:
    """Render the bench containment rules as rule-language source.

    The cluster ships rules across process boundaries as *text*: router
    and workers each parse it and arrive at the same shard plan without
    coordination.  The rules are the exact :func:`~repro.bench.workloads
    .containment_rule_for_pair` structures, rendered through the
    language printer — one source of truth.  ``decoys_per_pair`` adds
    never-firing variants (the case-delay window sits just past the
    simulator's ``case_delay`` bound): full per-event automaton work but
    no detections, so the cluster benchmark can scale detection cost
    apart from detection volume.
    """
    from ..bench.workloads import containment_rule_for_pair
    from ..core.expressions import TSeq, TSeqPlus, Var, obs
    from ..lang import format_event

    lines = []
    index = 0
    for variant in range(rules_per_pair):
        for item_reader, case_reader in reader_pairs:
            rule = containment_rule_for_pair(
                index, item_reader, case_reader, variant
            )
            lines.append(
                f"CREATE RULE bench_{index}, containment {index}\n"
                f"ON {format_event(rule.event)}\n"
                f"IF true\n"
                f"DO ALERT 'containment {index}'\n"
            )
            index += 1
    for variant in range(decoys_per_pair):
        for item_reader, case_reader in reader_pairs:
            event = TSeq(
                TSeqPlus(obs(item_reader, Var("o1")), 0.1, 1.0),
                obs(case_reader, Var("o2")),
                21.0 + variant,
                22.0 + variant,
            )
            lines.append(
                f"CREATE RULE bench_{index}, decoy {index}\n"
                f"ON {format_event(event)}\n"
                f"IF true\n"
                f"DO ALERT 'decoy {index}'\n"
            )
            index += 1
    return "\n".join(lines)


def run_cluster_drill(
    seed: int = 7,
    *,
    lines: int = 4,
    cases_per_line: int = 12,
    workers: int = 2,
    directory: Optional[str] = None,
    inprocess: bool = False,
    timeout: float = 120.0,
    report_path: Optional[str] = None,
) -> dict:
    """Run the cluster kill/recover drill; returns (and writes) its report.

    A multi-line packing stream flows through the router while the
    worker owning the first shard dies.  Every shard's WAL must hold
    exactly the subsequence the plan routes to it, the worker sinks
    every baseline detection exactly once, and pushes to the subscriber
    are at-most-once across the crash, by design.  ``inprocess=True``
    swaps the worker subprocesses for in-loop workers (crashed via
    ``abort()`` instead of SIGKILL): faster, for tests.
    """
    from ..core.detector import Engine
    from ..lang import parse_rules
    from ..simulator import simulate_multi_packing
    from ..store import RfidStore

    trace = simulate_multi_packing(
        lines=lines, cases_per_line=cases_per_line, items_per_case=5, seed=seed
    )
    program = cluster_program(trace.reader_pairs)
    stream = list(trace.observations)
    engine = Engine(parse_rules(program), store=RfidStore())
    baseline = canon_detections(engine.run(stream))

    async def drill(directory: str) -> dict:
        stand = await stand_up_cluster(
            directory, program, workers=workers, inprocess=inprocess
        )
        plan = stand.cluster.plan
        # The victim owns the plan's first shard, so the kill provably
        # lands on live traffic.
        victim = plan.assignment[min(plan.assignment)]
        pushes: list = []
        client = stand.client(
            "drill-client", subscribe=True, batch_size=32, on_detection=pushes.append
        )
        schedule = [(client, part) for part in split_slices(stream, 4)]
        try:
            await client.connect()
            seen = await stream_slices(stand, schedule, kill=victim)
            await client.flush(timeout=60)
            # The flush ack releases every epoch; trailing pushes ride the
            # same ordered queue, give the transport a beat to deliver them.
            await asyncio.sleep(0.2)
        finally:
            await tear_down(stand, client)

        check = Checks()
        routes = plan.shard_plan.routes_for_reader
        expected = list(zip(scheduled(schedule), stream))
        for shard, path in stand.wal_paths().items():
            routed = [entry for entry, o in expected if shard in routes(o.reader)]
            audit_wal(check, f"wal_{shard}", path, routed)
        audit_sink(
            check,
            stand.sink,
            baseline,
            once="sink_no_duplicates",
            match="sink_matches_baseline",
        )
        pushed = [canon_detection(f.rule, f.time, f.bindings) for f in pushes]
        unique = set(pushed)
        check(
            "push_no_duplicates",
            len(pushed) == len(unique),
            f"{len(pushed)} pushes, {len(unique)} unique",
        )
        check(
            "push_subset_of_baseline",
            unique <= set(baseline) and len(pushed) > 0,
            f"pushed={len(pushed)} baseline={len(baseline)}",
        )
        views = frontier_views(stand, client.client_id)
        check_frontier(check, "frontier", client, *views)
        check(
            "worker_killed_midstream",
            seen["acked"] < len(stream) - 1,
            f"acked_before_kill={seen['acked']}",
        )
        router = stand.cluster.router.stats
        victim_shards = plan.shards_for(victim)
        check(
            "links_reconnected",
            router.worker_reconnects >= len(victim_shards),
            f"reconnects={router.worker_reconnects} "
            f"victim_shards={len(victim_shards)}",
        )
        check(
            "batches_in_flight_at_recover",
            seen["unacked"] > 0,
            f"{seen['unacked']} unacked client seqs at recover",
        )
        return {
            "ok": check.ok,
            "seed": seed,
            "workers": workers,
            "lines": lines,
            "cases_per_line": cases_per_line,
            "observations": len(stream),
            "baseline_detections": len(baseline),
            "victim": victim,
            "victim_shards": victim_shards,
            "assignment": dict(plan.assignment),
            "checks": dict(check),
            "router": {
                **attributes(router, ROUTER_STATS),
                "duplicates_skipped": stand.server.stats.duplicates_skipped,
            },
        }

    return run_drill(drill, "chaos-cluster-", directory, timeout, report_path)


# -- smoke -------------------------------------------------------------------


async def smoke_drill(
    directory: str, workload: Any, factory: Any, profile: Any, seed: int, workers: int
) -> dict:
    """The body of :func:`repro.workload.run_smoke_drill`: one client
    streams a generated workload through one server, or through a
    cluster when ``factory`` is None.  The sink audit keeps no detection
    list: at a million events a seen-set would dwarf the engine."""
    started = time.perf_counter()
    if factory is None:
        program = workload.source.program
        stand = await stand_up_cluster(directory, program, keep=False, workers=workers)
    else:
        stand = await stand_up_server(directory, factory, keep=False)
    client = stand.client(
        f"smoke-{profile.name}-{seed}", batch_size=profile.batch_size
    )
    try:
        await client.connect()
        seen = await stream_slices(stand, [(client, workload)])
        await client.flush(timeout=profile.timeout)
    finally:
        await tear_down(stand, client)
    elapsed = time.perf_counter() - started
    submitted = seen["submitted"]

    stats = workload.stats
    distinct = workload.tags.distinct_epcs()
    floor = profile.distinct_floor
    check = Checks()
    # Oracle equality only on clean runs: under chaos, duplicates
    # legitimately re-detect and late readings are dropped.
    audit_sink(
        check,
        stand.sink,
        dict(stats.expected) if workload.config.chaos is None else None,
        once="sink_exactly_once",
        match="detections_match_oracle",
    )
    check(
        "distinct_epcs_floor",
        distinct >= floor,
        f"{distinct} distinct EPCs, floor {floor}",
    )
    views = frontier_views(stand, client.client_id)
    check_frontier(check, "frontier_agreement", client, *views)
    return {
        "ok": check.ok,
        "profile": profile.name,
        "pack": workload.config.pack,
        "seed": seed,
        "transport": "tcp" if factory is not None else "cluster",
        "workers": 1 if factory is not None else workers,
        "episodes": stats.episodes,
        "observations": submitted,
        "distinct_epcs": distinct,
        "deferred_episodes": stats.deferred,
        "max_in_flight": stats.max_in_flight,
        "stream_seconds": round(stats.end_time, 3),
        "elapsed_seconds": round(elapsed, 3),
        "events_per_second": round(submitted / elapsed, 1) if elapsed > 0 else 0.0,
        "expected": dict(sorted(stats.expected.items())),
        "delivered": dict(sorted(stand.sink.per_rule.items())),
        "chaos": workload.chaos_counts,
        "checks": dict(check),
    }
