"""The chaos soak drill: exactly-once serving, demonstrated under fire.

``python -m repro chaos serve`` (and the ``chaos``-marked CI test) runs
this scenario end to end:

* a durable :class:`~repro.serve.CepServer` (WAL + outbox sink,
  heartbeats and idle reaping enabled) listens on TCP;
* a seeded :class:`~repro.serve.faults.ChaosProxy` sits between the
  server and its clients, fragmenting frames at byte granularity,
  XOR-corrupting bytes (the CRC32 framing must catch every one),
  injecting mid-write resets and latency jitter;
* a **v1 JSON client** and a **v2 binary client** push disjoint slices
  of one simulated packing stream through the proxy, serialized so the
  backend sees the exact baseline observation order;
* mid-stream, the server is hard-killed (:meth:`CepServer.abort` — the
  submit queue is dropped, sessions die without BYE), recovered with
  :meth:`DurableEngine.recover` on a *new* port, and the proxy is
  retargeted — clients reconnect and resend through their unacked
  buffers without operator help.

Afterwards the drill audits the wreckage against an in-process baseline
run of the same rules over the same stream:

1. the WAL holds the stream **byte-for-byte**: same observations, same
   order, no duplicates, no gaps — and per-client provenance is a
   contiguous sequence;
2. the outbox sink received every baseline detection **exactly once**
   (no duplicate ``(seq, ordinal)`` keys, canonically equal output);
3. client/server/durable ack frontiers all agree;
4. the fault plan actually fired (fragments, corruptions, resets > 0) —
   a drill that injected nothing proves nothing;
5. the v1 peer was never probed with PING; the v2 peer was.

The whole run is a pure function of ``(seed, cases, plan)`` *for the
fault schedule* (timing interleavings vary, correctness must not), so a
failing run is reproducible from the seed echoed in its report.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
from typing import Any, Iterator, Optional

from ..scenarios.pack import canon_detections
from .client import AsyncClient, RetryConfig, tcp_connector
from .cluster import SINK_FILENAME
from .faults import ChaosProxy, NetworkFaultPlan
from .server import CepServer, ServeConfig

__all__ = ["default_fault_plan", "run_chaos_serve_drill"]


# -- shared by skew_drill, cluster_drill and repro.workload.smoke --------------

#: Patient reconnects: a client must outlive a server kill and rebirth.
DRILL_RETRY = RetryConfig(
    max_attempts=80, backoff_base=0.01, backoff_max=0.2, op_timeout=30.0
)


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


async def submit_slice(client: AsyncClient, observations: list) -> None:
    """Submit one slice observation by observation, then wait for its acks
    (small writes keep a proxy fed with many distinct chunks, which is
    what fault rates act on)."""
    for observation in observations:
        await client.submit(observation)
    await client.drain()


class Checks(dict):
    """A drill's invariant checks, in the shape its report carries them:
    call it to record one, read ``ok`` for the verdict."""

    def __call__(self, name: str, ok: bool, detail: str = "") -> None:
        self[name] = {"ok": bool(ok), "detail": detail}

    @property
    def ok(self) -> bool:
        return all(check["ok"] for check in self.values())


def recovery_summary(recovery: Any) -> dict:
    """The part of a ``RecoveryReport`` the drill reports carry."""
    return {
        "replayed_records": recovery.replayed_records,
        "suppressed_deliveries": recovery.suppressed_deliveries,
        "redelivered": recovery.redelivered,
        "torn_bytes_truncated": recovery.torn_bytes_truncated,
    }


def read_worker_sinks(directory: str, assignment: dict) -> Iterator[tuple]:
    """``(shard, payload)`` for every line the cluster's worker sinks wrote."""
    for shard, node in sorted(assignment.items()):
        sink_path = os.path.join(directory, node, shard, SINK_FILENAME)
        if not os.path.exists(sink_path):
            continue
        with open(sink_path, encoding="utf-8") as handle:
            for line in handle:
                yield shard, json.loads(line)


async def close_quietly(*closers, timeout: Optional[float] = None) -> None:
    """Await each ``close()`` in turn; one that fails or hangs past
    ``timeout`` must not keep the rest of a drill's teardown from running."""
    for close in closers:
        try:
            await asyncio.wait_for(close(), timeout)
        except Exception:
            pass


def run_bounded(drill, timeout: float):
    """Run a drill coroutine to completion under a wall-clock bound."""
    return asyncio.run(asyncio.wait_for(drill, timeout))


def write_report(report: dict, report_path: Optional[str]) -> dict:
    """Write ``report`` as JSON when a path is given; returns it."""
    if report_path:
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        report["report_path"] = report_path
    return report


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


def _build_workload(cases: int, seed: int, scenario: str = "packing"):
    """(factory, stream, baseline_detections) for one scenario run.

    Any registered scenario pack works — the drill resolves it by name
    and drives its seeded stream through its own rules, so the soak can
    exercise e.g. SQL-conditioned rules (``returns-fraud``) or pseudo-
    event TSEQs (``cold-chain``), not just packing.
    """
    from ..scenarios import get_pack

    run = get_pack(scenario).build(seed=seed, size=cases)
    factory = run.engine_factory()
    stream = list(run.observations)
    baseline = canon_detections(factory().run(stream))
    return factory, stream, baseline


async def _drill(
    seed: int,
    cases: int,
    plan: NetworkFaultPlan,
    directory: str,
    heartbeat_interval: float,
    idle_deadline: float,
    scenario: str = "packing",
) -> dict:
    from ..resilience.durability import DurableEngine
    from ..resilience.durability.engine import (
        CLIENT_KEY,
        WAL_SUBDIR,
        decode_payload,
        read_wal,
    )

    factory, stream, baseline = _build_workload(cases, seed, scenario)
    slices = split_slices(stream, 4)

    deliveries: list[tuple[int, int, tuple]] = []

    def sink(detection, seq, ordinal):
        deliveries.append((seq, ordinal, canon_detections([detection])[0]))

    config = ServeConfig(
        heartbeat_interval=heartbeat_interval,
        idle_deadline=idle_deadline,
    )
    # checkpoint_every=0: no checkpoints means no WAL pruning, so the
    # post-mortem can read the whole stream back from the log.
    durable = DurableEngine(
        factory, directory, checkpoint_every=0, sink=sink
    )
    server = CepServer(durable, config=config)
    port = await server.serve_tcp("127.0.0.1", 0)

    proxy = ChaosProxy(plan, "127.0.0.1", port)
    proxy_port = await proxy.start()

    v1 = AsyncClient(
        tcp_connector("127.0.0.1", proxy_port),
        client_id=f"drill-v1-{seed}",
        batch_size=4,
        retry=DRILL_RETRY,
        protocol_version=1,
    )
    v2 = AsyncClient(
        tcp_connector("127.0.0.1", proxy_port),
        client_id=f"drill-v2-{seed}",
        batch_size=4,
        retry=DRILL_RETRY,
        codec="binary",
    )

    server2 = server
    durable2 = durable
    try:
        await v1.connect()
        await v2.connect()

        # Phases are serialized (each slice fully acked before the next
        # client starts) so the backend applies the baseline order even
        # though two clients share the stream.
        await submit_slice(v1, slices[0])
        await submit_slice(v2, slices[1])

        # Phase 3: kill the server while v2 is mid-slice.  Whatever sat
        # unapplied in the submit queue vanishes with the process; the
        # client keeps it in its unacked buffer and resends after the
        # recovered server (on a brand-new port) tells it the durable
        # frontier at WELCOME.
        pump = asyncio.ensure_future(submit_slice(v2, slices[2]))
        await asyncio.sleep(0.05)
        await server.abort()
        durable2, recovery = DurableEngine.recover(
            factory, directory, checkpoint_every=0, sink=sink
        )
        server2 = CepServer(durable2, config=config)
        new_port = await server2.serve_tcp("127.0.0.1", 0)
        proxy.retarget(port=new_port)
        await pump

        await submit_slice(v1, slices[3])

        # Let the link go quiet so the server's liveness loop probes the
        # idle v2 session; a chaos reset can kill the session mid-wait,
        # so reconnect (no data moves — the pending buffer is empty).
        loop = asyncio.get_running_loop()
        ping_deadline = loop.time() + 10.0
        while v2.heartbeats == 0 and loop.time() < ping_deadline:
            if not v2._connected:
                await v2.connect()
            await asyncio.sleep(heartbeat_interval)

        # One end-of-stream flush, exactly like the baseline run's.
        await v2.flush()
        await v1.drain()

        check = Checks()

        # 1. WAL == stream, byte for byte, in order.
        wal_obs = []
        provenance: dict[str, list[int]] = {}
        for record in read_wal(f"{directory}/{WAL_SUBDIR}"):
            client = record.payload.get(CLIENT_KEY)
            if client:
                provenance.setdefault(client[0], []).append(client[1])
            decoded = decode_payload(record.payload)
            if decoded is not None:
                wal_obs.append(decoded)
        check(
            "wal_matches_stream",
            [obs_key(o) for o in wal_obs] == [obs_key(o) for o in stream],
            f"wal={len(wal_obs)} stream={len(stream)}",
        )
        contiguous = all(
            seqs == list(range(seqs[0], seqs[0] + len(seqs)))
            for seqs in provenance.values()
        )
        check(
            "client_provenance_contiguous",
            contiguous and set(provenance) == {v1.client_id, v2.client_id},
            str({k: len(v) for k, v in provenance.items()}),
        )

        # 2. Exactly-once detections at the sink.
        keys = [(seq, ordinal) for seq, ordinal, _ in deliveries]
        check(
            "sink_no_duplicates",
            len(keys) == len(set(keys)),
            f"{len(keys)} deliveries, {len(set(keys))} unique keys",
        )
        delivered = [canon for _, _, canon in deliveries]
        check(
            "detections_match_baseline",
            delivered == baseline,
            f"delivered={len(delivered)} baseline={len(baseline)}",
        )

        # 3. Frontier agreement: client, server record, durable WAL.
        for client in (v1, v2):
            server_view = server2.client_frontier(client.client_id)
            durable_view = durable2.client_frontiers.get(
                client.client_id, -1
            )
            check(
                f"frontier_{client.client_id}",
                client.last_acked == server_view == durable_view,
                f"client={client.last_acked} server={server_view} "
                f"wal={durable_view}",
            )

        # 4. The plan actually fired — and no corrupt frame was decoded
        #    (if one had been, checks 1-3 could not all hold).
        stats = proxy.stats
        check(
            "faults_fired",
            stats.fragments > 0 and stats.corruptions > 0 and stats.resets > 0,
            f"fragments={stats.fragments} corruptions={stats.corruptions} "
            f"resets={stats.resets} stalls={stats.stalls}",
        )

        # 5. Heartbeats are capability-gated.
        check(
            "v2_heartbeats",
            v2.heartbeats > 0,
            f"v2 answered {v2.heartbeats} pings",
        )
        check(
            "v1_never_pinged",
            v1.heartbeats == 0,
            f"v1 answered {v1.heartbeats} pings",
        )

        report = {
            "ok": check.ok,
            "seed": seed,
            "scenario": scenario,
            "cases": cases,
            "observations": len(stream),
            "plan": plan.describe(),
            "checks": dict(check),
            "faults": stats.as_dict(),
            "proxy": {
                "connections_accepted": proxy.connections_accepted,
                "connections_refused": proxy.connections_refused,
            },
            "clients": {
                label: {
                    "client_id": client.client_id,
                    "reconnects": client.reconnects,
                    "heartbeats": client.heartbeats,
                    "frame_errors": client.frame_errors,
                    "last_acked": client.last_acked,
                }
                for label, client in (("v1", v1), ("v2", v2))
            },
            # Both lives of the server, summed.
            "server": {
                name: getattr(server.stats, name) + getattr(server2.stats, name)
                for name in (
                    "reconnects",
                    "pings_sent",
                    "pongs_received",
                    "sessions_reaped",
                    "duplicates_skipped",
                    "errors_sent",
                )
            },
            "recovery": recovery_summary(recovery),
        }
        return report
    finally:
        await close_quietly(v1.close, v2.close, timeout=2.0)
        await proxy.close()
        await close_quietly(server2.close)
        durable2.close()


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
    """Run the soak drill; returns (and optionally writes) its report.

    ``scenario`` names any registered scenario pack; its seeded stream
    and rules replace the default packing workload.  ``report["ok"]``
    is the verdict; ``report["checks"]`` itemizes each invariant with a
    human-readable detail line.  The same ``seed`` replays the same
    fault schedule — echo it with every failure.
    """
    if plan is None:
        plan = default_fault_plan(seed)
    elif plan.seed != seed:
        plan = plan.reseeded(seed)
    if directory is None:
        directory = tempfile.mkdtemp(prefix="chaos-serve-")
    report = run_bounded(
        _drill(
            seed,
            cases,
            plan,
            directory,
            heartbeat_interval,
            idle_deadline,
            scenario,
        ),
        timeout,
    )
    report["directory"] = directory
    return write_report(report, report_path)
