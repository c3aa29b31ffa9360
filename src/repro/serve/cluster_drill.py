"""The cluster chaos drill: kill a shard worker mid-stream, lose nothing.

``python -m repro chaos cluster`` (and the cluster CI smoke step) runs
this scenario end to end:

* a :class:`~repro.serve.cluster.Cluster` — router + N shard-worker
  **subprocesses**, each shard on its own ``DurableEngine`` (per-shard
  WAL + exactly-once delivery sink);
* one subscribed client streams a multi-line packing workload through
  the router;
* mid-stream, one worker process is **SIGKILLed** while batches for its
  shards are in flight; the client keeps submitting (the router holds
  those epochs open and the link buffers their sub-batches);
* the worker is respawned over the same directories with
  ``DurableEngine.recover``, the router retargets its links and resends
  everything unacked — no client involvement.

Afterwards the drill audits the wreckage against an in-process baseline
run of the same rule program over the same stream:

1. every shard's WAL holds **exactly** the subsequence the plan routes
   to it — byte-identical observations, source-sequence order, no
   duplicates, no gaps (the worker's provenance frontier turned the
   router's resends into no-ops);
2. the workers' delivery sinks received every baseline detection
   **exactly once** (unique ``(shard, seq, ordinal)`` keys, canonically
   equal to the single-process baseline);
3. detections pushed to the subscriber contain no duplicates and no
   inventions (at-most-once across the crash, by design — see
   :mod:`repro.serve.cluster`);
4. client/router frontiers agree at the end of the stream;
5. the crash actually happened and the links actually reconnected — a
   drill that injected nothing proves nothing.

The workload is a pure function of the seed; a failing run is
reproducible from the seed echoed in its report.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from typing import Optional

from .client import AsyncClient, tcp_connector
from .cluster import Cluster

__all__ = ["cluster_program", "run_cluster_drill"]


def cluster_program(
    reader_pairs, *, rules_per_pair: int = 1, decoys_per_pair: int = 0
) -> str:
    """Render the bench containment rules as rule-language source.

    The cluster ships rules across process boundaries as *text* (router
    and workers each parse it, arriving at the same shard plan without
    coordination), so the drill's rules must exist in textual form.
    They are the exact :func:`~repro.bench.workloads
    .containment_rule_for_pair` structures, rendered through the
    language printer rather than hand-written — one source of truth.

    ``decoys_per_pair`` adds never-firing variants: same shape, but the
    case-delay window sits just past the simulator's ``case_delay``
    upper bound, so they pay full per-event automaton work without
    producing detections.  The cluster benchmark uses them to scale
    detection *cost* independently of detection *volume* (every fired
    detection also crosses the wire twice).
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


def _build_workload(seed: int, lines: int, cases_per_line: int):
    """(program text, stream, canonical baseline detections)."""
    from ..core.detector import Engine
    from ..lang import parse_rules
    from ..scenarios.pack import canon_detections
    from ..simulator import simulate_multi_packing
    from ..store import RfidStore

    trace = simulate_multi_packing(
        lines=lines,
        cases_per_line=cases_per_line,
        items_per_case=5,
        seed=seed,
    )
    program = cluster_program(trace.reader_pairs)
    stream = list(trace.observations)
    engine = Engine(parse_rules(program), store=RfidStore())
    baseline = canon_detections(engine.run(stream))
    return program, stream, baseline


async def _drill(
    seed: int,
    lines: int,
    cases_per_line: int,
    workers: int,
    directory: str,
    inprocess: bool,
) -> dict:
    from ..resilience.durability import decode_payload, read_wal
    from ..resilience.durability.engine import CLIENT_KEY, WAL_SUBDIR
    from ..scenarios.pack import canon_detection
    from .drill import Checks, close_quietly, obs_key, read_worker_sinks

    program, stream, baseline = _build_workload(seed, lines, cases_per_line)
    cluster = Cluster(
        program,
        workers=workers,
        directory=directory,
        sink=True,
        inprocess=inprocess,
    )
    pushes: list = []
    client: Optional[AsyncClient] = None
    try:
        port = await cluster.start()
        client = AsyncClient(
            tcp_connector("127.0.0.1", port),
            client_id="drill-client",
            subscribe=True,
            batch_size=32,
            on_detection=lambda frame: pushes.append(frame),
        )
        await client.connect()

        # Pick the victim: the node owning the plan's first shard, so
        # the kill provably lands on live traffic.
        first_shard = sorted(cluster.plan.assignment)[0]
        victim = cluster.plan.assignment[first_shard]
        victim_shards = cluster.plan.shards_for(victim)

        third = max(1, len(stream) // 3)
        for observation in stream[:third]:
            await client.submit(observation)
        # Let some acks land, then crash the worker with epochs open.
        await asyncio.sleep(0.05)
        acked_before_kill = client.last_acked
        await cluster.kill_worker(victim)
        # Keep streaming into the hole: the router accepts and routes,
        # its links buffer the victim's sub-batches, epochs stay open.
        for observation in stream[third : 2 * third]:
            await client.submit(observation)
        await client._send_batch()  # push the partial tail, don't wait
        await asyncio.sleep(0.1)
        in_flight_at_recover = (client._next_seq - 1) - client.last_acked
        await cluster.restart_worker(victim)
        for observation in stream[2 * third :]:
            await client.submit(observation)
        flush_seq = await client.flush(timeout=60)
        # The flush ack releases every epoch; trailing pushes ride the
        # same ordered queue, give the transport a beat to deliver them.
        await asyncio.sleep(0.2)

        check = Checks()

        stats = cluster.router.stats
        served = cluster.server.stats

        # -- stop the cluster cleanly before auditing files on disk ----
        await asyncio.wait_for(client.close(), 5)
        client = None
        await cluster.stop()

        # 1. Per-shard WAL == the routed subsequence, byte for byte.
        routes = cluster.plan.shard_plan.routes_for_reader
        expected: dict[str, list] = {
            shard: [] for shard in cluster.plan.shard_plan.shard_names
        }
        for seq, observation in enumerate(stream):
            for shard in routes(observation.reader):
                expected[shard].append((seq, obs_key(observation)))
        for shard, node in sorted(cluster.plan.assignment.items()):
            shard_dir = os.path.join(directory, node, shard)
            got = []
            for record in read_wal(os.path.join(shard_dir, WAL_SUBDIR)):
                decoded = decode_payload(record.payload)
                if decoded is None:
                    continue
                client_prov = record.payload.get(CLIENT_KEY)
                source_seq = client_prov[1] if client_prov else None
                got.append((source_seq, obs_key(decoded)))
            check(
                f"wal_{shard}",
                got == expected[shard],
                f"wal={len(got)} routed={len(expected[shard])}",
            )

        # 2. Exactly-once detections at the worker sinks.
        deliveries = [
            (
                (shard, payload["seq"], payload["ordinal"]),
                canon_detection(
                    payload["rule"], payload["time"], payload["bindings"]
                ),
            )
            for shard, payload in read_worker_sinks(
                directory, cluster.plan.assignment
            )
        ]
        keys = [key for key, _ in deliveries]
        check(
            "sink_no_duplicates",
            len(keys) == len(set(keys)),
            f"{len(keys)} deliveries, {len(set(keys))} unique keys",
        )
        delivered = sorted(canon for _, canon in deliveries)
        check(
            "sink_matches_baseline",
            delivered == sorted(baseline),
            f"delivered={len(delivered)} baseline={len(baseline)}",
        )

        # 3. Pushes: at-most-once, no duplicates, no inventions.
        pushed = [
            canon_detection(frame.rule, frame.time, frame.bindings)
            for frame in pushes
        ]
        check(
            "push_no_duplicates",
            len(pushed) == len(set(pushed)),
            f"{len(pushed)} pushes, {len(set(pushed))} unique",
        )
        check(
            "push_subset_of_baseline",
            set(pushed) <= set(baseline) and len(pushed) > 0,
            f"pushed={len(pushed)} baseline={len(baseline)}",
        )

        # 4. Frontier agreement: the flush seq closed the stream.
        check(
            "frontier",
            flush_seq == len(stream) and stats.routed == len(stream),
            f"flush_seq={flush_seq} routed={stats.routed} "
            f"stream={len(stream)}",
        )

        # 5. The crash was real and the recovery was exercised.
        check(
            "worker_killed_midstream",
            acked_before_kill < len(stream) - 1,
            f"acked_before_kill={acked_before_kill}",
        )
        check(
            "links_reconnected",
            stats.worker_reconnects >= len(victim_shards),
            f"reconnects={stats.worker_reconnects} "
            f"victim_shards={len(victim_shards)}",
        )
        check(
            "batches_in_flight_at_recover",
            in_flight_at_recover > 0,
            f"{in_flight_at_recover} unacked client seqs at recover",
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
            "assignment": dict(cluster.plan.assignment),
            "checks": dict(check),
            "router": {
                "routed": stats.routed,
                "multicast": stats.multicast,
                "epochs": stats.epochs,
                "duplicates_skipped": served.duplicates_skipped,
                "detections_forwarded": stats.detections_forwarded,
                "unattributed_detections": stats.unattributed_detections,
                "worker_reconnects": stats.worker_reconnects,
            },
        }
    finally:
        if client is not None:
            await close_quietly(client.close, timeout=2)
        await close_quietly(cluster.stop)


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

    ``report["ok"]`` is the verdict; ``report["checks"]`` itemizes each
    invariant with a human-readable detail line.  ``inprocess=True``
    swaps the worker subprocesses for in-loop workers (crashed via
    ``abort()`` instead of SIGKILL) — faster, for tests; the CLI default
    is real processes and a real SIGKILL.
    """
    if directory is None:
        directory = tempfile.mkdtemp(prefix="chaos-cluster-")
    # .drill is imported here, not at module level: repro.serve imports
    # this module eagerly, and a worker process should not load the rest.
    from .drill import run_bounded, write_report

    report = run_bounded(
        _drill(seed, lines, cases_per_line, workers, directory, inprocess),
        timeout,
    )
    report["directory"] = directory
    return write_report(report, report_path)
