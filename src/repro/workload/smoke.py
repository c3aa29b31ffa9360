"""``python -m repro smoke`` — the standing production smoke drill.

One command answers "would production hold?": generate an open-world
workload (Zipf tag skew, diurnal/burst arrivals, distinct-EPC
cardinality up to millions), stream it through a **durable**
:class:`~repro.serve.CepServer` over the real wire protocol — or a
multi-process :class:`~repro.serve.cluster.Cluster` — and audit the
other end:

* **exactly-once delivery** — sink ``(seq, ordinal)`` keys strictly
  increase (checked in O(1) memory; at millions of events a seen-set
  would dwarf the engine);
* **oracle consistency** — per-rule delivered detection counts equal
  what the generator's ground truth promised (clean runs; fault-
  injected runs skip this, duplicates legitimately re-detect);
* **cardinality** — the stream really carried the distinct-EPC load
  the profile claims;
* **frontier agreement** — client, server and durable WAL all agree
  every submitted observation was applied.

Profiles: ``ci`` (seconds, CI quick profile), ``quick`` (a minute),
``full`` (the headline: over a million distinct EPCs through the full
stack).  The report is JSON-able and written to ``--report`` for CI
artifact upload.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

from ..resilience.chaos import ChaosConfig
from .generator import GeneratedWorkload, WorkloadConfig
from .shaping import ShapingConfig

__all__ = ["SMOKE_PROFILES", "SmokeProfile", "run_smoke_drill"]


@dataclass(frozen=True)
class SmokeProfile:
    """One smoke-drill scale: generator knobs plus the audit floor."""

    name: str
    target_observations: int
    cardinality: int
    lines: int
    theta: float = 0.9
    popular_fraction: float = 0.35
    #: the drill fails unless at least this many distinct EPCs flowed
    distinct_floor: int = 0
    batch_size: int = 256
    timeout: float = 300.0


SMOKE_PROFILES: dict[str, SmokeProfile] = {
    "ci": SmokeProfile(
        name="ci",
        target_observations=3_000,
        cardinality=10_000,
        lines=4,
        distinct_floor=1_500,
        batch_size=128,
        timeout=120.0,
    ),
    "quick": SmokeProfile(
        name="quick",
        target_observations=40_000,
        cardinality=100_000,
        lines=4,
        distinct_floor=20_000,
        timeout=600.0,
    ),
    "full": SmokeProfile(
        name="full",
        target_observations=1_500_000,
        cardinality=2_000_000,
        lines=8,
        popular_fraction=0.2,
        distinct_floor=1_000_000,
        batch_size=512,
        timeout=5_400.0,
    ),
}


def build_workload(
    pack_name: str,
    profile: SmokeProfile,
    seed: int,
    chaos: Optional[ChaosConfig] = None,
    shaping: Optional[ShapingConfig] = None,
) -> GeneratedWorkload:
    """A generated workload for ``pack_name`` at ``profile`` scale."""
    from ..scenarios import get_pack, iter_packs

    pack = get_pack(pack_name)
    source = pack.episode_source(
        lines=profile.lines, popular_fraction=profile.popular_fraction
    )
    if source is None:
        capable = [
            p.name for p in iter_packs() if p.episode_source() is not None
        ]
        raise ValueError(
            f"scenario pack {pack_name!r} is replay-only; workload-capable "
            f"packs: {', '.join(capable)}"
        )
    return GeneratedWorkload(
        source,
        WorkloadConfig(
            pack=pack_name,
            seed=seed,
            target_observations=profile.target_observations,
            lines=profile.lines,
            cardinality=profile.cardinality,
            theta=profile.theta,
            popular_fraction=profile.popular_fraction,
            shaping=shaping if shaping is not None else ShapingConfig(),
            chaos=chaos,
        ),
    )


class _SinkAudit:
    """O(1)-memory exactly-once audit: each journal's keys must strictly
    increase (one journal for a single server, one per shard in a cluster)."""

    def __init__(self) -> None:
        self.count = 0
        self.per_rule: dict[str, int] = {}
        self.monotonic = True
        self._last: dict = {}

    def record(
        self, rule_id: str, seq: int, ordinal: int, journal: str = ""
    ) -> None:
        key = (seq, ordinal)
        if key <= self._last.get(journal, (-1, -1)):
            self.monotonic = False
        self._last[journal] = key
        self.count += 1
        self.per_rule[rule_id] = self.per_rule.get(rule_id, 0) + 1


async def _stream_all(client, workload: GeneratedWorkload, timeout=None) -> int:
    """Connect, submit the whole workload, flush; returns the count sent."""
    await client.connect()
    submitted = 0
    for observation in workload:
        await client.submit(observation)
        submitted += 1
    await client.flush(timeout=timeout)
    return submitted


async def _serve_drill(
    workload: GeneratedWorkload,
    profile: SmokeProfile,
    seed: int,
    directory: str,
) -> tuple[_SinkAudit, dict]:
    """Stream through DurableEngine + CepServer + AsyncClient over TCP."""
    from ..core.detector import Engine, FunctionRegistry
    from ..resilience.durability import DurableEngine
    from ..serve import AsyncClient, CepServer, ServeConfig, tcp_connector
    from ..serve.drill import close_quietly
    from ..store import RfidStore

    placements = tuple(workload.source.placements())

    def factory() -> Engine:
        store = RfidStore()
        for reader, location in placements:
            store.place_reader(reader, location)
        # Fresh Rule objects per engine: rule actions close over nothing,
        # but recovery rebuilds engines and must never share rule state.
        # Under disorder chaos, late readings are DROPped (never silently
        # accepted — the oracle-equality check is waived under chaos and
        # the delivery audits hold either way).
        return Engine(
            workload.rules(),
            store=store,
            functions=FunctionRegistry(),
            context="chronicle",
            out_of_order=(
                "drop" if workload.config.chaos is not None else "raise"
            ),
        )

    audit = _SinkAudit()

    def sink(detection, seq, ordinal):
        audit.record(detection.rule.rule_id, seq, ordinal)

    durable = DurableEngine(factory, directory, checkpoint_every=0, sink=sink)
    server = CepServer(durable, config=ServeConfig())
    client = None
    try:
        port = await server.serve_tcp("127.0.0.1", 0)
        client = AsyncClient(
            tcp_connector("127.0.0.1", port),
            client_id=f"smoke-{profile.name}-{seed}",
            batch_size=profile.batch_size,
            codec="binary",
        )
        frontiers = {
            "submitted": await _stream_all(client, workload),
            "client": client.last_acked,
            "server": server.client_frontier(client.client_id),
            "durable": durable.client_frontiers.get(client.client_id, -1),
        }
        return audit, frontiers
    finally:
        if client is not None:
            await close_quietly(client.close, timeout=5.0)
        await close_quietly(server.close)
        durable.close()


async def _cluster_drill(
    workload: GeneratedWorkload,
    profile: SmokeProfile,
    seed: int,
    directory: str,
    workers: int,
) -> tuple[_SinkAudit, dict]:
    """Stream through a multi-process shard cluster instead."""
    from ..serve import AsyncClient, tcp_connector
    from ..serve.cluster import Cluster
    from ..serve.drill import close_quietly, read_worker_sinks

    program = workload.source.program
    if program is None:
        raise ValueError(
            f"pack {workload.config.pack!r} has no rule-language program; "
            "cluster smoke needs textual rules (try --pack packing)"
        )
    cluster = Cluster(
        program, workers=workers, directory=directory, sink=True
    )
    client = None
    try:
        port = await cluster.start()
        client = AsyncClient(
            tcp_connector("127.0.0.1", port),
            client_id=f"smoke-{profile.name}-{seed}",
            batch_size=profile.batch_size,
        )
        frontiers = {
            "submitted": await _stream_all(client, workload, profile.timeout),
            "client": client.last_acked,
            "server": client.last_acked,
            "durable": client.last_acked,
        }
        await asyncio.wait_for(client.close(), 5.0)
        client = None
    finally:
        if client is not None:
            await close_quietly(client.close, timeout=5.0)
        await cluster.stop()

    # Audit the worker sinks on disk: per-shard exactly-once keys.
    audit = _SinkAudit()
    for shard, payload in read_worker_sinks(directory, cluster.plan.assignment):
        audit.record(payload["rule"], payload["seq"], payload["ordinal"], shard)
    return audit, frontiers


def run_smoke_drill(
    profile: str = "ci",
    pack: str = "returns-fraud",
    seed: int = 7,
    *,
    cluster: bool = False,
    workers: int = 2,
    directory: Optional[str] = None,
    chaos: Optional[ChaosConfig] = None,
    shaping: Optional[ShapingConfig] = None,
    report_path: Optional[str] = None,
    timeout: Optional[float] = None,
) -> dict:
    """Run the smoke drill; returns (and optionally writes) its report.

    ``report["ok"]`` is the verdict; ``report["checks"]`` itemizes the
    invariants.  The workload is a pure function of ``(pack, profile,
    seed)`` — echo the seed with every failure.
    """
    try:
        prof = SMOKE_PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown smoke profile {profile!r} "
            f"(choose from: {', '.join(SMOKE_PROFILES)})"
        ) from None
    if cluster and chaos is not None:
        raise ValueError(
            "cluster smoke does not support chaos perturbation (shard "
            "workers enforce time order); drop --cluster or the chaos knobs"
        )
    workload = build_workload(pack, prof, seed, chaos=chaos, shaping=shaping)
    if directory is None:
        directory = tempfile.mkdtemp(prefix=f"smoke-{profile}-")

    # Imported here: repro.scenarios imports this package, and
    # repro.serve.drill imports repro.scenarios.
    from ..serve.drill import Checks, run_bounded, write_report

    started = time.perf_counter()
    audit, frontiers = run_bounded(
        _cluster_drill(workload, prof, seed, directory, workers)
        if cluster
        else _serve_drill(workload, prof, seed, directory),
        timeout if timeout is not None else prof.timeout,
    )
    elapsed = time.perf_counter() - started

    stats = workload.stats
    distinct = workload.tags.distinct_epcs()
    clean = chaos is None

    check = Checks()
    check(
        "sink_exactly_once",
        audit.monotonic,
        f"{audit.count} deliveries, keys strictly increasing",
    )
    if clean:
        expected = {
            rule_id: count
            for rule_id, count in sorted(stats.expected.items())
        }
        check(
            "detections_match_oracle",
            audit.per_rule == expected,
            f"delivered={audit.per_rule} expected={expected}",
        )
    check(
        "distinct_epcs_floor",
        distinct >= prof.distinct_floor,
        f"{distinct} distinct EPCs, floor {prof.distinct_floor}",
    )
    # The end-of-stream FLUSH takes its own seq, so the agreed frontier
    # must cover every submit (>= submitted - 1) but may sit past it.
    check(
        "frontier_agreement",
        frontiers["client"] == frontiers["server"] == frontiers["durable"]
        and frontiers["client"] >= frontiers["submitted"] - 1,
        str(frontiers),
    )

    report = {
        "ok": check.ok,
        "profile": prof.name,
        "pack": pack,
        "seed": seed,
        "transport": "cluster" if cluster else "tcp",
        "workers": workers if cluster else 1,
        "episodes": stats.episodes,
        "observations": frontiers["submitted"],
        "distinct_epcs": distinct,
        "deferred_episodes": stats.deferred,
        "max_in_flight": stats.max_in_flight,
        "stream_seconds": round(stats.end_time, 3),
        "elapsed_seconds": round(elapsed, 3),
        "events_per_second": (
            round(frontiers["submitted"] / elapsed, 1) if elapsed > 0 else 0.0
        ),
        "expected": dict(sorted(stats.expected.items())),
        "delivered": dict(sorted(audit.per_rule.items())),
        "chaos": workload.chaos_counts,
        "checks": dict(check),
        "directory": directory,
    }
    return write_report(report, report_path)
