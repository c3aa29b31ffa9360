"""``python -m repro smoke`` — the standing production smoke drill.

One command answers "would production hold?": generate an open-world
workload (Zipf tag skew, diurnal/burst arrivals, distinct-EPC
cardinality up to millions), stream it through a **durable**
:class:`~repro.serve.CepServer` over the real wire protocol — or a
multi-process :class:`~repro.serve.cluster.Cluster` — and audit the
other end.  This module holds the profiles and the workload building;
the stand-up, the streaming and the audits are the procedure every
drill shares (:mod:`repro.serve.drill`):

* **exactly-once delivery** — sink ``(seq, ordinal)`` keys strictly
  increase per journal (checked in O(1) memory; at millions of events
  a seen-set would dwarf the engine);
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


def engine_factory(workload: GeneratedWorkload):
    """The engine a served smoke run stands up (and recovers) per life."""
    from ..core.detector import Engine, FunctionRegistry
    from ..store import RfidStore

    placements = tuple(workload.source.placements())

    def factory() -> Engine:
        store = RfidStore()
        for reader, location in placements:
            store.place_reader(reader, location)
        # Fresh Rule objects per engine: recovery rebuilds engines and
        # must never share rule state.  Under disorder chaos, late
        # readings are DROPped, never silently accepted.
        return Engine(
            workload.rules(),
            store=store,
            functions=FunctionRegistry(),
            context="chronicle",
            out_of_order="drop" if workload.config.chaos is not None else "raise",
        )

    return factory


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
    if cluster and workload.source.program is None:
        raise ValueError(
            f"pack {pack!r} has no rule-language program; "
            "cluster smoke needs textual rules (try --pack packing)"
        )
    # Imported here: repro.scenarios imports this package, and
    # repro.serve.drill imports repro.scenarios.
    from ..serve.drill import run_drill, smoke_drill

    factory = None if cluster else engine_factory(workload)

    def drill(directory: str):
        return smoke_drill(directory, workload, factory, prof, seed, workers)

    if timeout is None:
        timeout = prof.timeout
    return run_drill(drill, f"smoke-{profile}-", directory, timeout, report_path)
