"""The skew drill: speculative consistency, demonstrated under disorder.

``python -m repro chaos skew`` (and the ``chaos``-marked CI test) runs
this scenario end to end:

* a durable :class:`~repro.serve.CepServer` whose engine runs
  ``OutOfOrderPolicy.REVISE`` (watermark speculation, see
  :mod:`repro.core.speculate`) and whose :class:`ActionOutbox` holds the
  ``confidence="final"`` line — side effects wait for sealed detections;
* a seeded :class:`~repro.resilience.chaos.ChaosInjector` perturbs a
  simulated packing stream with clock skew, out-of-order spikes and
  duplicate bursts *before* it reaches the wire, so the server sees the
  arrival order a skewed reader fleet would actually produce;
* the workload interleaves a packing line with a smart shelf whose
  outfield negation rule (paper Rule 2) watches periodic bulk re-reads,
  so held-back re-reads make the speculative engine emit provisionals
  that late data then genuinely retracts;
* mid-stream, the server is hard-killed (:meth:`CepServer.abort`) with
  speculation live — buffered readings, parked provisionals — and
  recovered with :meth:`DurableEngine.recover` on a new port.

Afterwards the drill audits the sink against the *in-order oracle*: the
same perturbed readings sorted by canonical stream order
(:func:`~repro.core.speculate.canonical_key`) and run through a plain
in-order engine.

1. the outbox sink received exactly the oracle's detections, in oracle
   order — REVISE converged despite skew, disorder and a crash;
2. every sink delivery was ``final``; no provisional leaked, and no
   detection that was later retracted ever reached the sink;
3. deliveries are exactly-once across the kill: no duplicate
   ``(seq, ordinal)`` keys, no duplicate ``detection_id``;
4. nothing fell outside the promised horizon
   (``stats.dropped_too_late == 0`` — the drill's horizon must cover
   its own fault mix, or the convergence claim is vacuous);
5. the fault plan actually fired *and* speculation actually revised:
   skewed/delayed/duplicated counts and the engine's
   retracted/revised counters are all positive — a drill that never
   retracts proves nothing.

The perturbation schedule is a pure function of ``(seed, cases)``, so a
failing run is reproducible from the seed echoed in its report.
"""

from __future__ import annotations

import asyncio
import tempfile
from typing import Optional

from ..scenarios.pack import canon_detections
from .client import AsyncClient, tcp_connector
from .drill import (
    DRILL_RETRY,
    Checks,
    close_quietly,
    recovery_summary,
    run_bounded,
    split_slices,
    submit_slice,
    write_report,
)
from .server import CepServer, ServeConfig

__all__ = ["run_chaos_skew_drill"]

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


def _build_workload(cases: int, seed: int, horizon: float):
    """(factory, arrival_stream, oracle_detections) for one drill run."""
    import random

    from ..core.detector import Engine, FunctionRegistry, OutOfOrderPolicy
    from ..core.speculate import canonical_key
    from ..resilience.chaos import ChaosConfig, ChaosInjector
    from ..scenarios import get_pack
    from ..simulator import ShelfConfig, simulate_shelf
    from ..store import RfidStore

    # The packing half resolves through the scenario registry like every
    # other drill; its pack carries the containment + location rules.
    packing = get_pack("packing").build(seed=seed, size=cases)
    rules = lambda: list(packing.rules) + [_outfield_rule()]

    def factory():
        return Engine(
            rules(),
            store=RfidStore(),
            functions=FunctionRegistry(),
            out_of_order=OutOfOrderPolicy.REVISE,
            revise_horizon=horizon,
        )

    # Two interleaved sources: a packing line (TSeq containment windows)
    # and a smart shelf whose periodic bulk re-reads feed the outfield
    # negation — the workload where a held-back re-read makes the
    # speculative engine provisionally declare a removal it must then
    # take back.
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
    oracle_engine = Engine(
        rules(), store=RfidStore(), functions=FunctionRegistry()
    )
    oracle = canon_detections(
        oracle_engine.run(sorted(arrival, key=canonical_key))
    )
    return factory, arrival, oracle, injector.counts


async def _drill(
    seed: int, cases: int, horizon: float, directory: str
) -> dict:
    from ..resilience.durability import DurableEngine

    factory, arrival, oracle, fault_counts = _build_workload(
        cases, seed, horizon
    )
    slices = split_slices(arrival, 4)

    deliveries: list[tuple[int, int, str, str, tuple]] = []

    def sink(detection, seq, ordinal):
        deliveries.append(
            (
                seq,
                ordinal,
                getattr(detection, "detection_id", ""),
                getattr(detection, "status", ""),
                canon_detections([detection])[0],
            )
        )

    durable_kwargs = dict(
        checkpoint_every=0, sink=sink, confidence="final"
    )
    durable = DurableEngine(factory, directory, **durable_kwargs)
    server = CepServer(durable, config=ServeConfig())
    port = await server.serve_tcp("127.0.0.1", 0)

    # The server is reborn on a fresh port mid-drill; the client's
    # reconnect path re-dials through this indirection.
    target = {"port": port}

    async def connector():
        return await tcp_connector("127.0.0.1", target["port"])()

    client = AsyncClient(
        connector,
        client_id=f"skew-{seed}",
        batch_size=8,
        retry=DRILL_RETRY,
        codec="binary",
    )

    try:
        await client.connect()
        await submit_slice(client, slices[0])
        await submit_slice(client, slices[1])

        # Hard-kill the server while a slice is in flight *and*
        # speculation is live: the reorder buffer holds readings, the
        # outbox holds parked provisionals.  Recovery must rebuild both
        # from the WAL alone.
        pump = asyncio.ensure_future(submit_slice(client, slices[2]))
        await asyncio.sleep(0.05)
        await server.abort()
        durable, recovery = DurableEngine.recover(
            factory, directory, **durable_kwargs
        )
        server = CepServer(durable, config=ServeConfig())
        target["port"] = await server.serve_tcp("127.0.0.1", 0)
        await pump

        await submit_slice(client, slices[3])

        # End of stream: the flush seals every surviving speculation,
        # exactly like the oracle run's own flush.
        await client.flush()

        check = Checks()

        delivered = [canon for _, _, _, _, canon in deliveries]
        check(
            "finals_match_inorder_oracle",
            delivered == oracle,
            f"delivered={len(delivered)} oracle={len(oracle)}",
        )
        statuses = {status for _, _, _, status, _ in deliveries}
        check(
            "only_finals_delivered",
            statuses <= {"final"},
            f"statuses={sorted(statuses)}",
        )
        keys = [(seq, ordinal) for seq, ordinal, _, _, _ in deliveries]
        dids = [did for _, _, did, _, _ in deliveries if did]
        check(
            "sink_exactly_once",
            len(keys) == len(set(keys)) and len(dids) == len(set(dids)),
            f"{len(keys)} deliveries, {len(set(keys))} unique keys, "
            f"{len(set(dids))} unique detection ids",
        )

        stats = durable.engine.stats
        check(
            "nothing_outside_horizon",
            stats.dropped_too_late == 0,
            f"dropped_too_late={stats.dropped_too_late}",
        )
        check(
            "faults_fired",
            fault_counts["skewed"] > 0
            and fault_counts["delayed"] > 0
            and fault_counts["duplicated"] > 0,
            f"skewed={fault_counts['skewed']} "
            f"delayed={fault_counts['delayed']} "
            f"duplicated={fault_counts['duplicated']}",
        )
        check(
            "speculation_exercised",
            stats.speculative > 0 and stats.retracted > 0,
            f"speculative={stats.speculative} revised={stats.revised} "
            f"retracted={stats.retracted} sealed={stats.sealed}",
        )
        outbox = durable.outbox
        check(
            "outbox_held_the_line",
            outbox.held > 0 and not outbox.pending,
            f"held={outbox.held} cancelled={outbox.cancelled} "
            f"still_pending={len(outbox.pending)}",
        )

        report = {
            "ok": check.ok,
            "seed": seed,
            "cases": cases,
            "horizon": horizon,
            "observations": len(arrival),
            "checks": dict(check),
            "faults": dict(fault_counts),
            "engine": {
                "speculative": stats.speculative,
                "revised": stats.revised,
                "retracted": stats.retracted,
                "sealed": stats.sealed,
                "dropped_too_late": stats.dropped_too_late,
            },
            "outbox": {
                "held": outbox.held,
                "cancelled": outbox.cancelled,
                "timed_out": outbox.timed_out,
            },
            "client": {
                "client_id": client.client_id,
                "reconnects": client.reconnects,
                "last_acked": client.last_acked,
            },
            "recovery": recovery_summary(recovery),
        }
        return report
    finally:
        await close_quietly(client.close, timeout=2.0)
        await close_quietly(server.close)
        durable.close()


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

    ``report["ok"]`` is the verdict; ``report["checks"]`` itemizes each
    invariant with a human-readable detail line.  The same ``seed``
    replays the same perturbation schedule — echo it with every failure.
    ``horizon`` is the engine's ``revise_horizon``; it must exceed the
    fault mix's worst-case lateness (disorder ``max_lateness`` plus
    skew), or check 4 fails loudly rather than letting readings vanish.
    """
    if directory is None:
        directory = tempfile.mkdtemp(prefix="chaos-skew-")
    report = run_bounded(_drill(seed, cases, horizon, directory), timeout)
    report["directory"] = directory
    return write_report(report, report_path)
