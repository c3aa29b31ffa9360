"""Command-line interface for the RCEDA reproduction.

Usage::

    python -m repro scenario list                       # registered packs
    python -m repro scenario run --pack gate --seed 11  # seeded oracle run
    python -m repro record --scenario supply-chain --out stream.jsonl
    python -m repro run --rules rules.txt --stream stream.jsonl [--store out.json]
    python -m repro run ... --metrics - --metrics-format prom   # instrumented
    python -m repro metrics --rules rules.txt --stream stream.jsonl
    python -m repro chaos --rules rules.txt --stream stream.jsonl \
        --seed 7 --kill-at 500     # fault injection + crash-recovery drill
    python -m repro smoke --profile ci --report smoke.json  # production drill
    python -m repro serve --rules rules.txt --port 7007  # network server
    python -m repro graph --rules rules.txt            # DOT to stdout
    python -m repro demo                                # end-to-end demo

Benchmarks live under ``python -m repro.bench`` (see its ``--help``).
"""

from __future__ import annotations

import argparse
import sys

from .core.detector import Engine, FunctionRegistry
from .core.visualize import engine_to_dot
from .lang import parse_program
from .readers import load_stream, save_stream
from .store import RfidStore


def _packing_stream(cases: int, seed: int):
    """Simulate the packing scenario; shared by record and the wal drill."""
    import random

    from .simulator import PackingConfig, simulate_packing

    trace = simulate_packing(PackingConfig(cases=cases), rng=random.Random(seed))
    return trace.observations


def _cmd_record(arguments: argparse.Namespace) -> int:
    """Record a seeded stream: any registry pack, or the merged sim.

    ``--scenario`` names a registered scenario pack (``scenario list``)
    or the special ``supply-chain``, the merged multi-scenario
    simulation that interleaves every paper scenario into one stream.
    """
    if arguments.scenario == "supply-chain":
        from .simulator import SupplyChainConfig, simulate_supply_chain

        config = SupplyChainConfig(seed=arguments.seed)
        observations = simulate_supply_chain(config).observations
    else:
        from .scenarios import get_pack

        try:
            pack = get_pack(arguments.scenario)
        except KeyError as exc:
            print(f"record: {exc.args[0]}")
            return 2
        run = pack.build(seed=arguments.seed, size=arguments.cases)
        observations = run.observations
    count = save_stream(observations, arguments.out)
    print(f"recorded {count} observations to {arguments.out}")
    return 0


def _cmd_scenario_list(arguments: argparse.Namespace) -> int:
    """Every registered pack, built-ins first, plus plugin failures."""
    from .scenarios import discovery_errors, is_builtin, iter_packs

    for pack in iter_packs():
        origin = "builtin " if is_builtin(pack.name) else "external"
        print(f"  {pack.name:16} {origin} {pack.description}")
    errors = discovery_errors()
    for error in errors:
        print(f"  [discovery error] {error}")
    return 0


def _cmd_scenario_info(arguments: argparse.Namespace) -> int:
    """One pack's card: sizing, rules, workload capability."""
    from .scenarios import get_pack, is_builtin

    try:
        pack = get_pack(arguments.pack)
    except KeyError as exc:
        print(f"scenario info: {exc.args[0]}")
        return 2
    run = pack.build(seed=arguments.seed)
    source = pack.episode_source()
    print(f"name:         {pack.name}")
    print(f"origin:       {'builtin' if is_builtin(pack.name) else 'external'}")
    print(f"description:  {pack.description}")
    print(f"default size: {pack.default_size} {pack.size_unit}")
    print(f"rules:        {', '.join(r.rule_id for r in run.rules)}")
    print(
        f"oracle:       {len(run.expected_detections)} expected detection "
        f"counts + {'pack verifier' if run.verifier else 'counts only'}"
    )
    print(
        f"workload:     "
        f"{'episode source available' if source is not None else 'not workload-capable'}"
    )
    if source is not None:
        print(
            f"cluster:      "
            f"{'rule-language program' if source.program else 'in-process only'}"
        )
    return 0


def _print_report(
    report: dict, report_path: str | None, label: str, *lines: str
) -> int:
    """One line per check, a command's summary lines, where the report
    went and the verdict; returns the exit status."""
    for name, check in sorted(report["checks"].items()):
        status = "ok  " if check["ok"] else "FAIL"
        detail = f" ({check['detail']})" if check["detail"] else ""
        print(f"  [{status}] {name}{detail}")
    for line in lines:
        print(line)
    if report_path:
        print(f"report written to {report_path}")
    print(f"{label} PASSED" if report["ok"] else f"{label} FAILED")
    return 0 if report["ok"] else 1


def _cmd_scenario_run(arguments: argparse.Namespace) -> int:
    """Build one seeded realization, run it, audit it against its oracle."""
    from .scenarios import execute_run, get_pack
    from .serve.drill import write_report

    try:
        pack = get_pack(arguments.pack)
    except KeyError as exc:
        print(f"scenario run: {exc.args[0]}")
        return 2
    run = pack.build(seed=arguments.seed, size=arguments.size)
    print(
        f"scenario {pack.name}: seed={arguments.seed} "
        f"size={run.size} {pack.size_unit} "
        f"({len(run.observations)} observations)"
    )
    report = write_report(execute_run(run), arguments.report)
    return _print_report(report, arguments.report, "oracle")


def _cmd_smoke(arguments: argparse.Namespace) -> int:
    """The standing production smoke drill (see :mod:`repro.workload.smoke`)."""
    from .workload.smoke import SMOKE_PROFILES, run_smoke_drill

    chaos = None
    if arguments.duplicates or arguments.disorder:
        from .resilience import ChaosConfig

        chaos = ChaosConfig(
            seed=arguments.seed,
            duplicate_rate=arguments.duplicates,
            disorder_rate=arguments.disorder,
            max_lateness=arguments.max_lateness,
        )
    profile = SMOKE_PROFILES[arguments.profile]
    print(
        f"smoke drill: profile={profile.name} pack={arguments.pack} "
        f"seed={arguments.seed} "
        f"target={profile.target_observations} observations, "
        f"cardinality={profile.cardinality} "
        f"(reproduce with --seed {arguments.seed})"
    )
    try:
        report = run_smoke_drill(
            arguments.profile,
            pack=arguments.pack,
            seed=arguments.seed,
            cluster=arguments.cluster,
            workers=arguments.workers,
            chaos=chaos,
            report_path=arguments.report,
            timeout=arguments.timeout,
        )
    except (KeyError, ValueError) as exc:
        print(f"smoke: {exc.args[0]}")
        return 2
    summary = [
        f"throughput: {report['observations']} observations "
        f"({report['distinct_epcs']} distinct EPCs) in "
        f"{report['elapsed_seconds']:.2f}s = "
        f"{report['events_per_second']:.0f} events/s "
        f"over {report['transport']}",
        *([f"chaos: {report['chaos']}"] if report.get("chaos") else []),
    ]
    return _print_report(report, arguments.report, "smoke", *summary)


def _load_rules(path: str):
    with open(path) as handle:
        return parse_program(handle.read())


def _load_inputs(arguments: argparse.Namespace):
    """Load the ``--rules`` program and ``--stream`` observations together.

    Every command that replays a recorded stream through a rule program
    (run, metrics, chaos) starts exactly this way.
    """
    return _load_rules(arguments.rules), load_stream(arguments.stream)


def _build_engine(rules, *, store=None, metrics=None) -> Engine:
    """One canonical way to stand up an engine for CLI commands.

    Rule actions may touch the store, so commands always provide one
    (callers that care about its contents pass their own).
    """
    return Engine(
        rules,
        store=RfidStore() if store is None else store,
        functions=FunctionRegistry(),
        metrics=metrics,
    )


def _package_version() -> str:
    """The installed distribution version, falling back to the source tree."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from . import __version__

        return __version__


def _write_metrics(registry, destination: str, format: str) -> None:
    """Dump a registry snapshot to a file, or stdout for ``-``."""
    if format == "prom":
        text = registry.render_prometheus()
    else:
        import json

        text = json.dumps(registry.snapshot(), indent=2, sort_keys=True) + "\n"
    if destination == "-":
        print(text, end="")
    else:
        with open(destination, "w") as handle:
            handle.write(text)
        print(f"metrics snapshot written to {destination}")


def _cmd_run(arguments: argparse.Namespace) -> int:
    from .obs import MetricsRegistry

    program, observations = _load_inputs(arguments)
    store = RfidStore()
    registry = MetricsRegistry() if getattr(arguments, "metrics", None) else None
    engine = _build_engine(program.rules, store=store, metrics=registry)
    detections = len(engine.submit_many(observations))
    detections += len(engine.flush())
    print(f"{len(observations)} observations, {detections} detections")
    for rule_id, count in sorted(engine.stats.per_rule.items()):
        print(f"  {rule_id}: {count}")
    if store.alerts:
        print("alerts:")
        for rule_id, message, timestamp in store.alerts:
            print(f"  [{rule_id}] t={timestamp:g} {message}")
    if arguments.store:
        store.save_json(arguments.store)
        print(f"store snapshot written to {arguments.store}")
    if registry is not None:
        _write_metrics(registry, arguments.metrics, arguments.metrics_format)
    return 0


def _cmd_metrics(arguments: argparse.Namespace) -> int:
    """Run instrumented and print the snapshot — nothing else."""
    from .obs import MetricsRegistry

    program, observations = _load_inputs(arguments)
    registry = MetricsRegistry()
    engine = _build_engine(program.rules, metrics=registry)
    engine.submit_many(observations)
    engine.flush()
    _write_metrics(registry, arguments.out, arguments.format)
    return 0


def _cmd_chaos(arguments: argparse.Namespace) -> int:
    """Run a rule program under fault injection, supervised.

    The stream is perturbed by a seeded :class:`ChaosInjector`
    (malformed frames, duplicate bursts, out-of-order spikes, reader
    dropout, clock skew); a :class:`SupervisedEngine` absorbs every
    failure.  With ``--kill-at N`` the engine is checkpointed and
    discarded after N perturbed readings and a fresh engine restores the
    snapshot (JSON round-tripped) and finishes the stream — a one-line
    crash-recovery drill (:func:`kill_and_restore_run`).
    """
    from .obs import MetricsRegistry
    from .resilience import ChaosConfig, ChaosInjector, SupervisedEngine
    from .resilience.chaos import kill_and_restore_run

    if not arguments.rules or not arguments.stream:
        raise SystemExit(
            "chaos: --rules and --stream are required "
            "(network drills live under 'chaos serve')"
        )
    program, observations = _load_inputs(arguments)
    injector = ChaosInjector(
        ChaosConfig(
            seed=arguments.seed,
            malformed_rate=arguments.malformed_rate,
            duplicate_rate=arguments.duplicate_rate,
            disorder_rate=arguments.disorder_rate,
            max_lateness=arguments.max_lateness,
            dropout_rate=arguments.dropout_rate,
            dropout_duration=arguments.dropout_duration,
            skew_rate=arguments.skew_rate,
        )
    )
    perturbed = list(injector.inject(observations))
    registry = MetricsRegistry() if getattr(arguments, "metrics", None) else None
    store = RfidStore()

    engine_kwargs = {}
    if arguments.out_of_order == "revise":
        horizon = arguments.revise_horizon
        if horizon is None:
            horizon = arguments.max_lateness * 2
        engine_kwargs["revise_horizon"] = horizon
    elif arguments.revise_horizon is not None:
        raise SystemExit(
            "chaos: --revise-horizon requires --out-of-order revise"
        )

    def build() -> SupervisedEngine:
        return SupervisedEngine(
            program.rules,
            store=store,
            functions=FunctionRegistry(),
            metrics=registry,
            out_of_order=arguments.out_of_order,
            **engine_kwargs,
        )

    if arguments.kill_at is not None:
        try:
            output, engine = kill_and_restore_run(
                build, perturbed, arguments.kill_at
            )
        except ValueError:
            print(
                f"chaos: --kill-at {arguments.kill_at} outside stream "
                f"(0..{len(perturbed)})"
            )
            return 2
        print(f"killed after {arguments.kill_at} readings; restored from snapshot")
        detections = len(output)
    else:
        engine = build()
        detections = sum(len(engine.submit(o)) for o in perturbed)
        detections += len(engine.flush())
    print(
        f"{len(observations)} readings in, {len(perturbed)} after chaos, "
        f"{detections} detections"
    )
    print(f"chaos: {injector.counts}")
    if arguments.out_of_order == "revise":
        stats = engine.engine.stats
        print(
            f"speculation: {stats.speculative} provisional, "
            f"{stats.revised} revised, {stats.retracted} retracted, "
            f"{stats.sealed} sealed final, "
            f"{stats.dropped_too_late} dropped past horizon"
        )
    elif arguments.out_of_order == "drop":
        # DROP is allowed, but never silent: every discarded late
        # reading is a reading the detections above did not see.
        print(
            f"ooo_dropped: {engine.engine.stats.dropped_out_of_order} "
            f"stale readings discarded before detection"
        )
    print("supervision report:")
    for key, value in engine.report().items():
        print(f"  {key}: {value}")
    if engine.quarantine:
        print("quarantined (first 5):")
        for entry in list(engine.quarantine)[:5]:
            print(f"  t={entry.time:g} {entry.error_type}: {entry.observation!r}")
    if registry is not None:
        _write_metrics(registry, arguments.metrics, arguments.metrics_format)
    return 0


def _cmd_chaos_serve(arguments: argparse.Namespace) -> int:
    """The network chaos soak drill (see :mod:`repro.serve.drill`)."""
    from dataclasses import replace

    from .serve.drill import default_fault_plan, run_chaos_serve_drill

    knobs = "latency jitter fragment_rate stall_rate reset_rate corrupt_rate"
    overrides = {
        name: getattr(arguments, name)
        for name in knobs.split()
        if getattr(arguments, name) is not None
    }
    print(
        f"chaos serve drill: scenario={arguments.scenario} "
        f"seed={arguments.seed} cases={arguments.cases} "
        f"(reproduce with --seed {arguments.seed})"
    )
    report = run_chaos_serve_drill(
        seed=arguments.seed,
        cases=arguments.cases,
        plan=replace(default_fault_plan(arguments.seed), **overrides),
        timeout=arguments.timeout,
        report_path=arguments.report,
        scenario=arguments.scenario,
    )
    faults, clients = report["faults"], report["clients"]
    summary = [
        f"faults: {faults['fragments']} fragments, "
        f"{faults['corruptions']} corruptions, {faults['resets']} resets, "
        f"{faults['stalls']} stalls over {faults['chunks']} chunks",
        f"clients: v1 reconnects={clients['v1']['reconnects']} "
        f"heartbeats={clients['v1']['heartbeats']}; "
        f"v2 reconnects={clients['v2']['reconnects']} "
        f"heartbeats={clients['v2']['heartbeats']}",
    ]
    return _print_report(report, arguments.report, "drill", *summary)


def _cmd_chaos_skew(arguments: argparse.Namespace) -> int:
    """The skew drill (see :mod:`repro.serve.drill`)."""
    from .serve.drill import run_chaos_skew_drill

    print(
        f"chaos skew drill: seed={arguments.seed} cases={arguments.cases} "
        f"horizon={arguments.horizon} "
        f"(reproduce with --seed {arguments.seed})"
    )
    report = run_chaos_skew_drill(
        seed=arguments.seed,
        cases=arguments.cases,
        horizon=arguments.horizon,
        timeout=arguments.timeout,
        report_path=arguments.report,
    )
    engine, outbox = report["engine"], report["outbox"]
    summary = [
        f"speculation: {engine['speculative']} provisional, "
        f"{engine['revised']} revised, {engine['retracted']} retracted, "
        f"{engine['sealed']} sealed final",
        f"outbox: {outbox['held']} held, {outbox['cancelled']} cancelled, "
        f"{outbox['timed_out']} timed out",
    ]
    return _print_report(report, arguments.report, "drill", *summary)


def _cmd_chaos_cluster(arguments: argparse.Namespace) -> int:
    """The cluster kill/recover drill (see :mod:`repro.serve.drill`)."""
    from .serve.drill import run_cluster_drill

    print(
        f"chaos cluster drill: seed={arguments.seed} "
        f"workers={arguments.workers} lines={arguments.lines} "
        f"(reproduce with --seed {arguments.seed})"
    )
    report = run_cluster_drill(
        seed=arguments.seed,
        lines=arguments.lines,
        cases_per_line=arguments.cases_per_line,
        workers=arguments.workers,
        inprocess=arguments.inprocess,
        timeout=arguments.timeout,
        report_path=arguments.report,
    )
    router = report["router"]
    summary = [
        f"router: {router['routed']} routed over {router['epochs']} epochs, "
        f"{router['detections_forwarded']} detections forwarded, "
        f"{router['worker_reconnects']} link reconnects",
        f"victim: {report['victim']} (shards {report['victim_shards']}), "
        f"assignment {report['assignment']}",
    ]
    return _print_report(report, arguments.report, "drill", *summary)


def _cmd_cluster(arguments: argparse.Namespace) -> int:
    """Run a full cluster — shard-worker subprocesses plus the router.

    Prints ``cluster on HOST:PORT`` once the router socket is bound
    (``--port 0`` picks an ephemeral port, so scripts can parse the
    line), then runs until interrupted or ``--max-seconds`` elapses.
    Workers keep per-shard durable state under ``--dir``; restarting
    the cluster over the same directory resumes every shard's WAL.
    """
    import asyncio
    import tempfile

    from .serve.cluster import Cluster

    if not arguments.rules:
        print("cluster: --rules is required")
        return 2
    with open(arguments.rules) as handle:
        program = handle.read()
    directory = arguments.dir or tempfile.mkdtemp(prefix="rceda-cluster-")

    async def _run() -> None:
        cluster = Cluster(
            program,
            workers=arguments.workers,
            directory=directory,
            max_shards=arguments.max_shards,
            fsync=arguments.fsync,
            sink=arguments.sink,
            inprocess=arguments.inprocess,
        )
        try:
            port = await cluster.start(
                router_host=arguments.host, router_port=arguments.port
            )
            print(f"placement: {cluster.plan.assignment}", flush=True)
            print(f"cluster on {arguments.host}:{port}", flush=True)
            if arguments.max_seconds is not None:
                await asyncio.sleep(arguments.max_seconds)
            else:
                await asyncio.Event().wait()
        finally:
            stats = (
                cluster.router.stats if cluster.router is not None else None
            )
            await cluster.stop()
            if stats is not None:
                print(
                    f"routed {stats.routed} observations over "
                    f"{stats.epochs} epochs, forwarded "
                    f"{stats.detections_forwarded} detections"
                )

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("interrupted")
    return 0


def _cmd_cluster_worker(arguments: argparse.Namespace) -> int:
    """One shard-worker process (spawned by the cluster supervisor)."""
    import asyncio

    from .serve.cluster import load_worker_spec, run_worker

    asyncio.run(run_worker(load_worker_spec(arguments.spec)))
    return 0


def _cmd_wal_inspect(arguments: argparse.Namespace) -> int:
    """Describe a durable directory: segments, checkpoints, outbox."""
    import os

    from .resilience.durability import checkpoint_files, read_journal, scan_wal
    from .resilience.durability.engine import WAL_SUBDIR
    from .resilience.durability.outbox import JOURNAL_NAME

    directory = arguments.dir
    wal_dir = os.path.join(directory, WAL_SUBDIR)
    infos = scan_wal(wal_dir)
    print(f"write-ahead log: {wal_dir}")
    if not infos:
        print("  (no segments)")
    for info in infos:
        line = (
            f"  {info.name}: {info.records} records, "
            f"seq {info.first_seq}..{info.last_seq}, {info.valid_bytes} bytes"
        )
        if info.torn_bytes:
            line += f" (+{info.torn_bytes} torn tail bytes)"
        print(line)
    checkpoints = checkpoint_files(directory)
    print(f"checkpoints: {len(checkpoints)}")
    for name in checkpoints:
        print(f"  {name}")
    journal = os.path.join(directory, JOURNAL_NAME)
    entries = read_journal(journal)
    if entries:
        by_op = {"i": 0, "a": 0, "d": 0}
        for entry in entries:
            by_op[entry.op] = by_op.get(entry.op, 0) + 1
        unresolved = by_op["i"] - by_op["a"] - by_op["d"]
        print(
            f"outbox: {by_op['i']} intents, {by_op['a']} acked, "
            f"{by_op['d']} dead, {unresolved} in flight"
        )
    else:
        print("outbox: (empty)")
    return 0


def _cmd_wal_recover(arguments: argparse.Namespace) -> int:
    """Recover a durable engine from a directory and report what happened."""
    from .resilience.durability import DurableEngine

    program = _load_rules(arguments.rules)
    store = RfidStore()

    def build() -> Engine:
        return _build_engine(program.rules, store=store)

    durable, report = DurableEngine.recover(
        build, arguments.dir, fsync=arguments.fsync
    )
    print(f"recovered {arguments.dir}")
    print(f"  checkpoint seq:        {report.checkpoint_seq}")
    print(f"  checkpoints tried:     {report.checkpoints_tried}")
    print(f"  records replayed:      {report.replayed_records}")
    print(f"  deliveries suppressed: {report.suppressed_deliveries}")
    print(f"  deliveries re-run:     {report.redelivered}")
    print(f"  torn bytes truncated:  {report.torn_bytes_truncated}")
    print(f"  next sequence number:  {report.next_seq}")
    durable.close()
    return 0


def _cmd_wal_drill(arguments: argparse.Namespace) -> int:
    """Self-contained crash drill: log, kill, recover, verify equality.

    Simulates a packing scenario, runs the containment/location rules
    durably to completion for a baseline, then repeats the run through
    :func:`~repro.resilience.chaos.kill_and_restore_run`, killing the
    engine (optionally tearing the WAL tail) and recovering.  Exits 0
    only when the interrupted run's detections *and* sink deliveries
    match the baseline exactly — the durability contract, end to end.
    """
    import shutil
    import tempfile

    from .apps import containment_rule, location_rule
    from .resilience import kill_and_restore_run, tear_wal_tail
    from .resilience.durability import DurableEngine
    from .resilience.durability.engine import WAL_SUBDIR
    from .scenarios.pack import canon_detections as canon

    observations = _packing_stream(arguments.cases, arguments.seed)
    kill_at = (
        len(observations) // 2
        if arguments.kill_at == "mid"
        else int(arguments.kill_at)
    )
    if not 0 <= kill_at <= len(observations):
        print(f"--kill-at {kill_at} outside stream (0..{len(observations)})")
        return 2

    def build():
        return _build_engine([containment_rule(), location_rule()])

    deliveries: list = []
    options = dict(
        fsync=arguments.fsync,
        checkpoint_every=arguments.checkpoint_every,
        sink=lambda det, seq, ordinal: deliveries.append(
            (seq, ordinal, det.rule.rule_id, det.time)
        ),
        segment_max_bytes=arguments.segment_bytes,
    )
    workdir = tempfile.mkdtemp(prefix="rceda-wal-drill-")
    drill_dir = f"{workdir}/drill"

    def recover():
        if arguments.tear_tail:
            tear_wal_tail(f"{drill_dir}/{WAL_SUBDIR}", seed=arguments.seed)
        revived, report = DurableEngine.recover(build, drill_dir, **options)
        if kill_at < len(observations):  # an end-of-stream kill prints no report
            print(
                f"recovered: checkpoint seq {report.checkpoint_seq}, "
                f"{report.replayed_records} replayed, "
                f"{report.suppressed_deliveries} suppressed, "
                f"{report.torn_bytes_truncated} torn bytes truncated"
            )
        return revived

    try:
        with DurableEngine(build, f"{workdir}/baseline", **options) as durable:
            expected = canon(list(durable.run(observations)))
        expected_deliveries = sorted(deliveries)
        print(
            f"baseline: {len(observations)} observations, "
            f"{len(expected)} detections, {len(expected_deliveries)} deliveries"
        )
        deliveries.clear()
        detections, revived = kill_and_restore_run(
            lambda: DurableEngine(build, drill_dir, **options),
            observations,
            kill_at,
            recover=recover,
        )
        revived.close()
        ok = (
            canon(detections) == expected
            and sorted(deliveries) == expected_deliveries
        )
    finally:
        if arguments.keep:
            print(f"durable directories kept under {workdir}")
        else:
            shutil.rmtree(workdir, ignore_errors=True)
    if ok:
        print(
            f"drill PASSED: kill at {kill_at}/{len(observations)} — detections "
            "and deliveries identical to the uninterrupted run"
        )
        return 0
    print("drill FAILED: recovered run diverged from baseline")
    return 1


def _cmd_serve(arguments: argparse.Namespace) -> int:
    """Serve a rule program over TCP (see ``docs/serving.md``).

    Prints ``serving on HOST:PORT`` once the socket is bound (``--port 0``
    picks an ephemeral port, so scripts can parse the line), then runs
    until interrupted or ``--max-seconds`` elapses.  ``--backend durable``
    recovers ``--dir`` first, so restarting the server resumes the WAL
    and reconnecting clients continue from their last acked sequence.
    """
    import asyncio

    from .obs import MetricsRegistry
    from .serve import CepServer, ServeConfig, SlowConsumerPolicy

    program = _load_rules(arguments.rules)
    registry = MetricsRegistry() if arguments.metrics else None

    durable = None
    if arguments.backend == "durable":
        if not arguments.dir:
            print("--backend durable requires --dir")
            return 2
        from .resilience.durability import DurableEngine

        durable, report = DurableEngine.recover(
            lambda: _build_engine(program.rules, metrics=registry),
            arguments.dir,
            fsync=arguments.fsync,
        )
        backend = durable
        print(
            f"durable backend: {arguments.dir} "
            f"(replayed {report.replayed_records}, next seq {report.next_seq})"
        )
    elif arguments.backend == "sharded":
        from .core.sharding import ShardedEngine

        backend = ShardedEngine(
            program.rules,
            max_shards=arguments.shards,
            store=RfidStore(),
            functions=FunctionRegistry(),
            metrics=registry,
        )
    else:
        backend = _build_engine(program.rules, metrics=registry)

    codecs = None
    if arguments.codecs:
        from .serve import get_codec

        codecs = tuple(
            name.strip() for name in arguments.codecs.split(",") if name.strip()
        )
        for name in codecs:
            try:
                get_codec(name)
            except Exception:
                print(f"unknown wire codec {name!r}")
                return 2

    config = ServeConfig(
        submit_queue=arguments.submit_queue,
        push_queue=arguments.push_queue,
        push_policy=SlowConsumerPolicy.coerce(arguments.push_policy),
        codecs=codecs,
    )

    async def _serve() -> None:
        server = CepServer(backend, config=config, metrics=registry)
        async with server:
            port = await server.serve_tcp(arguments.host, arguments.port)
            print(f"serving on {arguments.host}:{port}", flush=True)
            try:
                if arguments.max_seconds is not None:
                    await asyncio.sleep(arguments.max_seconds)
                else:
                    await asyncio.Event().wait()
            finally:
                stats = server.stats
                print(
                    f"served {stats.sessions_opened} sessions, "
                    f"{stats.submitted} observations, "
                    f"{stats.detections_pushed} detections pushed"
                )

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted")
    finally:
        if durable is not None:
            durable.close()
    if registry is not None:
        _write_metrics(registry, arguments.metrics, arguments.metrics_format)
    return 0


def _cmd_graph(arguments: argparse.Namespace) -> int:
    program = _load_rules(arguments.rules)
    engine = Engine(program.rules)
    print(engine_to_dot(engine))
    return 0


def _cmd_inspect(arguments: argparse.Namespace) -> int:
    from .store import render_summary, render_timeline

    store = RfidStore.load_json(arguments.store)
    print(render_summary(store))
    if arguments.object:
        print()
        print(render_timeline(store, arguments.object))
        parent = store.parent_of(arguments.object)
        if parent is not None:
            print(f"  currently contained in {parent}")
    return 0


def _cmd_demo(_arguments: argparse.Namespace) -> int:
    import random

    from .apps import RfidMiddleware, containment_rule, location_rule
    from .simulator import PackingConfig, simulate_packing

    config = PackingConfig(cases=3, items_per_case=3)
    trace = simulate_packing(config, rng=random.Random(1))
    middleware = RfidMiddleware()
    middleware.store.place_reader(config.item_reader, "conveyor")
    middleware.store.place_reader(config.case_reader, "packing")
    middleware.add_rules([containment_rule(), location_rule()])
    middleware.process(trace.observations)
    print("packing demo — containment derived from the raw stream:")
    for case in trace.cases:
        print(f"  case {case.case_epc}")
        for item in middleware.store.contents_of(case.case_epc):
            print(f"    {item}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="RCEDA: complex event processing for RFID data streams.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    record = commands.add_parser("record", help="record a simulated stream")
    record.add_argument(
        "--scenario",
        default="supply-chain",
        help="a registered scenario pack name ('scenario list'), or "
        "'supply-chain' for the merged multi-scenario stream (default)",
    )
    record.add_argument("--out", required=True)
    record.add_argument("--seed", type=int, default=7)
    record.add_argument(
        "--cases",
        type=int,
        default=None,
        help="scenario size (pack default when omitted; ignored by "
        "supply-chain)",
    )
    record.set_defaults(handler=_cmd_record)

    scenario = commands.add_parser(
        "scenario",
        help="scenario-pack registry: list packs, show one, run its oracle",
    )
    scenario_commands = scenario.add_subparsers(
        dest="scenario_command", required=True
    )
    scenario_list = scenario_commands.add_parser(
        "list", help="list registered scenario packs (built-ins first)"
    )
    scenario_list.set_defaults(handler=_cmd_scenario_list)
    scenario_info = scenario_commands.add_parser(
        "info", help="show one pack: sizing, rules, workload capability"
    )
    scenario_info.add_argument("--pack", required=True, help="pack name")
    scenario_info.add_argument("--seed", type=int, default=7)
    scenario_info.set_defaults(handler=_cmd_scenario_info)
    scenario_run = scenario_commands.add_parser(
        "run",
        help="run one seeded realization through a fresh engine and "
        "audit it against the pack's ground-truth oracle (exit 1 on "
        "any failure)",
    )
    scenario_run.add_argument("--pack", required=True, help="pack name")
    scenario_run.add_argument("--seed", type=int, default=7)
    scenario_run.add_argument(
        "--size",
        type=int,
        default=None,
        help="scenario size (pack default when omitted)",
    )
    scenario_run.add_argument(
        "--report", help="write the JSON oracle report here"
    )
    scenario_run.set_defaults(handler=_cmd_scenario_run)

    run = commands.add_parser("run", help="run a rule program over a stream")
    run.add_argument("--rules", required=True, help="rule program file")
    run.add_argument("--stream", required=True, help="JSONL observation file")
    run.add_argument("--store", help="write the resulting store snapshot here")
    run.add_argument(
        "--metrics",
        help="run instrumented and dump a metrics snapshot here ('-' = stdout)",
    )
    run.add_argument(
        "--metrics-format",
        choices=("json", "prom"),
        default="json",
        help="snapshot format for --metrics (default: json)",
    )
    run.set_defaults(handler=_cmd_run)

    metrics = commands.add_parser(
        "metrics", help="run a rule program instrumented; print metrics only"
    )
    metrics.add_argument("--rules", required=True, help="rule program file")
    metrics.add_argument("--stream", required=True, help="JSONL observation file")
    metrics.add_argument(
        "--out", default="-", help="snapshot destination (default: stdout)"
    )
    metrics.add_argument(
        "--format", choices=("json", "prom"), default="prom",
        help="snapshot format (default: prom)",
    )
    metrics.set_defaults(handler=_cmd_metrics)

    chaos = commands.add_parser(
        "chaos",
        help="run a rule program under seeded fault injection, supervised",
    )
    chaos.add_argument("--rules", help="rule program file")
    chaos.add_argument("--stream", help="JSONL observation file")
    chaos.add_argument("--seed", type=int, default=0, help="fault-schedule seed")
    chaos.add_argument("--malformed-rate", type=float, default=0.02)
    chaos.add_argument("--duplicate-rate", type=float, default=0.05)
    chaos.add_argument("--disorder-rate", type=float, default=0.05)
    chaos.add_argument("--max-lateness", type=float, default=2.0)
    chaos.add_argument("--dropout-rate", type=float, default=0.0)
    chaos.add_argument("--dropout-duration", type=float, default=5.0)
    chaos.add_argument("--skew-rate", type=float, default=0.0)
    chaos.add_argument(
        "--out-of-order",
        choices=("raise", "drop", "revise"),
        default="drop",
        help="engine policy for late readings (default: drop)",
    )
    chaos.add_argument(
        "--revise-horizon",
        type=float,
        default=None,
        help="watermark lag for --out-of-order revise (stream seconds; "
        "defaults to --max-lateness * 2 when the policy is revise)",
    )
    chaos.add_argument(
        "--kill-at",
        type=int,
        help="checkpoint + discard the engine after N perturbed readings, "
        "then restore into a fresh engine and finish",
    )
    chaos.add_argument(
        "--metrics",
        help="dump a metrics snapshot here ('-' = stdout)",
    )
    chaos.add_argument(
        "--metrics-format", choices=("json", "prom"), default="json"
    )
    chaos.set_defaults(handler=_cmd_chaos)

    chaos_commands = chaos.add_subparsers(dest="chaos_command")
    chaos_serve = chaos_commands.add_parser(
        "serve",
        help="network chaos soak drill: seeded proxy faults + server "
        "kill/recover around a durable CepServer (exit 1 on any failure)",
    )
    chaos_serve.add_argument(
        "--seed", type=int, default=7, help="fault-schedule seed"
    )
    chaos_serve.add_argument(
        "--cases", type=int, default=20, help="scenario size (pack units)"
    )
    chaos_serve.add_argument(
        "--scenario",
        default="packing",
        help="scenario pack driving the drill ('scenario list'; "
        "default: packing)",
    )
    chaos_serve.add_argument("--latency", type=float, default=None)
    chaos_serve.add_argument("--jitter", type=float, default=None)
    chaos_serve.add_argument("--fragment-rate", type=float, default=None)
    chaos_serve.add_argument("--stall-rate", type=float, default=None)
    chaos_serve.add_argument("--reset-rate", type=float, default=None)
    chaos_serve.add_argument("--corrupt-rate", type=float, default=None)
    chaos_serve.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="hard wall-clock bound on the whole drill (seconds)",
    )
    chaos_serve.add_argument(
        "--report",
        default="CHAOS_serve.json",
        help="write the JSON drill report here (default: CHAOS_serve.json)",
    )
    chaos_serve.set_defaults(handler=_cmd_chaos_serve)

    chaos_skew = chaos_commands.add_parser(
        "skew",
        help="skew drill: seeded clock skew + out-of-order spikes "
        "through a REVISE-mode durable server with a mid-stream "
        "kill/recover; audits finals against the in-order oracle "
        "(exit 1 on any failure)",
    )
    chaos_skew.add_argument(
        "--seed", type=int, default=11, help="perturbation-schedule seed"
    )
    chaos_skew.add_argument(
        "--cases", type=int, default=16, help="simulated packing cases"
    )
    chaos_skew.add_argument(
        "--horizon",
        type=float,
        default=6.0,
        help="revise_horizon (stream seconds); must exceed the fault "
        "mix's worst-case lateness (default: 6.0)",
    )
    chaos_skew.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="hard wall-clock bound on the whole drill (seconds)",
    )
    chaos_skew.add_argument(
        "--report",
        default="CHAOS_skew.json",
        help="write the JSON drill report here (default: CHAOS_skew.json)",
    )
    chaos_skew.set_defaults(handler=_cmd_chaos_skew)

    chaos_cluster = chaos_commands.add_parser(
        "cluster",
        help="cluster kill/recover drill: SIGKILL one shard worker "
        "mid-stream, recover it, audit exactly-once end to end "
        "(exit 1 on any failure)",
    )
    chaos_cluster.add_argument(
        "--seed", type=int, default=7, help="workload seed"
    )
    chaos_cluster.add_argument(
        "--workers", type=int, default=2, help="shard worker processes"
    )
    chaos_cluster.add_argument(
        "--lines", type=int, default=4, help="independent packing lines"
    )
    chaos_cluster.add_argument("--cases-per-line", type=int, default=12)
    chaos_cluster.add_argument(
        "--inprocess",
        action="store_true",
        help="in-loop workers crashed via abort() instead of subprocesses "
        "+ SIGKILL (faster; used by tests)",
    )
    chaos_cluster.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="hard wall-clock bound on the whole drill (seconds)",
    )
    chaos_cluster.add_argument(
        "--report",
        default="CHAOS_cluster.json",
        help="write the JSON drill report here (default: CHAOS_cluster.json)",
    )
    chaos_cluster.set_defaults(handler=_cmd_chaos_cluster)

    smoke = commands.add_parser(
        "smoke",
        help="standing production smoke drill: open-world generated "
        "workload through the durable serving stack; audits "
        "exactly-once delivery, oracle-exact detections and "
        "distinct-EPC cardinality (exit 1 on any failure)",
    )
    smoke.add_argument(
        "--profile",
        choices=("ci", "quick", "full"),
        default="quick",
        help="drill scale (ci: seconds; quick: <1 min; full: >=1M "
        "distinct EPCs; default: quick)",
    )
    smoke.add_argument(
        "--pack",
        default="returns-fraud",
        help="workload-capable scenario pack (default: returns-fraud)",
    )
    smoke.add_argument("--seed", type=int, default=7, help="workload seed")
    smoke.add_argument(
        "--cluster",
        action="store_true",
        help="drive the sharded cluster instead of a single durable "
        "server (needs a pack with a rule-language program, e.g. "
        "--pack packing)",
    )
    smoke.add_argument(
        "--workers", type=int, default=2, help="cluster workers (--cluster)"
    )
    smoke.add_argument(
        "--duplicates",
        type=float,
        default=0.0,
        help="chaos duplicate rate on the generated stream (oracle "
        "equality is relaxed to delivery audits under chaos)",
    )
    smoke.add_argument(
        "--disorder",
        type=float,
        default=0.0,
        help="chaos out-of-order rate on the generated stream",
    )
    smoke.add_argument(
        "--max-lateness",
        type=float,
        default=2.0,
        help="worst-case lateness for --disorder (stream seconds)",
    )
    smoke.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="hard wall-clock bound (seconds; default: the profile's)",
    )
    smoke.add_argument(
        "--report", help="write the JSON drill report here"
    )
    smoke.set_defaults(handler=_cmd_smoke)

    wal = commands.add_parser(
        "wal", help="write-ahead log tools: inspect, recover, crash drill"
    )
    wal_commands = wal.add_subparsers(dest="wal_command", required=True)

    wal_inspect = wal_commands.add_parser(
        "inspect", help="describe a durable directory (segments, checkpoints, outbox)"
    )
    wal_inspect.add_argument("--dir", required=True, help="durable engine directory")
    wal_inspect.set_defaults(handler=_cmd_wal_inspect)

    wal_recover = wal_commands.add_parser(
        "recover", help="recover a durable engine directory and print the report"
    )
    wal_recover.add_argument("--dir", required=True, help="durable engine directory")
    wal_recover.add_argument("--rules", required=True, help="rule program file")
    wal_recover.add_argument(
        "--fsync", default="never", help="fsync policy: always, never or batch:N"
    )
    wal_recover.set_defaults(handler=_cmd_wal_recover)

    wal_drill = wal_commands.add_parser(
        "drill",
        help="self-contained crash drill: log, kill, recover, verify equality",
    )
    wal_drill.add_argument(
        "--kill-at",
        default="mid",
        help="observation index to kill after, or 'mid' (default)",
    )
    wal_drill.add_argument(
        "--fsync", default="never", help="fsync policy: always, never or batch:N"
    )
    wal_drill.add_argument("--seed", type=int, default=7)
    wal_drill.add_argument("--cases", type=int, default=8)
    wal_drill.add_argument("--checkpoint-every", type=int, default=25)
    wal_drill.add_argument("--segment-bytes", type=int, default=4096)
    wal_drill.add_argument(
        "--tear-tail",
        action="store_true",
        help="additionally tear the WAL tail mid-record before recovering",
    )
    wal_drill.add_argument(
        "--keep", action="store_true", help="keep the durable directories"
    )
    wal_drill.set_defaults(handler=_cmd_wal_drill)

    serve = commands.add_parser(
        "serve", help="serve a rule program over TCP (repro.serve)"
    )
    serve.add_argument("--rules", required=True, help="rule program file")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7007, help="0 picks an ephemeral port"
    )
    serve.add_argument(
        "--backend",
        choices=("plain", "sharded", "durable"),
        default="plain",
        help="detection backend behind the server (default: plain)",
    )
    serve.add_argument(
        "--shards", type=int, default=4, help="max shards for --backend sharded"
    )
    serve.add_argument("--dir", help="durable directory for --backend durable")
    serve.add_argument(
        "--fsync", default="never", help="fsync policy: always, never or batch:N"
    )
    serve.add_argument("--submit-queue", type=int, default=1024)
    serve.add_argument("--push-queue", type=int, default=256)
    serve.add_argument(
        "--push-policy",
        choices=("drop", "disconnect"),
        default="drop",
        help="slow detection consumers: drop oldest or disconnect",
    )
    serve.add_argument(
        "--codecs",
        help=(
            "comma-separated wire codecs to offer at HELLO, preference "
            "first (e.g. 'binary,json' or 'json'; default: all "
            "registered, binary preferred)"
        ),
    )
    serve.add_argument(
        "--max-seconds",
        type=float,
        help="stop after this many seconds (default: run until interrupted)",
    )
    serve.add_argument(
        "--metrics", help="dump a metrics snapshot here on exit ('-' = stdout)"
    )
    serve.add_argument(
        "--metrics-format", choices=("json", "prom"), default="json"
    )
    serve.set_defaults(handler=_cmd_serve)

    cluster = commands.add_parser(
        "cluster",
        help="serve a rule program across shard-worker processes "
        "behind a router (repro.serve.cluster)",
    )
    cluster.add_argument("--rules", help="rule program file")
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument(
        "--port", type=int, default=7007, help="router port (0 = ephemeral)"
    )
    cluster.add_argument(
        "--workers", type=int, default=2, help="shard worker processes"
    )
    cluster.add_argument(
        "--max-shards",
        type=int,
        help="shard count ceiling (default: one per worker)",
    )
    cluster.add_argument(
        "--dir", help="durable state root (default: a fresh temp directory)"
    )
    cluster.add_argument(
        "--fsync", default="never", help="fsync policy: always, never or batch:N"
    )
    cluster.add_argument(
        "--sink",
        action="store_true",
        help="write per-shard delivery journals (deliveries.jsonl)",
    )
    cluster.add_argument(
        "--inprocess",
        action="store_true",
        help="run workers inside this process instead of subprocesses",
    )
    cluster.add_argument(
        "--max-seconds",
        type=float,
        help="stop after this many seconds (default: run until interrupted)",
    )
    cluster.set_defaults(handler=_cmd_cluster)

    cluster_commands = cluster.add_subparsers(dest="cluster_command")
    cluster_worker = cluster_commands.add_parser(
        "worker",
        help="one shard-worker process (spawned by the cluster supervisor)",
    )
    cluster_worker.add_argument(
        "--spec", required=True, help="worker spec JSON written by the spawner"
    )
    cluster_worker.set_defaults(handler=_cmd_cluster_worker)

    graph = commands.add_parser("graph", help="print a rule program's event graph as DOT")
    graph.add_argument("--rules", required=True)
    graph.set_defaults(handler=_cmd_graph)

    inspect = commands.add_parser("inspect", help="inspect a store snapshot")
    inspect.add_argument("--store", required=True, help="store JSON file")
    inspect.add_argument("--object", help="render one object's timeline")
    inspect.set_defaults(handler=_cmd_inspect)

    demo = commands.add_parser("demo", help="quick end-to-end demo")
    demo.set_defaults(handler=_cmd_demo)

    arguments = parser.parse_args(argv)
    return arguments.handler(arguments)


if __name__ == "__main__":
    sys.exit(main())
