"""The five workloads and the two kinds of run over them.

A workload supplies its seeded input, the bare engine its oracle runs,
a ladder of rungs (top rung = the workload as a user meets it) and the
per-layer metrics its traced run can attribute.  :func:`run_end_to_end`
measures the top rung with tracing off; :func:`run_per_layer` walks the
whole ladder with spans on.
"""

from __future__ import annotations

import math
import os
import shutil
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Callable, Optional, Sequence

from harness import (
    SinkAudit,
    Spans,
    audit_sink_file,
    batches_of,
    canon_frames,
    children_cpu_s,
    input_digest,
    mismatches,
    peak_rss_mb,
    percentile,
    spread_pct,
)
from spec import BATCH, OPEN_LOOP_RATE, SCALES
from stacks import (
    ClusterStack,
    Pass,
    ServedStack,
    closed_loop,
    durable_pass,
    engine_pass,
    measure_det_codec,
    measure_obs_codec,
    measure_sql,
    measure_wal,
    open_loop,
)

from repro.bench.workloads import (
    build_events_axis_workload,
    build_rules_axis_workload,
)
from repro.core.detector import Engine, FunctionRegistry, OutOfOrderPolicy
from repro.core.instances import Observation
from repro.core.speculate import FINAL, canonical_key
from repro.lang import parse_rules
from repro.obs import MetricsRegistry
from repro.resilience.chaos import ChaosConfig, ChaosInjector
from repro.resilience.durability import DurableEngine
from repro.resilience.durability.outbox import JOURNAL_NAME
from repro.rules import Rule
from repro.scenarios import get_pack
from repro.scenarios.pack import canon_detections
from repro.serve.cluster import SINK_FILENAME, file_sink
from repro.store import RfidStore
from repro.workload import GeneratedWorkload, WorkloadConfig

#: Share of the input the untimed warm-up pass pushes through.
WARM_UP_SHARE = 0.05


@dataclass
class Inputs:
    """One workload's seeded input and what the generator promises of it."""

    observations: list
    #: rule id → detections the generator's ground truth promises
    expected: dict
    generate_s: float
    distinct_epcs: int
    #: a fresh bare engine as the workload defines it; the oracle's engine
    make_engine: Callable[[], Any]
    extra: dict = field(default_factory=dict)
    batches: list = field(init=False)

    def __post_init__(self) -> None:
        self.batches = batches_of(self.observations, BATCH)


@dataclass
class Context:
    """What a run hands every rung: spans, sizes and scratch directories."""

    spans: Spans
    scale: str
    seed: int
    tmp_root: str
    #: set by the run: rungs a workload adds in ``layers`` are judged too
    judge: Any = None
    _dirs: int = 0

    @property
    def sizes(self) -> dict:
        return SCALES[self.scale]

    def fresh_dir(self) -> str:
        """A new empty directory: every durable pass starts from nothing."""
        self._dirs += 1
        path = os.path.join(self.tmp_root, f"d{self._dirs}")
        os.makedirs(path)
        return path


class Workload:
    name = ""
    #: rung names, bottom first; the last is the workload itself
    ladder: tuple = ()

    def generate(self, seed: int, sizes: dict) -> Inputs:
        raise NotImplementedError

    def oracle(self, inputs: Inputs) -> list:
        """Canonical detections of an in-process, in-order ``Engine`` run.

        Goes through ``Engine.run`` — one ``submit`` per observation —
        so it shares no batching code with the rungs it judges.
        """
        return canon_detections(list(inputs.make_engine().run(inputs.observations)))

    async def run_rung(
        self,
        rung: str,
        inputs: Inputs,
        batches: Sequence,
        expected: Optional[int],
        ctx: Context,
        label: str,
        pass_index: int = 0,
        traced: bool = False,
    ) -> Pass:
        raise NotImplementedError

    def canon(self, rung: str, result: Pass) -> Optional[list]:
        """What of ``result`` the oracle judges (None: nothing on this rung)."""
        return canon_detections(result.got)

    async def layers(self, inputs: Inputs, rungs: dict, ctx: Context) -> dict:
        """Per-layer metrics this workload's ladder can attribute."""
        raise NotImplementedError


def _detector_counts(result: Pass) -> dict:
    stats = result.stats["engine_stats"]
    return {
        "detector.detections": stats.detections,
        "detector.composites": stats.composites,
        "detector.pseudo_fired": stats.pseudo_fired,
        "detector.gc_removed": stats.gc_removed,
    }


def _times(passes: Sequence[Pass]) -> float:
    return median([p.elapsed_s for p in passes])


# -- 1. fig9-direct ------------------------------------------------------------------


class Fig9Direct(Workload):
    name = "fig9-direct"
    ladder = ("engine",)

    def generate(self, seed: int, sizes: dict) -> Inputs:
        started = time.perf_counter()
        workload = build_events_axis_workload(
            sizes[self.name], n_rules=10, seed=seed
        )
        elapsed = time.perf_counter() - started
        rules = workload.rules
        per_rule = workload.expected_detections // len(rules)
        return Inputs(
            workload.observations,
            {rule.rule_id: per_rule for rule in rules},
            elapsed,
            len({o.obj for o in workload.observations}),
            lambda: Engine(rules, context="chronicle"),
            extra={"rules": rules},
        )

    async def run_rung(self, rung, inputs, batches, expected, ctx, label,
                       pass_index=0, traced=False) -> Pass:
        return engine_pass(inputs.make_engine, batches, ctx.spans, label, pass_index)

    async def layers(self, inputs, rungs, ctx) -> dict:
        detect = _times(rungs["engine"])
        metrics = {
            "detector.detect_s": detect,
            "detector.us_per_event": detect / len(inputs.observations) * 1e6,
            **_detector_counts(rungs["engine"][-1]),
        }
        # Per-node-kind time needs the engine's own instrumentation: a
        # separate pass, compared only with itself.
        registry = MetricsRegistry()
        rules = inputs.extra["rules"]
        engine_pass(
            lambda: Engine(
                rules, context="chronicle", metrics=registry, metrics_label="bench"
            ),
            inputs.batches,
            ctx.spans,
            "rung.engine.instrumented",
        )
        for sample in registry.snapshot()["rceda_node_match_seconds"]["samples"]:
            kind = sample["labels"]["kind"].replace("+", "plus")
            if sample["count"]:
                metrics[f"detector.node_s.{kind}"] = sample["sum"]
        # Fig. 9b point: many rules over a fixed stream.
        axis = build_rules_axis_workload(
            ctx.sizes["rules_axis_rules"], seed=ctx.seed
        )
        result = engine_pass(
            lambda: Engine(axis.rules, context="chronicle"),
            batches_of(axis.observations, BATCH),
            ctx.spans,
            "rung.engine.rules_axis",
        )
        if len(result.got) != axis.expected_detections:
            ctx.judge.fail(
                f"rules axis found {len(result.got)} detections, "
                f"expected {axis.expected_detections}"
            )
        metrics["detector.rules_axis_events_per_s"] = (
            len(axis.observations) / result.elapsed_s
        )
        return metrics


# -- 2. returns-direct ------------------------------------------------------------


def _generated(pack: str, seed: int, target: int) -> tuple:
    """``(source, observations, stats, distinct EPCs, seconds)`` of a pack."""
    started = time.perf_counter()
    source = get_pack(pack).episode_source(lines=4)
    workload = GeneratedWorkload(
        source,
        WorkloadConfig(
            pack=pack,
            seed=seed,
            target_observations=target,
            lines=4,
            cardinality=100_000,
            theta=0.9,
        ),
    )
    observations = list(workload)
    elapsed = time.perf_counter() - started
    return source, observations, workload.stats, workload.tags.distinct_epcs(), elapsed


def _returns_inputs(seed: int, target: int) -> Inputs:
    source, observations, stats, distinct, elapsed = _generated(
        "returns-fraud", seed, target
    )
    placements = tuple(source.placements())

    def store() -> RfidStore:
        made = RfidStore()
        for reader, location in placements:
            made.place_reader(reader, location)
        return made

    def make_engine() -> Engine:
        # Fresh Rule objects per engine: recovery rebuilds engines and
        # must never share rule state.
        return Engine(
            source.rules(),
            store=store(),
            functions=FunctionRegistry(),
            context="chronicle",
        )

    return Inputs(
        observations,
        dict(stats.expected),
        elapsed,
        distinct,
        make_engine,
        extra={"source": source, "store": store},
    )


class ReturnsDirect(Workload):
    name = "returns-direct"
    ladder = ("engine-detect-only", "engine")

    def generate(self, seed: int, sizes: dict) -> Inputs:
        return _returns_inputs(seed, sizes[self.name])

    async def run_rung(self, rung, inputs, batches, expected, ctx, label,
                       pass_index=0, traced=False) -> Pass:
        make_engine = inputs.make_engine
        if rung == "engine-detect-only":
            source, store = inputs.extra["source"], inputs.extra["store"]

            def make_engine() -> Engine:
                # Same events, no condition, no actions: what is left
                # when repro.rules/sql/store do nothing.
                bare = [
                    Rule(rule.rule_id, rule.name, rule.event)
                    for rule in source.rules()
                ]
                return Engine(
                    bare,
                    store=store(),
                    functions=FunctionRegistry(),
                    context="chronicle",
                )

        return engine_pass(make_engine, batches, ctx.spans, label, pass_index)

    def canon(self, rung, result):
        # Without its condition rf1 fires on every return, by design.
        return None if rung == "engine-detect-only" else canon_detections(result.got)

    async def layers(self, inputs, rungs, ctx) -> dict:
        detect = _times(rungs["engine-detect-only"])
        last = rungs["engine"][-1]
        pos = [o for o in inputs.observations if o.reader.startswith("ret_pos")]
        return {
            "detector.detect_s": detect,
            "detector.us_per_event": detect / len(inputs.observations) * 1e6,
            **_detector_counts(last),
            "rules.fire_s": _times(rungs["engine"]) - detect,
            "store.rows": last.stats["store_rows"],
            **measure_sql(
                pos,
                ctx.sizes["sql_ops"],
                ctx.spans,
                ctx.spans.first("rung.engine"),
            ),
        }


# -- 3. serve-durable ------------------------------------------------------------


def _client_split(spans: Spans, top: str) -> dict:
    """Client busy vs waiting time, from the traced top rung's call spans."""
    parent = spans.first(f"rung.{top}.traced")
    return {
        "client.submit_busy_s": spans.total("client.submit_many", parent),
        "client.ack_wait_s": spans.total("client.flush", parent)
        + spans.total("client.await_detections", parent),
    }


async def _open_loop_phase(
    workload: Workload, stack: Any, inputs: Inputs, ctx: Context,
    audit: Optional[SinkAudit] = None,
) -> dict:
    """Fixed-rate phase on a fresh top-rung stack: latency and generator lag."""
    rate = OPEN_LOOP_RATE[workload.name]
    await stack.start()
    try:
        result = await open_loop(stack, inputs.observations, rate, ctx.spans)
    finally:
        await stack.stop()
    stack.finish(result, len(inputs.observations))
    if audit is not None:
        result.audit = audit
    ctx.judge.judge("open_loop", result)
    result.release()
    latencies, lags = result.stats["latencies"], result.stats["lags"]
    print(
        f"  open loop at {rate} ev/s: {len(latencies)} latency samples "
        f"over {result.elapsed_s:.2f} s"
    )
    metrics = {"bench.generator_lag_p95_ms": percentile(lags, 0.95) * 1e3}
    if latencies:
        metrics.update(
            {
                "detect_latency_p50_ms": percentile(latencies, 0.50) * 1e3,
                "bench.detect_latency_p95_ms": percentile(latencies, 0.95) * 1e3,
                "bench.detect_latency_p99_ms": percentile(latencies, 0.99) * 1e3,
            }
        )
    return metrics


class ServeDurable(Workload):
    name = "serve-durable"
    ladder = ("engine", "durable", "durable+sink", "loopback", "tcp")
    CHECKPOINT_EVERY = 20_000

    def __init__(self) -> None:
        #: ``(seconds, bytes)`` of each end-of-stream ``checkpoint_now``
        self.checkpoints: list = []
        #: what the traced top rung's abort + ``recover()`` measured
        self.recovery: dict = {}

    def generate(self, seed: int, sizes: dict) -> Inputs:
        return _returns_inputs(seed, sizes[self.name])

    def _stack(self, inputs, ctx, expected, transport, audit) -> ServedStack:
        return ServedStack(
            inputs.make_engine,
            ctx.fresh_dir(),
            expected,
            transport=transport,
            checkpoint_every=self.CHECKPOINT_EVERY,
            sink=audit,
        )

    async def run_rung(self, rung, inputs, batches, expected, ctx, label,
                       pass_index=0, traced=False) -> Pass:
        spans = ctx.spans
        if rung == "engine":
            return engine_pass(inputs.make_engine, batches, spans, label, pass_index)
        audit = SinkAudit(remember=traced)
        if rung in ("durable", "durable+sink"):
            directory = ctx.fresh_dir()
            result = durable_pass(
                inputs.make_engine,
                batches,
                directory,
                spans,
                label,
                pass_index,
                checkpoint_every=self.CHECKPOINT_EVERY,
                sink=audit if rung == "durable+sink" else None,
                before_close=self._time_checkpoint if rung == "durable" else None,
            )
            if rung == "durable+sink":
                result.audit = audit
            shutil.rmtree(directory)
            return result
        stack = self._stack(inputs, ctx, expected, rung, audit)
        await stack.start()
        try:
            result = await closed_loop(stack, batches, spans, label, pass_index)
            if traced:
                await stack.abort()
                self.recovery = self._recover(stack, inputs, audit, ctx)
        finally:
            await stack.stop()
            shutil.rmtree(stack.directory)
        if expected is not None:
            stack.finish(result, len(inputs.observations))
            result.audit = audit
        return result

    def canon(self, rung, result):
        if rung in ("loopback", "tcp", "open_loop"):
            return canon_frames(result.got)
        return canon_detections(result.got)

    def _time_checkpoint(self, durable: DurableEngine) -> None:
        """``checkpoint_now`` on the full end-of-stream state, untimed rung."""
        started = time.perf_counter()
        path = durable.checkpoint_now()
        self.checkpoints.append(
            (time.perf_counter() - started, os.path.getsize(path))
        )

    def _recover(self, stack: ServedStack, inputs: Inputs, audit, ctx) -> dict:
        """``recover()`` the aborted server's directory until it takes a submit.

        Done after a closed-loop pass, whose 256-observation batches put
        the checkpoints — and so the replayed tail — at the same
        sequence numbers every run.  Everything was delivered and acked
        before the abort, so a delivery the second life runs is either a
        duplicate (its key ran in the first life: a failure) or one the
        first life never made (counted as ``durable.spurious_on_recover``,
        see README.md).  Recovery is repeatable, so its time is sampled
        a few times; the first report gives the counts.
        """
        end = inputs.observations[-1].timestamp
        second_life: list = []
        kwargs = dict(
            stack.kwargs,
            sink=lambda _detection, seq, ordinal: second_life.append((seq, ordinal)),
        )
        samples, reports = [], []
        for rep in range(ctx.sizes["setup_reps"]):
            # A reader no rule watches: accepted, logged, detects nothing.
            probe = Observation("bench_probe", "bench-probe", end + 1.0 + rep)
            with ctx.spans.span("recover", pass_index=rep):
                started = time.perf_counter()
                durable, report = DurableEngine.recover(
                    stack.factory, stack.directory, **kwargs
                )
                replayed = time.perf_counter()
                durable.submit(probe)
                accepted = time.perf_counter()
            durable.close()
            samples.append((accepted - started, replayed - started))
            reports.append(report)
        duplicates = sum(key in audit.keys for key in second_life)
        if duplicates:
            ctx.judge.fail(f"recovery delivered {duplicates} detections twice")
        return {
            "recover_s": median([total for total, _ in samples]),
            "durable.replay_s": median([replay for _, replay in samples]),
            "durable.replayed_records": reports[0].replayed_records,
            "durable.spurious_on_recover": len(second_life) - duplicates,
            "outbox.suppressed_on_recover": reports[0].suppressed_deliveries,
        }

    async def layers(self, inputs, rungs, ctx) -> dict:
        spans, n = ctx.spans, len(inputs.observations)
        engine, durable, sunk, loopback, tcp = (
            _times(rungs[rung]) for rung in self.ladder
        )
        last = rungs["tcp"][-1]
        detections = len(ctx.judge.oracle)

        wal_dir = ctx.fresh_dir()
        wal = measure_wal(
            inputs.batches, wal_dir, spans, spans.first("rung.durable"), fsync="never"
        )
        synced = measure_wal(
            inputs.batches,
            ctx.fresh_dir(),
            spans,
            spans.first("rung.durable"),
            fsync="always",
        )
        encode_obs, decode_obs = measure_obs_codec(
            inputs.batches, "binary", spans, spans.first("rung.loopback")
        )
        reference = inputs.make_engine()
        groups = [reference.submit_many(batch) for batch in inputs.batches]
        groups.append(reference.flush())
        encode_det, decode_det = measure_det_codec(
            groups, spans, spans.first("rung.loopback")
        )

        # Journal bytes per delivery, on a prefix with checkpoints (and
        # so journal compaction) off.
        journal_dir = ctx.fresh_dir()
        prefix = inputs.batches[: max(1, len(inputs.batches) // 8)]
        journal = durable_pass(
            inputs.make_engine,
            prefix,
            journal_dir,
            spans,
            "outbox.journal_prefix",
            checkpoint_every=0,
            sink=SinkAudit(),
        )
        journal_bytes = os.path.getsize(os.path.join(journal_dir, JOURNAL_NAME))

        metrics = {
            "detector.detect_s": engine,
            "detector.us_per_event": engine / n * 1e6,
            **_detector_counts(rungs["engine"][-1]),
            "wal.append_s": wal["append_s"],
            "wal.bytes_per_event": wal["bytes"] / n,
            "wal.appends": wal["appends"],
            "wal.segments": wal["segments"],
            "wal.fsync_s": synced["append_s"] - wal["append_s"],
            "durable.submit_s": durable,
            "durable.overhead_s": durable - engine - wal["append_s"],
            "durable.checkpoint_s": median([s for s, _ in self.checkpoints]),
            "durable.checkpoint_bytes": self.checkpoints[-1][1],
            "durable.checkpoints_written": last.stats["checkpoints_written"],
            "outbox.deliver_s": sunk - durable,
            "outbox.journal_bytes_per_detection": journal_bytes
            / max(1, len(journal.got)),
            "outbox.delivered": last.stats["outbox_delivered"],
            "protocol.encode_obs_s": encode_obs,
            "protocol.decode_obs_s": decode_obs,
            "protocol.encode_det_s": encode_det,
            "protocol.decode_det_s": decode_det,
            "protocol.bytes_in_per_event": last.stats["bytes_in"] / n,
            "protocol.bytes_out_per_detection": last.stats["bytes_out"]
            / max(1, detections),
            "protocol.frames_in": last.stats["frames_in"],
            "protocol.frames_out": last.stats["frames_out"],
            **_client_split(spans, "tcp"),
            "client.reconnects": last.stats["reconnects"],
            "server.loopback_delta_s": loopback - sunk,
            "server.tcp_delta_s": tcp - loopback,
            "server.acks_sent": last.stats["acks_sent"],
            "server.detections_pushed": last.stats["detections_pushed"],
            "server.detections_dropped": last.stats["detections_dropped"],
            **self.recovery,
        }
        audit = SinkAudit()
        stack = self._stack(inputs, ctx, detections, "tcp", audit)
        metrics.update(await _open_loop_phase(self, stack, inputs, ctx, audit))
        return metrics


# -- 4. cluster-w1 -----------------------------------------------------------------


class ClusterW1(Workload):
    name = "cluster-w1"
    ladder = ("tcp", "router")
    #: ``Cluster``'s own default, so the single-server rung checkpoints
    #: exactly as often as the worker does.
    CHECKPOINT_EVERY = 500

    def generate(self, seed: int, sizes: dict) -> Inputs:
        source, observations, stats, distinct, elapsed = _generated(
            "packing", seed, sizes[self.name]
        )
        program = source.program

        def make_engine() -> Engine:
            # What a shard worker builds from the shipped program.
            return Engine(
                parse_rules(program), context="chronicle", store=RfidStore()
            )

        return Inputs(
            observations,
            dict(stats.expected),
            elapsed,
            distinct,
            make_engine,
            extra={"program": program},
        )

    def canon(self, rung, result):
        return canon_frames(result.got)

    async def run_rung(self, rung, inputs, batches, expected, ctx, label,
                       pass_index=0, traced=False) -> Pass:
        directory = ctx.fresh_dir()
        if rung == "tcp":
            sink_path = os.path.join(directory, SINK_FILENAME)
            stack: Any = ServedStack(
                inputs.make_engine,
                os.path.join(directory, "state"),
                expected,
                transport="tcp",
                checkpoint_every=self.CHECKPOINT_EVERY,
                sink=file_sink(sink_path),
            )
        else:
            stack = ClusterStack(inputs.extra["program"], directory, expected)
        await stack.start()
        try:
            result = await closed_loop(stack, batches, ctx.spans, label, pass_index)
        finally:
            await stack.stop()
        if expected is not None:
            stack.finish(result, len(inputs.observations))
            if rung == "tcp":
                result.audit = audit_sink_file(sink_path)
        shutil.rmtree(directory)
        return result

    async def layers(self, inputs, rungs, ctx) -> dict:
        spans = ctx.spans
        routed = rungs["router"]
        last = routed[-1]
        encode, decode = measure_obs_codec(
            inputs.batches, "json", spans, spans.first("rung.router"), relay=True
        )
        # What a worker burns before its first observation (interpreter,
        # imports, plan) is measured on an idle cluster and taken out of
        # its share of the pass.
        idle = ClusterStack(inputs.extra["program"], ctx.fresh_dir(), 0)
        before = children_cpu_s()
        await idle.start()
        await idle.stop()
        start_up = children_cpu_s() - before
        worker_cpu = [p.stats["children_cpu_s"] - start_up for p in routed]
        metrics = {
            "router.delta_s": _times(routed) - _times(rungs["tcp"]),
            "router.epochs": last.stats["epochs"],
            "router.routed": last.stats["routed"],
            "router.multicast": last.stats["multicast"],
            "router.proc_cpu_s": median([p.cpu_s for p in routed]),
            "worker.proc_cpu_s": median(worker_cpu),
            "worker.idle_share": median(
                [1.0 - cpu / p.elapsed_s for cpu, p in zip(worker_cpu, routed)]
            ),
            "protocol.json_encode_obs_s": encode,
            "protocol.json_decode_obs_s": decode,
            **_client_split(spans, "router"),
            "client.reconnects": last.stats["reconnects"],
        }
        stack = ClusterStack(
            inputs.extra["program"], ctx.fresh_dir(), len(ctx.judge.oracle)
        )
        metrics.update(await _open_loop_phase(self, stack, inputs, ctx))
        return metrics


# -- 5. revise-disorder ------------------------------------------------------------


class ReviseDisorder(Workload):
    name = "revise-disorder"
    ladder = ("inorder", "revise")
    DISORDER_RATE = 0.2
    MAX_LATENESS = 2.0
    HORIZON = 4.0

    def generate(self, seed: int, sizes: dict) -> Inputs:
        started = time.perf_counter()
        workload = build_events_axis_workload(
            sizes[self.name], n_rules=10, seed=seed
        )
        injector = ChaosInjector(
            ChaosConfig(
                seed=seed,
                disorder_rate=self.DISORDER_RATE,
                max_lateness=self.MAX_LATENESS,
            )
        )
        arrival = list(injector.inject(workload.observations))
        elapsed = time.perf_counter() - started
        if not injector.counts["delayed"]:
            raise AssertionError("disorder injection delayed nothing")
        rules = workload.rules
        per_rule = workload.expected_detections // len(rules)
        ordered = sorted(arrival, key=canonical_key)
        return Inputs(
            arrival,
            {rule.rule_id: per_rule for rule in rules},
            elapsed,
            len({o.obj for o in arrival}),
            lambda: Engine(rules, context="chronicle"),
            extra={
                "rules": rules,
                "ordered": ordered,
                "ordered_batches": batches_of(ordered, BATCH),
                "delayed": injector.counts["delayed"],
            },
        )

    def oracle(self, inputs: Inputs) -> list:
        engine = inputs.make_engine()
        return canon_detections(list(engine.run(inputs.extra["ordered"])))

    async def run_rung(self, rung, inputs, batches, expected, ctx, label,
                       pass_index=0, traced=False) -> Pass:
        if rung == "inorder":
            # Same arrivals, sorted: what the stream costs without disorder.
            return engine_pass(
                inputs.make_engine,
                inputs.extra["ordered_batches"],
                ctx.spans,
                label,
                pass_index,
            )
        rules = inputs.extra["rules"]
        result = engine_pass(
            lambda: Engine(
                rules,
                context="chronicle",
                out_of_order=OutOfOrderPolicy.REVISE,
                revise_horizon=self.HORIZON,
            ),
            batches,
            ctx.spans,
            label,
            pass_index,
        )
        stats = result.engine.stats
        result.stats["finals"] = sum(
            1 for record in result.got if record.status == FINAL
        )
        # A std-scale stream that revised nothing measured the wrong
        # thing; the tiny one is too short to count on a revision.
        if (
            expected is not None
            and ctx.scale == "std"
            and stats.revised + stats.retracted == 0
        ):
            raise AssertionError("REVISE run revised and retracted nothing")
        return result

    def canon(self, rung, result):
        if rung == "inorder":
            return canon_detections(result.got)
        return canon_detections(
            [record for record in result.got if record.status == FINAL]
        )

    async def layers(self, inputs, rungs, ctx) -> dict:
        inorder = _times(rungs["inorder"])
        last = rungs["revise"][-1]
        stats = last.stats["engine_stats"]
        return {
            "detector.detect_s": inorder,
            "detector.us_per_event": inorder / len(inputs.observations) * 1e6,
            **_detector_counts(rungs["inorder"][-1]),
            "speculate.cost_ratio": _times(rungs["revise"]) / inorder,
            "speculate.late_arrivals": inputs.extra["delayed"],
            "speculate.revised": stats.revised,
            "speculate.retracted": stats.retracted,
            "speculate.records_per_final": last.stats["records"]
            / max(1, last.stats["finals"]),
            "speculate.dropped_too_late": stats.dropped_too_late,
        }


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (Fig9Direct, ReturnsDirect, ServeDurable, ClusterW1, ReviseDisorder)
}


# -- the two runs ------------------------------------------------------------------


@dataclass
class Outcome:
    """What one run of one workload found."""

    metrics: dict
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


class _Judge:
    """Counts every pass against the oracle before any metric is emitted."""

    def __init__(self, workload: Workload, inputs: Inputs, oracle: list,
                 outcome: Outcome) -> None:
        self.workload = workload
        self.inputs = inputs
        self.oracle = oracle
        self.outcome = outcome

    def fail(self, problem: str) -> None:
        self.outcome.failed += 1
        self.outcome.problems.append(problem)

    def judge(self, rung: str, result: Pass) -> None:
        inputs, outcome = self.inputs, self.outcome
        failed = abs(len(inputs.observations) - result.applied)
        got = self.workload.canon(rung, result)
        if got is not None:
            failed += mismatches(got, self.oracle)
        if result.audit is not None:
            failed += result.audit.failures(inputs.expected)
        failed += len(result.problems)
        outcome.attempted += len(inputs.observations) + len(self.oracle)
        outcome.failed += failed
        outcome.problems += [f"{rung}: {text}" for text in result.problems]
        if failed:
            outcome.problems.append(f"{rung}: {failed} failed operations")


async def _set_up(
    workload: Workload, ctx: Context, samples: list
) -> Inputs:
    """Generate the input and push 5% of it through a throwaway top rung."""
    started = time.perf_counter()
    with ctx.spans.span("setup"):
        inputs = workload.generate(ctx.seed, ctx.sizes)
        warm = inputs.batches[: math.ceil(len(inputs.batches) * WARM_UP_SHARE)]
        await workload.run_rung(
            workload.ladder[-1], inputs, warm, None, ctx, "warm_up"
        )
    samples.append(time.perf_counter() - started)
    return inputs


def _pin_input(workload: Workload, inputs: Inputs, ctx: Context, pins: dict,
               outcome: Outcome) -> str:
    """Fail loudly when a generator under ``src/`` changed a pinned input."""
    digest = input_digest(inputs.observations)
    pinned = pins.get(f"{workload.name}/{ctx.scale}/seed{ctx.seed}")
    if pinned is not None and pinned != digest:
        outcome.failed += 1
        outcome.problems.append(
            f"input digest {digest} differs from the pinned {pinned}: a "
            "generator changed this benchmark's input"
        )
    return digest


def _oracle(workload: Workload, inputs: Inputs, outcome: Outcome) -> list:
    oracle = workload.oracle(inputs)
    counts: dict = {}
    for rule_id, _time, _bindings in oracle:
        counts[rule_id] = counts.get(rule_id, 0) + 1
    if counts != {rule: n for rule, n in inputs.expected.items() if n}:
        outcome.failed += 1
        outcome.problems.append(
            f"oracle per-rule counts {counts} differ from the generator's "
            f"ground truth {inputs.expected}"
        )
    return oracle


async def _judged_pass(
    workload: Workload, rung: str, inputs: Inputs, oracle: list, ctx: Context,
    judge: _Judge, pass_index: int, traced: bool = False,
) -> Pass:
    label = f"rung.{rung}.traced" if traced else f"rung.{rung}"
    children = children_cpu_s()
    result = await workload.run_rung(
        rung, inputs, inputs.batches, len(oracle), ctx, label, pass_index, traced
    )
    result.stats["children_cpu_s"] = children_cpu_s() - children
    judge.judge(rung, result)
    result.release()
    return result


def _describe(workload: Workload, inputs: Inputs, oracle: list, digest: str) -> dict:
    return {
        "observations": len(inputs.observations),
        "batch": BATCH,
        "expected_detections": len(oracle),
        "distinct_epcs": inputs.distinct_epcs,
        "input_sha256": digest,
        "open_loop_rate": OPEN_LOOP_RATE.get(workload.name),
    }


async def run_end_to_end(
    workload: Workload, ctx: Context, seconds: float, pins: dict
) -> Outcome:
    """Tracing off: set-up a few times, then top-rung passes for ``seconds``."""
    outcome = Outcome({})
    top = workload.ladder[-1]
    setups: list = []
    for _ in range(ctx.sizes["setup_reps"]):
        inputs = await _set_up(workload, ctx, setups)
    digest = _pin_input(workload, inputs, ctx, pins, outcome)
    oracle = _oracle(workload, inputs, outcome)
    judge = ctx.judge = _Judge(workload, inputs, oracle, outcome)

    passes: list = []
    used = 0.0
    while True:
        result = await _judged_pass(
            workload, top, inputs, oracle, ctx, judge, len(passes)
        )
        passes.append(result)
        used += result.elapsed_s
        if len(passes) >= ctx.sizes["min_passes"] and (
            ctx.scale == "tiny" or used >= seconds
        ):
            break
    n = len(inputs.observations)
    cpu = median([p.cpu_s + p.stats["children_cpu_s"] for p in passes])
    outcome.metrics = {
        "events_per_s": n / _times(passes),
        "cpu_ms_per_kevent": cpu * 1e3 / (n / 1e3),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": median(setups),
    }
    outcome.details = {
        **_describe(workload, inputs, oracle, digest),
        "passes": len(passes),
        "pass_s": [p.elapsed_s for p in passes],
        "pass_iqr_pct": spread_pct([p.elapsed_s for p in passes]),
        "setup_samples_s": setups,
    }
    return outcome


async def run_per_layer(
    workload: Workload, ctx: Context, pins: dict
) -> Outcome:
    """Tracing on: the whole ladder on one input, then the isolated calls."""
    outcome = Outcome({})
    spans = ctx.spans
    top = workload.ladder[-1]
    inputs = await _set_up(workload, ctx, [])
    digest = _pin_input(workload, inputs, ctx, pins, outcome)
    oracle = _oracle(workload, inputs, outcome)
    judge = ctx.judge = _Judge(workload, inputs, oracle, outcome)

    # Rungs take turns, pass by pass, so machine drift hits them alike
    # and a difference between adjacent rungs is the layer, not the hour.
    rungs: dict = {rung: [] for rung in workload.ladder}
    for index in range(ctx.sizes["rung_passes"]):
        for rung in workload.ladder:
            rungs[rung].append(
                await _judged_pass(workload, rung, inputs, oracle, ctx, judge, index)
            )
    spans.calls = True
    traced = await _judged_pass(
        workload, top, inputs, oracle, ctx, judge, 0, traced=True
    )
    spans.calls = False

    metrics = await workload.layers(inputs, rungs, ctx)
    top_times = [p.elapsed_s for p in rungs[top]]
    metrics.update(
        {
            "workload.generate_s": inputs.generate_s,
            "workload.events": len(inputs.observations),
            "workload.distinct_epcs": inputs.distinct_epcs,
            "workload.expected_detections": len(oracle),
            "bench.pass_iqr_pct": spread_pct(top_times),
            "bench.trace_overhead_pct": (traced.elapsed_s / median(top_times) - 1.0)
            * 100.0,
            "failed_share": outcome.failed / outcome.attempted,
        }
    )
    outcome.metrics = metrics
    outcome.details = {
        **_describe(workload, inputs, oracle, digest),
        "ladder": {
            rung: [p.elapsed_s for p in passes] for rung, passes in rungs.items()
        },
        "traced_top_s": traced.elapsed_s,
    }
    return outcome
