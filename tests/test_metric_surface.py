"""The ``rceda_*`` metric surface, pinned family by family.

One run drives every instrumented layer into one registry — an engine
behind a reorder buffer, DROP, REVISE, a supervised engine with a failing
action and a tripped breaker, durable engines with a sink (one closed
and recovered, one holding REVISE detections until they seal), a
loopback-served engine and a one-worker router — and
reduces the registry to its deterministic shape: per family its type,
help text, label names and bucket edges, and per child (in registration
order) its label values and counter/gauge value or histogram count.
Wall-clock histograms (``*_seconds``) keep only their counts, as
``tests/test_obs.py``'s reset test does.

``metric_surface.json`` beside this file is that shape.  After a
deliberate change to the surface, regenerate it with
``PYTHONPATH=src python tests/test_metric_surface.py`` and review the
diff.  ``docs/observability.md`` must list exactly the families of
:data:`repro.obs.METRICS`, every counter and gauge with a stats twin
must read it, and the engine, durable and router layers also get direct
checks against their own accounting.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import re
import tempfile

from repro import And, Engine, Not, Observation, TSeq, TSeqPlus, Var, Within, obs
from repro.obs import METRICS, MetricsRegistry, rollup
from repro.resilience import MalformedObservation, RetryPolicy, SupervisedEngine
from repro.resilience.durability import DurableEngine
from repro.rules import Rule
from repro.serve import AsyncClient, CepServer, loopback_connector, tcp_connector
from repro.serve.cluster import Cluster
from repro.serve.drill import cluster_program
from repro.simulator import simulate_multi_packing

GOLDEN = os.path.join(os.path.dirname(__file__), "metric_surface.json")

#: The counter/gauge families nothing but the metric counts: per node
#: kind, per rule and stage, per rule, and the last-touched session.
NO_TWIN = {"emits", "failures", "breaker_states", "push_depth"}

ROUTER_BATCH = 8


def rules():
    """Packing containment (tseq/tseq+) plus a negation window (kills)."""
    return [
        Rule(
            "pack",
            "pack",
            TSeq(TSeqPlus(obs("a", Var("o1")), 0.1, 1.0), obs("b", Var("o2")), 10, 20),
        ),
        Rule(
            "lone",
            "lone",
            Within(And(obs("a", Var("x")), Not(obs("c", Var("x")))), 5),
        ),
    ]


def stream(cases=6):
    """Per case: three items read at ``a``, the case at ``b`` 12 s later."""
    observations = []
    time = 0.0
    for case in range(cases):
        for item in range(3):
            observations.append(Observation("a", f"i{case}-{item}", time))
            time += 0.5
        if case % 2:
            observations.append(Observation("c", f"i{case}-0", time))
        observations.append(Observation("b", f"c{case}", time + 12.0))
        time += 30.0
    return observations


def disordered(observations):
    """Swap every fourth adjacent pair: a bounded, repeatable disorder."""
    out = list(observations)
    for index in range(1, len(out) - 1, 4):
        out[index], out[index + 1] = out[index + 1], out[index]
    return out


def late_stream():
    """The disordered stream, then a late ``c`` that retracts a ``lone``
    detection already emitted provisionally, then one arrival too late."""
    return disordered(stream()) + [
        Observation("a", "r1", 200.0),
        Observation("a", "r2", 205.2),
        Observation("c", "r1", 204.5),
        Observation("a", "too-late", 0.0),
    ]


def revise_engine(**metrics):
    return Engine(rules(), out_of_order="revise", revise_horizon=1.0, **metrics)


async def eventually(predicate, timeout=10.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition not reached"
        await asyncio.sleep(0.01)


def drive_engines(registry):
    late = late_stream()
    reorder = Engine(
        rules(), reorder_delay=1.0, metrics=registry, metrics_label="reorder"
    )
    list(reorder.run(late))
    drop = Engine(
        rules(),
        out_of_order="drop",
        gc_every=8,
        metrics=registry,
        metrics_label="drop",
    )
    list(drop.run(late))
    list(revise_engine(metrics=registry, metrics_label="revise").run(late))


def drive_supervised(registry):
    def bomb(context):
        raise RuntimeError("side effect failed")

    supervised = SupervisedEngine(
        rules() + [Rule("bad", "bad", obs("b", Var("o")), actions=[bomb])],
        retry=RetryPolicy(attempts=2, sleep=lambda _delay: None),
        breaker_threshold=2,
        metrics=registry,
        metrics_label="supervised",
    )
    observations = stream()
    observations.insert(5, MalformedObservation("a", "x", None))
    list(supervised.run(observations))


def drive_durable(registry, directory):
    options = dict(
        checkpoint_every=10,
        fsync="batch:4",
        segment_max_bytes=512,
        sink=lambda detection, seq, ordinal: None,
        metrics=registry,
        metrics_label="durable",
    )
    durable = DurableEngine(lambda: Engine(rules()), directory, **options)
    observations = stream()
    durable.submit_many(observations[:15])
    for observation in observations[15:]:
        durable.submit(observation)
    durable.close()  # no final checkpoint: recovery replays the tail
    durable, _report = DurableEngine.recover(
        lambda: Engine(rules()), directory, **options
    )
    durable.flush()
    durable.close()
    # Confidence "final" parks provisional detections until they seal and
    # cancels the retracted one before it reaches the sink.
    options.update(metrics_label="durable-final", confidence="final")
    with DurableEngine(revise_engine, directory + "-final", **options) as durable:
        list(durable.run(late_stream()))


def drive_served(registry):
    async def scenario():
        server = CepServer(Engine(rules()), metrics=registry, metrics_label="serve")
        async with server:
            client = AsyncClient(
                loopback_connector(server), subscribe=True, batch_size=8
            )
            async with client:
                await client.submit_many(stream())
                await client.flush(timeout=10)
                await eventually(
                    lambda: server.stats.detections_pushed
                    == len(client.detections)
                    > 0
                )

    asyncio.run(scenario())


def router_workload():
    trace = simulate_multi_packing(
        lines=2, cases_per_line=3, items_per_case=3, seed=5
    )
    return cluster_program(trace.reader_pairs), list(trace.observations)


def drive_router(registry, directory):
    program, observations = router_workload()

    async def scenario():
        cluster = Cluster(
            program,
            workers=1,
            directory=directory,
            inprocess=True,
            metrics=registry,
        )
        try:
            port = await cluster.start()
            # A fixed id: the HELLO's length is in the front server's
            # byte count, and an auto id's length depends on test order.
            client = AsyncClient(
                tcp_connector("127.0.0.1", port),
                client_id="router-client",
                subscribe=True,
                batch_size=ROUTER_BATCH,
            )
            async with client:
                await client.submit_many(observations)
                await client.flush(timeout=30)
                await eventually(
                    lambda: cluster.router.stats.detections_forwarded
                    == len(client.detections)
                    > 0
                )
        finally:
            await cluster.stop()
        return cluster.router

    return observations, asyncio.run(scenario())


def drive_everything(directory):
    registry = MetricsRegistry()
    drive_engines(registry)
    drive_supervised(registry)
    drive_durable(registry, os.path.join(directory, "durable"))
    drive_served(registry)
    drive_router(registry, os.path.join(directory, "cluster"))
    return registry


def surface(registry):
    """The deterministic shape of every family in ``registry``."""
    shape = {}
    for family in registry:
        wall_clock = family.kind == "histogram" and "seconds" in family.name
        samples = []
        for child in family.children():
            if family.kind != "histogram":
                value = child.value
            elif wall_clock:
                value = {"count": child.count}
            else:
                value = {
                    "count": child.count,
                    "sum": child.sum,
                    "buckets": [count for _edge, count in child.cumulative()],
                }
            samples.append([list(child.labels_map.values()), value])
        entry = {
            "type": family.kind,
            "help": family.help,
            "labels": list(family.labelnames),
            "samples": samples,
        }
        if family.kind == "histogram":
            entry["buckets"] = list(family.buckets)
        shape[family.name] = entry
    return shape


def test_surface_matches_golden(tmp_path):
    actual = surface(drive_everything(str(tmp_path)))
    with open(GOLDEN, encoding="utf-8") as handle:
        expected = json.load(handle)
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


def test_docs_list_exactly_the_metric_table():
    path = os.path.join(os.path.dirname(__file__), "..", "docs", "observability.md")
    with open(path, encoding="utf-8") as handle:
        rows = re.findall(
            r"^\| `(rceda_\w+)` \| (\w+) \| ([\w, ]+) \|", handle.read(), re.M
        )
    documented = [
        (name, kind, tuple(labels.split(", "))) for name, kind, labels in rows
    ]
    table = [
        (row.name, row.kind, (scope, *row.labels))
        for scope, rows in METRICS.values()
        for row in rows
    ]
    assert sorted(documented) == sorted(table)


def test_counters_and_gauges_read_their_stats_twin():
    """No counter or gauge mirrors a count its component already keeps."""
    rows = [row for _scope, rows in METRICS.values() for row in rows]
    unread = {row.attr for row in rows if row.kind != "histogram" and not row.reads}
    assert unread == NO_TWIN
    assert [row.name for row in rows if row.kind == "histogram" and row.reads] == []


class TestEngineMetrics:
    def test_pseudo_queue_depth_is_the_queue_after_flush(self):
        registry = MetricsRegistry()
        engine = Engine(rules(), out_of_order="drop", metrics=registry)
        engine.submit_many(late_stream())
        assert rollup(registry, "rceda_pseudo_queue_depth") == engine.pseudo_pending > 0
        engine.flush()
        assert rollup(registry, "rceda_pseudo_queue_depth") == engine.pseudo_pending == 0

    def test_restore_reports_the_restored_counts(self):
        first = Engine(rules())
        first.submit_many(stream()[:12])
        registry = MetricsRegistry()
        restored = Engine(rules(), metrics=registry)
        restored.restore(first.checkpoint())
        assert rollup(registry, "rceda_observations_total") == 12
        for name, count in (
            ("rceda_detections_total", first.stats.detections),
            ("rceda_pseudo_fired_total", first.stats.pseudo_fired),
            ("rceda_pseudo_queue_depth", first.pseudo_pending),
        ):
            assert rollup(registry, name) == count > 0, name


class TestDurableMetrics:
    def test_counters_match_durable_accounting(self, tmp_path):
        directory = str(tmp_path / "state")
        registry = MetricsRegistry()
        deliveries = []

        def sink(detection, seq, ordinal):
            deliveries.append((seq, ordinal))

        options = dict(checkpoint_every=7, sink=sink, metrics=registry)
        observations = stream()
        durable = DurableEngine(lambda: Engine(rules()), directory, **options)
        durable.submit_many(observations[:10])
        for observation in observations[10:]:
            durable.submit(observation)
        assert deliveries
        appended = rollup(registry, "rceda_wal_appends_total")
        assert appended == durable.wal.appended == len(observations)
        assert rollup(registry, "rceda_outbox_delivered_total") == len(deliveries)
        written = rollup(registry, "rceda_checkpoints_written_total")
        assert written == durable.checkpoints_written > 0
        durable.close()

        revived, report = DurableEngine.recover(
            lambda: Engine(rules()), directory, **options
        )
        revived.close()
        assert report.replayed_records > 0
        replayed = rollup(registry, "rceda_wal_replayed_records_total")
        assert replayed == report.replayed_records


class TestRouterMetrics:
    def test_routed_equals_observations_and_no_epoch_left_open(self, tmp_path):
        registry = MetricsRegistry()
        observations, router = drive_router(registry, str(tmp_path / "cluster"))
        assert rollup(registry, "rceda_cluster_routed_total") == len(observations)
        assert rollup(registry, "rceda_cluster_epochs_open") == 0
        batches = math.ceil(len(observations) / ROUTER_BATCH)
        assert (
            rollup(registry, "rceda_cluster_epochs_total")
            == router.stats.epochs
            == batches + 1  # the flush is an epoch too
        )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        shape = surface(drive_everything(scratch))
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(shape, handle, indent=1, sort_keys=True)
        handle.write("\n")
