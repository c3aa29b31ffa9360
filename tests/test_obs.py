"""Tests for repro.obs: metrics registry, typed tracing, API redesign."""

import json
import random
import warnings

import pytest

from repro import Engine, Observation, OutOfOrderPolicy, TSeq, TSeqPlus, Var, obs
from repro.core.sharding import ShardedEngine
from repro.obs import (
    EngineObserver,
    MetricsRegistry,
    MulticastObserver,
    RecordingObserver,
    Span,
    as_observer,
    rollup,
)
from repro.rules import Rule


def containment(rule_id, item_reader, case_reader):
    return Rule(
        rule_id,
        rule_id,
        TSeq(
            TSeqPlus(obs(item_reader, Var("o1")), 0.1, 1.0),
            obs(case_reader, Var("o2")),
            10,
            20,
        ),
    )


def packing_stream(item_reader, case_reader, cases, start=0.0):
    """One packing line: per case, 3 items then the case reading."""
    observations = []
    time = start
    for index in range(cases):
        for item in range(3):
            observations.append(
                Observation(item_reader, f"{item_reader}-i{index}-{item}", time)
            )
            time += 0.5
        observations.append(
            Observation(case_reader, f"{case_reader}-c{index}", time + 12.0)
        )
        time += 30.0
    return observations


# ---------------------------------------------------------------------------
# metrics primitives


class TestMetricsPrimitives:
    def test_counter_only_goes_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(10)
        gauge.dec(4)
        gauge.inc()
        assert gauge.value == 7

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 100.0):
            histogram.observe(value)
        sample = registry.get("h").snapshot()["samples"][0]
        assert sample["buckets"] == {"1": 2, "10": 3, "+Inf": 4}
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(106.2)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(10.0, 1.0))

    def test_labels_create_cached_children(self):
        registry = MetricsRegistry()
        family = registry.counter("by_kind", labelnames=("kind",))
        family.labels(kind="seq").inc()
        family.labels(kind="seq").inc()
        family.labels(kind="and").inc()
        samples = registry.get("by_kind").snapshot()["samples"]
        values = {sample["labels"]["kind"]: sample["value"] for sample in samples}
        assert values == {"seq": 2.0, "and": 1.0}

    def test_wrong_labelnames_rejected(self):
        family = MetricsRegistry().counter("c", labelnames=("kind",))
        with pytest.raises(ValueError):
            family.labels(node="seq")
        with pytest.raises(ValueError):
            family.inc()  # labeled family has no solo child

    def test_registration_is_idempotent_but_type_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total")
        assert registry.counter("x_total") is first
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        with pytest.raises(ValueError):
            registry.counter("x_total", labelnames=("other",))

    def test_reset_zeroes_but_keeps_registrations(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        histogram = registry.histogram("h", buckets=(1.0,))
        counter.inc(5)
        histogram.observe(0.5)
        registry.reset()
        assert counter.value == 0
        assert registry.get("h").snapshot()["samples"][0]["count"] == 0
        assert registry.names() == ["c_total", "h"]

    def test_rollup_sums_counters_and_merges_histograms(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", labelnames=("engine",))
        family.labels(engine="a").inc(2)
        family.labels(engine="b").inc(3)
        assert rollup(registry, "c_total") == 5
        hist = registry.histogram("h", labelnames=("engine",), buckets=(1.0,))
        hist.labels(engine="a").observe(0.5)
        hist.labels(engine="b").observe(2.0)
        merged = rollup(registry, "h")
        assert merged["count"] == 2
        assert merged["buckets"] == {"1": 1, "+Inf": 2}
        assert rollup(registry, "missing") is None


class TestExposition:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("demo_total", "A demo counter.").inc(3)
        registry.gauge("demo_depth", "A demo gauge.", labelnames=("engine",)).labels(
            engine="main"
        ).set(2)
        histogram = registry.histogram(
            "demo_seconds", "A demo histogram.", buckets=(0.01, 0.1)
        )
        histogram.observe(0.005)
        histogram.observe(0.05)
        histogram.observe(5.0)
        return registry

    def test_prometheus_golden(self):
        expected = (
            "# HELP demo_depth A demo gauge.\n"
            "# TYPE demo_depth gauge\n"
            'demo_depth{engine="main"} 2\n'
            "# HELP demo_seconds A demo histogram.\n"
            "# TYPE demo_seconds histogram\n"
            'demo_seconds_bucket{le="0.01"} 1\n'
            'demo_seconds_bucket{le="0.1"} 2\n'
            'demo_seconds_bucket{le="+Inf"} 3\n'
            "demo_seconds_sum 5.055\n"
            "demo_seconds_count 3\n"
            "# HELP demo_total A demo counter.\n"
            "# TYPE demo_total counter\n"
            "demo_total 3\n"
        )
        assert self.build().render_prometheus() == expected

    def test_snapshot_golden_and_json_serialisable(self):
        snapshot = self.build().snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["demo_total"] == {
            "type": "counter",
            "help": "A demo counter.",
            "samples": [{"labels": {}, "value": 3.0}],
        }
        assert snapshot["demo_seconds"]["samples"][0]["buckets"] == {
            "0.01": 1,
            "0.1": 2,
            "+Inf": 3,
        }

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", labelnames=("path",)).labels(path='a"\\\n').inc()
        rendered = registry.render_prometheus()
        assert 'path="a\\"\\\\\\n"' in rendered

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""
        assert MetricsRegistry().snapshot() == {}


class TestSpan:
    def test_span_feeds_histogram(self):
        registry = MetricsRegistry()
        latency = registry.histogram("step_seconds")
        with Span(latency):
            pass
        sample = registry.get("step_seconds").snapshot()["samples"][0]
        assert sample["count"] == 1
        assert sample["sum"] >= 0

    def test_span_records_elapsed_without_sink(self):
        ticks = iter([1.0, 3.5])
        span = Span(clock=lambda: next(ticks))
        with span:
            pass
        assert span.elapsed == 2.5


# ---------------------------------------------------------------------------
# observer API redesign


class TestObserverProtocol:
    def test_typed_events_cover_engine_lifecycle(self):
        from repro.core.expressions import And, Not, Within

        recorder = RecordingObserver()
        engine = Engine(observer=recorder, gc_every=1)
        engine.watch(Within(And(obs("A"), Not(obs("B"))), 10))
        engine.submit(Observation("B", "x", 0.0))
        engine.submit(Observation("A", "y", 5.0))   # killed by lookback
        engine.submit(Observation("A", "y", 50.0))  # pending, confirmed
        engine.flush()
        kinds = set(recorder.kinds())
        assert {"observation", "emit", "kill", "pseudo", "detection"} <= kinds
        (detection,) = recorder.of_kind("detection")[-1]
        assert detection.time == 50.0 + 10

    def test_partial_observer_subclass(self):
        class EmitOnly(EngineObserver):
            def __init__(self):
                self.emitted = []

            def on_emit(self, node, instance):
                self.emitted.append(node.kind)

        observer = EmitOnly()
        engine = Engine(observer=observer)
        engine.watch(obs("r"))
        engine.submit(Observation("r", "a", 1.0))
        assert observer.emitted == ["obs"]

    def test_multicast_fans_out_in_order(self):
        first, second = RecordingObserver(), RecordingObserver()
        engine = Engine(observer=MulticastObserver(first, second))
        engine.watch(obs("r"))
        engine.submit(Observation("r", "a", 1.0))
        assert first.kinds() == second.kinds() != []


class TestLegacyTraceShim:
    """The ``trace=`` callable shim is gone; what ``as_observer`` still does."""

    def test_as_observer_passthrough_and_rejection(self):
        recorder = RecordingObserver()
        assert as_observer(recorder) is recorder
        assert as_observer(None) is None
        with pytest.raises(TypeError):
            as_observer(42)
        with pytest.raises(TypeError):  # a bare (kind, payload) callable
            Engine(observer=lambda kind, payload: None)
        with pytest.raises(TypeError):
            Engine(trace=lambda kind, payload: None)

    def test_engine_observer_instances_never_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Engine(observer=RecordingObserver())


# ---------------------------------------------------------------------------
# OutOfOrderPolicy


class TestOutOfOrderPolicy:
    def test_enum_accepted(self):
        engine = Engine(out_of_order=OutOfOrderPolicy.DROP)
        engine.watch(obs("r"))
        engine.submit(Observation("r", "a", 10))
        assert engine.submit(Observation("r", "a", 5)) == []
        assert engine.stats.dropped_out_of_order == 1

    def test_legacy_strings_still_accepted(self):
        for spelling in ("raise", "drop"):
            assert Engine(out_of_order=spelling)._out_of_order is OutOfOrderPolicy(
                spelling
            )

    def test_enum_compares_equal_to_string(self):
        assert OutOfOrderPolicy.RAISE == "raise"
        assert OutOfOrderPolicy("drop") is OutOfOrderPolicy.DROP

    def test_bad_policy_rejected_with_options_listed(self):
        with pytest.raises(ValueError, match="raise"):
            Engine(out_of_order="shuffle")

    def test_exported_from_package_root(self):
        import repro

        assert repro.OutOfOrderPolicy is OutOfOrderPolicy
        assert "OutOfOrderPolicy" in repro.__all__

    def test_drop_policy_counts_into_metrics(self):
        registry = MetricsRegistry()
        engine = Engine(out_of_order=OutOfOrderPolicy.DROP, metrics=registry)
        engine.watch(obs("r"))
        engine.submit(Observation("r", "a", 10))
        engine.submit(Observation("r", "a", 5))
        assert rollup(registry, "rceda_dropped_out_of_order_total") == 1


# ---------------------------------------------------------------------------
# submit_many


class TestSubmitMany:
    def stream(self):
        return packing_stream("a", "b", cases=4)

    def test_matches_per_observation_loop(self):
        loop_engine = Engine([containment("r", "a", "b")])
        batch_engine = Engine([containment("r", "a", "b")])
        loop_detections = []
        for observation in self.stream():
            loop_detections.extend(loop_engine.submit(observation))
        loop_detections.extend(loop_engine.flush())
        batch_detections = batch_engine.submit_many(self.stream())
        batch_detections.extend(batch_engine.flush())
        assert [d.time for d in batch_detections] == [
            d.time for d in loop_detections
        ]
        assert len(batch_detections) == 4

    def test_respects_reorder_buffer(self):
        engine = Engine(reorder_delay=5.0)
        engine.watch(obs("r"))
        shuffled = [
            Observation("r", "a", 10.0),
            Observation("r", "b", 8.0),
            Observation("r", "c", 20.0),
        ]
        detections = engine.submit_many(shuffled)
        detections.extend(engine.flush())
        assert [d.time for d in detections] == [8.0, 10.0, 20.0]

    def test_sharded_engine_has_it_too(self):
        rules = [containment("r1", "a", "b"), containment("r2", "c", "d")]
        stream = sorted(
            packing_stream("a", "b", 3) + packing_stream("c", "d", 3, start=7.0),
            key=lambda observation: observation.timestamp,
        )
        sharded = ShardedEngine(rules, max_shards=2)
        single = Engine(rules)
        sharded_detections = sharded.submit_many(stream) + sharded.flush()
        single_detections = single.submit_many(stream) + single.flush()
        assert len(sharded_detections) == len(single_detections) == 6


# ---------------------------------------------------------------------------
# reset audit


class TestResetClearsObservability:
    def test_reset_clears_reorder_buffer_and_metrics_then_reuses(self):
        registry = MetricsRegistry()
        engine = Engine(
            [containment("r", "a", "b")], reorder_delay=5.0, metrics=registry
        )
        stream = packing_stream("a", "b", cases=3)

        first = engine.submit_many(stream) + engine.flush()
        first_snapshot = registry.snapshot()
        assert rollup(registry, "rceda_observations_total") == len(stream)

        engine.reset()
        # Metrics slice zeroed, reorder buffer empty: nothing carried over.
        assert rollup(registry, "rceda_observations_total") == 0
        assert rollup(registry, "rceda_detections_total") == 0
        assert rollup(registry, "rceda_reorder_occupancy") == 0
        assert engine.flush() == []

        second = engine.submit_many(stream) + engine.flush()
        assert [d.time for d in second] == [d.time for d in first]

        def deterministic(snapshot):
            """Drop wall-clock histogram content; keep counts and counters."""
            out = {}
            for name, family in snapshot.items():
                samples = []
                for sample in family["samples"]:
                    sample = dict(sample)
                    if "seconds" in name:
                        sample.pop("sum", None)
                        sample.pop("buckets", None)
                    samples.append(sample)
                out[name] = samples
            return out

        assert deterministic(registry.snapshot()) == deterministic(first_snapshot)

    def test_reset_keeps_reorder_instrumentation_attached(self):
        registry = MetricsRegistry()
        engine = Engine(reorder_delay=5.0, metrics=registry)
        engine.watch(obs("r"))
        engine.submit(Observation("r", "a", 10.0))
        engine.reset()
        assert rollup(registry, "rceda_reorder_lateness_seconds")["count"] == 0
        engine.submit(Observation("r", "a", 1.0))
        engine.submit(Observation("r", "b", 20.0))
        merged = rollup(registry, "rceda_reorder_lateness_seconds")
        assert merged["count"] == 2


# ---------------------------------------------------------------------------
# instrumented engine + sharded rollup equivalence


class TestEngineInstrumentation:
    def test_instrumented_run_reports_hot_path_metrics(self):
        registry = MetricsRegistry()
        # The second rule never completes: its "a" initiators expire and
        # must be reclaimed by GC.
        stale = Rule(
            "stale",
            "stale",
            TSeq(obs("a", Var("x")), obs("never", Var("x")), 0, 5),
        )
        engine = Engine(
            [containment("r", "a", "b"), stale], metrics=registry, gc_every=4
        )
        detections = engine.submit_many(packing_stream("a", "b", cases=6))
        detections += engine.flush()
        assert len(detections) == 6

        snapshot = registry.snapshot()
        stats = engine.stats
        assert rollup(registry, "rceda_observations_total") == stats.observations
        assert rollup(registry, "rceda_detections_total") == stats.detections
        assert (
            rollup(registry, "rceda_pseudo_scheduled_total")
            == stats.pseudo_scheduled
        )
        assert rollup(registry, "rceda_pseudo_fired_total") == stats.pseudo_fired
        assert rollup(registry, "rceda_gc_reclaimed_total") == stats.gc_removed
        assert stats.gc_removed > 0

        latency = snapshot["rceda_observation_latency_seconds"]["samples"][0]
        assert latency["count"] == stats.observations

        match_samples = snapshot["rceda_node_match_seconds"]["samples"]
        counts_by_kind = {
            sample["labels"]["kind"]: sample["count"]
            for sample in match_samples
            if sample["count"]
        }
        # Primitive matching plus the tseq/tseq+ composite propagation.
        assert "obs" in counts_by_kind
        assert "tseq" in counts_by_kind and "tseq+" in counts_by_kind

        emits = {
            sample["labels"]["kind"]: sample["value"]
            for sample in snapshot["rceda_emits_total"]["samples"]
            if sample["value"]
        }
        assert emits["tseq"] == 6

        assert "rceda_pseudo_queue_depth" in snapshot

    def test_no_metrics_attached_means_no_obs_state(self):
        engine = Engine()
        assert engine.metrics is None
        assert engine._instr is None


class TestShardedRollupEquivalence:
    def random_stream(self, pairs, seed, n=120):
        rng = random.Random(seed)
        observations = []
        time = 0.0
        for _ in range(n):
            time += rng.uniform(0.2, 2.0)
            item_reader, case_reader = rng.choice(pairs)
            if rng.random() < 0.7:
                observations.append(
                    Observation(item_reader, f"i{rng.randrange(40)}", time)
                )
            else:
                observations.append(
                    Observation(case_reader, f"c{rng.randrange(20)}", time)
                )
        return observations

    @pytest.mark.parametrize("seed", [3, 17])
    def test_rollup_matches_single_engine(self, seed):
        pairs = [("a1", "b1"), ("a2", "b2"), ("a3", "b3")]
        rules = [
            containment(f"r{index}", item, case)
            for index, (item, case) in enumerate(pairs)
        ]
        stream = self.random_stream(pairs, seed)

        single_registry = MetricsRegistry()
        single = Engine(rules, metrics=single_registry)
        single_detections = single.submit_many(stream) + single.flush()

        sharded_registry = MetricsRegistry()
        sharded = ShardedEngine(rules, max_shards=3, metrics=sharded_registry)
        sharded_detections = sharded.submit_many(stream) + sharded.flush()

        assert len(sharded_detections) == len(single_detections)
        # Each shard reports under its own engine label in ONE registry;
        # the cross-shard rollup equals the single-engine totals.
        for name in (
            "rceda_detections_total",
            "rceda_pseudo_scheduled_total",
            "rceda_pseudo_fired_total",
            "rceda_kills_total",
        ):
            assert rollup(sharded_registry, name) == rollup(
                single_registry, name
            ), name
        shard_labels = {
            sample["labels"]["engine"]
            for sample in sharded_registry.snapshot()[
                "rceda_observations_total"
            ]["samples"]
        }
        assert len(shard_labels) == len(sharded.shards)
