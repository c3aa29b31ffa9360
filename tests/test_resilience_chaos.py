"""Chaos harness: deterministic fault injection and recovery under fire."""

import pytest

from repro import Engine, Observation, OutOfOrderPolicy, Var, obs
from repro.core.expressions import TSeq
from repro.obs import MetricsRegistry
from repro.resilience import (
    ChaosConfig,
    ChaosInjector,
    MalformedObservation,
    SupervisedEngine,
    kill_and_restore_run,
)
from repro.rules import Rule


def pair_rules():
    return [
        Rule(
            "pair",
            "pair",
            TSeq(obs("a", Var("x")), obs("b", Var("x")), 0.0, 10.0),
        )
    ]


def clean_stream(n=40):
    observations = []
    for index in range(n):
        observations.append(Observation("a", f"o{index}", index * 1.0))
        observations.append(Observation("b", f"o{index}", index * 1.0 + 4.0))
    observations.sort(key=lambda observation: observation.timestamp)
    return observations


def fingerprint(item):
    if isinstance(item, MalformedObservation):
        return ("malformed", item.reader, item.obj, item.timestamp)
    return (item.reader, item.obj, item.timestamp)


class TestDeterminism:
    CONFIG = ChaosConfig(
        seed=42,
        dropout_rate=0.05,
        skew_rate=0.1,
        duplicate_rate=0.1,
        disorder_rate=0.15,
        malformed_rate=0.05,
    )

    def test_same_seed_same_schedule(self):
        stream = clean_stream()
        first = ChaosInjector(self.CONFIG)
        second = ChaosInjector(self.CONFIG)
        assert [fingerprint(i) for i in first.inject(stream)] == [
            fingerprint(i) for i in second.inject(stream)
        ]
        assert first.counts == second.counts

    def test_different_seed_different_schedule(self):
        stream = clean_stream()
        first = list(ChaosInjector(self.CONFIG).inject(stream))
        other = ChaosConfig(
            seed=43,
            dropout_rate=0.05,
            skew_rate=0.1,
            duplicate_rate=0.1,
            disorder_rate=0.15,
            malformed_rate=0.05,
        )
        second = list(ChaosInjector(other).inject(stream))
        assert [fingerprint(i) for i in first] != [fingerprint(i) for i in second]

    def test_zero_rates_pass_through_untouched(self):
        stream = clean_stream()
        injector = ChaosInjector(ChaosConfig(seed=1))
        assert list(injector.inject(stream)) == stream
        assert injector.counts["delivered"] == len(stream)
        assert sum(
            count for key, count in injector.counts.items() if key != "delivered"
        ) == 0

    def test_counts_balance(self):
        stream = clean_stream()
        injector = ChaosInjector(self.CONFIG)
        output = list(injector.inject(stream))
        counts = injector.counts
        # Every input reading is either dropped or (eventually) delivered.
        assert counts["delivered"] + counts["dropped"] == len(stream)
        # Output = delivered + injected extras.
        assert len(output) == (
            counts["delivered"] + counts["duplicated"] + counts["malformed"]
        )
        malformed = [i for i in output if isinstance(i, MalformedObservation)]
        assert len(malformed) == counts["malformed"]


class TestFaults:
    def test_dropout_silences_a_reader_window(self):
        stream = [Observation("a", f"o{i}", float(i)) for i in range(50)]
        injector = ChaosInjector(
            ChaosConfig(seed=3, dropout_rate=0.2, dropout_duration=5.0)
        )
        survivors = list(injector.inject(stream))
        assert injector.counts["dropped"] > 0
        assert len(survivors) == 50 - injector.counts["dropped"]

    def test_disorder_produces_late_arrivals(self):
        stream = clean_stream()
        injector = ChaosInjector(
            ChaosConfig(seed=5, disorder_rate=0.3, max_lateness=3.0)
        )
        output = list(injector.inject(stream))
        assert injector.counts["delayed"] > 0
        inversions = sum(
            1
            for earlier, later in zip(output, output[1:])
            if later.timestamp < earlier.timestamp
        )
        assert inversions > 0
        # Lateness is bounded: a late reading never trails the stream's
        # high-water mark by more than max_lateness (plus one gap).
        high_water = 0.0
        for item in output:
            assert item.timestamp > high_water - 3.0 - 1.0
            high_water = max(high_water, item.timestamp)

    def test_malformed_crashes_bare_engine(self):
        engine = Engine(pair_rules())
        with pytest.raises(TypeError):
            engine.submit(MalformedObservation("a", "o", None))


class TestOutOfOrderPoliciesUnderChaos:
    """DROP and the reorder buffer under chaos-injected out-of-order spikes."""

    def _spiky_stream(self):
        injector = ChaosInjector(
            ChaosConfig(seed=11, disorder_rate=0.3, max_lateness=3.0)
        )
        output = list(injector.inject(clean_stream()))
        assert injector.counts["delayed"] > 0
        return output

    def test_drop_policy_counts_late_readings(self):
        registry = MetricsRegistry()
        engine = Engine(
            pair_rules(), out_of_order=OutOfOrderPolicy.DROP, metrics=registry
        )
        list(engine.run(self._spiky_stream()))  # must not raise
        assert engine.stats.dropped_out_of_order > 0
        samples = registry.snapshot()["rceda_dropped_out_of_order_total"]["samples"]
        assert samples[0]["value"] == engine.stats.dropped_out_of_order

    def test_reorder_buffer_lateness_metrics_populated(self):
        registry = MetricsRegistry()
        engine = Engine(
            pair_rules(),
            reorder_delay=3.0,
            out_of_order=OutOfOrderPolicy.RAISE,  # buffer absorbs the spikes
            metrics=registry,
        )
        list(engine.run(self._spiky_stream()))  # must not raise
        snapshot = registry.snapshot()
        lateness = snapshot["rceda_reorder_lateness_seconds"]["samples"][0]
        assert lateness["count"] > 0  # late readings were measured
        assert lateness["sum"] > 0
        occupancy = snapshot["rceda_reorder_occupancy"]["samples"][0]
        assert occupancy["value"] == 0  # drained by flush

    def test_reorder_buffer_recovers_detections_drop_loses(self):
        stream = self._spiky_stream()
        dropping = Engine(pair_rules(), out_of_order=OutOfOrderPolicy.DROP)
        buffered = Engine(
            pair_rules(), reorder_delay=3.0, out_of_order=OutOfOrderPolicy.RAISE
        )
        dropped_detections = len(list(dropping.run(stream)))
        buffered_detections = len(list(buffered.run(stream)))
        assert buffered_detections >= dropped_detections


class TestRecoveryUnderChaos:
    def test_kill_and_restore_equals_uninterrupted_on_chaotic_stream(self):
        injector = ChaosInjector(
            ChaosConfig(
                seed=23,
                duplicate_rate=0.1,
                disorder_rate=0.2,
                max_lateness=2.0,
                skew_rate=0.1,
            )
        )
        stream = list(injector.inject(clean_stream()))

        def build():
            return Engine(
                pair_rules(),
                reorder_delay=2.5,
                out_of_order=OutOfOrderPolicy.RAISE,  # the buffer absorbs it
            )

        def canon(detections):
            return [
                (d.rule.rule_id, d.time, sorted(d.bindings.items()))
                for d in detections
            ]

        baseline = canon(list(build().run(stream)))
        assert baseline
        for kill_at in (1, len(stream) // 2, len(stream) - 1):
            detections, _revived = kill_and_restore_run(build, stream, kill_at)
            assert canon(detections) == baseline, f"diverged at kill_at={kill_at}"

    def test_supervised_kill_and_restore_under_full_chaos(self):
        injector = ChaosInjector(
            ChaosConfig(
                seed=31,
                duplicate_rate=0.1,
                disorder_rate=0.15,
                max_lateness=2.0,
                malformed_rate=0.1,
            )
        )
        stream = list(injector.inject(clean_stream()))
        assert injector.counts["malformed"] > 0

        def build():
            return SupervisedEngine(
                pair_rules(), out_of_order=OutOfOrderPolicy.DROP
            )

        baseline = build()
        expected = [
            (d.time, sorted(d.bindings.items()))
            for d in baseline.run(stream)
        ]
        detections, revived = kill_and_restore_run(build, stream, len(stream) // 2)
        assert [(d.time, sorted(d.bindings.items())) for d in detections] == expected
        # The second life quarantined its share of the malformed frames.
        total_quarantined = baseline.failures.quarantined
        assert total_quarantined == injector.counts["malformed"]
        assert revived.failures.quarantined <= total_quarantined
