"""Supervision: quarantine, circuit breakers, retry, dead letters."""

import pytest

from repro import Engine, Observation, Var, obs
from repro.core.expressions import TSeq
from repro.obs import MetricsRegistry
from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    DeadLetterQueue,
    MalformedObservation,
    RetryPolicy,
    SupervisedEngine,
)
from repro.rules import Rule


def pair_rule(actions=()):
    return Rule(
        "pair",
        "pair",
        TSeq(obs("a", Var("x")), obs("b", Var("x")), 0.0, 10.0),
        actions=list(actions),
    )


def pair_stream():
    observations = [Observation("a", f"o{i}", float(i)) for i in range(5)]
    observations += [Observation("b", f"o{i}", float(i) + 3.0) for i in range(5)]
    observations.sort(key=lambda observation: observation.timestamp)
    return observations


def poisoned(stream, every=3):
    """Interleave a malformed frame before every ``every``-th reading."""
    out = []
    for index, observation in enumerate(stream):
        if index % every == 0:
            out.append(
                MalformedObservation(observation.reader, observation.obj, None)
            )
        out.append(observation)
    return out


class TestPoisonAcceptance:
    """The issue's acceptance test: malformed input + raising action."""

    def test_zero_crashes_full_delivery_full_accounting(self):
        def bomb(context):
            raise RuntimeError("side effect exploded")

        stream = pair_stream()
        baseline = list(Engine([pair_rule()]).run(stream))
        assert baseline

        registry = MetricsRegistry()
        supervised = SupervisedEngine(
            [pair_rule(actions=[bomb])],
            retry=RetryPolicy(attempts=2, sleep=lambda _delay: None),
            metrics=registry,
        )
        dirty = poisoned(stream, every=3)
        detections = list(supervised.run(dirty))  # must not raise

        # Every healthy detection delivered, none invented.
        assert [
            (d.rule.rule_id, d.time, sorted(d.bindings.items())) for d in detections
        ] == [
            (d.rule.rule_id, d.time, sorted(d.bindings.items())) for d in baseline
        ]

        malformed_count = sum(
            1 for item in dirty if isinstance(item, MalformedObservation)
        )
        # Every malformed frame quarantined, with context.
        assert supervised.failures.quarantined == malformed_count
        assert len(supervised.quarantine) == malformed_count
        for entry in supervised.quarantine:
            assert entry.kind == "observation"
            assert entry.error_type == "TypeError"
            assert isinstance(entry.observation, MalformedObservation)
            assert entry.traceback

        # Every activation's action failure dead-lettered after retries.
        assert supervised.failures.action_dead_letters == len(baseline)
        for entry in supervised.action_dead_letters:
            assert entry.kind == "action"
            assert entry.rule_id == "pair"
            assert entry.attempts == 2
            assert entry.error == "side effect exploded"
            assert "x" in entry.bindings

        # And the metrics agree.
        snapshot = registry.snapshot()
        assert (
            snapshot["rceda_quarantined_total"]["samples"][0]["value"]
            == malformed_count
        )
        assert snapshot["rceda_action_dead_letters_total"]["samples"][0][
            "value"
        ] == len(baseline)
        failure_samples = snapshot["rceda_rule_failures_total"]["samples"]
        assert any(
            sample["labels"] == {"engine": "main", "rule": "pair", "stage": "action"}
            and sample["value"] == len(baseline)
            for sample in failure_samples
        )

    def test_submit_many_survives_mid_batch_poison(self):
        supervised = SupervisedEngine([pair_rule()])
        stream = pair_stream()
        dirty = stream[:4] + [MalformedObservation("a", "oX", None)] + stream[4:]
        detections = supervised.submit_many(dirty)
        detections += supervised.flush()
        baseline = list(Engine([pair_rule()]).run(stream))
        assert len(detections) == len(baseline)
        assert supervised.failures.quarantined == 1

    def test_submit_many_counts_what_the_engine_dropped(self):
        supervised = SupervisedEngine([pair_rule()], out_of_order="drop")
        stream = pair_stream()
        late = Observation("a", "oX", stream[0].timestamp - 1.0)
        result = supervised.submit_many(stream[:4] + [late] + stream[4:])
        assert (result.accepted, result.dropped, result.quarantined) == (
            len(stream), 1, 0,
        )

    def test_condition_failure_skips_only_that_activation(self):
        def grumpy(context):
            if context.bindings["x"] == "o2":
                raise ValueError("bad binding")
            return True

        supervised = SupervisedEngine(
            [
                Rule(
                    "pair",
                    "pair",
                    TSeq(obs("a", Var("x")), obs("b", Var("x")), 0.0, 10.0),
                    condition=grumpy,
                )
            ]
        )
        detections = list(supervised.run(pair_stream()))
        assert {d.bindings["x"] for d in detections} == {"o0", "o1", "o3", "o4"}
        assert supervised.failures.condition_failures == 1


class TestCircuitBreaker:
    def test_trips_after_threshold_and_isolates_one_rule(self):
        def bomb(context):
            raise RuntimeError("kaput")

        registry = MetricsRegistry()
        supervised = SupervisedEngine(
            [
                Rule("bad", "bad", obs("b"), actions=[bomb]),
                Rule("good", "good", obs("a")),
            ],
            retry=RetryPolicy(attempts=1),
            breaker_threshold=2,
            metrics=registry,
        )
        for index in range(6):
            supervised.submit(Observation("b", f"y{index}", float(index)))
            supervised.submit(Observation("a", f"x{index}", float(index)))
        supervised.flush()

        assert supervised.breaker("bad").state is BreakerState.OPEN
        assert supervised.breaker("good").state is BreakerState.CLOSED
        assert supervised.failures.breaker_opens == 1
        # After 2 failures the breaker opened; the other 4 were skipped.
        assert supervised.failures.breaker_skips == 4
        assert supervised.failures.action_dead_letters == 2
        # The healthy rule fired every time, unaffected.
        assert supervised.stats.per_rule["good"] == 6

        gauges = registry.snapshot()["rceda_breaker_state"]["samples"]
        by_rule = {sample["labels"]["rule"]: sample["value"] for sample in gauges}
        assert by_rule == {"bad": 1.0, "good": 0.0}

    def test_half_open_trial_closes_on_success(self):
        fail = {"on": True}

        def flaky(context):
            if fail["on"]:
                raise RuntimeError("down")

        supervised = SupervisedEngine(
            [Rule("r", "r", obs("a"), actions=[flaky])],
            retry=RetryPolicy(attempts=1),
            breaker_threshold=1,
            breaker_cooldown=10.0,
        )
        supervised.submit(Observation("a", "x", 0.0))
        assert supervised.breaker("r").state is BreakerState.OPEN
        # Before the cooldown elapses (logical time): skipped.
        supervised.submit(Observation("a", "y", 5.0))
        assert supervised.failures.breaker_skips == 1
        # After the cooldown: trial activation, which now succeeds.
        fail["on"] = False
        supervised.submit(Observation("a", "z", 11.0))
        assert supervised.breaker("r").state is BreakerState.CLOSED
        assert supervised.stats.per_rule["r"] == 2  # y was skipped

    def test_half_open_trial_failure_reopens(self):
        def bomb(context):
            raise RuntimeError("still down")

        supervised = SupervisedEngine(
            [Rule("r", "r", obs("a"), actions=[bomb])],
            retry=RetryPolicy(attempts=1),
            breaker_threshold=1,
            breaker_cooldown=10.0,
        )
        supervised.submit(Observation("a", "x", 0.0))
        supervised.submit(Observation("a", "y", 11.0))  # trial fails
        breaker = supervised.breaker("r")
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2
        assert breaker.opened_at == 11.0  # cooldown restarted

    def test_manual_reset(self):
        def bomb(context):
            raise RuntimeError("kaput")

        supervised = SupervisedEngine(
            [Rule("r", "r", obs("a"), actions=[bomb])],
            retry=RetryPolicy(attempts=1),
            breaker_threshold=1,
        )
        supervised.submit(Observation("a", "x", 0.0))
        assert supervised.breaker("r").state is BreakerState.OPEN
        supervised.reset_breaker("r")
        assert supervised.breaker("r").state is BreakerState.CLOSED

    def test_breaker_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)


class TestRetry:
    def test_backoff_schedule_and_eventual_success(self):
        attempts = {"n": 0}
        delays = []

        def flaky(context):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise RuntimeError("transient")

        supervised = SupervisedEngine(
            [Rule("r", "r", obs("a"), actions=[flaky])],
            retry=RetryPolicy(
                attempts=4, base_delay=0.1, multiplier=2.0, sleep=delays.append
            ),
        )
        detections = supervised.submit(Observation("a", "x", 0.0))
        assert len(detections) == 1  # the detection is delivered regardless
        assert attempts["n"] == 3
        assert delays == [0.1, 0.2]
        assert supervised.failures.action_retries == 2
        assert supervised.failures.action_dead_letters == 0
        assert supervised.breaker("r").state is BreakerState.CLOSED

    def test_exhausted_retries_dead_letter(self):
        delays = []

        def bomb(context):
            raise RuntimeError("permanent")

        supervised = SupervisedEngine(
            [Rule("r", "r", obs("a"), actions=[bomb])],
            retry=RetryPolicy(attempts=3, base_delay=1.0, sleep=delays.append),
        )
        supervised.submit(Observation("a", "x", 0.0))
        assert delays == [1.0, 2.0]
        entries = supervised.action_dead_letters.entries()
        assert len(entries) == 1
        assert entries[0].attempts == 3

    def test_delay_capped_at_max(self):
        policy = RetryPolicy(attempts=10, base_delay=1.0, multiplier=10.0, max_delay=5.0)
        assert policy.delay(1) == 1.0
        assert policy.delay(2) == 5.0
        assert policy.delay(9) == 5.0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)


class TestDeadLetterQueue:
    def test_bounded_with_exact_accounting(self):
        from repro.resilience.supervise import DeadLetterEntry

        queue = DeadLetterQueue(capacity=2)

        def entry(tag):
            return DeadLetterEntry(
                kind="observation",
                observation=tag,
                rule_id=None,
                bindings={},
                error_type="E",
                error="",
                traceback="",
                time=0.0,
            )

        for tag in ("a", "b", "c"):
            queue.push(entry(tag))
        assert len(queue) == 2
        assert [item.observation for item in queue] == ["b", "c"]
        assert queue.total == 3
        assert queue.dropped == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadLetterQueue(capacity=0)


class TestPassthrough:
    def test_checkpoint_restore_round_trip(self):
        stream = pair_stream()
        first = SupervisedEngine([pair_rule()])
        collected = []
        for observation in stream[:4]:
            collected.extend(first.submit(observation))
        snapshot = first.checkpoint()

        revived = SupervisedEngine([pair_rule()])
        revived.restore(snapshot)
        for observation in stream[4:]:
            collected.extend(revived.submit(observation))
        collected.extend(revived.flush())

        baseline = list(Engine([pair_rule()]).run(stream))
        assert [(d.time, sorted(d.bindings.items())) for d in collected] == [
            (d.time, sorted(d.bindings.items())) for d in baseline
        ]

    def test_report_shape(self):
        supervised = SupervisedEngine([pair_rule()])
        list(supervised.run(pair_stream()))
        report = supervised.report()
        assert report["quarantined"] == 0
        assert report["detections"] == supervised.stats.detections
        assert report["breakers"] == {"pair": "closed"}
        assert report["ooo_dropped"] == 0

    def test_add_rule_is_guarded(self):
        def bomb(context):
            raise RuntimeError("kaput")

        supervised = SupervisedEngine(retry=RetryPolicy(attempts=1))
        supervised.add_rule(Rule("r", "r", obs("a"), actions=[bomb]))
        supervised.submit(Observation("a", "x", 0.0))  # must not raise
        assert supervised.failures.action_failures == 1
