"""Engine basics: primitive matching, OR/AND/SEQ, clocking, stats, policies."""

import pytest

from repro import (
    Engine,
    FunctionRegistry,
    Observation,
    OutOfOrderPolicy,
    TimeOrderError,
    Var,
    Within,
    obs,
)
from repro.core.expressions import And, Or, Seq


def run(engine, stream):
    return list(engine.run(stream))


class TestPrimitiveMatching:
    def test_reader_literal(self):
        engine = Engine()
        engine.watch(obs("r1"))
        detections = run(engine, [Observation("r1", "a", 0), Observation("r2", "a", 1)])
        assert len(detections) == 1

    def test_reader_variable_binds(self):
        engine = Engine()
        engine.watch(obs(Var("r"), Var("o")))
        detections = run(engine, [Observation("rX", "tag", 0)])
        assert detections[0].bindings == {"r": "rX", "o": "tag"}

    def test_object_literal(self):
        engine = Engine()
        engine.watch(obs(None, "special"))
        detections = run(
            engine, [Observation("r", "special", 0), Observation("r", "other", 1)]
        )
        assert len(detections) == 1

    def test_same_variable_in_both_positions(self):
        # observation(x, x, t): reader id equals object id.
        engine = Engine()
        engine.watch(obs(Var("x"), Var("x")))
        detections = run(
            engine, [Observation("self", "self", 0), Observation("r", "o", 1)]
        )
        assert len(detections) == 1
        assert detections[0].bindings == {"x": "self"}

    def test_group_function(self):
        functions = FunctionRegistry(group=lambda reader: "dock" if reader.startswith("d") else reader)
        engine = Engine(functions=functions)
        engine.watch(obs(Var("r"), group="dock"))
        detections = run(
            engine, [Observation("d1", "a", 0), Observation("d2", "a", 1),
                     Observation("x", "a", 2)]
        )
        assert len(detections) == 2

    def test_default_group_is_reader_itself(self):
        engine = Engine()
        engine.watch(obs(None, None, group="r9"))
        detections = run(engine, [Observation("r9", "a", 0), Observation("r8", "a", 1)])
        assert len(detections) == 1

    def test_type_function(self):
        functions = FunctionRegistry(obj_type=lambda o: "case" if o.startswith("c") else "item")
        engine = Engine(functions=functions)
        engine.watch(obs(None, Var("o"), obj_type="case"))
        detections = run(engine, [Observation("r", "c1", 0), Observation("r", "i1", 1)])
        assert len(detections) == 1

    def test_default_type_matches_nothing(self):
        engine = Engine()
        engine.watch(obs(None, None, obj_type="case"))
        assert run(engine, [Observation("r", "c1", 0)]) == []

    def test_where_predicate(self):
        engine = Engine()
        engine.watch(obs(None, None, where=lambda o: o.timestamp > 5))
        detections = run(engine, [Observation("r", "a", 1), Observation("r", "a", 9)])
        assert len(detections) == 1

    def test_timestamp_variable(self):
        engine = Engine()
        engine.watch(obs("r1", Var("o"), t=Var("t")))
        detections = run(engine, [Observation("r1", "a", 4.25)])
        assert detections[0].bindings["t"] == 4.25


class TestBasicComposites:
    def test_or_fires_for_either(self):
        engine = Engine()
        engine.watch(Or(obs("a"), obs("b")))
        detections = run(engine, [Observation("a", "x", 0), Observation("b", "x", 1)])
        assert len(detections) == 2

    def test_and_needs_both(self):
        engine = Engine()
        engine.watch(And(obs("a"), obs("b")))
        assert run(engine, [Observation("a", "x", 0)]) == []
        engine2 = Engine()
        engine2.watch(And(obs("a"), obs("b")))
        detections = run(
            engine2, [Observation("a", "x", 0), Observation("b", "y", 3)]
        )
        assert len(detections) == 1
        assert detections[0].instance.t_begin == 0
        assert detections[0].instance.t_end == 3

    def test_and_order_irrelevant(self):
        engine = Engine()
        engine.watch(And(obs("a"), obs("b")))
        detections = run(engine, [Observation("b", "x", 0), Observation("a", "x", 1)])
        assert len(detections) == 1

    def test_and_with_bindings_requires_unification(self):
        engine = Engine()
        engine.watch(And(obs("a", Var("o")), obs("b", Var("o"))))
        detections = run(
            engine,
            [
                Observation("a", "t1", 0),
                Observation("b", "t2", 1),  # different object: no match
                Observation("b", "t1", 2),  # same object: match
            ],
        )
        assert len(detections) == 1
        assert detections[0].bindings == {"o": "t1"}

    def test_ternary_and(self):
        engine = Engine()
        engine.watch(And(obs("a"), obs("b"), obs("c")))
        detections = run(
            engine,
            [Observation("a", "x", 0), Observation("c", "x", 1), Observation("b", "x", 2)],
        )
        assert len(detections) == 1

    def test_seq_requires_order(self):
        engine = Engine()
        engine.watch(Seq(obs("a"), obs("b")))
        assert run(engine, [Observation("b", "x", 0), Observation("a", "x", 1)]) == []

    def test_seq_strictly_before(self):
        engine = Engine()
        engine.watch(Seq(obs("a"), obs("b")))
        # Simultaneous events do not satisfy "E1 ends before E2 starts".
        assert run(engine, [Observation("a", "x", 5), Observation("b", "x", 5)]) == []

    def test_within_drops_wide_matches(self):
        engine = Engine()
        engine.watch(Within(And(obs("a"), obs("b")), 10))
        detections = run(
            engine, [Observation("a", "x", 0), Observation("b", "x", 50),
                     Observation("a", "x", 55)]
        )
        # a@0 cannot pair with b@50 (span 50 > 10); b@50 remains buffered
        # and pairs with a@55 (span 5).
        assert len(detections) == 1
        assert detections[0].instance.t_begin == 50


class TestClockAndOrdering:
    def test_out_of_order_raises_by_default(self):
        engine = Engine()
        engine.watch(obs("r"))
        engine.submit(Observation("r", "a", 10))
        with pytest.raises(TimeOrderError):
            engine.submit(Observation("r", "a", 5))

    def test_out_of_order_drop(self):
        engine = Engine(out_of_order="drop")
        engine.watch(obs("r"))
        engine.submit(Observation("r", "a", 10))
        assert engine.submit(Observation("r", "a", 5)) == []
        assert engine.stats.dropped_out_of_order == 1

    def test_accept_policy_is_gone(self):
        # Processing stale observations broke pseudo-event correctness;
        # the spelling is now rejected, naming the three policies left.
        with pytest.raises(ValueError, match="'raise', 'drop', 'revise'"):
            Engine(out_of_order="accept")
        assert not hasattr(OutOfOrderPolicy, "ACCEPT")

    def test_non_accept_policies_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Engine(out_of_order="drop")
            Engine(out_of_order="raise")
            Engine(out_of_order="revise", revise_horizon=5.0)

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            Engine(out_of_order="shuffle")

    def test_clock_advances(self):
        engine = Engine()
        engine.watch(obs("r"))
        engine.submit(Observation("r", "a", 7))
        assert engine.clock == 7

    def test_advance_to_fires_pseudo_events(self):
        from repro.core.expressions import TSeqPlus

        engine = Engine()
        engine.watch(TSeqPlus(obs("r"), 0, 1))
        engine.submit(Observation("r", "a", 0))
        assert engine.advance_to(0.5) == []          # chain still open
        detections = engine.advance_to(1.0)          # closes at 0 + 1
        assert len(detections) == 1

    def test_equal_timestamps_allowed(self):
        engine = Engine()
        engine.watch(obs("r"))
        engine.submit(Observation("r", "a", 1))
        assert len(engine.submit(Observation("r", "b", 1))) == 1


class TestEngineLifecycle:
    def test_add_rule_after_start_rejected(self):
        engine = Engine()
        engine.watch(obs("r"))
        engine.submit(Observation("r", "a", 0))
        with pytest.raises(RuntimeError):
            engine.watch(obs("q"))

    def test_watch_callback(self):
        seen = []
        engine = Engine()
        engine.watch(obs("r"), callback=lambda context: seen.append(context.time))
        engine.submit(Observation("r", "a", 3))
        assert seen == [3]

    def test_stats_counters(self):
        engine = Engine()
        engine.watch(Seq(obs("a"), obs("b")))
        run(engine, [Observation("a", "x", 0), Observation("b", "x", 1),
                     Observation("zzz", "x", 2)])
        stats = engine.stats
        assert stats.observations == 3
        assert stats.primitive_matches == 2
        assert stats.composites == 1
        assert stats.detections == 1

    def test_run_without_flush(self):
        from repro.core.expressions import TSeqPlus

        engine = Engine()
        engine.watch(TSeqPlus(obs("r"), 0, 1))
        detections = list(engine.run([Observation("r", "a", 0)], flush=False))
        assert detections == []  # chain never expired

    def test_detection_repr(self):
        engine = Engine()
        rule = engine.watch(obs("r"), name="my-watch")
        detections = run(engine, [Observation("r", "a", 0)])
        assert "my-watch" in repr(detections[0])
        assert detections[0].rule is rule


class TestConditionAndActionErrors:
    def test_condition_failure_wrapped(self):
        from repro.core.errors import ConditionError
        from repro.rules import Rule

        def broken(_context):
            raise RuntimeError("boom")

        engine = Engine([Rule("r", "broken", obs("r"), condition=broken)])
        with pytest.raises(ConditionError):
            engine.submit(Observation("r", "a", 0))

    def test_action_failure_wrapped(self):
        from repro.core.errors import ActionError
        from repro.rules import Rule

        def broken(_context):
            raise RuntimeError("boom")

        engine = Engine([Rule("r", "broken", obs("r"), actions=[broken])])
        with pytest.raises(ActionError):
            engine.submit(Observation("r", "a", 0))

    def test_false_condition_suppresses_detection(self):
        from repro.rules import Rule

        engine = Engine([Rule("r", "never", obs("r"), condition=False)])
        assert engine.submit(Observation("r", "a", 0)) == []
        assert engine.stats.detections == 0
