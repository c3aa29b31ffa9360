"""Tests for the extension features: ALL/ANY, reorder buffer, persistence,
per-rule stats and engine introspection."""

import json

import pytest

from repro import Engine, Observation, Var, obs
from repro.core.expressions import All, And, Any, Or
from repro.lang import parse_event
from repro.sql import Database
from repro.store import RfidStore


class TestAllAny:
    def test_all_is_conjunction(self):
        event = All(obs("a"), obs("b"), obs("c"))
        assert isinstance(event, And)
        assert len(event.children) == 3

    def test_any_is_disjunction(self):
        assert isinstance(Any(obs("a"), obs("b")), Or)

    def test_language_all(self):
        event = parse_event(
            "ALL(observation('a', o1, t1), observation('b', o2, t2), "
            "observation('c', o3, t3))"
        )
        assert isinstance(event, And)
        assert len(event.children) == 3

    def test_language_any(self):
        event = parse_event(
            "ANY(observation('a', o, t), observation('b', o, t2))"
        )
        assert isinstance(event, Or)

    def test_single_operand_collapses(self):
        event = parse_event("ALL(observation('a', o, t))")
        assert not isinstance(event, And)

    def test_all_detects(self):
        engine = Engine()
        engine.watch(All(obs("a"), obs("b"), obs("c")))
        stream = [
            Observation("c", "x", 0.0),
            Observation("a", "x", 1.0),
            Observation("b", "x", 2.0),
        ]
        assert len(list(engine.run(stream))) == 1


class TestReorderBuffer:
    """``Engine(reorder_delay=...)``: the watermark buffer, engine-level."""

    @staticmethod
    def _released(delay, arrivals):
        engine = Engine(reorder_delay=delay)
        engine.watch(obs("r", Var("o")))
        detections = engine.submit_many(arrivals)
        detections.extend(engine.flush())
        return engine, [d.instance.t_end for d in detections]

    def test_repairs_bounded_disorder(self):
        arrivals = [
            Observation("r", "a", 10.0),
            Observation("r", "b", 8.0),
            Observation("r", "c", 12.0),
            Observation("r", "d", 11.0),
            Observation("r", "e", 30.0),
        ]
        _engine, times = self._released(5.0, arrivals)
        assert times == [8.0, 10.0, 11.0, 12.0, 30.0]

    def test_drops_hopelessly_late(self):
        engine, times = self._released(2.0, [
            Observation("r", "a", 100.0),
            Observation("r", "b", 10.0),  # at or below watermark 98
        ])
        assert times == [100.0]
        assert engine.stats.dropped_too_late == 1
        assert engine.stats.dropped_out_of_order == 1

    def test_zero_delay_passthrough(self):
        engine = Engine(reorder_delay=0.0)
        engine.watch(obs("r", Var("o")))
        for t in (1.0, 2.0, 3.0):
            # Each reading is released as soon as it arrives.
            assert [d.time for d in engine.submit(Observation("r", "a", t))] == [t]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine(reorder_delay=-1.0)

    def test_feeds_engine_cleanly(self):
        arrivals = [Observation("r", str(i), t) for i, t in
                    enumerate((3.0, 1.0, 4.0, 2.0, 9.0, 7.0))]
        engine, times = self._released(5.0, arrivals)
        assert times == sorted(times)
        assert len(times) == 6  # nothing dropped, nothing out of order
        assert engine.stats.dropped_out_of_order == 0


class TestPersistence:
    def test_database_dump_load_roundtrip(self):
        database = Database()
        database.execute("CREATE TABLE t (a, b)")
        database.execute("CREATE INDEX ON t (a)")
        database.execute("INSERT INTO t VALUES (1, 'x')")
        database.execute("INSERT INTO t VALUES (2, NULL)")
        payload = json.loads(json.dumps(database.dump()))
        restored = Database.load(payload)
        assert restored.query("SELECT a, b FROM t ORDER BY a") == [
            (1, "x"),
            (2, None),
        ]
        # Index survives: probe path returns the same rows.
        assert restored.query("SELECT b FROM t WHERE a = 1") == [("x",)]

    def test_store_save_load(self, tmp_path):
        store = RfidStore()
        store.place_reader("r1", "dock")
        store.update_location("box", "dock", 1.0)
        store.add_containment(["box"], "pallet", 2.0)
        store.send_alert("r5", "hello", 3.0)
        path = tmp_path / "store.json"
        store.save_json(str(path))

        restored = RfidStore.load_json(str(path))
        assert restored.location_of("box") == "dock"
        assert restored.parent_of("box") == "pallet"
        assert restored.alerts == [("r5", "hello", 3.0)]
        assert restored.reader_location("r1") == "dock"
        # The CONTAINMENT alias still points at OBJECTCONTAINMENT.
        assert restored.database.table("CONTAINMENT") is restored.database.table(
            "OBJECTCONTAINMENT"
        )

    def test_restored_store_keeps_working(self, tmp_path):
        store = RfidStore()
        store.update_location("box", "dock", 1.0)
        path = tmp_path / "store.json"
        store.save_json(str(path))
        restored = RfidStore.load_json(str(path))
        restored.update_location("box", "truck", 9.0)
        assert restored.location_history("box")[0][2] == 9.0


class TestIntrospection:
    def test_per_rule_counters(self):
        engine = Engine()
        engine.watch(obs("a"), name="watch-a")
        engine.watch(obs("b"), name="watch-b")
        list(engine.run([Observation("a", "x", 0.0), Observation("a", "y", 1.0),
                         Observation("b", "z", 2.0)]))
        assert engine.stats.per_rule == {"watch-a": 2, "watch-b": 1}

    def test_describe_lists_graph(self):
        engine = Engine()
        engine.watch(obs("a") >> obs("b"))
        text = engine.describe()
        assert "seq" in text

    def test_state_summary_shapes(self):
        from repro.core.expressions import TSeq, TSeqPlus

        engine = Engine()
        engine.watch(TSeq(TSeqPlus(obs("a"), 0, 1), obs("b"), 5, 10))
        engine.submit(Observation("a", "x", 0.0))
        summary = {entry["kind"]: entry for entry in engine.state_summary()}
        assert summary["tseq+"]["chains"] == 1
        assert summary["tseq"]["buffered"] == 0


class TestPeriodic:
    def _engine(self, period=10.0, within=35.0):
        from repro.core.expressions import Periodic, Within

        engine = Engine()
        engine.watch(Within(Periodic(obs("r", Var("o")), period), within))
        return engine

    def test_ticks_until_window_end(self):
        engine = self._engine(period=10.0, within=35.0)
        engine.submit(Observation("r", "x", 100.0))
        detections = engine.flush()
        # ticks at 110, 120, 130; 140 would exceed the 35s window.
        assert [d.time for d in detections] == [110.0, 120.0, 130.0]
        assert all(d.bindings == {"o": "x"} for d in detections)

    def test_tick_exactly_at_window_end_fires(self):
        engine = self._engine(period=10.0, within=30.0)
        engine.submit(Observation("r", "x", 0.0))
        detections = engine.flush()
        assert [d.time for d in detections] == [10.0, 20.0, 30.0]

    def test_independent_trains_per_anchor(self):
        engine = self._engine(period=10.0, within=15.0)
        engine.submit(Observation("r", "x", 0.0))
        engine.submit(Observation("r", "y", 5.0))
        detections = engine.flush()
        assert [(d.time, d.bindings["o"]) for d in detections] == [
            (10.0, "x"),
            (15.0, "y"),
        ]

    def test_ticks_interleave_with_stream(self):
        engine = self._engine(period=10.0, within=25.0)
        out = list(engine.submit(Observation("r", "x", 0.0)))
        out += list(engine.submit(Observation("zzz", "ignored", 21.0)))
        # ticks at 10 and 20 fired while processing the unrelated event
        assert [d.time for d in out] == [10.0, 20.0]

    def test_unbounded_periodic_rejected(self):
        from repro import InvalidRuleError
        from repro.core.expressions import Periodic

        engine = Engine()
        import pytest

        with pytest.raises(InvalidRuleError):
            engine.watch(Periodic(obs("r"), 10.0))

    def test_invalid_period(self):
        from repro import ExpressionError
        from repro.core.expressions import Periodic

        import pytest

        with pytest.raises(ExpressionError):
            Periodic(obs("r"), 0)

    def test_language_and_printer_roundtrip(self):
        from repro.core.expressions import Periodic
        from repro.lang import format_event, parse_event

        event = parse_event("PERIODIC(observation('r', o, t), 30sec)")
        assert isinstance(event, Periodic)
        assert event.period == 30.0
        assert parse_event(format_event(event)).key() == event.key()

    def test_periodic_escalation_scenario(self):
        """Escalating reminders while an unauthorized asset is out."""
        from repro.core.expressions import Periodic, Within

        engine = Engine()
        engine.watch(Within(Periodic(obs("gate", Var("o")), 60.0), 3 * 60.0 + 1))
        engine.submit(Observation("gate", "laptop", 0.0))
        reminders = engine.flush()
        assert [d.time for d in reminders] == [60.0, 120.0, 180.0]


class TestEngineReorder:
    def test_out_of_order_repaired(self):
        engine = Engine(reorder_delay=5.0)
        engine.watch(obs("r", Var("o")))
        arrivals = [
            Observation("r", "a", 10.0),
            Observation("r", "b", 8.0),   # late but inside the delay
            Observation("r", "c", 20.0),
        ]
        detections = []
        for observation in arrivals:
            detections.extend(engine.submit(observation))
        detections.extend(engine.flush())
        times = [d.instance.t_end for d in detections]
        assert times == [8.0, 10.0, 20.0]

    def test_sequences_detected_despite_disorder(self):
        from repro.core.expressions import Seq, Within

        engine = Engine(reorder_delay=5.0)
        engine.watch(Within(Seq(obs("A", Var("o")), obs("B", Var("o"))), 100))
        # B arrives before A in wall-clock order, timestamps disagree.
        arrivals = [
            Observation("B", "x", 4.0),
            Observation("A", "x", 2.0),
            Observation("zz", "tick", 30.0),
        ]
        detections = []
        for observation in arrivals:
            detections.extend(engine.submit(observation))
        detections.extend(engine.flush())
        assert len(detections) == 1

    def test_hopelessly_late_dropped_not_raised(self):
        engine = Engine(reorder_delay=2.0)
        engine.watch(obs("r"))
        engine.submit(Observation("r", "a", 100.0))
        assert engine.submit(Observation("r", "b", 10.0)) == []
        engine.flush()
        assert engine.stats.dropped_too_late == 1

    @pytest.mark.parametrize("policy", ["reorder", "drop", "revise"])
    def test_batch_counts_its_drops_under_every_policy(self, policy):
        kwargs = {
            "reorder": {"reorder_delay": 2.0},
            "drop": {"out_of_order": "drop"},
            "revise": {"out_of_order": "revise", "revise_horizon": 2.0},
        }[policy]
        engine = Engine(**kwargs)
        engine.watch(obs("r", Var("o")))
        result = engine.submit_many([
            Observation("r", "a", 10.0),
            Observation("r", "b", 20.0),
            Observation("r", "c", 5.0),
        ])
        assert (result.accepted, result.dropped) == (2, 1)
        assert engine.stats.dropped_out_of_order == 1

    @pytest.mark.parametrize("delay", [0.0, 2.0])
    def test_a_reading_exactly_delay_late_is_too_late(self, delay):
        engine = Engine(reorder_delay=delay)
        engine.watch(obs("r", Var("o")))
        result = engine.submit_many([
            Observation("r", "a", 10.0),
            Observation("r", "b", 10.0 - delay),  # on the watermark
        ])
        assert (result.accepted, result.dropped) == (1, 1)
        assert engine.stats.dropped_too_late == 1

    def test_equal_timestamps_release_in_canonical_order(self):
        engine = Engine(reorder_delay=5.0)
        engine.watch(obs("r", Var("o")))
        detections = engine.submit_many([
            Observation("r", "y", 10.0),
            Observation("r", "x", 10.0),
        ]) + engine.flush()
        # (timestamp, reader, obj), not arrival order.
        assert [d.bindings["o"] for d in detections] == ["x", "y"]

    def test_expiry_surfaces_when_the_watermark_passes_it(self):
        from repro.core.expressions import And, Not, Within

        engine = Engine(reorder_delay=2.0)
        engine.watch(Within(And(obs("A", Var("o")), Not(obs("B", Var("o")))), 10))
        assert engine.submit(Observation("A", "x", 0.0)) == []
        # Watermark 11 passes the negation window's close at 10.
        assert [d.time for d in engine.submit(Observation("Z", "t", 13.0))] == [10.0]
        assert engine.flush() == []

    def test_advance_to_moves_the_watermark(self):
        engine = Engine(reorder_delay=5.0)
        engine.watch(obs("r", Var("o")))
        engine.submit(Observation("r", "a", 10.0))
        engine.submit(Observation("r", "b", 12.0))
        # Watermark 6: the clock trails it, so nothing is released yet.
        assert engine.advance_to(11.0) == []
        detections = engine.submit(Observation("r", "c", 20.0))
        detections.extend(engine.flush())
        assert [d.time for d in detections] == [10.0, 12.0, 20.0]


class TestTrace:
    def test_trace_receives_lifecycle_events(self):
        from repro.core.expressions import And, Not, Within

        from repro.obs import RecordingObserver

        recorder = RecordingObserver()
        engine = Engine(observer=recorder)
        engine.watch(Within(And(obs("A"), Not(obs("B"))), 10))
        engine.submit(Observation("B", "x", 0.0))
        engine.submit(Observation("A", "y", 5.0))   # killed by lookback
        engine.submit(Observation("A", "y", 50.0))  # pending, confirmed
        engine.flush()
        kinds = set(recorder.kinds())
        assert {"observation", "emit", "kill", "pseudo", "detection"} <= kinds

    def test_trace_detection_payload(self):
        from repro.obs import RecordingObserver

        recorder = RecordingObserver()
        engine = Engine(observer=recorder)
        engine.watch(obs("r"))
        engine.submit(Observation("r", "a", 1.0))
        detections = recorder.of_kind("detection")
        assert detections and detections[0][0].time == 1.0


class TestEngineReset:
    def test_reset_clears_state_keeps_rules(self):
        from repro.core.expressions import Seq, Within

        engine = Engine()
        engine.watch(Within(Seq(obs("A", Var("o")), obs("B", Var("o"))), 100))
        first = list(engine.run([Observation("A", "x", 0.0),
                                 Observation("B", "x", 1.0)]))
        assert len(first) == 1
        engine.reset()
        assert engine.stats.detections == 0
        # Identical stream re-detects identically after reset.
        second = list(engine.run([Observation("A", "x", 0.0),
                                  Observation("B", "x", 1.0)]))
        assert len(second) == 1

    def test_reset_clears_pending_pseudo_events(self):
        from repro.core.expressions import TSeqPlus

        engine = Engine()
        engine.watch(TSeqPlus(obs("r"), 0, 1))
        engine.submit(Observation("r", "a", 0.0))
        engine.reset()
        assert engine.flush() == []  # no leftover chain closure

    def test_reset_allows_adding_rules_again(self):
        engine = Engine()
        engine.watch(obs("a"))
        engine.submit(Observation("a", "x", 0.0))
        engine.reset()
        engine.watch(obs("b"))  # no RuntimeError after reset
        detections = list(engine.run([Observation("b", "y", 0.0)]))
        assert len(detections) == 1
