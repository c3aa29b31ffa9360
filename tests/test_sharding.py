"""Tests for sharded detection: placement, routing, and equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, Observation, Var, Within, obs
from repro.core.expressions import Seq, TSeq, TSeqPlus
from repro.core.sharding import CATCH_ALL, ShardedEngine, rule_reader_literals
from repro.rules import Rule
from repro.store import RfidStore


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


class TestPlacement:
    def test_reader_literals_extracted(self):
        rule = containment("r", "a", "b")
        assert rule_reader_literals(rule) == {"a", "b"}

    def test_wildcard_rule_has_no_literals(self):
        rule = Rule("w", "w", obs(Var("r"), Var("o")))
        assert rule_reader_literals(rule) is None

    def test_disjoint_rules_spread_across_shards(self):
        rules = [containment(f"r{i}", f"a{i}", f"b{i}") for i in range(4)]
        sharded = ShardedEngine(rules, max_shards=4)
        placement = sharded.placement()
        assert len(placement) == 4
        assert sorted(sum(placement.values(), [])) == [f"r{i}" for i in range(4)]

    def test_rules_sharing_a_reader_colocate(self):
        rules = [
            containment("r1", "a", "shared"),
            containment("r2", "shared", "c"),
            containment("r3", "x", "y"),
        ]
        sharded = ShardedEngine(rules, max_shards=4)
        placement = sharded.placement()
        together = next(ids for ids in placement.values() if "r1" in ids)
        assert "r2" in together and "r3" not in together

    def test_wildcards_go_to_catch_all(self):
        rules = [
            containment("r1", "a", "b"),
            Rule("w", "w", obs(Var("r"), Var("o"))),
        ]
        sharded = ShardedEngine(rules, max_shards=2)
        assert sharded.placement()[CATCH_ALL] == ["w"]

    def test_group_members_enable_placement(self):
        rule = Rule(
            "g", "g", Within(Seq(obs(None, Var("o"), group="dock"),
                                 obs("exit", Var("o"))), 60)
        )
        sharded = ShardedEngine(
            [rule], max_shards=2, group_members={"dock": {"d1", "d2"}}
        )
        assert CATCH_ALL not in sharded.placement()

    def test_max_shards_validated(self):
        with pytest.raises(ValueError):
            ShardedEngine([], max_shards=0)


class TestRouting:
    def test_observations_only_reach_their_shard(self):
        rules = [containment("r1", "a1", "b1"), containment("r2", "a2", "b2")]
        sharded = ShardedEngine(rules, max_shards=2)
        stream = [
            Observation("a1", "x", 0.0),
            Observation("a2", "y", 0.5),
            Observation("b1", "c1", 12.0),
            Observation("b2", "c2", 12.5),
            Observation("unknown", "z", 13.0),
        ]
        detections = list(sharded.run(stream))
        assert len(detections) == 2
        traffic = sharded.traffic_summary()
        assert sum(traffic.values()) == 4  # 'unknown' reached no shard
        assert sharded.multicast == 0

    def test_catch_all_sees_everything(self):
        rules = [Rule("w", "w", obs(Var("r"), Var("o")))]
        sharded = ShardedEngine(rules, max_shards=2)
        stream = [Observation(f"r{i}", "x", float(i)) for i in range(5)]
        detections = list(sharded.run(stream))
        assert len(detections) == 5


@st.composite
def shard_streams(draw):
    entries = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("a1", "b1", "a2", "b2", "zz")),
                st.integers(1, 8),
            ),
            max_size=30,
        )
    )
    stream = []
    time = 0.0
    for reader, gap in entries:
        time += gap * 0.5
        stream.append(Observation(reader, f"o{len(stream)}", time))
    return stream


class TestEquivalence:
    @given(shard_streams())
    @settings(max_examples=100, deadline=None)
    def test_sharded_equals_single_engine(self, stream):
        rules = [containment("r1", "a1", "b1"), containment("r2", "a2", "b2")]

        single = Engine(rules)
        single_detections = sorted(
            (d.rule.rule_id, d.time, d.instance.t_begin)
            for d in single.run(stream)
        )

        sharded = ShardedEngine(
            [containment("r1", "a1", "b1"), containment("r2", "a2", "b2")],
            max_shards=2,
        )
        sharded_detections = sorted(
            (d.rule.rule_id, d.time, d.instance.t_begin)
            for d in sharded.run(stream)
        )
        assert sharded_detections == single_detections


def store_rules():
    """A SQL-writing rule pinned to reader ``w`` and a wildcard rule whose
    condition reads the table it writes: two shards over one store."""
    return [
        Rule(
            "mark", "mark", obs("w", Var("o"), t=Var("t")),
            actions=["INSERT INTO ALERT VALUES ('mark', o, t)"],
        ),
        Rule(
            "seen", "seen", obs(Var("r"), Var("o")),
            condition="SELECT * FROM ALERT WHERE message = o",
        ),
    ]


@st.composite
def store_batches(draw):
    entries = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("w", "y", "z")),
                st.sampled_from(("o1", "o2", "o3")),
                st.integers(0, 4),
            ),
            max_size=25,
        )
    )
    batch = []
    time = 0.0
    for reader, obj, gap in entries:
        time += gap * 0.5
        batch.append(Observation(reader, obj, time))
    return batch


class TestSharedStore:
    @given(store_batches())
    @settings(max_examples=100, deadline=None)
    def test_batch_steps_shards_per_observation(self, batch):
        """A per-shard sub-batch would let ``mark``'s inserts run ahead of
        ``seen``'s reads of earlier observations in the same batch."""
        sharded = ShardedEngine(store_rules(), store=RfidStore(), max_shards=2)
        assert set(sharded.shards) == {"shard-0", CATCH_ALL}
        single = Engine(store_rules(), store=RfidStore())

        def canon(result):
            return [
                (d.rule.rule_id, d.time, d.instance.bindings["o"]) for d in result
            ]

        assert canon(sharded.submit_many(batch)) == canon(single.submit_many(batch))


class TestShardErrors:
    def _sharded_with_bomb(self):
        def bomb(context):
            raise RuntimeError("action exploded")

        return ShardedEngine(
            [
                Rule("boom", "boom", obs("a1", Var("o")), actions=[bomb]),
                Rule("fine", "fine", obs("a2", Var("o"))),
            ],
            max_shards=2,
        )

    def test_submit_failure_names_shard_and_rules(self):
        from repro.core.errors import ShardError

        sharded = self._sharded_with_bomb()
        with pytest.raises(ShardError) as excinfo:
            sharded.submit(Observation("a1", "x", 0.0))
        error = excinfo.value
        assert error.shard in sharded.shards
        assert error.rule_ids == ["boom"]
        assert "boom" in str(error)
        assert error.shard in str(error)
        assert isinstance(error.original, Exception)
        assert error.__cause__ is error.original

    def test_submit_many_failure_names_shard_and_rules(self):
        from repro.core.errors import ShardError

        sharded = self._sharded_with_bomb()
        observations = [
            Observation("a2", "ok", 0.0),
            Observation("a1", "poison", 1.0),
        ]
        with pytest.raises(ShardError, match="boom"):
            sharded.submit_many(observations)

    def test_healthy_shard_unaffected_by_failing_shard(self):
        from repro.core.errors import ShardError

        sharded = self._sharded_with_bomb()
        assert len(sharded.submit(Observation("a2", "x", 0.0))) == 1
        with pytest.raises(ShardError):
            sharded.submit(Observation("a1", "y", 1.0))
        assert len(sharded.submit(Observation("a2", "z", 2.0))) == 1


class TestIntrospection:
    """Direct coverage for routes_for / placement / traffic_summary."""

    def _sharded(self):
        return ShardedEngine(
            [
                containment("r1", "a1", "b1"),
                containment("r2", "a2", "b2"),
            ],
            max_shards=2,
        )

    def test_routes_for_pins_reader_to_its_shard(self):
        sharded = self._sharded()
        placement = sharded.placement()
        routes = sharded.routes_for(Observation("a1", "x", 0.0))
        assert len(routes) == 1
        assert placement[routes[0]] == ["r1"]

    def test_routes_for_unknown_reader_without_catch_all_is_empty(self):
        sharded = self._sharded()
        assert sharded.routes_for(Observation("nobody", "x", 0.0)) == []

    def test_routes_for_appends_catch_all_last(self):
        sharded = ShardedEngine(
            [
                containment("r1", "a1", "b1"),
                Rule("w", "w", obs(Var("r"), Var("o"))),
            ],
            max_shards=2,
        )
        pinned = sharded.routes_for(Observation("a1", "x", 0.0))
        assert pinned[-1] == CATCH_ALL and len(pinned) == 2
        # A reader no shard claimed still reaches the catch-all.
        assert sharded.routes_for(Observation("nobody", "x", 0.0)) == [CATCH_ALL]

    def test_placement_covers_every_rule_exactly_once(self):
        sharded = self._sharded()
        placement = sharded.placement()
        assert sorted(sum(placement.values(), [])) == ["r1", "r2"]
        assert set(placement) == set(sharded.shards)

    def test_traffic_summary_counts_per_shard_observations(self):
        sharded = self._sharded()
        sharded.submit(Observation("a1", "x", 0.0))
        sharded.submit(Observation("a1", "y", 0.2))
        sharded.submit(Observation("a2", "z", 0.4))
        sharded.submit(Observation("nobody", "q", 0.6))  # matches no shard
        traffic = sharded.traffic_summary()
        assert sum(traffic.values()) == 3
        assert sorted(traffic.values()) == [1, 2]
        assert set(traffic) == set(sharded.shards)

    def test_traffic_summary_with_catch_all_counts_everything(self):
        sharded = ShardedEngine(
            [Rule("w", "w", obs(Var("r"), Var("o")))], max_shards=2
        )
        for index in range(4):
            sharded.submit(Observation(f"r{index}", "x", float(index)))
        assert sharded.traffic_summary() == {CATCH_ALL: 4}


class TestIntrospectionParity:
    """One source of truth for placement/traffic across the engines.

    ``ShardedEngine``, the standalone ``plan_shards`` plan, and the
    engine inside a ``DurableEngine`` must all report identical views —
    the cluster router derives worker placement from the plan while the
    engines report their own, and any drift would desynchronize them.
    """

    def _rules(self):
        return [
            containment("r1", "a1", "b1"),
            containment("r2", "a2", "b2"),
            containment("r3", "a1", "c3"),
        ]

    def _stream(self):
        return [
            Observation("a1", "x", 0.0),
            Observation("a2", "y", 0.2),
            Observation("b1", "z", 0.4),
            Observation("nobody", "q", 0.6),
        ]

    def test_engine_placement_matches_plan(self):
        from repro.core.sharding import plan_shards

        plan = plan_shards(self._rules(), 2)
        sharded = ShardedEngine(self._rules(), max_shards=2)
        assert sharded.placement() == plan.placement()

    def test_durable_fleet_reports_same_views(self, tmp_path):
        from repro.resilience.durability import DurableEngine

        sharded = ShardedEngine(self._rules(), max_shards=2)
        for observation in self._stream():
            sharded.submit(observation)
        durable = DurableEngine(
            lambda: ShardedEngine(self._rules(), max_shards=2),
            str(tmp_path / "fleet"),
        )
        try:
            for observation in self._stream():
                durable.submit(observation)
            assert durable.engine.placement() == sharded.placement()
            assert durable.engine.traffic_summary() == sharded.traffic_summary()
            assert [
                durable.engine.routes_for(observation)
                for observation in self._stream()
            ] == [
                sharded.routes_for(observation)
                for observation in self._stream()
            ]
        finally:
            durable.close()
