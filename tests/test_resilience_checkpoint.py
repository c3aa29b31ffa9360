"""Checkpoint/restore: a killed engine resumes with identical detections."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, FunctionRegistry, Observation, OutOfOrderPolicy, Var, obs
from repro.apps import (
    asset_monitoring_rule,
    containment_rule,
    location_rule,
    sale_rule,
)
from repro.core.errors import CheckpointError
from repro.core.expressions import Not, Periodic, Seq, TSeq, TSeqPlus, Within
from repro.core.sharding import ShardedEngine
from repro.epc import ReaderGroupRegistry
from repro.filtering import infield_rule, outfield_rule
from repro.resilience import (
    engine_fingerprint,
    kill_and_restore_run,
    load_checkpoint,
    save_checkpoint,
)
from repro.rules import Rule
from repro.simulator import (
    SupplyChainConfig,
    gate_type_function,
    reader_placements,
    simulate_supply_chain,
)
from repro.store import RfidStore


def canon(detections):
    """Order-preserving canonical form: rule, time, bindings, leaf readings."""
    return [
        (
            detection.rule.rule_id,
            detection.time,
            sorted(detection.bindings.items(), key=lambda item: item[0]),
            [
                (reading.reader, reading.obj, reading.timestamp)
                for reading in detection.instance.observations()
            ],
        )
        for detection in detections
    ]


def pair_rules():
    return [
        Rule(
            "pair",
            "pair",
            TSeq(obs("a", Var("x")), obs("b", Var("x")), 0.0, 10.0),
            actions=[],
        )
    ]


def pair_stream():
    observations = [Observation("a", f"o{i}", float(i)) for i in range(6)]
    observations += [Observation("b", f"o{i}", float(i) + 4.0) for i in range(6)]
    observations.sort(key=lambda observation: observation.timestamp)
    return observations


class TestEngineRoundTrip:
    def test_equal_detections_at_every_kill_point(self):
        stream = pair_stream()
        baseline = canon(list(Engine(pair_rules()).run(stream)))
        for kill_at in range(len(stream) + 1):
            detections, _revived = kill_and_restore_run(
                lambda: Engine(pair_rules()), stream, kill_at
            )
            assert canon(detections) == baseline, f"diverged at kill_at={kill_at}"

    def test_snapshot_is_json_clean(self):
        engine = Engine(pair_rules())
        for observation in pair_stream()[:5]:
            engine.submit(observation)
        snapshot = engine.checkpoint()
        round_tripped = json.loads(json.dumps(snapshot))
        assert round_tripped == snapshot

    def test_save_and_load_file(self, tmp_path):
        stream = pair_stream()
        engine = Engine(pair_rules())
        for observation in stream[:5]:
            engine.submit(observation)
        path = str(tmp_path / "engine.ckpt.json")
        save_checkpoint(engine.checkpoint(), path)

        revived = Engine(pair_rules())
        revived.restore(load_checkpoint(path))
        tail = [
            detection
            for observation in stream[5:]
            for detection in revived.submit(observation)
        ]
        tail += revived.flush()

        resumed_baseline = Engine(pair_rules())
        expected = []
        for index, observation in enumerate(stream):
            found = resumed_baseline.submit(observation)
            if index >= 5:
                expected.extend(found)
        expected += resumed_baseline.flush()
        assert canon(tail) == canon(expected)

    def test_stats_and_clock_survive(self):
        stream = pair_stream()
        engine = Engine(pair_rules())
        for observation in stream[:7]:
            engine.submit(observation)
        revived = Engine(pair_rules())
        revived.restore(engine.checkpoint())
        assert revived.clock == engine.clock
        assert revived.stats == engine.stats

    def test_negation_and_periodic_state_survive(self):
        def build():
            return Engine(
                [
                    Rule(
                        "noexit",
                        "no b after a",
                        Within(Seq(obs("a", Var("x")), Not(obs("b", Var("x")))), 5.0),
                        actions=[],
                    ),
                    Rule(
                        "tick",
                        "periodic after a",
                        Within(Periodic(obs("a"), 2.0), 9.0),
                        actions=[],
                    ),
                ]
            )

        stream = [
            Observation("a", "u", 0.0),
            Observation("b", "u", 1.0),
            Observation("a", "v", 2.0),
            Observation("a", "w", 6.5),
            Observation("b", "w", 7.0),
        ]
        baseline = canon(list(build().run(stream)))
        for kill_at in range(len(stream) + 1):
            detections, _revived = kill_and_restore_run(build, stream, kill_at)
            assert canon(detections) == baseline, f"diverged at kill_at={kill_at}"


class TestSupplyChainRoundTrip:
    """The acceptance bar: Fig. 9 workload, kill mid-stream, equal output."""

    def _build(self, config, store, sinks):
        rules = [
            containment_rule(
                config.packing.item_reader, config.packing.case_reader
            ),
            location_rule(rule_id="r3"),
            asset_monitoring_rule(
                config.gate.reader,
                config.gate.tau,
                on_alarm=lambda epc, time: sinks["alarms"].append((epc, time)),
            ),
            infield_rule(
                config.shelf.read_period,
                reader=config.shelf.reader,
                on_infield=lambda r, o, t: sinks["shelf"].append(("in", o, t)),
                rule_id="shelf-in",
            ),
            outfield_rule(
                config.shelf.read_period,
                reader=config.shelf.reader,
                on_outfield=lambda r, o, t: sinks["shelf"].append(("out", o, t)),
                rule_id="shelf-out",
            ),
            sale_rule(config.checkout.pos_readers),
        ]
        return Engine(
            rules,
            store=store,
            functions=FunctionRegistry(
                group=ReaderGroupRegistry(), obj_type=gate_type_function(config.gate)
            ),
        )

    def _store(self, config):
        store = RfidStore()
        store.place_reader(config.packing.item_reader, "conveyor")
        store.place_reader(config.packing.case_reader, "packing-station")
        for reader, location in reader_placements(config.movement):
            store.place_reader(reader, location)
        for pos in config.checkout.pos_readers:
            store.place_reader(pos, "checkout")
        return store

    def test_kill_and_restore_matches_uninterrupted(self):
        config = SupplyChainConfig(seed=99)
        stream = simulate_supply_chain(config).observations

        baseline_sinks = {"alarms": [], "shelf": []}
        baseline_engine = self._build(config, self._store(config), baseline_sinks)
        baseline = canon(list(baseline_engine.run(stream)))
        assert len(baseline) > 50  # the workload is substantial

        # One store shared by both engine lives — the durable database
        # that survives the crash, exactly as deployed middleware would.
        for kill_at in (1, len(stream) // 3, len(stream) // 2, len(stream) - 2):
            store = self._store(config)
            sinks = {"alarms": [], "shelf": []}
            detections, _revived = kill_and_restore_run(
                lambda: self._build(config, store, sinks), stream, kill_at
            )
            assert canon(detections) == baseline, f"diverged at kill_at={kill_at}"


class TestShardedRoundTrip:
    def _containment(self, rule_id, item_reader, case_reader):
        chain = TSeqPlus(obs(item_reader, Var("items")), 0.1, 1.0)
        return Rule(
            rule_id,
            rule_id,
            TSeq(chain, obs(case_reader, Var("case")), 10.0, 20.0),
            actions=[],
        )

    def _build(self):
        return ShardedEngine(
            [
                self._containment("pack-a", "a1", "b1"),
                self._containment("pack-b", "a2", "b2"),
            ],
            max_shards=2,
        )

    def _stream(self):
        observations = []
        for index in range(4):
            observations.append(Observation("a1", f"i{index}", index * 1.0))
            observations.append(Observation("a2", f"j{index}", index * 1.0 + 0.5))
        observations.append(Observation("b1", "case1", 14.0))
        observations.append(Observation("b2", "case2", 14.5))
        observations.sort(key=lambda observation: observation.timestamp)
        return observations

    def test_kill_and_restore_matches_uninterrupted(self):
        stream = self._stream()
        baseline = canon(list(self._build().run(stream)))
        assert baseline  # sanity: the workload detects something
        for kill_at in range(len(stream) + 1):
            detections, _revived = kill_and_restore_run(self._build, stream, kill_at)
            assert canon(detections) == baseline, f"diverged at kill_at={kill_at}"

    def test_snapshot_names_every_shard(self):
        sharded = self._build()
        snapshot = sharded.checkpoint()
        assert set(snapshot["shards"]) == set(sharded.shards)

    def test_shard_layout_mismatch_rejected(self):
        snapshot = self._build().checkpoint()
        other = ShardedEngine(
            [self._containment("pack-a", "a1", "b1")], max_shards=2
        )
        with pytest.raises(CheckpointError, match="shard layout"):
            other.restore(snapshot)


class TestReorderBufferRoundTrip:
    def _build(self):
        return Engine(
            pair_rules(),
            reorder_delay=3.0,
            out_of_order=OutOfOrderPolicy.RAISE,  # the buffer absorbs it
        )

    def test_buffered_readings_survive(self):
        # Late readings interleaved so the buffer is non-empty mid-stream.
        stream = [
            Observation("a", "o0", 0.0),
            Observation("a", "o1", 2.0),
            Observation("b", "o0", 4.5),
            Observation("a", "o2", 3.0),  # late but within delay
            Observation("b", "o1", 7.0),
            Observation("b", "o2", 8.0),
        ]
        baseline = canon(list(self._build().run(stream)))
        assert baseline
        for kill_at in range(len(stream) + 1):
            detections, _revived = kill_and_restore_run(self._build, stream, kill_at)
            assert canon(detections) == baseline, f"diverged at kill_at={kill_at}"

    def test_reorder_config_mismatch_rejected(self):
        engine = self._build()
        engine.submit(Observation("a", "x", 0.0))
        snapshot = engine.checkpoint()
        plain = Engine(pair_rules())
        with pytest.raises(CheckpointError):
            plain.restore(snapshot)

    def test_buffer_is_written_as_observation_references(self):
        engine = self._build()
        for observation in LATE_STREAM:
            engine.submit(observation)
        snapshot = json.loads(json.dumps(engine.checkpoint()))
        section = snapshot["reorder"]
        assert snapshot["speculation"] is None
        assert set(section) == {"horizon", "max_ts", "buffer"}
        assert (section["horizon"], section["max_ts"]) == (3.0, 7.0)
        held = [snapshot["observations"][index]["t"] for index in section["buffer"]]
        assert held == [4.5, 7.0]  # canonical order, above watermark 4

    def test_horizon_mismatch_rejected(self):
        engine = self._build()
        engine.submit(Observation("a", "x", 0.0))
        other = Engine(pair_rules(), reorder_delay=2.0)
        with pytest.raises(CheckpointError, match="horizon"):
            other.restore(engine.checkpoint())

    def test_old_heap_layout_rejected(self):
        engine = self._build()
        engine.submit(Observation("a", "x", 0.0))
        snapshot = engine.checkpoint()
        snapshot["reorder"] = {
            "delay": 3.0, "entries": [], "next_tie": 0, "watermark": -3.0,
            "max_seen": 0.0, "dropped_late": 0,
        }
        with pytest.raises(CheckpointError, match="malformed reorder"):
            self._build().restore(snapshot)


LATE_STREAM = [
    Observation("a", "o0", 0.0),
    Observation("a", "o1", 2.0),
    Observation("b", "o0", 4.5),
    Observation("a", "o2", 3.0),  # late but within the horizon
    Observation("b", "o1", 7.0),
]

POLICIES = {
    "reorder": {"reorder_delay": 3.0},
    "speculation": {"out_of_order": "revise", "revise_horizon": 3.0},
}


def _late_snapshot(section):
    engine = Engine(pair_rules(), **POLICIES[section])
    for observation in LATE_STREAM:
        engine.submit(observation)
    return json.loads(json.dumps(engine.checkpoint()))


SNAPSHOTS = {section: _late_snapshot(section) for section in POLICIES}


class TestMalformedSections:
    """A malformed ``reorder`` or ``speculation`` section fails closed:
    ``CheckpointError``, so recovery can fall back to an older one."""

    def test_snapshots_restore_unmutated(self):
        for section, snapshot in SNAPSHOTS.items():
            assert snapshot[section]["buffer"]
            Engine(pair_rules(), **POLICIES[section]).restore(
                copy.deepcopy(snapshot)
            )
        assert SNAPSHOTS["speculation"]["speculation"]["records"]

    @given(st.sampled_from(sorted(POLICIES)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_field_mutations_raise_checkpoint_error(self, name, data):
        snapshot = copy.deepcopy(SNAPSHOTS[name])
        section = snapshot[name]
        field = data.draw(st.sampled_from(sorted(section)))
        mutation = data.draw(st.sampled_from(
            ["delete", "extra", "null", "string", "object", "bad-ref",
             "other-horizon", "record-field"]
        ))
        if mutation == "delete":
            del section[field]
        elif mutation == "extra":
            section["junk"] = section[field]
        elif mutation == "null":
            section[field] = None
        elif mutation == "string":
            section[field] = "x"
        elif mutation == "object":
            section[field] = {}
        elif mutation == "bad-ref":
            section[field] = [999]
        elif mutation == "other-horizon":
            section["horizon"] += 1.0
        else:
            records = section.get("records") or [{"id": "x"}]
            entry = data.draw(st.sampled_from(records))
            # Every field restore reads (it ignores the content hash).
            key = data.draw(st.sampled_from(sorted(set(entry) - {"content"})))
            del entry[key]
            section["records"] = records
        engine = Engine(pair_rules(), **POLICIES[name])
        with pytest.raises(CheckpointError, match=f"malformed {name}"):
            engine.restore(snapshot)


class TestValidation:
    def test_fingerprint_differs_across_rule_sets(self):
        assert engine_fingerprint(Engine(pair_rules())) != engine_fingerprint(
            Engine(
                [Rule("other", "other", obs("a"), actions=[])]
            )
        )

    def test_restore_rejects_different_rules(self):
        engine = Engine(pair_rules())
        engine.submit(Observation("a", "x", 0.0))
        snapshot = engine.checkpoint()
        other = Engine([Rule("other", "other", obs("a"), actions=[])])
        with pytest.raises(CheckpointError, match="different compiled rule graph"):
            other.restore(snapshot)

    def test_restore_rejects_wrong_version(self):
        engine = Engine(pair_rules())
        snapshot = engine.checkpoint()
        snapshot["version"] = 999
        with pytest.raises(CheckpointError, match="version"):
            Engine(pair_rules()).restore(snapshot)

    def test_restore_rejects_garbage(self):
        with pytest.raises(CheckpointError):
            Engine(pair_rules()).restore({"hello": "world"})
        with pytest.raises(CheckpointError):
            Engine(pair_rules()).restore("not a dict")

    def test_restore_requires_fresh_engine(self):
        engine = Engine(pair_rules())
        engine.submit(Observation("a", "x", 0.0))
        snapshot = engine.checkpoint()
        used = Engine(pair_rules())
        used.submit(Observation("a", "y", 0.0))
        with pytest.raises(CheckpointError, match="fresh"):
            used.restore(snapshot)

    def test_kill_at_out_of_range(self):
        with pytest.raises(ValueError, match="kill_at"):
            kill_and_restore_run(lambda: Engine(pair_rules()), pair_stream(), 99)
