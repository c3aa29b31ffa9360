"""Crash matrix for the durable layer: WAL + checkpoints + outbox.

The contract under test: for ANY crash point — between any two protocol
steps, at any stream position, with or without a checkpoint on disk —
``DurableEngine.recover()`` resumes so that total detections AND total
external deliveries equal an uninterrupted run's, exactly once each.

The quick matrix here runs on the small pair workload; the exhaustive
dirty-stream sweep (every index × every protocol stage on a
duplicate-injected simulator trace, supervised engine, sharded engine)
is marked ``slow`` and runs via ``pytest -m slow`` in CI.
"""

import random

import pytest

from repro import Engine, Observation, Var, obs
from repro.core.errors import CheckpointError, TimeOrderError, WalError
from repro.core.expressions import TSeq, TSeqPlus
from repro.core.sharding import ShardedEngine
from repro.readers import inject_duplicates, sort_stream
from repro.resilience import (
    DurableEngine,
    RetryPolicy,
    SimulatedCrash,
    SupervisedEngine,
    corrupt_checkpoint,
    crash_failpoint,
    kill_and_restore_run,
    tear_wal_tail,
)
from repro.resilience.durability import checkpoint_files
from repro.rules import Rule
from repro.simulator import PackingConfig, simulate_packing

STAGES = ("append", "detect", "deliver")


def is_ordered_subset(candidate, reference):
    """True when ``candidate`` is a subsequence of ``reference``.

    Mid-protocol crashes lose the crashed submission's *return value*
    (recovery re-detects it and routes it through the outbox, but replay
    output is deliberately not returned), so the detections a caller
    collects across lives are an ordered subset of an uninterrupted
    run's — while deliveries must match exactly.
    """
    iterator = iter(reference)
    return all(item in iterator for item in candidate)


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


def make_sink(deliveries):
    def sink(detection, seq, ordinal):
        deliveries.append((seq, ordinal, detection.rule.rule_id))

    return sink


def baseline_run(factory, stream, directory):
    """One uninterrupted durable run; returns (canon detections, deliveries)."""
    deliveries = []
    with DurableEngine(
        factory, directory, sink=make_sink(deliveries), checkpoint_every=3
    ) as durable:
        detections = list(durable.run(stream))
    return canon(detections), sorted(deliveries)


class TestDurableMatchesPlainEngine:
    def test_same_detections_as_bare_engine(self, tmp_path):
        stream = pair_stream()
        expected = canon(list(Engine(pair_rules()).run(stream)))
        with DurableEngine(
            lambda: Engine(pair_rules()), str(tmp_path / "d")
        ) as durable:
            found = list(durable.run(stream))
        assert canon(found) == expected

    def test_fresh_engine_refuses_dirty_directory(self, tmp_path):
        directory = str(tmp_path / "d")
        with DurableEngine(lambda: Engine(pair_rules()), directory) as durable:
            durable.submit(pair_stream()[0])
        with pytest.raises(WalError, match="already holds durable state"):
            DurableEngine(lambda: Engine(pair_rules()), directory)


class TestCrashMatrix:
    def test_boundary_kill_at_every_index(self, tmp_path):
        """Kill between observations at every position, via the chaos
        harness's durable-recovery mode."""
        stream = pair_stream()
        factory = lambda: Engine(pair_rules())  # noqa: E731
        expected, expected_deliveries = baseline_run(
            factory, stream, str(tmp_path / "base")
        )
        for kill_at in range(len(stream) + 1):
            directory = str(tmp_path / f"kill{kill_at}")
            deliveries = []
            sink = make_sink(deliveries)
            detections, revived = kill_and_restore_run(
                lambda: DurableEngine(
                    factory, directory, sink=sink, checkpoint_every=3
                ),
                stream,
                kill_at,
                recover=lambda: DurableEngine.recover(
                    factory, directory, sink=sink, checkpoint_every=3
                )[0],
            )
            revived.close()
            assert canon(detections) == expected, f"kill_at={kill_at}"
            assert sorted(deliveries) == expected_deliveries, f"kill_at={kill_at}"

    def test_torn_tail_kill_resumes_at_the_recovered_frontier(self, tmp_path):
        """Kill at every index, tear the WAL's final record, recover:
        the harness resumes at the revived engine's ``next_seq``, so the
        torn reading is submitted again and counted once.  At kill 4 the
        torn record is ``a o3``, whose pair ``b o3`` arrives later —
        skipping it would lose that detection."""
        import os

        stream = pair_stream()
        factory = lambda: Engine(pair_rules())  # noqa: E731
        expected, expected_deliveries = baseline_run(
            factory, stream, str(tmp_path / "base")
        )
        for kill_at in range(1, len(stream) + 1):
            directory = str(tmp_path / f"kill{kill_at}")
            deliveries = []
            sink = make_sink(deliveries)

            def recover():
                tear_wal_tail(os.path.join(directory, "wal"), seed=kill_at)
                revived, report = DurableEngine.recover(
                    factory, directory, sink=sink, checkpoint_every=3
                )
                assert report.torn_bytes_truncated > 0
                return revived

            detections, revived = kill_and_restore_run(
                lambda: DurableEngine(
                    factory, directory, sink=sink, checkpoint_every=3
                ),
                stream,
                kill_at,
                recover=recover,
            )
            revived.close()
            assert canon(detections) == expected, f"kill_at={kill_at}"
            assert sorted(deliveries) == expected_deliveries, f"kill_at={kill_at}"

    @pytest.mark.parametrize("batch", [None, 3], ids=["submit", "submit_many-3"])
    def test_failpoint_kill_at_every_stage_and_seq(self, tmp_path, batch):
        """Crash *inside* the protocol — after append, after detect,
        after deliver — at every sequence number, through ``submit`` and
        through ``submit_many`` in batches of 3; deliveries must come out
        exactly once regardless."""
        stream = pair_stream()
        factory = lambda: Engine(pair_rules())  # noqa: E731

        def feed(durable, observations, detections):
            if batch is None:
                for observation in observations:
                    detections.extend(durable.submit(observation))
            else:
                for start in range(0, len(observations), batch):
                    detections.extend(
                        durable.submit_many(observations[start : start + batch])
                    )

        expected, expected_deliveries = baseline_run(
            factory, stream, str(tmp_path / "base")
        )
        for stage in STAGES:
            for crash_seq in range(len(stream)):
                directory = str(tmp_path / f"{stage}{crash_seq}")
                deliveries = []
                sink = make_sink(deliveries)
                detections = []
                durable = DurableEngine(
                    factory, directory, sink=sink, checkpoint_every=3
                )
                durable.failpoint = crash_failpoint(stage, crash_seq)
                with pytest.raises(SimulatedCrash):
                    feed(durable, stream, detections)
                del durable  # the kill: no close, no checkpoint
                revived, report = DurableEngine.recover(
                    factory, directory, sink=sink, checkpoint_every=3
                )
                feed(revived, stream[report.next_seq :], detections)
                detections.extend(revived.flush())
                revived.close()
                key = f"stage={stage} seq={crash_seq}"
                assert sorted(deliveries) == expected_deliveries, key
                assert is_ordered_subset(canon(detections), expected), key

    def test_double_crash_during_recovery_tail(self, tmp_path):
        """Crash, recover, crash again before the next checkpoint — the
        second recovery must still converge."""
        stream = pair_stream()
        factory = lambda: Engine(pair_rules())  # noqa: E731
        expected, expected_deliveries = baseline_run(
            factory, stream, str(tmp_path / "base")
        )
        directory = str(tmp_path / "d")
        deliveries = []
        sink = make_sink(deliveries)
        detections = []
        durable = DurableEngine(factory, directory, sink=sink, checkpoint_every=4)
        durable.failpoint = crash_failpoint("detect", 5)
        with pytest.raises(SimulatedCrash):
            for observation in stream:
                detections.extend(durable.submit(observation))
        del durable
        revived, report = DurableEngine.recover(
            factory, directory, sink=sink, checkpoint_every=4
        )
        revived.failpoint = crash_failpoint("deliver", 8)
        with pytest.raises(SimulatedCrash):
            for observation in stream[report.next_seq :]:
                detections.extend(revived.submit(observation))
        del revived
        final, report = DurableEngine.recover(
            factory, directory, sink=sink, checkpoint_every=4
        )
        for observation in stream[report.next_seq :]:
            detections.extend(final.submit(observation))
        detections.extend(final.flush())
        final.close()
        assert sorted(deliveries) == expected_deliveries
        assert is_ordered_subset(canon(detections), expected)


class TestDamagedState:
    def _crashed_dir(self, tmp_path, kill_at=9, checkpoint_every=3, **kwargs):
        stream = pair_stream()
        factory = lambda: Engine(pair_rules())  # noqa: E731
        directory = str(tmp_path / "d")
        durable = DurableEngine(
            factory, directory, checkpoint_every=checkpoint_every, **kwargs
        )
        for observation in stream[:kill_at]:
            durable.submit(observation)
        del durable
        return factory, directory, stream, kill_at

    def test_torn_wal_tail_truncated_and_resubmittable(self, tmp_path):
        # kill_at=8: the newest checkpoint (seq 5) does NOT cover the
        # torn final record (seq 7), so the tear genuinely loses it.
        factory, directory, stream, kill_at = self._crashed_dir(tmp_path, kill_at=8)
        import os

        _path, torn = tear_wal_tail(os.path.join(directory, "wal"), seed=3)
        assert torn > 0
        revived, report = DurableEngine.recover(factory, directory)
        assert report.torn_bytes_truncated > 0
        # The torn record's observation was lost; recovery hands back the
        # sequence to resume from and resubmission converges.
        assert report.next_seq == kill_at - 1
        detections = canon(
            [
                detection
                for observation in stream[report.next_seq :]
                for detection in revived.submit(observation)
            ]
            + revived.flush()
        )
        revived.close()
        # Suffix of the uninterrupted run's detections.
        full = canon(list(Engine(pair_rules()).run(stream)))
        assert detections == full[len(full) - len(detections) :]

    def test_corrupt_newest_checkpoint_falls_back(self, tmp_path):
        import os

        factory, directory, stream, kill_at = self._crashed_dir(tmp_path)
        names = checkpoint_files(directory)
        assert len(names) == 2
        corrupt_checkpoint(os.path.join(directory, names[-1]), mode="garble")
        revived, report = DurableEngine.recover(factory, directory)
        assert report.checkpoints_tried == 2
        assert report.checkpoint_seq < kill_at
        assert report.next_seq == kill_at
        expected = canon(list(Engine(pair_rules()).run(stream)))
        tail = canon(
            [
                detection
                for observation in stream[kill_at:]
                for detection in revived.submit(observation)
            ]
            + revived.flush()
        )
        revived.close()
        assert tail == expected[len(expected) - len(tail) :]

    def test_malformed_speculation_section_falls_back(self, tmp_path):
        """A REVISE checkpoint that decodes but whose speculation section
        is malformed is skipped like a garbled one."""
        import os

        from repro.resilience import load_checkpoint, save_checkpoint

        def factory():
            return Engine(pair_rules(), out_of_order="revise", revise_horizon=2.0)

        stream = pair_stream()
        directory = str(tmp_path / "d")
        durable = DurableEngine(factory, directory, checkpoint_every=3)
        for observation in stream[:9]:
            durable.submit(observation)
        del durable
        names = checkpoint_files(directory)
        assert len(names) == 2
        newest = os.path.join(directory, names[-1])
        snapshot = load_checkpoint(newest)
        snapshot["speculation"]["buffer"] = [999]
        save_checkpoint(snapshot, newest)
        revived, report = DurableEngine.recover(factory, directory)
        assert report.checkpoints_tried == 2
        assert report.next_seq == 9
        tail = [
            record
            for observation in stream[9:]
            for record in revived.submit(observation)
        ] + revived.flush()
        revived.close()
        finals = canon([record for record in tail if record.status == "final"])
        expected = canon([
            record for record in factory().run(stream) if record.status == "final"
        ])
        assert finals and finals == expected[len(expected) - len(finals):]

    def test_recovery_is_idempotent(self, tmp_path):
        factory, directory, stream, kill_at = self._crashed_dir(tmp_path)
        first, report1 = DurableEngine.recover(factory, directory)
        first.close()
        second, report2 = DurableEngine.recover(factory, directory)
        assert report2.next_seq == report1.next_seq
        detections = canon(
            [
                detection
                for observation in stream[report2.next_seq :]
                for detection in second.submit(observation)
            ]
            + second.flush()
        )
        second.close()
        expected = canon(list(Engine(pair_rules()).run(stream)))
        assert detections == expected[len(expected) - len(detections) :]

    def test_cold_replay_of_pruned_prefix_refused(self, tmp_path):
        """Checkpoints gone but the WAL pruned behind them: replaying
        from nothing would silently skip the pruned prefix."""
        import os

        factory, directory, _stream, _kill_at = self._crashed_dir(
            tmp_path, segment_max_bytes=120
        )
        assert not os.path.exists(
            os.path.join(directory, "wal", "wal-0000000000000000.seg")
        )  # pruning really happened
        for name in checkpoint_files(directory):
            os.unlink(os.path.join(directory, name))
        with pytest.raises(WalError, match="unrecoverable"):
            DurableEngine.recover(factory, directory)


class TestRaisingRecords:
    """Every logged record is detected once, live and on replay alike: a
    record whose detection raises is skipped at its failure point and
    the rest of its batch still runs."""

    def test_late_reading_mid_batch_does_not_block_recovery(self, tmp_path):
        directory = str(tmp_path / "d")
        factory = lambda: Engine(pair_rules())  # noqa: E731 (RAISE policy)
        batch = [
            Observation("a", "o1", 1.0),
            Observation("a", "o2", 1.5),
            Observation("b", "o1", 2.0),
            Observation("a", "o3", 0.5),  # older than the clock: raises
            Observation("b", "o2", 3.0),
        ]
        deliveries = []
        durable = DurableEngine(factory, directory, sink=make_sink(deliveries))
        with pytest.raises(TimeOrderError):
            durable.submit_many(batch, client=("c", 0))
        live = sorted(deliveries)
        assert live == [(2, 0, "pair"), (4, 0, "pair")]
        assert durable.client_frontiers == {"c": 4}
        del durable  # the kill: no close, no checkpoint

        revived, report = DurableEngine.recover(
            factory, directory, sink=make_sink(deliveries)
        )
        assert (report.replayed_records, report.skipped_records) == (5, 1)
        assert report.suppressed_deliveries == 2
        assert sorted(deliveries) == live
        assert revived.client_frontiers == {"c": 4}
        assert revived.engine.stats.observations == 4
        found = revived.submit_many(
            [Observation("a", "o4", 4.0), Observation("b", "o4", 5.0)]
        )
        assert [detection.time for detection in found] == [5.0]
        assert sorted(deliveries) == live + [(6, 0, "pair")]
        revived.close()


class TestDurableSharded:
    def _rules(self):
        return [
            Rule(
                "pair",
                "pair",
                TSeq(obs("a", Var("x")), obs("b", Var("x")), 0.0, 10.0),
                actions=[],
            ),
            Rule(
                "cd",
                "cd",
                TSeq(obs("c", Var("x")), obs("d", Var("x")), 0.0, 10.0),
                actions=[],
            ),
            Rule(
                "any",
                "any",
                TSeq(obs(None, Var("x")), obs("b", Var("x")), 0.0, 10.0),
                actions=[],
            ),
        ]

    def _factory(self):
        return ShardedEngine(self._rules(), max_shards=3)

    def _stream(self):
        observations = [Observation("a", f"o{i}", float(i)) for i in range(4)]
        observations += [
            Observation("c", f"o{i}", float(i) + 0.5) for i in range(4)
        ]
        observations += [
            Observation("b", f"o{i}", float(i) + 4.0) for i in range(4)
        ]
        observations += [
            Observation("d", f"o{i}", float(i) + 4.5) for i in range(4)
        ]
        observations.sort(key=lambda observation: observation.timestamp)
        return observations

    def test_multiple_shards_exist(self):
        assert len(self._factory().shards) > 1

    def test_boundary_kill_at_every_index(self, tmp_path):
        stream = self._stream()
        deliveries0 = []
        with DurableEngine(
            self._factory,
            str(tmp_path / "base"),
            sink=make_sink(deliveries0),
            checkpoint_every=3,
        ) as base:
            expected = canon(list(base.run(stream)))
        expected_deliveries = sorted(deliveries0)
        for kill_at in range(0, len(stream) + 1, 3):
            directory = str(tmp_path / f"kill{kill_at}")
            deliveries = []
            sink = make_sink(deliveries)
            detections, revived = kill_and_restore_run(
                lambda: DurableEngine(
                    self._factory, directory, sink=sink, checkpoint_every=3
                ),
                stream,
                kill_at,
                recover=lambda: DurableEngine.recover(
                    self._factory, directory, sink=sink, checkpoint_every=3
                )[0],
            )
            revived.close()
            assert canon(detections) == expected, f"kill_at={kill_at}"
            assert sorted(deliveries) == expected_deliveries, f"kill_at={kill_at}"

    @pytest.mark.parametrize("marker", ["manifest", "shard-log"])
    def test_retired_per_shard_layout_refused(self, tmp_path, marker):
        """A directory in the retired sharded layout (``manifest.json``
        + ``wal/<shard>/`` logs) has no top-level log: resuming it would
        start cold at seq 0 over live state.  Both the fresh and the
        recovering constructor must refuse it instead."""
        import os

        from repro.resilience.durability import WalWriter

        directory = str(tmp_path / "old")
        if marker == "manifest":
            os.makedirs(directory)
            with open(os.path.join(directory, "manifest.json"), "w") as handle:
                handle.write('{"format": "rceda-durable-manifest"}')
        else:
            with WalWriter(os.path.join(directory, "wal", "s0")) as writer:
                writer.append(0, {"k": "f"})
        with pytest.raises(WalError, match="retired per-shard"):
            DurableEngine.recover(self._factory, directory)
        with pytest.raises(WalError, match="retired per-shard"):
            DurableEngine(self._factory, directory)


def containment_rule_raw():
    item = obs("r1", Var("o1"), t=Var("t1"))
    case = obs("r2", Var("o2"), t=Var("t2"))
    return Rule(
        "r4",
        "containment",
        TSeq(TSeqPlus(item, 0.0, 1.0), case, 10, 20),
        actions=[],
    )


@pytest.mark.slow
class TestExhaustiveDirtyStreamMatrix:
    """Every protocol stage × every sequence number, on a realistic
    duplicate-injected simulator trace behind a SupervisedEngine."""

    def _workload(self):
        trace = simulate_packing(PackingConfig(cases=4), rng=random.Random(11))
        dirty = sort_stream(
            inject_duplicates(
                trace.observations, rate=0.3, rng=random.Random(12), delta=0.05
            )
        )
        return dirty

    def _factory(self):
        return SupervisedEngine([containment_rule_raw()])

    def test_failpoint_kill_everywhere(self, tmp_path):
        stream = self._workload()
        expected, expected_deliveries = None, None
        deliveries0 = []
        with DurableEngine(
            self._factory,
            str(tmp_path / "base"),
            sink=make_sink(deliveries0),
            checkpoint_every=5,
            retry=RetryPolicy(attempts=1, base_delay=0.0),
        ) as base:
            expected = canon(list(base.run(stream)))
        expected_deliveries = sorted(deliveries0)

        for stage in STAGES:
            for crash_seq in range(len(stream)):
                directory = str(tmp_path / f"{stage}{crash_seq}")
                deliveries = []
                sink = make_sink(deliveries)
                detections = []
                durable = DurableEngine(
                    self._factory,
                    directory,
                    sink=sink,
                    checkpoint_every=5,
                    retry=RetryPolicy(attempts=1, base_delay=0.0),
                )
                durable.failpoint = crash_failpoint(stage, crash_seq)
                with pytest.raises(SimulatedCrash):
                    for observation in stream:
                        detections.extend(durable.submit(observation))
                del durable
                revived, report = DurableEngine.recover(
                    self._factory,
                    directory,
                    sink=sink,
                    checkpoint_every=5,
                    retry=RetryPolicy(attempts=1, base_delay=0.0),
                )
                for observation in stream[report.next_seq :]:
                    detections.extend(revived.submit(observation))
                detections.extend(revived.flush())
                revived.close()
                key = f"stage={stage} seq={crash_seq}"
                assert sorted(deliveries) == expected_deliveries, key
                assert is_ordered_subset(canon(detections), expected), key

    def test_sharded_failpoint_kill_everywhere(self, tmp_path):
        """The same matrix over a 3-shard ``ShardedEngine`` with a
        catch-all rule, plus a crash right after a snapshot became
        visible (``"checkpoint"``): one log and one snapshot file are
        the consistent cut across shards."""
        import os

        from repro.resilience.durability import read_wal

        factory = TestDurableSharded()._factory
        rng = random.Random(5)
        stream = [
            Observation(rng.choice("abcdz"), f"o{rng.randrange(6)}", 0.5 * tick)
            for tick in range(40)
        ]
        assert len(factory().shards) == 3
        expected = canon(list(factory().run(stream)))
        assert expected
        deliveries0 = []
        base_dir = str(tmp_path / "base")
        with DurableEngine(
            factory, base_dir, sink=make_sink(deliveries0), checkpoint_every=0
        ) as base:
            assert canon(list(base.run(stream))) == expected
        expected_deliveries = sorted(deliveries0)
        # Every reading is logged once, however many shards it fans out to.
        logged = [r.seq for r in read_wal(os.path.join(base_dir, "wal"))]
        assert logged == list(range(len(stream) + 1))  # + the flush marker

        for stage in STAGES + ("checkpoint",):
            for crash_seq in range(len(stream)):
                if stage == "checkpoint" and (crash_seq + 1) % 5:
                    continue  # checkpoint_every=5: cuts land on seq 4, 9, ...
                directory = str(tmp_path / f"{stage}{crash_seq}")
                deliveries = []
                sink = make_sink(deliveries)
                detections = []
                durable = DurableEngine(
                    factory, directory, sink=sink, checkpoint_every=5
                )
                durable.failpoint = crash_failpoint(stage, crash_seq)
                with pytest.raises(SimulatedCrash):
                    for index, observation in enumerate(stream):
                        detections.extend(
                            durable.submit(observation, client=("edge", index))
                        )
                del durable
                revived, report = DurableEngine.recover(
                    factory, directory, sink=sink, checkpoint_every=5
                )
                key = f"stage={stage} seq={crash_seq}"
                assert report.next_seq == crash_seq + 1, key
                assert revived.client_frontiers == {"edge": crash_seq}, key
                for index in range(report.next_seq, len(stream)):
                    detections.extend(
                        revived.submit(stream[index], client=("edge", index))
                    )
                detections.extend(revived.flush(client=("edge", len(stream))))
                assert revived.client_frontiers == {"edge": len(stream)}, key
                revived.close()
                assert sorted(deliveries) == expected_deliveries, key
                assert is_ordered_subset(canon(detections), expected), key

    def test_checkpoint_corruption_sweep(self, tmp_path):
        """Garble or truncate the newest checkpoint at several kill
        points; recovery must fall back and still converge."""
        import os

        stream = self._workload()
        with DurableEngine(
            self._factory, str(tmp_path / "base"), checkpoint_every=5
        ) as base:
            expected = canon(list(base.run(stream)))
        for mode in ("truncate", "garble"):
            for kill_at in range(12, len(stream), 7):
                directory = str(tmp_path / f"{mode}{kill_at}")
                durable = DurableEngine(
                    self._factory, directory, checkpoint_every=5
                )
                detections = []
                for observation in stream[:kill_at]:
                    detections.extend(durable.submit(observation))
                del durable
                names = checkpoint_files(directory)
                if names:
                    corrupt_checkpoint(
                        os.path.join(directory, names[-1]), mode=mode, seed=kill_at
                    )
                revived, report = DurableEngine.recover(self._factory, directory)
                for observation in stream[report.next_seq :]:
                    detections.extend(revived.submit(observation))
                detections.extend(revived.flush())
                revived.close()
                assert canon(detections) == expected, f"{mode} kill_at={kill_at}"


class TestCheckpointErrorType:
    def test_corrupt_checkpoint_load_raises_checkpoint_error(self, tmp_path):
        from repro.resilience import load_checkpoint, save_checkpoint

        path = str(tmp_path / "c.json")
        save_checkpoint({"format": "x", "version": 1}, path)
        corrupt_checkpoint(path, mode="garble")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestClientFrontiers:
    """WAL-backed client ack frontiers: the serving layer's provenance.

    ``submit(..., client=(id, seq))`` commits the frontier inside the
    same WAL record as the observation, so an ack derived from it is
    durable exactly when the observation is — ``recover()`` must rebuild
    the map from checkpoints plus WAL tail, in every pruning scenario.
    """

    def _factory(self):
        return Engine(pair_rules())

    def test_frontiers_rebuilt_from_wal_tail(self, tmp_path):
        directory = str(tmp_path / "frontier")
        stream = pair_stream()
        with DurableEngine(self._factory, directory) as durable:
            for index, observation in enumerate(stream):
                durable.submit(observation, client=("station-1", index))
            durable.flush(client=("station-1", len(stream)))
            assert durable.client_frontiers == {"station-1": len(stream)}
        revived, _report = DurableEngine.recover(self._factory, directory)
        assert revived.client_frontiers == {"station-1": len(stream)}
        revived.close()

    def test_frontiers_survive_wal_pruning_via_checkpoint_sidecar(
        self, tmp_path
    ):
        directory = str(tmp_path / "pruned")
        stream = pair_stream()
        with DurableEngine(
            self._factory, directory, checkpoint_every=4, keep_checkpoints=1
        ) as durable:
            for index, observation in enumerate(stream):
                durable.submit(observation, client=("station-1", index))
            # Force a final cut so every WAL record is behind a checkpoint:
            # the frontier must come from the sidecar alone.
            durable.checkpoint_now()
        revived, report = DurableEngine.recover(self._factory, directory)
        assert report.replayed_records == 0
        assert revived.client_frontiers == {"station-1": len(stream) - 1}
        revived.close()

    def test_frontiers_track_multiple_clients(self, tmp_path):
        directory = str(tmp_path / "multi")
        stream = pair_stream()
        with DurableEngine(self._factory, directory) as durable:
            for index, observation in enumerate(stream):
                client_id = f"station-{index % 2}"
                durable.submit(observation, client=(client_id, index // 2))
        revived, _report = DurableEngine.recover(self._factory, directory)
        half = len(stream) // 2
        assert revived.client_frontiers == {
            "station-0": half - 1,
            "station-1": half - 1,
        }
        revived.close()

    def test_sharded_frontiers_rebuilt_including_unrouted_noop(self, tmp_path):
        directory = str(tmp_path / "sharded")

        def factory():
            # No catch-all rule: reader "nobody" routes to no shard.
            return ShardedEngine(
                [
                    Rule(
                        "p1",
                        "p1",
                        TSeq(obs("a", Var("x")), obs("b", Var("x")), 0.0, 10.0),
                        actions=[],
                    ),
                    Rule(
                        "p2",
                        "p2",
                        TSeq(obs("c", Var("x")), obs("d", Var("x")), 0.0, 10.0),
                        actions=[],
                    ),
                ],
                max_shards=2,
            )

        durable = DurableEngine(factory, directory)
        assert durable.engine.routes_for(
            Observation("nobody", "x", 0.0)
        ) == []
        durable.submit(Observation("a", "o1", 0.0), client=("edge", 0))
        # Routes nowhere — it is logged like any other observation, so
        # the client's ack stays durable anyway.
        durable.submit(Observation("nobody", "x", 1.0), client=("edge", 1))
        durable.submit(Observation("b", "o1", 2.0), client=("edge", 2))
        assert durable.client_frontiers == {"edge": 2}
        durable.close()
        revived, _report = DurableEngine.recover(factory, directory)
        assert revived.client_frontiers == {"edge": 2}
        revived.close()

    def test_sharded_frontiers_survive_manifest_cut(self, tmp_path):
        directory = str(tmp_path / "sharded-cut")

        def factory():
            return ShardedEngine(
                [
                    Rule(
                        "p1",
                        "p1",
                        TSeq(obs("a", Var("x")), obs("b", Var("x")), 0.0, 10.0),
                        actions=[],
                    ),
                    Rule(
                        "p2",
                        "p2",
                        TSeq(obs("c", Var("x")), obs("d", Var("x")), 0.0, 10.0),
                        actions=[],
                    ),
                ],
                max_shards=2,
            )

        durable = DurableEngine(factory, directory, keep_checkpoints=1)
        for index, reader in enumerate(("a", "c", "b", "d")):
            durable.submit(
                Observation(reader, "o1", float(index)), client=("edge", index)
            )
        durable.checkpoint_now()  # prunes the WAL behind the cut
        durable.close()
        revived, report = DurableEngine.recover(factory, directory)
        assert report.replayed_records == 0
        assert revived.client_frontiers == {"edge": 3}
        revived.close()
