"""Scoped REVISE repair: a late arrival perturbs only what it can reach.

``tests/test_property_speculate.py`` checks the revision contract on two
rules that share readers A and B — one independent component, so it
never exercises scoping.  Here the programs split into several
components (disjoint reader pairs, plus a wildcard-reader rule that
every observation feeds), and the tests assert that

* the same contract holds when repairs touch one component at a time,
  and the standing view equals the in-order answer after every arrival;
* a late reading on one packing line emits records for that line only
  and replays only that line's buffered observations
  (``stats.replayed``);
* a checkpoint taken in the middle of a disordered window restores into
  an engine that still seals the in-order oracle's finals;
* the per-id bookkeeping (``records``, ordinals, ``checkpoint()`` size)
  stays flat over a long stream without changing any id or revision,
  in order and with a retraction every few seconds;
* an arrival older than an ``advance_to`` the clone already made is
  repaired instead of tripping the clone's time-order check.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, Observation, Var, Within, obs
from repro.bench.workloads import build_events_axis_workload
from repro.core.expressions import Not, Seq, TSeq, TSeqPlus
from repro.core.speculate import (
    FINAL,
    PROVISIONAL,
    RETRACT,
    REVISED,
    _hash_identity,
    _identity_of,
    canonical_key,
)
from repro.resilience.chaos import ChaosConfig, ChaosInjector
from repro.rules import Rule

MAX_LATENESS = 2.0
HORIZON = 2 * MAX_LATENESS

READERS = ("A1", "B1", "A2", "B2", "A3", "B3", "Z", "Q")
OBJECTS = ("o1", "o2", "o3")


def _rules():
    """Three disjoint reader pairs and one wildcard-reader rule.

    Four components: ``{A1, B1}``, ``{A2, B2}``, ``{A3, B3}`` and the
    catch-all holding the wildcard rule (with its ``Z`` terminator).
    Reader ``Q`` feeds only the catch-all.
    """
    def on(reader, variable="o"):
        return obs(reader, Var(variable))

    return [
        Rule("pair", "A1 then B1", Within(Seq(on("A1"), on("B1")), 4.0)),
        Rule("missing", "A2 with no B2", Within(Seq(on("A2"), Not(on("B2"))), 3.0)),
        Rule(
            "chain",
            "a run of A3 closed by B3",
            TSeq(TSeqPlus(on("A3", "x"), 0.1, 1.0), on("B3", "y"), 0.5, 4.0),
        ),
        Rule(
            "anywhere",
            "any reading, then the same object at Z",
            Within(Seq(obs(Var("r"), Var("o")), on("Z")), 4.0),
        ),
    ]


def _revise_engine(rules, horizon=HORIZON):
    return Engine(rules, out_of_order="revise", revise_horizon=horizon)


@st.composite
def disordered_runs(draw, max_size=40):
    entries = draw(
        st.lists(
            st.tuples(
                st.sampled_from(READERS),
                st.sampled_from(OBJECTS),
                st.integers(min_value=0, max_value=4),  # gap in 0.25 s steps
            ),
            max_size=max_size,
        )
    )
    stream = []
    time = 0.0
    for reader, object_epc, gap in entries:
        time += gap * 0.25
        stream.append(Observation(reader, object_epc, time))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    injector = ChaosInjector(
        ChaosConfig(seed=seed, disorder_rate=0.4, max_lateness=MAX_LATENESS)
    )
    return list(injector.inject(stream))


def _canon(detections):
    return sorted(
        (
            d.rule.rule_id,
            round(d.time, 9),
            tuple(sorted((k, str(v)) for k, v in d.bindings.items())),
        )
        for d in detections
    )


def _oracle(rules, arrival):
    return list(Engine(rules).run(sorted(arrival, key=canonical_key)))


def _check_lifecycles(records):
    seen: dict[str, list] = {}
    for record in records:
        assert record.status in (PROVISIONAL, REVISED, RETRACT, FINAL)
        history = seen.setdefault(record.detection_id, [])
        if history:
            assert record.revision > history[-1].revision
            assert history[-1].status != FINAL, "record emitted after seal"
        else:
            assert record.status in (PROVISIONAL, FINAL)
        if record.status == RETRACT:
            assert any(entry.status != RETRACT for entry in history), (
                f"retract of never-emitted detection {record.detection_id}"
            )
        history.append(record)


@given(disordered_runs())
@settings(max_examples=60, deadline=None)
def test_view_tracks_the_in_order_answer_after_every_arrival(arrival):
    """Finals only ever come from the sealed engine, so they cannot see a
    repair that left a clean component stale or ran one twice; the
    standing view (latest non-retracted record per id) can."""
    rules = _rules()
    engine = _revise_engine(rules)
    latest = {}
    for count, observation in enumerate(arrival, start=1):
        for record in engine.submit(observation):
            latest[record.detection_id] = record
        view = [r for r in latest.values() if r.status != RETRACT]
        prefix = sorted(arrival[:count], key=canonical_key)
        in_order = list(Engine(rules).run(prefix, flush=False))
        assert _canon(view) == _canon(in_order)


@given(disordered_runs())
@settings(max_examples=60, deadline=None)
def test_contract_holds_across_components(arrival):
    rules = _rules()
    engine = _revise_engine(rules)
    records = engine.submit_many(arrival)
    records += engine.flush()
    assert engine.stats.dropped_too_late == 0
    _check_lifecycles(records)
    finals = [record for record in records if record.status == FINAL]
    assert _canon(finals) == _canon(_oracle(rules, arrival))
    assert len({record.detection_id for record in finals}) == len(finals)


@given(disordered_runs(), st.integers(min_value=0, max_value=40))
@settings(max_examples=40, deadline=None)
def test_checkpoint_inside_a_disordered_window(arrival, cut):
    rules = _rules()
    cut = min(cut, len(arrival))
    first = _revise_engine(rules)
    records = list(first.submit_many(arrival[:cut]))
    snapshot = json.loads(json.dumps(first.checkpoint()))
    second = _revise_engine(rules)
    second.restore(snapshot)
    records += second.submit_many(arrival[cut:])
    records += second.flush()
    _check_lifecycles(records)
    finals = [record for record in records if record.status == FINAL]
    assert _canon(finals) == _canon(_oracle(rules, arrival))


def test_restore_mid_window_with_late_data_still_to_come():
    """The deterministic version: buffered readings at the cut, and a
    late one for each of two components right after the restore."""
    rules = _rules()
    head = [
        Observation("A1", "o1", 1.0),
        Observation("A2", "o2", 1.5),
        Observation("A3", "o3", 2.0),
        Observation("B3", "o3", 3.5),
    ]
    tail = [
        Observation("B2", "o2", 2.5),   # late: withdraws "missing" for o2
        Observation("B1", "o1", 2.2),   # late: completes "pair" for o1
        Observation("Q", "o1", 9.0),
        Observation("Q", "o1", 30.0),
    ]
    first = _revise_engine(rules)
    records = list(first.submit_many(head))
    assert first.speculation.buffered == len(head)
    second = _revise_engine(rules)
    second.restore(json.loads(json.dumps(first.checkpoint())))
    records += second.submit_many(tail)
    records += second.flush()
    _check_lifecycles(records)
    finals = [record for record in records if record.status == FINAL]
    assert _canon(finals) == _canon(_oracle(rules, head + tail))
    assert {record.rule.rule_id for record in finals} == {"pair", "chain"}


class TestOneLineOfTen:
    """A late reading on line 3 of a 10-line containment program."""

    LINE = 3

    def _primed(self):
        workload = build_events_axis_workload(2_000, n_rules=10, seed=5)
        engine = _revise_engine(workload.rules)
        stream = workload.observations
        engine.submit_many(stream[: len(stream) // 2])
        # bench-<i> watches the i-th reader pair, and nothing else.
        item_reader = workload.rules[self.LINE].event.children[0].children[0].reader
        case_reader = workload.rules[self.LINE].event.children[1].reader
        return engine, (item_reader, case_reader)

    def test_repair_stays_on_its_line(self):
        engine, line_readers = self._primed()
        spec = engine.speculation
        other_live = {
            detection_id
            for detection_id in spec._live
            if spec.records[detection_id].rule_id != f"bench-{self.LINE}"
        }
        assert other_live, "no other line has a provisional to disturb"
        buffered_on_line = sum(
            1 for observation in spec.buffer if observation.reader in line_readers
        )
        assert 0 < buffered_on_line < spec.buffered
        late = Observation(
            line_readers[0], "late-item", spec.buffer[0].timestamp + 1e-3
        )
        before = engine.stats.replayed
        records = engine.submit(late)
        assert engine.stats.dropped_too_late == 0
        assert engine.stats.replayed - before == buffered_on_line + 1
        assert {record.rule.rule_id for record in records} <= {
            f"bench-{self.LINE}"
        }
        assert other_live <= set(spec._live)

    def test_reader_no_rule_watches_repairs_nothing(self):
        engine, _line_readers = self._primed()
        spec = engine.speculation
        before = engine.stats.replayed
        late = Observation("nobody", "x", spec.buffer[0].timestamp + 1e-3)
        assert engine.submit(late) == []
        assert engine.stats.replayed == before

    def test_replayed_counter_reaches_the_metrics_registry(self):
        from repro.obs import MetricsRegistry

        workload = build_events_axis_workload(600, n_rules=10, seed=5)
        arrival = list(
            ChaosInjector(
                ChaosConfig(seed=3, disorder_rate=0.2, max_lateness=MAX_LATENESS)
            ).inject(workload.observations)
        )
        registry = MetricsRegistry()
        engine = Engine(
            workload.rules,
            out_of_order="revise",
            revise_horizon=HORIZON,
            metrics=registry,
        )
        engine.submit_many(arrival)
        engine.flush()
        assert engine.stats.replayed > 0
        exposition = registry.render_prometheus()
        assert (
            f'rceda_speculation_replayed_total{{engine="main"}} '
            f"{engine.stats.replayed}"
        ) in exposition


def test_bookkeeping_stays_flat_and_ids_do_not_change():
    workload = build_events_axis_workload(8_000, n_rules=10, seed=9)
    engine = _revise_engine(workload.rules)
    stream = workload.observations
    quarter = len(stream) // 4
    records = []
    sizes = []
    for start in range(0, len(stream), quarter):
        records += engine.submit_many(stream[start:start + quarter])
        sizes.append(
            (len(engine.speculation.records), len(json.dumps(engine.checkpoint())))
        )
    records += engine.flush()
    (early_count, early_bytes), (late_count, late_bytes) = sizes[0], sizes[3]
    assert late_count <= 1.5 * early_count
    assert late_bytes <= 1.5 * early_bytes
    assert early_count < workload.expected_detections / 8

    # Reference ids: ordinals over the whole stream, never forgotten.
    ordinals: dict[tuple, int] = {}
    expected = []
    for detection in _oracle(workload.rules, stream):
        identity = _identity_of(detection.rule.rule_id, detection.instance)
        ordinal = ordinals.get(identity, 0)
        ordinals[identity] = ordinal + 1
        expected.append(_hash_identity(identity, ordinal))
    finals = [record for record in records if record.status == FINAL]
    assert [record.detection_id for record in finals] == expected
    assert len(expected) == workload.expected_detections
    # In order: one provisional (revision 0), then its final (revision 1).
    assert [record.revision for record in finals] == [1] * len(finals)
    _check_lifecycles(records)


def _settled_retractions(speculation):
    """Retracted records already past the cutoff finals are dropped at."""
    cutoff = speculation.watermark - speculation._scope_cache.retention
    return [
        detection_id for detection_id, record in speculation.records.items()
        if record.status == RETRACT and record.time < cutoff
    ]


def test_retractions_are_forgotten_like_finals():
    """A late ``B2`` withdraws a provisional ``missing``; the retracted
    record, never revived, leaves under the cutoff finals use — also
    after a mid-stream restore."""
    rules = [rule for rule in _rules() if rule.rule_id == "missing"]
    rng = random.Random(5)
    stream = []
    for episode in range(2_000):
        start = episode * 0.5
        stream.append(Observation("A2", f"o{episode}", start))
        if rng.random() < 0.5:
            # Late in the 3 s window, so a delayed B2 often lands after
            # the clone already expired the window.
            stream.append(
                Observation("B2", f"o{episode}", start + rng.uniform(1.5, 2.9))
            )
    stream.sort(key=canonical_key)
    arrival = list(
        ChaosInjector(
            ChaosConfig(seed=5, disorder_rate=0.3, max_lateness=MAX_LATENESS)
        ).inject(stream)
    )
    engine = _revise_engine(rules)
    quarter = len(arrival) // 4
    records = []
    sizes = []
    for start in range(0, quarter * 4, quarter):
        records += engine.submit_many(arrival[start:start + quarter])
        assert _settled_retractions(engine.speculation) == []
        snapshot = json.loads(json.dumps(engine.checkpoint()))
        sizes.append((len(engine.speculation.records), len(json.dumps(snapshot))))
        if start == quarter:
            engine = _revise_engine(rules)
            engine.restore(snapshot)
    records += engine.submit_many(arrival[quarter * 4:])
    records += engine.flush()
    assert engine.stats.dropped_too_late == 0
    assert engine.stats.retracted >= 100
    (early_count, early_bytes), (late_count, late_bytes) = sizes[0], sizes[3]
    assert late_count <= 1.5 * early_count
    assert late_bytes <= 1.5 * early_bytes

    ordinals: dict[tuple, int] = {}
    expected = []
    oracle = _oracle(rules, arrival)
    for detection in oracle:
        identity = _identity_of(detection.rule.rule_id, detection.instance)
        ordinal = ordinals.get(identity, 0)
        ordinals[identity] = ordinal + 1
        expected.append(_hash_identity(identity, ordinal))
    finals = [record for record in records if record.status == FINAL]
    assert [record.detection_id for record in finals] == expected
    assert _canon(finals) == _canon(oracle)
    _check_lifecycles(records)


def test_arrival_behind_an_advance_is_repaired_not_rejected():
    rules = _rules()
    engine = _revise_engine(rules)
    records = list(engine.submit(Observation("A1", "o1", 1.0)))
    records += engine.advance_to(3.0)
    # Canonically last in the buffer, yet older than the clone's clock.
    records += engine.submit(Observation("B1", "o1", 2.0))
    records += engine.flush()
    _check_lifecycles(records)
    finals = [record for record in records if record.status == FINAL]
    assert [record.rule.rule_id for record in finals] == ["pair"]
