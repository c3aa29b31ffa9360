"""Cross-configuration equivalence properties of the engine.

Structural optimizations (sub-graph merging), operational knobs (GC
cadence) and the life of the compiled per-observation plan must never
change detection results; these properties pin that down on randomized
streams and rule sets.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, FunctionRegistry, Observation, Var, Within, obs
from repro.core.expressions import And, Not, Seq, TSeq, TSeqPlus
from repro.core.speculate import FINAL, RETRACT, canonical_key
from repro.obs import MetricsRegistry, rollup
from repro.resilience.chaos import ChaosConfig, ChaosInjector


@st.composite
def streams(draw, max_size=35):
    entries = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("A", "B", "C")),
                st.sampled_from(("o1", "o2")),
                st.integers(0, 8),
            ),
            max_size=max_size,
        )
    )
    stream = []
    time = 0.0
    for reader, obj, gap in entries:
        time += gap * 0.5
        stream.append(Observation(reader, obj, time))
    return stream


def rule_set():
    """Three rules with a shared sub-event (the obs('A') leaf)."""
    shared = obs("A", Var("o"))
    return [
        Within(Seq(shared, obs("B", Var("o"))), 10),
        TSeq(TSeqPlus(shared, 0.5, 2.0), obs("C", Var("o2")), 1.0, 6.0),
        Within(And(shared, Not(obs("C", Var("o")))), 4),
    ]


def detect(stream, **engine_kwargs):
    engine = Engine(**engine_kwargs)
    for index, event in enumerate(rule_set()):
        engine.watch(event, name=f"rule-{index}")
    return [
        (detection.rule.rule_id, round(detection.time, 6),
         round(detection.instance.t_begin, 6))
        for detection in engine.run(stream)
    ]


@given(streams())
@settings(max_examples=100, deadline=None)
def test_merge_flag_does_not_change_results(stream):
    merged = detect(stream, merge_common_subgraphs=True)
    unmerged = detect(stream, merge_common_subgraphs=False)
    assert merged == unmerged


@given(streams())
@settings(max_examples=100, deadline=None)
def test_gc_cadence_does_not_change_results(stream):
    eager = detect(stream, gc_every=1)
    lazy = detect(stream, gc_every=10**9)
    assert eager == lazy


@given(streams())
@settings(max_examples=75, deadline=None)
def test_chronicle_detections_subset_of_unrestricted(stream):
    """Chronicle restricts unrestricted: every chronicle SEQ match exists
    among the unrestricted matches of the same event."""
    event = Within(Seq(obs("A", Var("o")), obs("B", Var("o"))), 10)

    def pairs(context_name):
        engine = Engine(context=context_name)
        engine.watch(event)
        found = set()
        for detection in engine.run(stream):
            observations = detection.instance.observations()
            found.add(tuple((o.reader, o.obj, o.timestamp) for o in observations))
        return found

    assert pairs("chronicle") <= pairs("unrestricted")


@given(streams())
@settings(max_examples=75, deadline=None)
def test_submit_batching_is_irrelevant(stream):
    """Detections are identical whether results are drained per-submit
    or all at once through run()."""
    engine_a = Engine()
    engine_a.watch(rule_set()[0])
    collected = []
    for observation in stream:
        collected.extend(engine_a.submit(observation))
    collected.extend(engine_a.flush())

    engine_b = Engine()
    engine_b.watch(rule_set()[0])
    streamed = list(engine_b.run(stream))

    key = lambda d: (d.time, d.instance.t_begin, d.instance.t_end)  # noqa: E731
    assert [key(d) for d in collected] == [key(d) for d in streamed]


# -- the compiled plan's lifecycle ----------------------------------------------
#
# The engine compiles its per-observation path (routes, matchers, emit
# plans) at the first observation and discards it on add_rule, reset()
# and attach_metrics().  Whatever happens to the plan, the detections,
# in order, are those of a fresh uninstrumented run.


def plan_engine(**engine_kwargs):
    """rule_set() plus a group-reader rule and a wildcard-reader rule, so
    every kind of route is compiled."""
    engine = Engine(
        functions=FunctionRegistry(group={"A": "dock", "B": "dock"}.get),
        **engine_kwargs,
    )
    for index, event in enumerate(rule_set()):
        engine.watch(event, name=f"rule-{index}")
    engine.watch(Within(Seq(obs(group="dock", obj=Var("o")), obs("C", Var("o"))), 3),
                 name="grouped")
    engine.watch(Within(Seq(obs(Var("r"), Var("o")), obs("C", Var("o"))), 1),
                 name="anywhere")
    return engine


def seeded_stream(seed, size=300):
    rng = random.Random(seed)
    stream, time = [], 0.0
    for _ in range(size):
        time += rng.randrange(0, 9) * 0.5
        stream.append(Observation(rng.choice("ABC"), rng.choice(("o1", "o2")), time))
    return sorted(stream, key=canonical_key)


def detection_key(detection):
    instance = detection.instance
    return (
        detection.rule.rule_id,
        detection.time,
        instance.t_begin,
        instance.t_end,
        tuple(instance.bindings.items()),
        tuple((o.reader, o.obj, o.timestamp) for o in instance.observations()),
    )


def attach_metrics_midway(stream):
    engine = plan_engine()
    registry = MetricsRegistry()
    got = []
    for index, observation in enumerate(stream):
        if index == 100:
            engine.attach_metrics(registry)
        got += engine.submit(observation)
    latency = rollup(registry, "rceda_observation_latency_seconds")
    assert latency["count"] == len(stream) - 100
    return got + engine.flush()


def reset_and_rerun(stream):
    engine = plan_engine()
    list(engine.run(stream))
    engine.reset()
    return list(engine.run(stream))


def restore_midway(stream):
    engine = plan_engine()
    got = engine.submit_many(stream[:150])
    restored = plan_engine()
    restored.restore(engine.checkpoint())
    return got + restored.submit_many(stream[150:]) + restored.flush()


def revise_finals(stream):
    """Disordered arrival: the speculative clone repairs through its own
    routes; its standing view tracks the in-order answer and the sealed
    finals equal it."""
    arrival = list(
        ChaosInjector(ChaosConfig(seed=5, disorder_rate=0.3, max_lateness=1.0))
        .inject(stream)
    )
    engine = plan_engine(out_of_order="revise", revise_horizon=2.0)
    records = engine.submit_many(arrival)
    latest = {record.detection_id: record for record in records}
    view = [record for record in latest.values() if record.status != RETRACT]
    in_order = list(plan_engine().run(stream, flush=False))
    assert sorted(map(detection_key, view)) == sorted(map(detection_key, in_order))
    records += engine.flush()
    assert engine.stats.dropped_too_late == 0
    return [record for record in records if record.status == FINAL]


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize(
    "lifecycle",
    [attach_metrics_midway, reset_and_rerun, restore_midway, revise_finals],
)
def test_plan_lifecycle_does_not_change_detections(lifecycle, seed):
    stream = seeded_stream(seed)
    fresh = list(plan_engine().run(stream))
    got = lifecycle(stream)
    assert [detection_key(d) for d in got] == [detection_key(d) for d in fresh]


@pytest.mark.parametrize("seed", [3, 8])
def test_rule_enabled_is_read_per_firing(seed):
    """Disable a rule for observations 100-199 of a running engine: it
    loses exactly the firings of that window, nothing else changes."""
    stream = seeded_stream(seed)
    fresh = plan_engine()
    by_submit = [(index, d) for index, observation in enumerate(stream)
                 for d in fresh.submit(observation)]
    expected = [d for index, d in by_submit
                if not (d.rule.rule_id == "rule-1" and 100 <= index < 200)]
    flushed = fresh.flush()
    expected += flushed

    engine = plan_engine()
    got = []
    for index, observation in enumerate(stream):
        engine.rule("rule-1").enabled = not 100 <= index < 200
        got += engine.submit(observation)
    got += engine.flush()
    assert [detection_key(d) for d in got] == [detection_key(d) for d in expected]
    assert len(got) < len(by_submit) + len(flushed)  # the window lost firings
