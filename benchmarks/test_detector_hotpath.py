"""Hot-path guard: Python-level calls per observation through the detector.

The engine compiles its per-observation path once — reader routes,
compiled primitive matchers, per-node emit plans — and the main loop
only executes it.  The regression this guards against is re-interpreting
the graph per event: re-reading a primitive's shape, walking parent
edges through the state table, building join keys no node uses, polling
an empty pseudo queue.  Each of those is a Python call per observation.

It is a count, not a timing, so it is deterministic on any host: the
``sys.setprofile`` ``"call"`` events (generator resumptions included)
per observation over ``Engine.submit_many`` plus ``flush``, after a
first observation has built the plan.  Twice the observations must cost
the same per observation, and both workloads stay under a ceiling.
Before the plan existed the counts were 28.56 (Fig. 9a) and 27.2
(returns-fraud, whose rule conditions and store actions account for
about 7 of its calls).
"""

from __future__ import annotations

import sys

import pytest

from repro import Engine, FunctionRegistry
from repro.bench import build_events_axis_workload
from repro.scenarios import get_pack
from repro.store import RfidStore
from repro.workload import GeneratedWorkload, WorkloadConfig


def _fig9(size):
    workload = build_events_axis_workload(size, n_rules=10, seed=7)
    return lambda: Engine(workload.rules, context="chronicle"), workload.observations


def _returns_fraud(size):
    source = get_pack("returns-fraud").episode_source(lines=4)
    config = WorkloadConfig(
        pack="returns-fraud",
        seed=7,
        target_observations=size,
        lines=4,
        cardinality=100_000,
        theta=0.9,
    )
    observations = list(GeneratedWorkload(source, config))

    def make_engine():
        store = RfidStore()
        for reader, location in source.placements():
            store.place_reader(reader, location)
        return Engine(
            source.rules(), store=store, functions=FunctionRegistry(),
            context="chronicle",
        )

    return make_engine, observations


def calls_per_observation(make_engine, observations) -> float:
    engine = make_engine()
    engine.submit(observations[0])
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        engine.submit_many(observations[1:])
        engine.flush()
    finally:
        sys.setprofile(None)
    return calls / (len(observations) - 1)


@pytest.mark.parametrize(
    "build, sizes, ceiling",
    [(_fig9, (1200, 2400), 20.0), (_returns_fraud, (2000, 4000), 22.0)],
    ids=["fig9", "returns-fraud"],
)
def test_calls_per_observation_are_flat_and_bounded(build, sizes, ceiling):
    small, large = (calls_per_observation(*build(size)) for size in sizes)
    print(f"\ncalls per observation: {small:.2f} at {sizes[0]}, "
          f"{large:.2f} at {sizes[1]}")
    assert abs(small - large) <= 0.1
    assert large <= ceiling
