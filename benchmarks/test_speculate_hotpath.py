"""Hot-path guard: what REVISE's bookkeeping costs per observation.

Speculation should pay where a late arrival changes something, not per
detection.  The regressions this guards against:

* hashing a detection's content (``_content_of``: a ``repr`` of leaves,
  time and bindings, then SHA-1) for every provisional and final, when
  only a checkpoint writes it down;
* rebuilding the clone's restricted replay plan on every repair, when
  there are only as many distinct dirty sets as readers, plus the whole
  window;
* re-walking instance trees through nested generators, or running the
  insertion and release machinery for an arrival that arrives in order.

Counts, not timings, so they hold on any host: ``sys.setprofile``
``"call"`` events per observation over ``Engine.submit_many`` plus
``flush`` after a first observation, on the input of
``tests/test_speculate_content.py``'s golden (Fig. 9a, ten lines, 20%
of readings up to 2 s late, horizon 4).  Twice the observations must
cost the same per observation.  Before this guard the count was 95.5
(about 48 now), with 0.82 SHA-1 digests per observation (0.41 now, the
detection ids) and a restricted plan built on each of the 2,969 repairs
of a 16k stream (11 now: one per production line, plus the whole
window).

``reorder_delay`` runs the same watermark driver without the
speculation; on the same stream with delay 4 it must cost about the
in-order path (~14 calls per observation on Fig. 9a) and never build
the clone.
"""

from __future__ import annotations

import sys

import pytest

from repro import Engine
from repro.bench import build_events_axis_workload
from repro.core.speculate import _content_of
from repro.resilience.chaos import ChaosConfig, ChaosInjector

SEED = 7
CEILING = 75.0
#: ``reorder_delay`` is the sealed half alone: about the in-order count.
REORDER_DELAY_CEILING = 16.6


def _disordered(size):
    workload = build_events_axis_workload(size, n_rules=10, seed=SEED)
    arrival = list(
        ChaosInjector(
            ChaosConfig(seed=SEED, disorder_rate=0.2, max_lateness=2.0)
        ).inject(workload.observations)
    )
    return workload, arrival


def _counted_run(size):
    workload, arrival = _disordered(size)
    engine = Engine(workload.rules, out_of_order="revise", revise_horizon=4.0)
    engine.submit(arrival[0])
    counts = {"calls": 0, "content": 0}
    content_code = _content_of.__code__

    def count(frame, event, arg):
        if event == "call":
            counts["calls"] += 1
            if frame.f_code is content_code:
                counts["content"] += 1

    sys.setprofile(count)
    try:
        engine.submit_many(arrival[1:])
    finally:
        sys.setprofile(None)
    # The clone's plan lives until flush() resets the clone.
    builds = len(engine.speculation._spec_engine._plan.restrictions)
    sys.setprofile(count)
    try:
        engine.flush()
    finally:
        sys.setprofile(None)
    per_observation = counts["calls"] / (len(arrival) - 1)
    outside_checkpoint = counts["content"]
    sys.setprofile(count)
    try:
        engine.checkpoint()
    finally:
        sys.setprofile(None)
    inside_checkpoint = counts["content"] - outside_checkpoint
    return engine, per_observation, outside_checkpoint, inside_checkpoint, builds


def _reorder_delay_run(size):
    """The same stream behind ``reorder_delay=4``: calls per observation."""
    workload, arrival = _disordered(size)
    engine = Engine(workload.rules, reorder_delay=4.0)
    engine.submit(arrival[0])
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        engine.submit_many(arrival[1:])
        engine.flush()
    finally:
        sys.setprofile(None)
    return engine, calls / (len(arrival) - 1)


@pytest.fixture(scope="module")
def runs():
    return {size: _counted_run(size) for size in (4_000, 8_000)}


def test_calls_per_observation_are_flat_and_bounded(runs):
    (_, small, *_), (_, large, *_) = runs[4_000], runs[8_000]
    print(f"\ncalls per observation: {small:.2f} at 4000, {large:.2f} at 8000")
    assert abs(small - large) <= 0.5
    assert large <= CEILING


def test_content_is_hashed_only_by_checkpoint(runs):
    for engine, _calls, outside, inside, _builds in runs.values():
        assert engine.stats.sealed > 0
        assert outside == 0
        # The counter does see the hashes a checkpoint writes.
        assert inside == len(engine.speculation.records) > 0


def test_restricted_plans_are_built_once_per_dirty_set(runs):
    for engine, _calls, _outside, _inside, builds in runs.values():
        readers = len(engine.graph.primitives_by_reader)
        print(f"\nrestricted plans built: {builds} for {readers} reader literals")
        assert 0 < builds <= readers + 1


def test_reorder_delay_costs_about_the_in_order_path():
    (engine, small), (_, large) = (
        _reorder_delay_run(size) for size in (4_000, 8_000)
    )
    print(f"\nreorder_delay calls per observation: {small:.2f} at 4000, "
          f"{large:.2f} at 8000")
    assert abs(small - large) <= 0.5
    assert large <= REORDER_DELAY_CEILING
    # Never speculates: no manager exposed, no clone built.
    assert engine.speculation is None
    assert engine._late._spec_engine is None
    assert engine.stats.sealed == engine.stats.speculative == 0
