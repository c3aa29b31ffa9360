"""REVISE pays for content per change, and no byte moved.

A detection's *content* (leaves, time, bindings) decides "unchanged"
versus ``revise`` and is written into checkpoints.  It is hashed only
where it is compared or written; these tests pin that doing so left
every output byte where it was:

* the SHA-256 of the full record stream and of ``checkpoint()`` taken
  at fixed arrivals, on a disordered Fig. 9a stream, equal digests
  recorded before the content hash moved out of the per-detection path;
* the unchanged-check answers exactly what comparing the two
  :func:`_content_of` hashes answers, on instance pairs built to trip a
  shortcut: shared and equal-field leaves, permuted leaves, ``0.0`` /
  ``-0.0`` / NaN times and bindings equal only across types.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine
from repro.bench import build_events_axis_workload
from repro.core.instances import (
    CompositeInstance,
    NegationInstance,
    Observation,
    PrimitiveInstance,
)
from repro.core.speculate import _content_of, _unchanged
from repro.resilience.chaos import ChaosConfig, ChaosInjector

#: seed -> (record stream, checkpoints) SHA-256.
GOLDEN = {
    7: (
        "ee904a651b2bc5e7364cd52a93190e8cad75899dbaed3e9f92160e4ae9d23db6",
        "21dec9136ea727feec0b1657d68279fce280ceb317de4981aa47b9546c64af9d",
    ),
    21: (
        "644333fb52d3973328fdf1773ecdaf5063d4b7910fa6f5934ef05d080b6e1f64",
        "6e0ed92aefac49477b6947a3c9023ec84d7bfce4920b0a73b2da68572f95b1cc",
    ),
}
BATCH = 250
CHECKPOINT_EVERY = 1_000


def golden_arrival(size, seed):
    """Fig. 9a, ten lines, 20% of readings up to 2 s late (horizon 4)."""
    workload = build_events_axis_workload(size, n_rules=10, seed=seed)
    injector = ChaosInjector(
        ChaosConfig(seed=seed, disorder_rate=0.2, max_lateness=2.0)
    )
    return workload.rules, list(injector.inject(workload.observations))


def golden_engine(rules):
    return Engine(rules, out_of_order="revise", revise_horizon=4.0)


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_record_stream_and_checkpoints_are_byte_identical(seed):
    rules, arrival = golden_arrival(4_000, seed)
    engine = golden_engine(rules)
    records = []
    checkpoints = hashlib.sha256()
    for start in range(0, len(arrival), BATCH):
        records += engine.submit_many(arrival[start:start + BATCH])
        if (start + BATCH) % CHECKPOINT_EVERY == 0:
            checkpoints.update(
                json.dumps(engine.checkpoint(), sort_keys=True).encode()
            )
    records += engine.flush()
    checkpoints.update(json.dumps(engine.checkpoint(), sort_keys=True).encode())
    stream = hashlib.sha256()
    for record in records:
        stream.update(repr((
            record.rule.rule_id,
            record.detection_id,
            record.revision,
            record.status,
            repr(record.time),
            sorted((str(k), repr(v)) for k, v in record.bindings.items()),
        )).encode())
    assert (stream.hexdigest(), checkpoints.hexdigest()) == GOLDEN[seed]


# -- the unchanged-check against the hash ------------------------------------

def _nan():
    return float("nan")  # a fresh object each time: equal repr, not identical


TIMES = st.sampled_from([0.0, -0.0, 1.0, 2.5]) | st.builds(_nan)
VALUES = st.sampled_from([1, 1.0, True, "1", 0.0, -0.0, "o1"]) | st.builds(_nan)
BINDINGS = st.dictionaries(st.sampled_from(["o", "r", "t"]), VALUES, max_size=3)
OBJECTS = st.sampled_from(["o1", "o2", 1, 1.0])


def _retyped(value):
    """An equal value with another ``repr``, where there is one."""
    if isinstance(value, float) and value == 0.0:
        return -value
    if value != value:
        return _nan()
    if not isinstance(value, str) and value == 1:
        return {int: 1.0, float: True, bool: 1}[type(value)]
    return value


@st.composite
def _instance(draw, leaves, bindings):
    """Some instance tree over ``leaves`` carrying ``bindings`` on top."""
    if not leaves:
        return NegationInstance(0.0, 1.0, bindings)
    if len(leaves) == 1 and draw(st.booleans()):
        return PrimitiveInstance(leaves[0], bindings)
    primitives = [PrimitiveInstance(leaf) for leaf in leaves]
    split = draw(st.integers(min_value=0, max_value=len(primitives) - 1))
    if split:
        primitives = [CompositeInstance("TSEQ+", primitives[:split]),
                      *primitives[split:]]
    return CompositeInstance("SEQ", primitives, bindings)


def _other_bindings(draw, bindings):
    """The same dict, an equal copy, a reordered copy, the values retyped
    or under other names, or one value swapped."""
    choice = draw(st.sampled_from(
        ["same", "copy", "reordered", "retyped", "renamed", "swapped"]
    ))
    if choice == "same":
        return bindings
    if choice == "copy":
        return dict(bindings)
    if choice == "reordered":
        return dict(reversed(list(bindings.items())))
    if choice == "retyped":
        return {key: _retyped(value) for key, value in bindings.items()}
    if choice == "renamed":
        rename = {"o": "r", "r": "t", "t": "o"}
        return {rename[key]: value for key, value in bindings.items()}
    other = dict(bindings)
    other[draw(st.sampled_from(["o", "r", "t"]))] = draw(VALUES)
    return other


@st.composite
def detection_pairs(draw):
    fields = draw(st.lists(
        st.tuples(st.sampled_from(["A", "B"]), OBJECTS, TIMES), max_size=4,
    ))
    leaves = [Observation(*field) for field in fields]
    other_leaves = []
    for leaf in leaves:
        choice = draw(st.sampled_from(["same", "copy", "retyped", "another"]))
        if choice == "same":
            other_leaves.append(leaf)
        elif choice == "copy":
            other_leaves.append(Observation(leaf.reader, leaf.obj, leaf.timestamp))
        elif choice == "retyped":
            other_leaves.append(Observation(
                leaf.reader, _retyped(leaf.obj), _retyped(leaf.timestamp)
            ))
        else:
            other_leaves.append(Observation(
                draw(st.sampled_from(["A", "B"])), leaf.obj, draw(TIMES)
            ))
    if draw(st.booleans()):
        other_leaves = draw(st.permutations(other_leaves))
    resize = draw(st.sampled_from(["keep", "drop last", "repeat first"]))
    if resize == "drop last":
        other_leaves = other_leaves[:-1]
    elif resize == "repeat first" and other_leaves:
        other_leaves = [*other_leaves, other_leaves[0]]
    bindings = draw(BINDINGS)
    old = draw(_instance(leaves, bindings))
    new = draw(_instance(other_leaves, _other_bindings(draw, bindings)))
    old_time = draw(TIMES)
    new_time = old_time if draw(st.booleans()) else draw(TIMES)
    return old, old_time, new, new_time


@given(detection_pairs())
@settings(max_examples=400, deadline=None)
def test_unchanged_check_agrees_with_the_content_hash(pair):
    old, old_time, new, new_time = pair
    assert _unchanged(old, old_time, new, new_time) == (
        _content_of(old, old_time) == _content_of(new, new_time)
    )
