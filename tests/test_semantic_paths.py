"""Paper semantics on paths no other test reaches (§4.4–4.5).

* A ``NOT`` parent learns about a non-spontaneous ``SEQ+`` child by
  *querying* it when its window closes: ``SeqPlusState.query`` is the
  pull path, checked here against hand-derived detections.
* REVISE repairs a late arrival on a speculative clone that copies the
  sealed engine's runtime state node by node; ``SeqPlusState.copy_from``
  and ``PeriodicState.copy_from`` are the copies of the two operators
  whose state is runs and tick trains.  Their finals must equal the
  in-order detections, and so must the speculative answer before the
  flush; the windows outlast the revise horizon, so the sealed state a
  clone copies still holds open runs and live tick trains.

Each test also asserts that the method it is about was called, so a
refactor that routes around it cannot pass silently.
"""

import random

import pytest

from repro import Engine, Observation, Var, Within, obs
from repro.core import nodes
from repro.core.expressions import Not, Periodic, Seq, SeqPlus
from repro.core.speculate import FINAL, RETRACT, canonical_key
from repro.resilience.chaos import ChaosConfig, ChaosInjector
from repro.rules import Rule


@pytest.fixture
def calls(monkeypatch):
    """``calls(cls, name)`` wraps one method and returns its call log."""

    def wrap(cls, name):
        log = []
        original = getattr(cls, name)

        def spy(self, *args, **kwargs):
            log.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, spy)
        return log

    return wrap


def _canon(detections):
    return sorted(
        (
            d.rule.rule_id,
            round(d.time, 9),
            tuple(sorted((k, str(v)) for k, v in d.bindings.items())),
        )
        for d in detections
    )


def test_not_over_seq_plus_queries_the_run(calls):
    """``WITHIN(SEQ(x, NOT SEQ+(a)), 5)`` per object: an ``x`` fires 5 s
    later unless a run of ``a`` on the same object lies in ``(t_x, t_x
    + 5]``."""
    queries = calls(nodes.SeqPlusState, "query")
    rule = Rule(
        "no_run",
        "x with no run of a on the same object",
        Within(
            Seq(
                obs("x", Var("o")),
                Not(SeqPlus(obs("a", Var("o")), group_by=("o",))),
            ),
            5.0,
        ),
    )
    stream = [
        Observation("x", "o1", 0.0),
        Observation("a", "o1", 2.0),  # inside o1's window: no o1
        Observation("x", "o2", 3.0),
        Observation("a", "o3", 4.0),  # another object: o2 still fires
        Observation("x", "o3", 10.0),
        Observation("a", "o3", 20.0),  # after o3's window: o3 fires
        Observation("x", "o4", 30.0),
        Observation("a", "o4", 35.0),  # on o4's closed window end: no o4
    ]
    detections = list(Engine([rule]).run(stream))
    assert [(d.time, d.bindings) for d in detections] == [
        (8.0, {"o": "o2"}),
        (15.0, {"o": "o3"}),
    ]
    # One query per closing window, over (t_x, t_x + 5] with its object.
    assert [(start, end, dict(b)) for start, end, b, *_ in queries] == [
        (0.0, 5.0, {"o": "o1"}),
        (3.0, 8.0, {"o": "o2"}),
        (10.0, 15.0, {"o": "o3"}),
        (30.0, 35.0, {"o": "o4"}),
    ]


def _runs_and_ticks():
    return [
        Rule(
            "runs",
            "runs of a per object",
            Within(SeqPlus(obs("a", Var("o")), group_by=("o",)), 8.0),
        ),
        Rule(
            "ticks",
            "reminders after each b",
            Within(Periodic(obs("b", Var("o")), 1.0), 9.5),
        ),
    ]


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_revise_finals_equal_in_order_for_seq_plus_and_periodic(calls, seed):
    copies = {
        cls: calls(cls, "copy_from")
        for cls in (nodes.SeqPlusState, nodes.PeriodicState)
    }
    rng = random.Random(seed)
    stream, time = [], 0.0
    for _ in range(60):
        time += rng.choice((0.25, 0.5, 1.0, 2.0))
        stream.append(Observation(rng.choice("ab"), rng.choice(("o1", "o2")), time))
    arrival = list(
        ChaosInjector(
            ChaosConfig(seed=seed, disorder_rate=0.3, max_lateness=2.0)
        ).inject(stream)
    )
    assert any(b.timestamp < a.timestamp for a, b in zip(arrival, arrival[1:]))

    engine = Engine(_runs_and_ticks(), out_of_order="revise", revise_horizon=4.0)
    records = engine.submit_many(arrival)
    in_order = Engine(_runs_and_ticks())
    oracle = list(in_order.submit_many(sorted(arrival, key=canonical_key)))
    # Before the flush: each id's latest revision, retractions dropped.
    latest = {record.detection_id: record for record in records}
    answer = [r for r in latest.values() if r.status != RETRACT]
    assert _canon(answer) == _canon(oracle)

    records += engine.flush()
    oracle += in_order.flush()
    assert engine.stats.dropped_too_late == 0
    finals = [record for record in records if record.status == FINAL]
    assert {d.rule.rule_id for d in oracle} == {"runs", "ticks"}
    assert _canon(finals) == _canon(oracle)
    for cls, log in copies.items():
        assert log, f"{cls.__name__}.copy_from was never called"
