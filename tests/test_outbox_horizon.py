"""The outbox's id-level dedup set is bounded by the retained window.

On a REVISE stream every delivered detection carries a
``detection_id``; the outbox remembers delivered ids so that a
``provisional_timeout`` release and the ``final`` that follows it under
another ``(seq, ordinal)`` key never both run the sink.  An id only has
that duty until its final can no longer arrive or be replayed, so
``compact()`` must let it go — the journal and the in-memory set stay
flat over a long stream — without ever re-opening the duplicate window,
across compaction and ``recover()``.
"""

import os
from types import SimpleNamespace

from repro import Engine, Observation, Var, Within, obs
from repro.core.expressions import Not, Seq
from repro.resilience.durability import ActionOutbox, DurableEngine, read_journal
from repro.resilience.durability.outbox import _format_line
from repro.rules import Rule


def revision(did, status):
    return SimpleNamespace(
        detection_id=did, status=status, rule=SimpleNamespace(rule_id="r1")
    )


def memo_of(path):
    return [entry.detail for entry in read_journal(path) if entry.op == "m"]


class TestDeliveredIdsAreDropped:
    def test_ids_resolved_by_their_own_final_go_with_their_key(self, tmp_path):
        log = []
        sink = lambda d, seq, ordinal: log.append(d.detection_id)  # noqa: E731
        with ActionOutbox(str(tmp_path), sink, confidence="final") as outbox:
            for seq in range(10):
                assert outbox.deliver(revision(f"d{seq}", "final"), seq, 0)
            assert outbox.compact(4) == 5
            assert outbox._delivered_ids == {f"d{s}": s for s in range(5, 10)}
            path = outbox.path
        assert memo_of(path) == [{
            "op": "m", "seq": -1, "ord": 0,
            "dids": [f"d{s}" for s in range(5, 10)],
            "finals": list(range(5, 10)),
        }]
        with ActionOutbox(str(tmp_path), sink, confidence="final") as outbox:
            # The memo restores exactly what compaction kept, and the
            # kept keys still suppress their replayed finals.
            assert outbox._delivered_ids == {f"d{s}": s for s in range(5, 10)}
            assert outbox.deliver(revision("d7", "final"), 7, 0) is False
            assert outbox.compact(9) == 5
            assert outbox._delivered_ids == {}
        assert memo_of(path) == []
        assert log == [f"d{s}" for s in range(10)]

    def test_timeout_release_guards_until_its_final_is_covered(self, tmp_path):
        log = []
        sink = lambda d, seq, ordinal: log.append((d.detection_id, seq))  # noqa: E731
        kwargs = dict(confidence="final", provisional_timeout=0.0)
        with ActionOutbox(str(tmp_path), sink, **kwargs) as outbox:
            assert outbox.deliver(revision("late", "provisional"), 1, 0) is False
            # The next call releases the starved intent under its own key.
            assert outbox.deliver(revision("other", "final"), 2, 0) is True
            assert outbox.timed_out == 1
            assert outbox._delivered_ids == {"late": None, "other": 2}
            # A checkpoint past both keys: "other" is done, "late" is not.
            assert outbox.compact(5) == 2
            assert outbox._delivered_ids == {"late": None}
        # compact + recover(): the id survives in the memo.
        with ActionOutbox(str(tmp_path), sink, **kwargs) as outbox:
            assert outbox._delivered_ids == {"late": None}
            assert outbox.deliver(revision("late", "final"), 8, 0) is False
            assert outbox.suppressed == 1
            assert outbox._delivered_ids == {"late": 8}
            outbox.deliver(revision("pad", "final"), 9, 0)
            # Covered only up to seq 7: a crash would replay the final.
            outbox.compact(7)
            assert outbox._delivered_ids == {"late": 8, "pad": 9}
        with ActionOutbox(str(tmp_path), sink, **kwargs) as outbox:
            assert outbox._delivered_ids == {"late": 8, "pad": 9}
            assert outbox.deliver(revision("late", "final"), 8, 0) is False
            outbox.deliver(revision("pad2", "final"), 10, 0)
            assert outbox.compact(9) == 1
            assert outbox._delivered_ids == {"pad2": 10}
        assert log == [("late", 1), ("other", 2), ("pad", 9), ("pad2", 10)]

    def test_uncompacted_ids_wait_for_replay_to_show_their_final(self, tmp_path):
        """Ack lines do not say which revision resolved an id."""
        log = []
        sink = lambda d, seq, ordinal: log.append(d.detection_id)  # noqa: E731
        with ActionOutbox(str(tmp_path), sink, confidence="final") as outbox:
            outbox.deliver(revision("a", "final"), 3, 0)
        with ActionOutbox(str(tmp_path), sink, confidence="final") as outbox:
            assert outbox._delivered_ids == {"a": None}
            assert outbox.deliver(revision("a", "final"), 3, 0) is False
            assert outbox._delivered_ids == {"a": 3}
        assert log == ["a"]

    def test_memo_written_before_this_change_is_kept_whole(self, tmp_path):
        with open(tmp_path / "outbox.log", "wb") as handle:
            handle.write(_format_line(
                {"op": "m", "seq": -1, "ord": 0, "dids": ["x", "y"]}
            ))
        with ActionOutbox(str(tmp_path), lambda *_: None) as outbox:
            assert outbox._delivered_ids == {"x": None, "y": None}
            assert outbox.deliver(revision("x", "final"), 4, 0) is False


def _rules():
    """A pair rule, and its negation — which late data retracts."""
    a, b = obs("A", Var("o"), t=Var("t1")), obs("B", Var("o"), t=Var("t2"))
    return [
        Rule("pair", "A then B on one object", Within(Seq(a, b), 4.0)),
        Rule("missing", "A with no B in the window", Within(Seq(a, Not(b)), 3.0)),
    ]


def _stream(pairs):
    """One A-then-B pair per second; every fifth B arrives 3.2 s late,

    after ``missing`` has provisionally fired for its A.
    """
    stream = []
    for index in range(pairs):
        at = float(index)
        stream.append((at, Observation("A", f"o{index}", at)))
        arrival = at + 3.7 if index % 5 == 0 else at + 0.5
        stream.append((arrival, Observation("B", f"o{index}", at + 0.5)))
    return [observation for _arrival, observation in sorted(stream, key=lambda e: e[0])]


def test_long_revise_run_keeps_journal_and_id_set_flat(tmp_path):
    delivered = []
    directory = str(tmp_path / "state")
    kwargs = dict(
        checkpoint_every=25,
        confidence="final",
        sink=lambda d, seq, ordinal: delivered.append(d.detection_id),
    )

    def factory():
        return Engine(_rules(), out_of_order="revise", revise_horizon=5.0)

    stream = _stream(1500)
    ids, sizes = [], []
    durable = DurableEngine(factory, directory, **kwargs)
    for start in range(0, len(stream), 50):
        durable.submit_many(stream[start : start + 50])
        ids.append(len(durable.outbox._delivered_ids))
        sizes.append(os.path.getsize(durable.outbox.path))
    assert durable.engine.stats.dropped_too_late == 0
    assert durable.engine.stats.retracted > 100
    assert durable.outbox.cancelled > 100
    third = len(ids) // 3
    # Steady state from the first third on: nothing accumulates.
    assert max(ids[2 * third :]) <= max(ids[:third])
    assert max(sizes[2 * third :]) <= max(sizes[:third]) * 1.05
    assert max(ids) < 60  # two checkpoint intervals of pairs, not 1500
    # Crash without a clean close, recover, finish: finals exactly once.
    durable.wal.close()
    durable.outbox.close()
    recovered, report = DurableEngine.recover(factory, directory, **kwargs)
    with recovered:
        assert report.redelivered == 0
        recovered.flush()
        assert len(recovered.outbox._delivered_ids) < 60
    assert len(delivered) == len(set(delivered)) == 1500
