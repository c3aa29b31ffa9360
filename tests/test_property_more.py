"""Additional property-based suites: filtering oracles, SQL differential
testing, reorder_delay against REVISE, store invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, Observation, Var, Within, obs
from repro.core.expressions import Not, Seq
from repro.filtering import DuplicateFilter
from repro.obs import EngineObserver
from repro.readers import assert_ordered
from repro.sql import Database
from repro.store import RfidStore

# ---------------------------------------------------------------------------
# infield / outfield oracles
# ---------------------------------------------------------------------------


@st.composite
def reading_times(draw):
    """Strictly ordered reading times for one object on a 0.5s grid."""
    gaps = draw(st.lists(st.integers(1, 12), min_size=1, max_size=25))
    times = []
    current = 0.0
    for gap in gaps:
        current += gap * 0.5
        times.append(current)
    return times


def infield_oracle(times, period):
    """A reading is infield iff no reading in the closed-left lookback."""
    events = []
    for index, time in enumerate(times):
        prior = [t for t in times[:index] if time - period <= t < time]
        if not prior:
            events.append(time)
    return events


def outfield_oracle(times, period):
    """Outfield fires one period after a reading with no successor within
    the period (closed-right boundary keeps the object present)."""
    events = []
    for index, time in enumerate(times):
        successors = [t for t in times[index + 1 :] if time < t <= time + period]
        if not successors:
            events.append(time + period)
    return events


@given(reading_times(), st.integers(2, 10))
@settings(max_examples=150, deadline=None)
def test_infield_rule_matches_oracle(times, period_halves):
    period = period_halves * 0.5
    reader_var, object_var = Var("r"), Var("o")
    engine = Engine()
    engine.watch(
        Within(Seq(Not(obs(reader_var, object_var)), obs(reader_var, object_var)),
               period)
    )
    stream = [Observation("s", "x", time) for time in times]
    got = [detection.instance.t_end for detection in engine.run(stream)]
    assert got == infield_oracle(times, period)


@given(reading_times(), st.integers(2, 10))
@settings(max_examples=150, deadline=None)
def test_outfield_rule_matches_oracle(times, period_halves):
    period = period_halves * 0.5
    reader_var, object_var = Var("r"), Var("o")
    engine = Engine()
    engine.watch(
        Within(Seq(obs(reader_var, object_var), Not(obs(reader_var, object_var))),
               period)
    )
    stream = [Observation("s", "x", time) for time in times]
    got = sorted(detection.time for detection in engine.run(stream))
    assert got == sorted(outfield_oracle(times, period))


@given(reading_times(), st.integers(2, 10))
@settings(max_examples=100, deadline=None)
def test_duplicate_filter_matches_oracle(times, window_halves):
    window = window_halves * 0.5
    stream = [Observation("s", "x", time) for time in times]
    passed = [o.timestamp for o in DuplicateFilter(window).filter(stream)]
    expected = []
    last = -math.inf
    for time in times:
        if time - last >= window:
            expected.append(time)
            last = time
    assert passed == expected


# ---------------------------------------------------------------------------
# SQL differential oracle
# ---------------------------------------------------------------------------


@st.composite
def table_operations(draw):
    """A random workload of inserts/updates/deletes over a 2-column table."""
    return draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("insert"), st.integers(0, 5), st.integers(0, 100)
                ),
                st.tuples(
                    st.just("update"), st.integers(0, 5), st.integers(0, 100)
                ),
                st.tuples(st.just("delete"), st.integers(0, 5), st.just(0)),
            ),
            max_size=40,
        )
    )


@given(table_operations())
@settings(max_examples=150, deadline=None)
def test_sql_matches_python_oracle(operations):
    database = Database()
    database.execute("CREATE TABLE t (k, v)")
    database.execute("CREATE INDEX ON t (k)")
    oracle: list[dict] = []
    for kind, key, value in operations:
        if kind == "insert":
            database.execute("INSERT INTO t VALUES (a, b)", {"a": key, "b": value})
            oracle.append({"k": key, "v": value})
        elif kind == "update":
            database.execute(
                "UPDATE t SET v = b WHERE k = a", {"a": key, "b": value}
            )
            for row in oracle:
                if row["k"] == key:
                    row["v"] = value
        else:
            database.execute("DELETE FROM t WHERE k = a", {"a": key})
            oracle = [row for row in oracle if row["k"] != key]

    assert database.query("SELECT COUNT(*) FROM t") == [(len(oracle),)]
    for key in range(6):
        got = sorted(database.query("SELECT v FROM t WHERE k = a", {"a": key}))
        expected = sorted((row["v"],) for row in oracle if row["k"] == key)
        assert got == expected
    totals = database.query("SELECT SUM(v) FROM t")[0][0]
    expected_total = sum(row["v"] for row in oracle) if oracle else None
    assert totals == expected_total


# ---------------------------------------------------------------------------
# reorder_delay = REVISE's sealed half
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),
            st.sampled_from(["x", "y"]),
            st.integers(0, 12),
        ),
        min_size=2,
        max_size=12,
    ),
    st.integers(0, 4),
)
@settings(max_examples=300, deadline=None)
def test_reorder_delay_detections_are_revise_finals(readings, delay):
    """``reorder_delay=d`` detects exactly REVISE(d)'s ``final`` records,
    in order, and both count every arrival as accepted or too late."""
    arrivals = [
        Observation(reader, obj, float(time)) for reader, obj, time in readings
    ]
    event = Within(Seq(obs("a", Var("o")), obs("b", Var("o"))), 5)

    def canon(detections):
        return [
            (d.rule.rule_id, d.time, sorted(d.bindings.items()))
            for d in detections
        ]

    def finals(records):
        return [record for record in records if record.status == "final"]

    buffered = Engine(reorder_delay=float(delay))
    buffered.watch(event)
    detections = buffered.submit_many(arrivals)
    revise = Engine(out_of_order="revise", revise_horizon=float(delay))
    revise.watch(event)
    records = revise.submit_many(arrivals)
    for engine, result in ((buffered, detections), (revise, records)):
        assert result.accepted + result.dropped == len(arrivals)
        assert result.dropped == engine.stats.dropped_too_late
    # The same finals surface in the same call, not only by the flush.
    assert canon(detections) == canon(finals(records))
    assert canon(buffered.flush()) == canon(finals(revise.flush()))


class _Released(EngineObserver):
    """Records every reading the watermark releases to the host engine."""

    __slots__ = ("readings",)

    def __init__(self):
        self.readings = []

    def on_observation(self, observation):
        self.readings.append(observation)


def _release(arrivals, delay):
    """Run ``arrivals`` through ``reorder_delay=delay``; returns the
    released readings (flush included) and the submit result."""
    released = _Released()
    engine = Engine(reorder_delay=delay, observer=released)
    engine.watch(obs(Var("r"), Var("o")))
    result = engine.submit_many(arrivals)
    engine.flush()
    return released.readings, result, engine


@given(
    st.lists(st.integers(0, 100), max_size=40),
    st.integers(0, 20),
)
@settings(max_examples=150, deadline=None)
def test_reorder_buffer_invariants(arrival_times, delay):
    arrivals = [
        Observation("r", str(index), float(time))
        for index, time in enumerate(arrival_times)
    ]
    output, result, engine = _release(arrivals, float(delay))
    # Output is ordered and output + dropped accounts for every arrival.
    assert_ordered(output)
    assert len(output) == result.accepted
    assert len(output) + engine.stats.dropped_too_late == len(arrivals)
    # Nothing is fabricated.
    assert {o.obj for o in output} <= {o.obj for o in arrivals}


@given(st.lists(st.integers(0, 50), max_size=30))
@settings(max_examples=100, deadline=None)
def test_reorder_with_large_delay_is_full_sort(arrival_times):
    arrivals = [
        Observation("r", str(index), float(time))
        for index, time in enumerate(arrival_times)
    ]
    output, result, engine = _release(arrivals, 1000.0)
    assert [o.timestamp for o in output] == sorted(o.timestamp for o in arrivals)
    assert result.dropped == 0
    assert engine.stats.dropped_too_late == 0


# ---------------------------------------------------------------------------
# store invariants
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["x", "y"])),
        max_size=25,
    )
)
@settings(max_examples=100, deadline=None)
def test_location_periods_partition_time(moves):
    """Location periods of an object never overlap and chain exactly."""
    store = RfidStore()
    time = 0.0
    for _object_location, location in moves:
        time += 1.0
        store.update_location("obj", location, time)
    history = store.location_history("obj")
    for (earlier_loc, earlier_start, earlier_end), (later_loc, later_start, _e) in zip(
        history, history[1:]
    ):
        assert earlier_end == later_start  # contiguous periods
        assert earlier_loc != later_loc  # re-observation merged, not split
    if history:
        assert history[-1][2] == "UC"
