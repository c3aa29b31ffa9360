"""Micro-benchmarks for the substrates under the engine.

Not part of the paper's evaluation, but they keep the cost model of each
layer visible: EPC codecs, mini-SQL, the duplicate pre-filter, and raw
primitive-event dispatch.
"""

from __future__ import annotations

import random

import pytest

from repro import Engine, Observation, Var, obs
from repro.epc import EpcFactory, Sgtin96, decode
from repro.filtering import DuplicateFilter
from repro.sql import Database


def test_bench_epc_roundtrip(benchmark):
    tags = [Sgtin96(3, 614141, 7, 812345, serial) for serial in range(500)]
    payloads = [tag.to_hex() for tag in tags]

    def run():
        return [decode(payload) for payload in payloads]

    decoded = benchmark(run)
    assert decoded == tags


def test_bench_sql_insert_select(benchmark):
    def run():
        database = Database()
        database.execute("CREATE TABLE t (a, b, c)")
        database.execute("CREATE INDEX ON t (a)")
        for index in range(1_000):
            database.execute(
                "INSERT INTO t VALUES (k, v, 'x')",
                {"k": index % 50, "v": index},
            )
        return database.query("SELECT b FROM t WHERE a = 7")

    rows = benchmark(run)
    assert len(rows) == 20


def test_bench_duplicate_filter(benchmark):
    rng = random.Random(3)
    stream = [
        Observation("r1", f"tag{rng.randrange(50)}", t * 0.01)
        for t in range(5_000)
    ]

    def run():
        dup = DuplicateFilter(window=5.0)
        return sum(1 for _ in dup.filter(stream))

    passed = benchmark(run)
    assert 0 < passed < len(stream)


def test_bench_primitive_dispatch(benchmark):
    """Raw cost of routing observations that match a single primitive rule."""
    stream = [Observation("r1", f"tag{index}", float(index)) for index in range(5_000)]

    def run():
        engine = Engine()
        engine.watch(obs("r1", Var("o")))
        count = 0
        for observation in stream:
            count += len(engine.submit(observation))
        return count

    count = benchmark.pedantic(run, rounds=3, iterations=1)
    assert count == len(stream)


def test_bench_epc_factory(benchmark):
    def run():
        factory = EpcFactory()
        return [factory.item(812345) for _ in range(1_000)]

    epcs = benchmark(run)
    assert len(set(epcs)) == 1_000


def test_bench_rule_language_parsing(benchmark):
    source = """
    DEFINE E1 = observation("r1", o1, t1)
    DEFINE E2 = observation("r2", o2, t2)
    CREATE RULE r4, containment rule
    ON TSEQ(TSEQ+(E1, 0.1sec, 1sec); E2, 10sec, 20sec)
    IF true
    DO BULK INSERT INTO CONTAINMENT VALUES (o1, o2, t2, 'UC')
    CREATE RULE r5, asset monitoring
    ON WITHIN(observation("g", o4, t4), 5sec)
    IF true
    DO ALERT 'laptop {o4}'
    """

    def run():
        from repro.lang import parse_program

        return parse_program(source)

    program = benchmark(run)
    assert len(program.rules) == 2


def test_bench_reorder_buffer(benchmark):
    rng = random.Random(11)
    arrivals = [
        Observation("r", str(index), index + rng.uniform(-3, 3))
        for index in range(5_000)
    ]

    def run():
        engine = Engine(reorder_delay=6.0)
        engine.watch(obs("r"))
        return len(engine.submit_many(arrivals) + engine.flush())

    passed = benchmark(run)
    assert passed == len(arrivals)


def test_bench_store_analytics(benchmark):
    from repro.store import RfidStore, StoreAnalytics

    store = RfidStore()
    rng = random.Random(13)
    for index in range(300):
        epc = f"obj{index}"
        time = 0.0
        for location in ("factory", "truck", "store"):
            time += rng.uniform(10, 100)
            store.update_location(epc, location, time)

    def run():
        analytics = StoreAnalytics(store)
        return (
            analytics.average_dwell("truck"),
            len(analytics.objects_through("factory")),
        )

    dwell, through = benchmark(run)
    assert through == 300 and dwell > 0
