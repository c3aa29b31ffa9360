"""Conformance of every detection backend to one contract.

:class:`repro.core.DetectionBackend` is what ``DurableEngine`` wraps and
what ``CepServer`` serves.  One parametrised fixture builds each backend
— the three engines, and ``DurableEngine`` over each of them — and the
tests feed all six the same seeded stream: same canonical detections,
same ``submit_many`` accounting, same answer after a mid-stream restore,
same detections over the wire.  A differential fleet over more wrappers
(REVISE finals) extends ``BACKENDS`` and nothing else.

The cluster router (:class:`repro.serve.cluster.CepRouter`) is a backend
too, but only the served-over-the-wire row applies to it: it relays to
workers and holds no detection state of its own, so there is nothing for
a restore or a recovery to bring back — its workers' ``DurableEngine``s
are the rows above.  It runs as one in-process worker behind the front
``CepServer``, fed the same stream, held to the same canonical answer.
"""

import asyncio
import inspect
import json
import random
from types import SimpleNamespace

import pytest

from repro import Engine, Observation, SubmitResult, Var, obs
from repro.core import DetectionBackend, ShardedEngine
from repro.core.errors import ShardError, TimeOrderError
from repro.core.expressions import TSeq
from repro.lang import format_event
from repro.resilience import DurableEngine, SupervisedEngine
from repro.rules import Rule
from repro.scenarios.pack import canon_detections
from repro.serve import AsyncClient, CepServer, loopback_connector, tcp_connector
from repro.serve.cluster import Cluster


def rules():
    """Two reader-pinned rules and a wildcard one: three shards."""

    def pair(rule_id, first, second):
        return Rule(
            rule_id,
            rule_id,
            TSeq(obs(first, Var("x")), obs(second, Var("x")), 0.0, 10.0),
            actions=[],
        )

    return [pair("ab", "a", "b"), pair("cd", "c", "d"), pair("any", None, "b")]


def stream(count=80, seed=3):
    rng = random.Random(seed)
    return [
        Observation(rng.choice("abcdz"), f"o{rng.randrange(6)}", 0.5 * tick)
        for tick in range(count)
    ]


def canon(detections):
    # Shards emit one submit's detections shard by shard, a single engine
    # in graph order: compare as a multiset.
    return sorted(canon_detections(detections))


BACKENDS = {
    "engine": lambda: Engine(rules()),
    "sharded": lambda: ShardedEngine(rules(), max_shards=3),
    "supervised": lambda: SupervisedEngine(rules()),
}


@pytest.fixture(
    params=[(kind, durable) for durable in (False, True) for kind in BACKENDS],
    ids=lambda param: ("durable-" if param[1] else "") + param[0],
)
def case(request, tmp_path):
    """``build()`` a fresh backend; ``revive(backend)`` what a kill leaves."""
    kind, durable = request.param
    factory = BACKENDS[kind]
    directory = str(tmp_path / "state")
    lives = []

    def build(make=factory, name="state"):
        backend = (
            DurableEngine(make, str(tmp_path / name), checkpoint_every=7)
            if durable
            else make()
        )
        lives.append(backend)
        return backend

    def revive(backend):
        if durable:  # the directory is all that survives
            revived, _report = DurableEngine.recover(
                factory, directory, checkpoint_every=7
            )
        else:  # the snapshot, through JSON, is all that survives
            revived = factory()
            revived.restore(json.loads(json.dumps(backend.checkpoint())))
        lives.append(revived)
        return revived

    yield SimpleNamespace(build=build, revive=revive, durable=durable, kind=kind)
    for backend in lives:
        if durable:
            backend.close()


def test_reference_detects_something():
    assert len(canon(Engine(rules()).run(stream()))) > 5
    assert len(ShardedEngine(rules(), max_shards=3).shards) == 3


def test_same_stream_same_detections(case):
    observations = stream()
    expected = canon(Engine(rules()).run(observations))
    backend = case.build()
    found = []
    for observation in observations[:30]:
        found.extend(backend.submit(observation))
    found.extend(backend.submit_many(observations[30:]))
    found.extend(backend.flush())
    assert canon(found) == expected


#: What each backend does with a reading older than its clock: the
#: factory, and ``(dropped, quarantined)`` or the error it raises.
LATE_READING = {
    "engine": (lambda: Engine(rules(), out_of_order="drop"), (1, 0)),
    "sharded": (BACKENDS["sharded"], ShardError),
    "supervised": (BACKENDS["supervised"], (0, 1)),
}


def test_submit_many_accounts_for_the_batch(case):
    observations = stream()
    result = case.build().submit_many(observations)
    assert isinstance(result, SubmitResult)
    assert result.accepted == len(observations)
    assert (result.dropped, result.quarantined) == (0, 0)
    assert result.detections is result
    # A late reading mid-batch: the counts are the wrapped backend's.
    make, outcome = LATE_READING[case.kind]
    late = Observation("z", "o0", 1.0)
    batch = observations[:10] + [late] + observations[10:20]
    backend = case.build(make, "late")
    if not isinstance(outcome, tuple):
        with pytest.raises(outcome):
            backend.submit_many(batch)
        return
    result = backend.submit_many(batch)
    assert (result.dropped, result.quarantined) == outcome
    assert result.accepted == len(batch) - 1
    assert canon(result) == canon(make().submit_many(batch))


@pytest.mark.parametrize("cut", [0, 1, 37, 80])
def test_restore_mid_stream_equals_uninterrupted(case, cut):
    observations = stream()
    expected = canon(Engine(rules()).run(observations))
    first = case.build()
    found = list(first.submit_many(observations[:cut]))
    revived = case.revive(first)
    found.extend(revived.submit_many(observations[cut:]))
    found.extend(revived.flush())
    assert canon(found) == expected


async def served(client, observations, count):
    """Submit and flush through ``client``; the canonical pushes it got."""
    async with client:
        await client.submit_many(observations)
        await client.flush(timeout=10)
        for _ in range(500):
            if len(client.detections) >= count:
                break
            await asyncio.sleep(0.01)
        return sorted(
            (f.rule, round(f.time, 9), tuple(sorted(f.bindings.items())))
            for f in client.detections
        )


def test_served_over_the_wire(case):
    observations = stream()
    expected = canon(Engine(rules()).run(observations))

    async def scenario():
        async with CepServer(case.build()) as server:
            client = AsyncClient(
                loopback_connector(server), subscribe=True, batch_size=9
            )
            return await served(client, observations, len(expected))

    assert asyncio.run(scenario()) == expected


def program():
    """``rules()`` as rule-language text, which is how a cluster ships rules."""
    return "\n".join(
        f"CREATE RULE {rule.rule_id}, {rule.name}\n"
        f"ON {format_event(rule.event)}\n"
        f"IF true\nDO ALERT '{rule.rule_id}'\n"
        for rule in rules()
    )


def test_router_served_over_the_wire(tmp_path):
    observations = stream()
    expected = canon(Engine(rules()).run(observations))

    async def scenario():
        cluster = Cluster(
            program(), workers=1, directory=str(tmp_path), inprocess=True
        )
        try:
            port = await cluster.start()
            client = AsyncClient(
                tcp_connector("127.0.0.1", port),
                client_id="contract",
                subscribe=True,
                batch_size=9,
            )
            return await served(client, observations, len(expected))
        finally:
            await cluster.stop()

    assert asyncio.run(scenario()) == expected


@pytest.mark.parametrize("kind", BACKENDS)
def test_engines_take_the_contract_arguments(kind):
    """``seq``/``first_seq`` are how a log numbers what it hands down."""
    backend = BACKENDS[kind]()
    for name, member in inspect.getmembers(DetectionBackend, inspect.isfunction):
        if name.startswith("_"):
            continue
        assert list(inspect.signature(member).parameters)[1:] == list(
            inspect.signature(getattr(backend, name)).parameters
        ), name
    backend.submit_many(stream(10), first_seq=100)
    assert backend.last_seq == 109
    backend.submit(stream(11)[10], seq=110)
    assert backend.last_seq == 110


def test_cepserver_names_the_missing_method():
    class NoBatch:
        def submit(self, observation, seq=None):
            return []

        def flush(self):
            return []

    with pytest.raises(TypeError, match=r"NoBatch.*submit_many\(\)"):
        CepServer(NoBatch())


#: A batch whose third reading is older than the clock, then a fourth.
LATE_BATCH = [
    Observation("a", "o1", 1.0),
    Observation("b", "o1", 2.0),
    Observation("a", "o2", 0.5),
    Observation("z", "o1", 3.0),
]


def tags(result):
    """``(index of the producing observation, rule id, time)`` per detection."""
    starts = [0, *result.ends]
    return [
        (index, detection.rule.rule_id, detection.time)
        for index, (begin, end) in enumerate(zip(starts, starts[1:]))
        for detection in result[begin:end]
    ]


def test_a_raising_batch_hands_back_what_it_detected():
    engine = Engine(rules()[:1], out_of_order="raise")
    with pytest.raises(TimeOrderError) as caught:
        engine.submit_many(LATE_BATCH)
    partial = caught.value.partial
    assert tags(partial) == [(1, "ab", 2.0)]
    assert partial.ends == [0, 1, 1]
    assert (partial.accepted, partial.dropped) == (2, 0)
    # Nothing stale rides out of the next, unrelated call.
    assert engine.submit(Observation("z", "o9", 3.0)) == []


def test_a_raising_shard_hands_back_the_batch_so_far():
    sharded = BACKENDS["sharded"]()
    with pytest.raises(ShardError) as caught:
        sharded.submit_many(LATE_BATCH)
    assert isinstance(caught.value.original, TimeOrderError)
    partial = caught.value.partial
    assert sorted(tags(partial)) == [(1, "ab", 2.0), (1, "any", 2.0)]
    assert len(partial.ends) == 3
    assert sharded.submit(Observation("z", "o9", 3.0)) == []


def test_supervision_quarantines_inside_one_batch():
    supervised = BACKENDS["supervised"]()
    result = supervised.submit_many(LATE_BATCH, first_seq=10)
    assert tags(result) == [(1, "ab", 2.0), (1, "any", 2.0)]
    assert len(result.ends) == len(LATE_BATCH)
    assert (result.accepted, result.quarantined) == (3, 1)
    assert [entry.observation for entry in supervised.quarantine.entries()] == [
        LATE_BATCH[2]
    ]
    assert supervised.last_seq == 13
