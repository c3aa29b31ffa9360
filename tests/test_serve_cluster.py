"""Tests for the multi-process cluster layer: router, workers, fan-in.

Fast variants of the cluster guarantees run here in-process (workers in
the same event loop, crashes via ``abort()``): round-robin placement,
detection equivalence with a single-process baseline, deterministic
fan-in ordering, no duplicates across crash recovery (WAL-tail replay),
and the relayed-provenance batch API underneath it all.
The subprocess + SIGKILL variant is ``python -m repro chaos cluster``.
"""

import asyncio
import json
import os

import pytest

from repro import Engine
from repro.core.sharding import CATCH_ALL
from repro.lang import parse_rules
from repro.resilience.durability import DurableEngine, decode_record, read_wal
from repro.resilience.durability.engine import (
    _resolve_client_seqs,
)
from repro.serve import ClientError, ErrorFrame, RetryConfig, encode_frame
from repro.serve.client import AsyncClient, tcp_connector
from repro.serve.cluster import (
    SINK_FILENAME,
    Cluster,
    _worker_for_spec,
    plan_cluster,
)
from repro.serve.drill import cluster_program, run_cluster_drill
from repro.simulator import simulate_multi_packing
from repro.store import RfidStore


def build_workload(lines=2, cases_per_line=6, seed=5):
    trace = simulate_multi_packing(
        lines=lines, cases_per_line=cases_per_line, items_per_case=5, seed=seed
    )
    program = cluster_program(trace.reader_pairs)
    return program, list(trace.observations)


def canon_engine(detections):
    return sorted(
        (d.rule.rule_id, round(d.time, 9), tuple(sorted(d.bindings.items())))
        for d in detections
    )


def canon_frames(frames):
    return sorted(
        (f.rule, round(f.time, 9), tuple(sorted(f.bindings.items())))
        for f in frames
    )


def baseline(program, stream):
    engine = Engine(parse_rules(program), store=RfidStore())
    return canon_engine(engine.run(stream))


async def eventually(predicate, timeout=10.0, message="condition not reached"):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError(message)
        await asyncio.sleep(0.01)


WILDCARD_RULE = """
CREATE RULE any_read, every reading
ON observation(r, o, t)
IF true
DO ALERT 'read'
"""


class TestClusterPlan:
    def program(self, lines=4):
        """Four containment rules on disjoint readers, plus a wildcard
        rule: a plan with up to four reader shards and the catch-all."""
        program, _stream = build_workload(lines=lines, cases_per_line=1)
        return program + WILDCARD_RULE

    def rules(self, lines=4):
        return parse_rules(self.program(lines))

    def test_assignment_is_balanced(self):
        # Round-robin: no node holds more than ceil(shards / nodes).
        plan = plan_cluster(self.rules(lines=4), 2)
        shards = len(plan.shard_plan.shard_names)
        assert CATCH_ALL in plan.assignment and shards == 3
        per_node = {}
        for node in plan.assignment.values():
            per_node[node] = per_node.get(node, 0) + 1
        assert max(per_node.values()) <= -(-shards // 2)

    def test_assignment_is_deterministic(self):
        first = plan_cluster(self.rules(), 3)
        second = plan_cluster(self.rules(), 3)
        assert first.assignment == second.assignment
        assert first.nodes == second.nodes

    def test_every_shard_is_assigned(self):
        plan = plan_cluster(self.rules(), 2)
        assert sorted(plan.assignment) == sorted(plan.shard_plan.shard_names)
        assert set(plan.assignment.values()) <= set(plan.nodes)

    @pytest.mark.parametrize(
        "workers, expected",
        [
            (1, {"shard-0": "worker-0", CATCH_ALL: "worker-0"}),
            (
                2,
                {
                    "shard-0": "worker-0",
                    "shard-1": "worker-1",
                    CATCH_ALL: "worker-0",
                },
            ),
            (
                3,
                {
                    "shard-0": "worker-0",
                    "shard-1": "worker-1",
                    "shard-2": "worker-2",
                    CATCH_ALL: "worker-0",
                },
            ),
        ],
    )
    def test_round_robin_assignment_is_pinned(self, workers, expected):
        assert plan_cluster(self.rules(), workers).assignment == expected

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_subprocess_worker_plan_hosts_its_assigned_shards(
        self, tmp_path, workers
    ):
        # A subprocess worker re-parses the program and re-plans from
        # its spec; it must arrive at the router's shards and rules.
        cluster = Cluster(
            self.program(),
            workers=workers,
            directory=str(tmp_path / "cluster"),
        )
        plan = cluster.plan
        for node in plan.nodes:
            worker = _worker_for_spec(cluster._spec_for(node))
            assert worker.shards == plan.shards_for(node)
            assert {
                shard: worker.plan.placement()[shard] for shard in worker.shards
            } == {
                shard: plan.shard_plan.placement()[shard]
                for shard in plan.shards_for(node)
            }


class TestClusterEndToEnd:
    def _run_once(self, program, stream, expected_count, tmp, tag):
        async def scenario():
            cluster = Cluster(
                program,
                workers=2,
                directory=os.path.join(tmp, tag),
                inprocess=True,
            )
            try:
                port = await cluster.start()
                client = AsyncClient(
                    tcp_connector("127.0.0.1", port),
                    client_id="e2e",
                    subscribe=True,
                    batch_size=16,
                )
                async with client:
                    await client.submit_many(stream)
                    await client.flush(timeout=30)
                    await eventually(
                        lambda: len(client.detections) >= expected_count
                    )
                    return list(client.detections)
            finally:
                await cluster.stop()

        return asyncio.run(scenario())

    def test_detections_match_single_process_baseline(self, tmp_path):
        program, stream = build_workload()
        expected = baseline(program, stream)
        frames = self._run_once(
            program, stream, len(expected), str(tmp_path), "a"
        )
        assert canon_frames(frames) == expected

    def test_fan_in_order_is_deterministic_and_documented(self, tmp_path):
        # The documented order (see repro.serve.cluster): epochs release
        # in client-submission order; within an epoch, shards in route
        # order, each shard's detections in firing order; every frame is
        # re-stamped with the epoch's end seq and a per-epoch ordinal.
        program, stream = build_workload()
        expected = baseline(program, stream)
        first = self._run_once(program, stream, len(expected), str(tmp_path), "b1")
        second = self._run_once(program, stream, len(expected), str(tmp_path), "b2")
        as_tuples = lambda frames: [
            (f.rule, round(f.time, 9), f.seq, f.ordinal) for f in frames
        ]
        assert as_tuples(first) == as_tuples(second)
        keys = [(f.seq, f.ordinal) for f in first]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        # Ordinals are renumbered per epoch: each epoch's block starts at 0.
        by_seq = {}
        for f in first:
            by_seq.setdefault(f.seq, []).append(f.ordinal)
        for ordinals in by_seq.values():
            assert ordinals == list(range(len(ordinals)))


class TestClusterRecovery:
    def test_crash_recovery_replays_wal_tail_without_duplicates(
        self, tmp_path
    ):
        # Kill a worker without checkpointing (in-process abort), keep
        # streaming into the hole, recover it: recovery replays the WAL
        # tail through the outbox, so sink deliveries stay exactly-once
        # and no duplicate detections reach the subscriber.
        program, stream = build_workload(cases_per_line=8)
        expected = baseline(program, stream)
        directory = str(tmp_path / "crash")

        async def scenario():
            cluster = Cluster(
                program,
                workers=2,
                directory=directory,
                sink=True,
                inprocess=True,
            )
            try:
                port = await cluster.start()
                victim = cluster.plan.assignment[
                    sorted(cluster.plan.assignment)[0]
                ]
                client = AsyncClient(
                    tcp_connector("127.0.0.1", port),
                    client_id="crash",
                    subscribe=True,
                    batch_size=8,
                )
                async with client:
                    third = len(stream) // 3
                    await client.submit_many(stream[:third])
                    await cluster.kill_worker(victim)
                    await client.submit_many(stream[third : 2 * third])
                    await cluster.restart_worker(victim)
                    await client.submit_many(stream[2 * third :])
                    await client.flush(timeout=30)
                    await asyncio.sleep(0.2)
                    pushed = canon_frames(client.detections)
                return cluster.plan, pushed
            finally:
                await cluster.stop()

        plan, pushed = asyncio.run(scenario())
        assert len(pushed) == len(set(pushed))
        assert set(pushed) <= set(expected) and pushed

        deliveries = []
        for shard, node in plan.assignment.items():
            sink_path = os.path.join(directory, node, shard, SINK_FILENAME)
            if not os.path.exists(sink_path):
                continue
            with open(sink_path, encoding="utf-8") as handle:
                for line in handle:
                    payload = json.loads(line)
                    deliveries.append(
                        (
                            (shard, payload["seq"], payload["ordinal"]),
                            (
                                payload["rule"],
                                round(payload["time"], 9),
                                tuple(sorted(payload["bindings"].items())),
                            ),
                        )
                    )
        keys = [key for key, _ in deliveries]
        assert len(keys) == len(set(keys))
        assert sorted(canon for _, canon in deliveries) == expected

    def test_inprocess_drill_passes(self, tmp_path):
        report = run_cluster_drill(
            seed=13,
            lines=2,
            cases_per_line=6,
            workers=2,
            directory=str(tmp_path / "drill"),
            inprocess=True,
            timeout=60.0,
            report_path=str(tmp_path / "drill.json"),
        )
        failed = {
            name: entry
            for name, entry in report["checks"].items()
            if not entry["ok"]
        }
        assert report["ok"], failed
        # Like the other drills, it says where it wrote the report.
        with open(report["report_path"], encoding="utf-8") as handle:
            assert json.load(handle)["checks"] == report["checks"]


class TestWorkerProcess:
    def test_subprocess_worker_starts_without_parent_pythonpath(
        self, tmp_path, monkeypatch
    ):
        # The worker runs `python -m repro ...`; start() itself must put
        # the directory holding `repro` on the child's path.
        monkeypatch.delenv("PYTHONPATH", raising=False)
        program, _stream = build_workload()

        async def scenario():
            cluster = Cluster(
                program,
                workers=1,
                directory=str(tmp_path / "cluster"),
                inprocess=False,
            )
            try:
                return await asyncio.wait_for(cluster.start(), timeout=60)
            finally:
                await cluster.stop()

        assert asyncio.run(scenario()) > 0


class TestRelayedProvenance:
    """The per-observation client-seq batch API the router relies on."""

    def test_contiguous_form_unchanged(self):
        client_id, seqs = _resolve_client_seqs(("c", 7), 3)
        assert client_id == "c" and list(seqs) == [7, 8, 9]

    def test_explicit_seqs_accepted_with_gaps(self):
        client_id, seqs = _resolve_client_seqs(("c", (1, 4, 9)), 3)
        assert client_id == "c" and list(seqs) == [1, 4, 9]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            _resolve_client_seqs(("c", (1, 2)), 3)

    def test_non_ascending_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            _resolve_client_seqs(("c", (3, 2, 5)), 3)

    def test_gapped_batch_commits_exact_seqs_and_frontier(self, tmp_path):
        program, stream = build_workload(lines=1, cases_per_line=2)
        directory = str(tmp_path / "wal")
        factory = lambda: Engine(parse_rules(program), store=RfidStore())
        with DurableEngine(factory, directory) as durable:
            gapped = tuple(range(0, 2 * len(stream), 2))
            durable.submit_many(stream, client=("relay", gapped))
            assert durable.client_frontiers["relay"] == gapped[-1]
        recorded = [
            client[1]
            for record in read_wal(os.path.join(directory, "wal"))
            if (client := decode_record(record)[1]) is not None
        ]
        assert recorded == list(gapped)


REVISION_PROGRAM = """
CREATE RULE missing_case, item never cased
ON WITHIN(observation('dock', o, t1); NOT observation('case', o, t2), 5sec)
IF true
DO ALERT 'missing case'

CREATE RULE paired, keeps the second shard populated
ON WITHIN(observation('r3', o, t1); observation('r4', o, t2), 5sec)
IF true
DO ALERT 'pair'
"""


class TestRevisionFanIn:
    """Speculative (REVISE) workers behind the router.

    The router is a pure forwarder: workers tag detection payloads with
    ``(did, rev, status)``, the fan-in sort makes cross-shard merge
    order deterministic, and every subscriber receives the same whole
    lifecycle.  The headline scenario: a late
    observation submitted on one session retracts a detection that was
    already pushed to a *different* session's subscriber.
    """

    HORIZON = 100.0

    def test_late_event_retracts_detection_pushed_via_another_session(self):
        from repro import Observation, OutOfOrderPolicy
        from repro.serve.cluster import CepRouter
        from repro.serve.server import CepServer
        from repro.store import RfidStore

        async def scenario():
            rules = parse_rules(REVISION_PROGRAM)
            plan = plan_cluster(rules, 2)
            assert len(plan.shard_plan.shard_names) == 2
            servers = []
            endpoints = {}
            for shard in plan.shard_plan.shard_names:
                engine = Engine(
                    plan.shard_plan.rules[shard],
                    store=RfidStore(),
                    out_of_order=OutOfOrderPolicy.REVISE,
                    revise_horizon=self.HORIZON,
                )
                server = CepServer(engine)
                port = await server.serve_tcp("127.0.0.1", 0)
                servers.append(server)
                endpoints[shard] = ("127.0.0.1", port)
            router = CepRouter(plan, endpoints)
            await router.start()
            front = CepServer(router)
            port = await front.serve_tcp("127.0.0.1", 0)

            watcher = AsyncClient(
                tcp_connector("127.0.0.1", port),
                client_id="watcher",
                subscribe=True,
            )
            second = AsyncClient(
                tcp_connector("127.0.0.1", port),
                client_id="second",
                subscribe=True,
            )
            producer = AsyncClient(
                tcp_connector("127.0.0.1", port), client_id="producer"
            )
            latecomer = AsyncClient(
                tcp_connector("127.0.0.1", port), client_id="latecomer"
            )
            try:
                async with watcher, second, producer, latecomer:
                    # o1 seen at the dock; a second dock read far past
                    # o1's 5s window lets the speculative engine close
                    # it: "o1 was never cased" fires *provisionally*.
                    await producer.submit_many(
                        [
                            Observation("dock", "o1", 0.0),
                            Observation("dock", "o2", 10.0),
                        ]
                    )
                    await eventually(
                        lambda: any(
                            f.status == "provisional"
                            and f.bindings.get("o") == "o1"
                            for f in watcher.detections
                        ),
                        message="provisional detection never pushed",
                    )
                    provisional = next(
                        f
                        for f in watcher.detections
                        if f.bindings.get("o") == "o1"
                    )
                    assert provisional.detection_id
                    assert provisional.revision == 0

                    # The late casing read arrives on a *different*
                    # session, is routed to shard-0, and must retract
                    # the detection the watcher already holds.
                    await latecomer.submit_many(
                        [Observation("case", "o1", 2.0)]
                    )
                    await eventually(
                        lambda: any(
                            f.status == "retract"
                            and f.detection_id == provisional.detection_id
                            for f in watcher.detections
                        ),
                        message="late event never retracted the push",
                    )
                    retract = next(
                        f
                        for f in watcher.detections
                        if f.status == "retract"
                    )
                    assert retract.detection_id == provisional.detection_id
                    assert retract.revision == provisional.revision + 1

                    # Push the watermark past o2's window close: its
                    # detection seals, and the final reaches both
                    # subscribers.
                    await producer.submit_many(
                        [Observation("dock", "o3", 120.0)]
                    )
                    await eventually(
                        lambda: any(
                            f.status == "final"
                            and f.bindings.get("o") == "o2"
                            for f in watcher.detections
                        ),
                        message="watermark passage never sealed o2",
                    )
                    await eventually(
                        lambda: any(
                            f.status == "final"
                            and f.bindings.get("o") == "o2"
                            for f in second.detections
                        ),
                        message="second subscriber never saw the final",
                    )
                    return (
                        list(watcher.detections),
                        list(second.detections),
                    )
            finally:
                await front.close()
                await router.close()
                for server in servers:
                    await server.close()

        frames, second_frames = asyncio.run(scenario())

        # Revisions are strictly increasing per detection_id, and every
        # frame from a REVISE worker carries the lifecycle fields.
        by_id = {}
        for frame in frames:
            assert frame.detection_id and frame.status
            by_id.setdefault(frame.detection_id, []).append(frame.revision)
        for revisions in by_id.values():
            assert revisions == sorted(revisions)
            assert len(set(revisions)) == len(revisions)

        # Fan-in determinism: within one epoch (= one seq), tagged
        # payloads are ordered by (detection_id, revision).
        by_seq = {}
        for frame in frames:
            by_seq.setdefault(frame.seq, []).append(
                (frame.detection_id, frame.revision)
            )
        for keys in by_seq.values():
            assert keys == sorted(keys)

        # The other subscriber saw the same lifecycle, o1's retraction
        # included, record for record.
        assert second_frames == frames


class TestRetryHintPerAttempt:
    def test_failed_reconnect_attempt_reapplies_fresh_hint(self):
        # A server that sheds every handshake with ``retry_after`` must
        # see that hint honoured on *every* subsequent attempt, not just
        # the first dial — the regression was consuming the hint once
        # before the attempt loop.
        async def scenario():
            async def shed(reader, writer):
                writer.write(
                    encode_frame(
                        ErrorFrame(
                            code="overloaded",
                            message="go away",
                            retry_after=0.08,
                        )
                    )
                )
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(shed, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            sleeps = []
            real_sleep = asyncio.sleep

            async def recording_sleep(delay, *args, **kwargs):
                sleeps.append(delay)
                return await real_sleep(0)

            client = AsyncClient(
                tcp_connector("127.0.0.1", port),
                client_id="shed-me",
                retry=RetryConfig(
                    max_attempts=3, backoff_base=0.001, jitter=False
                ),
            )
            asyncio.sleep = recording_sleep
            try:
                with pytest.raises(ClientError):
                    await client.connect()
            finally:
                asyncio.sleep = real_sleep
                server.close()
                await server.wait_closed()
                await client.close()
            return sleeps

        sleeps = asyncio.run(scenario())
        # Attempts 2 and 3 each follow a shed handshake: both of their
        # backoff sleeps must be floored by the re-read 0.08s hint
        # (plain backoff would be ~0.001s/0.002s).
        assert len([delay for delay in sleeps if delay >= 0.08]) >= 2
