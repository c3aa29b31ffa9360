"""Hot-path guards: making a record durable builds no JSON encoder, and
commits a batch at a time.

WAL bodies and outbox intent/ack lines have fixed shapes and are
formatted from templates (``repro.resilience.durability``).  The
regression this guards against is the one that made the outbox the
slowest layer of the served path: ``json.dumps(record, separators=...)``
per record, each call constructing a ``JSONEncoder``.  It is a count,
not a timing, so it is deterministic on any host: the number of encoder
constructions — and of trips through the general encoder at all — over a
``DurableEngine.submit_many`` run with a sink must depend on the number
of checkpoints only, never on observations or detections.

The second guard counts Python calls per observation (``sys.setprofile``
``"call"`` events) over ``DurableEngine.submit_many`` plus ``flush``:
the group-commit path encodes a batch's WAL records in one template pass,
detects the batch in one ``Engine.submit_many`` call whose ``ends`` tag
each detection with its record's seq, and delivers the detections in one
outbox loop, so what is left per observation is the engine's own work,
the record template and the deliveries.  With a WAL call, an encoder and
two journal writes per record the returns-fraud count was 38.5 (the bare
engine's is 21.2), and the cluster worker's program — ``file_sink`` and
a checkpoint every 500 observations — cost 35.7; one batch commit took
them to 26.9 and 22.75, and one detection call per batch to 23.9 and
19.7.  Packing each batch into one columnar WAL batch record, instead
of one JSON record per observation, took them to 22.9 and 18.8.

The third guard counts what the WAL itself costs per observation on
the same returns-fraud run: bytes logged (the interned columns are
about 35 B per reading, where one JSON record per reading was 113 B on
the served path) and C-level calls made from ``wal.py`` (``c_call``
events whose caller is in that file; 15.0 per observation when each
reading was its own templated record, and a handful per batch now).
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro import Engine, FunctionRegistry
from repro.lang import parse_rules
from repro.resilience.durability import DurableEngine
from repro.resilience.durability import wal as wal_module
from repro.scenarios import get_pack
from repro.serve.cluster import file_sink
from repro.store import RfidStore
from repro.workload import GeneratedWorkload, WorkloadConfig

BATCH = 250
CHECKPOINTS = 2
#: Observations per client batch on the served path.
BATCH_SERVED = 256


def _run_counting(monkeypatch, tmp_path, workload, n_observations):
    """(encoders built, general-encoder calls, deliveries) for one run."""
    built = []
    encoded = []
    original_init = json.JSONEncoder.__init__
    original_iterencode = json.JSONEncoder.iterencode

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original_init(self, *args, **kwargs)

    def counting_iterencode(self, *args, **kwargs):
        encoded.append(1)
        return original_iterencode(self, *args, **kwargs)

    observations = workload.observations[:n_observations]
    assert len(observations) == n_observations
    deliveries = []
    with DurableEngine(
        lambda: Engine(workload.rules, context="chronicle"),
        str(tmp_path / f"state-{n_observations}"),
        checkpoint_every=n_observations // CHECKPOINTS,
        sink=lambda detection, seq, ordinal: deliveries.append(seq),
    ) as durable:
        with monkeypatch.context() as patch:
            patch.setattr(json.JSONEncoder, "__init__", counting_init)
            patch.setattr(json.JSONEncoder, "iterencode", counting_iterencode)
            for start in range(0, n_observations, BATCH):
                durable.submit_many(
                    observations[start : start + BATCH], client=("guard", start)
                )
        assert durable.checkpoints_written == CHECKPOINTS
        assert durable.wal.appended == n_observations
    return len(built), len(encoded), len(deliveries)


def test_encoder_use_does_not_scale_with_records(
    monkeypatch, tmp_path, small_workload
):
    built_1k, encoded_1k, delivered_1k = _run_counting(
        monkeypatch, tmp_path, small_workload, 1000
    )
    built_2k, encoded_2k, delivered_2k = _run_counting(
        monkeypatch, tmp_path, small_workload, 2000
    )
    assert delivered_1k > 100 and delivered_2k >= 2 * delivered_1k - 10
    # Twice the observations and detections, the same encoder work: what
    # is left is the checkpoint + frontier sidecar pair per checkpoint.
    assert (built_2k, encoded_2k) == (built_1k, encoded_1k)
    assert built_2k <= 4 * CHECKPOINTS
    assert encoded_2k <= 4 * CHECKPOINTS


def _generated(pack, size):
    source = get_pack(pack).episode_source(lines=4)
    config = WorkloadConfig(
        pack=pack, seed=7, target_observations=size, lines=4,
        cardinality=100_000, theta=0.9,
    )
    return source, list(GeneratedWorkload(source, config))


def _returns_fraud(directory, size):
    """Store-reading and -writing rules, a no-op sink, no checkpoints."""
    source, observations = _generated("returns-fraud", size)

    def make_engine():
        store = RfidStore()
        for reader, location in source.placements():
            store.place_reader(reader, location)
        return Engine(
            source.rules(), store=store, functions=FunctionRegistry(),
            context="chronicle",
        )

    durable = DurableEngine(
        make_engine, directory, checkpoint_every=0, sink=lambda *_: None
    )
    return durable, observations


def _cluster_worker(directory, size):
    """What a cluster worker builds: ``file_sink``, Cluster's cadence."""
    source, observations = _generated("packing", size)
    program = source.program
    durable = DurableEngine(
        lambda: Engine(
            parse_rules(program), context="chronicle", store=RfidStore()
        ),
        directory,
        checkpoint_every=500,
        sink=file_sink(os.path.join(directory, "deliveries.jsonl")),
    )
    return durable, observations


def durable_calls_per_observation(build, directory, size) -> float:
    durable, observations = build(directory, size)
    with durable:
        durable.submit(observations[0])  # builds the engine's plan
        rest = observations[1:]
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(count)
        try:
            for start in range(0, len(rest), BATCH_SERVED):
                durable.submit_many(
                    rest[start : start + BATCH_SERVED], client=("guard", start)
                )
            durable.flush()
        finally:
            sys.setprofile(None)
    return calls / len(rest)


@pytest.mark.parametrize(
    "build, sizes, ceiling",
    [(_returns_fraud, (4000, 8000), 23.5), (_cluster_worker, (4000,), 19.5)],
    ids=["returns-fraud", "cluster-worker"],
)
def test_durable_calls_per_observation_are_bounded(
    tmp_path, build, sizes, ceiling
):
    counts = [
        durable_calls_per_observation(build, str(tmp_path / str(size)), size)
        for size in sizes
    ]
    print("\ndurable calls per observation: " + ", ".join(
        f"{count:.2f} at {size}" for count, size in zip(counts, sizes)
    ))
    # Flat where nothing grows with the stream; a checkpoint's size does.
    assert max(counts) - min(counts) <= 0.1
    assert counts[0] <= ceiling


def wal_cost_per_observation(directory, size) -> tuple[float, float]:
    """(WAL bytes, C calls made from ``wal.py``) per observation through
    ``DurableEngine.submit_many`` on returns-fraud, served batch size."""
    durable, observations = _returns_fraud(directory, size)
    wal_file = wal_module.__file__
    with durable:
        durable.submit(observations[0])  # builds the engine's plan
        rest = observations[1:]
        before = durable.wal.bytes_written
        c_calls = 0

        def count(frame, event, arg):
            nonlocal c_calls
            if event == "c_call" and frame.f_code.co_filename == wal_file:
                c_calls += 1

        sys.setprofile(count)
        try:
            for start in range(0, len(rest), BATCH_SERVED):
                durable.submit_many(
                    rest[start : start + BATCH_SERVED], client=("guard", start)
                )
        finally:
            sys.setprofile(None)
        written = durable.wal.bytes_written - before
    return written / len(rest), c_calls / len(rest)


def test_wal_bytes_and_c_calls_per_observation_are_bounded(tmp_path):
    costs = [
        wal_cost_per_observation(str(tmp_path / str(size)), size)
        for size in (4000, 8000)
    ]
    print("\nWAL per observation: " + ", ".join(
        f"{b:.2f} B and {c:.3f} C calls at {size}"
        for (b, c), size in zip(costs, (4000, 8000))
    ))
    for bytes_per, c_calls_per in costs:
        assert bytes_per <= 40
        assert c_calls_per <= 1
