"""Hot-path guard: making a record durable builds no JSON encoder.

WAL bodies and outbox intent/ack lines have fixed shapes and are
formatted from templates (``repro.resilience.durability``).  The
regression this guards against is the one that made the outbox the
slowest layer of the served path: ``json.dumps(record, separators=...)``
per record, each call constructing a ``JSONEncoder``.  It is a count,
not a timing, so it is deterministic on any host: the number of encoder
constructions — and of trips through the general encoder at all — over a
``DurableEngine.submit_many`` run with a sink must depend on the number
of checkpoints only, never on observations or detections.
"""

from __future__ import annotations

import json

from repro import Engine
from repro.resilience.durability import DurableEngine

BATCH = 250
CHECKPOINTS = 2


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
