"""Byte identity of the durable records.

Outbox intent/ack lines are formatted from templates instead of by
``json.dumps``, and the WAL writes each packable batch as one columnar
batch record (see ``repro.resilience.durability``).  Four layers of
proof:

* ``encode_payload`` — the per-record JSON body — equals
  ``json.dumps(payload, separators=(",", ":"))`` over every payload
  shape the durable layer writes;
* a batch read back from its batch record is, seq for seq, the
  per-record JSON bodies it replaces, and only batches the columns
  carry exactly become batch records;
* the outbox line formatters equal ``_format_line`` of the dict they
  replaced;
* a fixed ``DurableEngine`` run produces WAL segments, an
  ``outbox.log`` and checkpoints whose SHA-256 are pinned.
"""

import hashlib
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Engine, Observation
from repro.bench.workloads import build_events_axis_workload
from repro.core.errors import WalError
from repro.resilience import MalformedObservation
from repro.resilience.durability import (
    DurableEngine,
    WalWriter,
    read_wal,
    scan_segment,
    scan_wal,
    segment_files,
)
from repro.resilience.durability import outbox as outbox_module
from repro.resilience.durability import wal as wal_module
from repro.resilience.durability.engine import encode_observation
from repro.resilience.durability.outbox import (
    _did_field,
    _format_line,
    _intent_line,
    _marker_line,
)
from repro.resilience.durability.wal import compact_json, encode_payload
from repro.serve import cluster as cluster_module
from repro.serve.protocol import detection_payload


def reference(payload) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode()


# Ids as hostile as a reader can make them: NUL, quotes, backslashes,
# non-ASCII, astral planes and lone surrogates all take the escape path.
ids = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from(['"', "\\", "\x00", "\n", "é", " ", "\ud800", "😀"]),
    ),
    max_size=12,
)
timestamps = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e22, 1e-7, 5e-324, 1.7976931348623157e308]),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    ids,
)
provenance = st.one_of(
    st.tuples(ids, st.integers(min_value=-(2**70), max_value=2**70)).map(list),
    st.tuples(ids, st.integers()),  # a tuple, as submit(client=...) takes it
    st.tuples(ids, st.booleans()).map(list),
    st.tuples(st.integers(), st.integers()).map(list),
    st.lists(ids, max_size=3),
    st.none(),
)
scalars = st.one_of(
    ids, st.integers(), st.floats(), st.booleans(), st.none()
)
extras = st.dictionaries(
    ids, st.one_of(scalars, st.lists(scalars, max_size=3)), max_size=3
)


@st.composite
def payloads(draw):
    """Every shape the durable layer hands the WAL, and near misses."""
    shape = draw(
        st.sampled_from(["observation", "poison", "marker", "shuffled"])
    )
    if shape == "marker":
        payload = {"k": draw(st.sampled_from(["f", "n"]))}
    elif shape == "poison":
        payload = {
            "k": "m",
            "r": draw(scalars),
            "o": draw(scalars),
            "t": draw(timestamps),
        }
    else:
        payload = {
            "k": "o",
            "r": draw(st.one_of(ids, st.none(), st.integers())),
            "o": draw(ids),
            "t": draw(timestamps),
        }
        if draw(st.booleans()):
            payload["x"] = draw(extras)
    if draw(st.booleans()):
        payload["c"] = draw(provenance)
    if shape == "shuffled":
        payload = dict(draw(st.permutations(list(payload.items()))))
    return payload


class TestEncodePayload:
    @given(payloads())
    @example({"k": "o", "r": "r1", "o": "urn:epc:id:sgtin:1.2.3", "t": 12.5})
    @example({"k": "o", "r": "r\x00\"é", "o": "\ud800", "t": -0.0, "c": ["c", 7]})
    @example({"k": "o", "r": "r", "o": "x", "t": 1e22, "c": ["c", True]})
    @example({"k": "o", "r": "r", "o": "x", "t": float("nan")})
    @example({"k": "o", "r": "r", "o": "x", "t": float("-inf"), "c": ["c", 1]})
    @example({"k": "o", "r": "r", "o": "x", "t": True})
    @example({"k": "o", "r": "r", "o": "x", "t": 3, "c": ("c", 1)})
    @example({"k": "f", "c": ["c", 4]})
    @example({"k": "n", "c": ["c", 4]})
    @settings(max_examples=400, deadline=None)
    def test_equals_json_dumps(self, payload):
        assert encode_payload(payload) == reference(payload)

    @given(ids, ids, st.floats(allow_nan=False, allow_infinity=False), ids,
           st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=200, deadline=None)
    def test_observation_payloads_equal_json_dumps(
        self, reader, obj, timestamp, client_id, client_seq
    ):
        payload = encode_observation(Observation(reader, obj, timestamp))
        assert encode_payload(payload) == reference(payload)
        payload["c"] = [client_id, client_seq]
        assert encode_payload(payload) == reference(payload)

    def test_subclassed_values_fall_back(self):
        class Reader(str):
            pass

        class Stamp(float):
            def __repr__(self):
                return "not-a-number"

        payload = {"k": "o", "r": Reader("r1"), "o": "x", "t": Stamp(2.5)}
        assert encode_payload(payload) == reference(payload)

    @pytest.mark.parametrize("many", [False, True])
    def test_unencodable_payload_names_its_seq(self, tmp_path, many):
        poison = {"k": "m", "r": object(), "o": "x", "t": 1.0}
        with WalWriter(str(tmp_path / "wal")) as wal:
            wal.append(0, {"k": "f"})
            with pytest.raises(WalError, match="seq 5 is not JSON-encodable"):
                if many:
                    wal.append_many([(4, {"k": "f"}), (5, poison)])
                else:
                    wal.append(5, poison)
            # Nothing of the failed call reached the log.
            assert wal.last_seq == 0


@st.composite
def submitted(draw):
    """What a batch may hold: readings, odd readings and poison."""
    if draw(st.integers(0, 5)) == 0:
        return MalformedObservation(draw(scalars), draw(scalars), draw(timestamps))
    observation = Observation(
        draw(st.one_of(ids, st.none(), st.integers())),
        draw(ids),
        draw(st.floats(allow_nan=True, allow_infinity=True)),
        draw(st.one_of(st.none(), extras)),
    )
    if draw(st.booleans()):
        observation.timestamp = draw(timestamps)  # past float() coercion
    return observation


def _packable(observations, client_id, client_seqs):
    """Whether the columns carry this batch exactly (the batch-record rule)."""

    def plain_id(value):
        return type(value) is str and "\x00" not in value and _utf8(value)

    def _utf8(value):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            return False
        return True

    if not observations:
        return False
    for observation in observations:
        if type(observation) is not Observation or observation.extra is not None:
            return False
        if not (plain_id(observation.reader) and plain_id(observation.obj)):
            return False
        if type(observation.timestamp) is not float:
            return False
        if observation.timestamp - observation.timestamp != 0.0:
            return False
    if client_id is None:
        return True
    if type(client_id) is not str or not _utf8(client_id):
        return False
    if type(client_seqs) is range:
        return client_seqs.start >= 0
    return all(type(seq) is int and -(2**63) <= seq < 2**63 for seq in client_seqs)


def _reference_entries(first_seq, observations, client_id, client_seqs):
    """The per-record JSON path: the record bodies written before batch
    records existed."""
    entries = []
    for index, observation in enumerate(observations):
        payload = encode_observation(observation)
        if client_id is not None:
            payload["c"] = [client_id, client_seqs[index]]
        entries.append((first_seq + index, reference(payload)))
    return entries


def _as_json_record(record):
    """A :func:`read_wal` entry as the per-record JSON body it stands for."""
    if record.payload is not None:
        return reference(record.payload)
    observation = record.observation
    payload = {
        "k": "o", "r": observation.reader, "o": observation.obj,
        "t": observation.timestamp,
    }
    if record.client is not None:
        payload["c"] = list(record.client)
    return reference(payload)


class TestBatchRecords:
    """A batch is one batch record when the columns carry it, per-record
    JSON otherwise, and either way replay reads back, seq for seq, the
    exact record bodies the per-record JSON path wrote."""

    @given(
        st.lists(submitted(), max_size=6),
        st.integers(min_value=0, max_value=2**40),
        st.one_of(st.none(), ids, st.integers()),
        st.one_of(
            st.integers(min_value=-(2**40), max_value=2**40),
            st.lists(
                st.integers(min_value=-(2**64), max_value=2**64),
                min_size=6, max_size=6, unique=True,
            ).map(sorted),
        ),
    )
    @example([Observation("r1", "tag-é", 12.5)], 3, "client", 7)
    @example([Observation("r1", "tag", 1.0, {"rssi": -40})], 0, None, 0)
    @example([Observation("r\x00", "tag", 1.0)], 0, "c", 0)
    @example([Observation("r", "\ud800", 1.0)], 0, "c", [0, 2, 5, 6, 7, 9])
    @example([Observation("r", "o", float("nan"))], 0, "c", 0)
    @example([Observation("r", "o", 1.0), Observation("r", "o", 2.0)], 0, "c",
             [-3, 2, 5, 6, 7, 9])
    @settings(max_examples=300, deadline=None)
    def test_batch_reads_back_as_the_per_record_path(
        self, observations, first_seq, client_id, client_start
    ):
        if isinstance(client_start, int):
            client_seqs = range(client_start, client_start + len(observations))
        else:
            client_seqs = tuple(client_start[: len(observations)])
        with tempfile.TemporaryDirectory() as directory:
            with WalWriter(directory) as wal:
                wal.append_encoded(wal_module.encode_batch(
                    first_seq, observations, encode_observation,
                    client_id, client_seqs if client_id is not None else None,
                ))
                assert wal.appended == len(observations)
            got = [
                (record.seq, _as_json_record(record))
                for record in read_wal(directory)
            ]
            physical = sum(
                len(scan_segment(os.path.join(directory, name))[0])
                for name in segment_files(directory)
            )
        expected = _reference_entries(
            first_seq, observations, client_id,
            client_seqs if client_id is not None else None,
        )
        assert got == expected
        packable = _packable(observations, client_id, client_seqs)
        assert physical == (1 if packable else len(observations))

    def test_packable_batches_never_reach_json(self, tmp_path, monkeypatch):
        def general(_payload):
            raise AssertionError("a packable reading reached the JSON encoder")

        stream = [Observation("r1", f"tag-é{i}", 0.5 * i) for i in range(300)]
        with DurableEngine(lambda: Engine([]), str(tmp_path / "state")) as durable:
            monkeypatch.setattr(wal_module, "compact_json", general)
            durable.submit_many(stream[:256], client=("c", 0))
            durable.submit_many(stream[256:], client=("relay", range(0, 88, 2)))
            durable.submit_many(stream[:0])
            durable.submit(Observation("r1", "x", 999.0))
            assert durable.wal.appended == 301
        (info,) = scan_wal(str(tmp_path / "state" / "wal"))
        assert (info.records, info.first_seq, info.last_seq) == (3, 0, 300)


rule_ids = st.one_of(st.none(), ids, st.integers())
detection_ids = st.one_of(st.just(""), ids.filter(bool))
seqs = st.integers(min_value=-1, max_value=2**63)
ordinals = st.integers(min_value=0, max_value=2**31)


class TestOutboxFormatters:
    @given(seqs, ordinals, rule_ids, detection_ids)
    @example(0, 0, None, "")
    @example(7, 2, "r\"é\x00", "d\ud800")
    @settings(max_examples=200, deadline=None)
    def test_intent_line(self, seq, ordinal, rule_id, detection_id):
        record = {"op": "i", "seq": seq, "ord": ordinal, "rule": rule_id}
        if detection_id:
            record["did"] = detection_id
        line = _intent_line(
            seq, ordinal, compact_json(rule_id).encode(), _did_field(detection_id)
        )
        assert line == _format_line(record)

    @given(st.sampled_from([b"a", b"d", b"i"]), seqs, ordinals, detection_ids)
    @settings(max_examples=200, deadline=None)
    def test_marker_line(self, op, seq, ordinal, detection_id):
        record = {"op": op.decode(), "seq": seq, "ord": ordinal}
        if detection_id:
            record["did"] = detection_id
        line = _marker_line(op, seq, ordinal, _did_field(detection_id))
        assert line == _format_line(record)

    def test_format_line_is_the_old_encoding(self):
        record = {"op": "d", "seq": 3, "ord": 1, "rule": "ré", "error": 'E: "x"'}
        body = reference(record)
        assert _format_line(record).endswith(b" " + body + b"\n")

    def test_delivery_never_reaches_the_general_encoder(
        self, tmp_path, monkeypatch
    ):
        class Detection:
            class rule:
                rule_id = "r4"

        with outbox_module.ActionOutbox(
            str(tmp_path), lambda *_: None
        ) as outbox:
            outbox.deliver(Detection(), 0, 0)  # fills the rule-id cache

            def general(_record):
                raise AssertionError("intent/ack line fell back")

            monkeypatch.setattr(outbox_module, "compact_json", general)
            assert outbox.deliver(Detection(), 1, 0) is True
        entries = outbox_module.read_journal(str(tmp_path / "outbox.log"))
        assert [(e.op, e.seq, e.detail.get("rule")) for e in entries] == [
            ("i", 0, "r4"), ("a", 0, None), ("i", 1, "r4"), ("a", 1, None),
        ]


# -- golden run -----------------------------------------------------------------

#: SHA-256 over (name, bytes) of the WAL segments the run below leaves
#: behind.  Re-pinned once, on purpose, when the WAL began writing each
#: packable batch as one columnar batch record (the ``BBATCH`` body)
#: instead of one JSON record per reading; the run's flush marker still
#: takes a JSON record.  ``TestBatchRecords`` holds every batch record
#: to the per-record bodies it replaces, seq for seq.  If a change to
#: the *format* is intended, say so and re-pin; an encoder change must
#: never need to.
GOLDEN_WAL_SHA256 = (
    "adc5a46f617f56d12c4d09b623391271f4205c6cd452bd4fb07dc72348716895"
)
GOLDEN_OUTBOX_SHA256 = (
    "ef98cb8be10f8a886277baa91f6587a175d0bbba78d37a918e95e06d5175a25f"
)
#: The two ``checkpoint-*.json`` snapshots.  Re-pinned once, on purpose,
#: when the client frontiers moved from ``clients-*.json`` sidecars into
#: a top-level ``clients`` key of the checkpoint file: each new file is
#: the old snapshot's bytes with its sidecar's ``clients`` section
#: appended, as ``json.dumps`` writes it.
GOLDEN_CHECKPOINT_SHA256 = (
    "8555135e08f5a05413afa89f91157c9718d543a90369dc3b149b8375696c056f"
)


def _digest(directory, names):
    digest = hashlib.sha256()
    for name in names:
        with open(os.path.join(directory, name), "rb") as handle:
            data = handle.read()
        digest.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0")
        digest.update(data)
    return digest.hexdigest()


def test_golden_run_is_byte_identical_to_the_json_dumps_writers(tmp_path):
    workload = build_events_axis_workload(2_000, n_rules=10)
    observations = workload.observations
    assert len(observations) == 1980
    delivered = []
    directory = str(tmp_path / "state")
    with DurableEngine(
        lambda: Engine(workload.rules, context="chronicle"),
        directory,
        checkpoint_every=700,
        segment_max_bytes=48 * 1024,
        sink=lambda detection, seq, ordinal: delivered.append((seq, ordinal)),
    ) as durable:
        # Mixed entry points: provenance-carrying batches (the served
        # path), one bare batch, per-observation submits, a flush.
        for start in range(0, 1536, 256):
            durable.submit_many(
                observations[start : start + 256], client=("golden-é", start)
            )
        durable.submit_many(observations[1536:1792])
        for index, observation in enumerate(observations[1792:], 1792):
            durable.submit(observation, client=("golden-é", index))
        durable.flush(client=("golden-é", len(observations)))
        assert durable.checkpoints_written == 2
    assert len(delivered) == workload.expected_detections == 330
    wal_dir = os.path.join(directory, "wal")
    segments = sorted(os.listdir(wal_dir))
    assert len(segments) >= 2
    assert _digest(wal_dir, segments) == GOLDEN_WAL_SHA256
    assert _digest(directory, ["outbox.log"]) == GOLDEN_OUTBOX_SHA256
    snapshots = sorted(
        name for name in os.listdir(directory)
        if name.startswith(("checkpoint-", "clients-"))
    )
    assert len(snapshots) == 2
    assert _digest(directory, snapshots) == GOLDEN_CHECKPOINT_SHA256


def test_file_sink_writes_one_flushed_line_per_delivery(tmp_path, monkeypatch):
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(cluster_module, "open", counting_open, raising=False)
    workload = build_events_axis_workload(400, n_rules=4)
    path = str(tmp_path / "deliveries.jsonl")
    sink = cluster_module.file_sink(path)
    expected = []

    def checked(detection, seq, ordinal):
        sink(detection, seq, ordinal)
        payload = detection_payload(detection)
        payload.update(seq=seq, ordinal=ordinal)
        expected.append(json.dumps(payload, sort_keys=True) + "\n")
        # Readable straight away, one complete line per delivery so far.
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == "".join(expected)

    with DurableEngine(
        lambda: Engine(workload.rules, context="chronicle"),
        str(tmp_path / "state"),
        sink=checked,
    ) as durable:
        for start in range(0, len(workload.observations), 64):
            durable.submit_many(workload.observations[start : start + 64])
        durable.flush()
    assert len(expected) == workload.expected_detections > 5
    assert opened == [path]
    sink.close()


def test_file_sink_closes_with_its_engine(tmp_path):
    workload = build_events_axis_workload(400, n_rules=4)
    sink = cluster_module.file_sink(str(tmp_path / "deliveries.jsonl"))
    with DurableEngine(
        lambda: Engine(workload.rules, context="chronicle"),
        str(tmp_path / "state"),
        sink=sink,
    ) as durable:
        durable.submit_many(workload.observations)
        assert durable.outbox.delivered > 0
        assert not sink._handle.closed
        handle = sink._handle
    assert handle.closed
