"""Unit tests for the durable layer's building blocks: WAL and outbox.

The crash-recovery integration matrix lives in ``test_durability.py``;
these tests pin down the log format itself — framing, rotation, torn
tails vs corruption, pruning — and the outbox journal's exactly-once
bookkeeping.
"""

import json
import os
import struct
import zlib

import pytest

from repro.core.errors import WalError
from repro.resilience import RetryPolicy
from repro.resilience.durability import (
    ActionOutbox,
    FsyncPolicy,
    WalWriter,
    read_journal,
    read_wal,
    scan_segment,
    scan_wal,
    segment_files,
)
from repro.resilience.durability.wal import segment_path


def payloads(directory):
    return [(r.seq, r.payload) for r in read_wal(directory)]


class TestFraming:
    def test_round_trip(self, tmp_path):
        directory = str(tmp_path / "wal")
        with WalWriter(directory) as wal:
            for seq in range(5):
                wal.append(seq, {"k": "o", "v": seq})
        assert payloads(directory) == [
            (seq, {"k": "o", "v": seq}) for seq in range(5)
        ]

    def test_start_after_skips_prefix(self, tmp_path):
        directory = str(tmp_path / "wal")
        with WalWriter(directory) as wal:
            for seq in range(6):
                wal.append(seq, {"v": seq})
        seqs = [r.seq for r in read_wal(directory, start_after=3)]
        assert seqs == [4, 5]

    def test_sequence_must_advance(self, tmp_path):
        with WalWriter(str(tmp_path / "wal")) as wal:
            wal.append(3, {"v": 3})
            with pytest.raises(WalError, match="does not advance"):
                wal.append(3, {"v": 3})
            with pytest.raises(WalError, match="does not advance"):
                wal.append(1, {"v": 1})
            wal.append(7, {"v": 7})  # gaps are legal, regressions are not

    def test_non_json_payload_raises_wal_error(self, tmp_path):
        with WalWriter(str(tmp_path / "wal")) as wal:
            with pytest.raises(WalError, match="not JSON-encodable"):
                wal.append(0, {"v": object()})
            # The failed append must not have burned the sequence number.
            wal.append(0, {"v": 0})

    def test_reopen_resumes_sequence_floor(self, tmp_path):
        directory = str(tmp_path / "wal")
        with WalWriter(directory) as wal:
            wal.append(0, {"v": 0})
            wal.append(1, {"v": 1})
        with WalWriter(directory) as wal:
            assert wal.last_seq == 1
            with pytest.raises(WalError):
                wal.append(1, {"v": 1})
            wal.append(2, {"v": 2})
        assert [r.seq for r in read_wal(directory)] == [0, 1, 2]


class TestRotation:
    def test_tiny_segments_rotate_and_replay_in_order(self, tmp_path):
        directory = str(tmp_path / "wal")
        with WalWriter(directory, segment_max_bytes=64) as wal:
            for seq in range(20):
                wal.append(seq, {"v": seq})
            assert wal.rotations > 0
        names = segment_files(directory)
        assert len(names) > 1
        assert names == sorted(names)
        assert [r.seq for r in read_wal(directory)] == list(range(20))

    def test_oversized_record_still_lands(self, tmp_path):
        """A record larger than segment_max_bytes gets its own segment."""
        directory = str(tmp_path / "wal")
        with WalWriter(directory, segment_max_bytes=64) as wal:
            wal.append(0, {"v": 0})
            wal.append(1, {"big": "x" * 200})
            wal.append(2, {"v": 2})
        assert [r.seq for r in read_wal(directory)] == [0, 1, 2]


class TestTornTailVsCorruption:
    def _write(self, directory, n=6):
        with WalWriter(directory) as wal:
            for seq in range(n):
                wal.append(seq, {"v": seq})

    def test_torn_tail_is_silently_dropped(self, tmp_path):
        directory = str(tmp_path / "wal")
        self._write(directory)
        name = segment_files(directory)[-1]
        path = segment_path(directory, name)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 3)
        assert [r.seq for r in read_wal(directory)] == [0, 1, 2, 3, 4]

    def test_reopen_truncates_torn_tail(self, tmp_path):
        directory = str(tmp_path / "wal")
        self._write(directory)
        name = segment_files(directory)[-1]
        path = segment_path(directory, name)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 3)
        with WalWriter(directory) as wal:
            assert wal.truncated_tail_bytes > 0
            assert wal.last_seq == 4
            wal.append(5, {"v": "rewritten"})
        assert payloads(directory)[-1] == (5, {"v": "rewritten"})

    def test_mid_log_bitflip_raises(self, tmp_path):
        """A failing checksum before the final record is corruption."""
        directory = str(tmp_path / "wal")
        self._write(directory)
        name = segment_files(directory)[-1]
        path = segment_path(directory, name)
        with open(path, "r+b") as handle:
            # Flip a byte inside the first record's payload.
            handle.seek(struct.calcsize("<IIQ") + 2)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(WalError):
            list(read_wal(directory))

    def test_corrupt_non_final_segment_raises(self, tmp_path):
        directory = str(tmp_path / "wal")
        with WalWriter(directory, segment_max_bytes=64) as wal:
            for seq in range(10):
                wal.append(seq, {"v": seq})
        names = segment_files(directory)
        assert len(names) > 2
        path = segment_path(directory, names[1])
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 2)
        with pytest.raises(WalError, match="not the final segment"):
            list(read_wal(directory))

    def test_checksummed_garbage_that_is_not_json_raises(self, tmp_path):
        directory = str(tmp_path / "wal")
        body = b"not json"
        seq = 0
        crc = zlib.crc32(body, zlib.crc32(struct.pack("<Q", seq)))
        os.makedirs(directory)
        with open(segment_path(directory, "wal-0000000000000000.seg"), "wb") as f:
            f.write(struct.pack("<IIQ", len(body), crc, seq) + body)
        with pytest.raises(WalError, match="not JSON"):
            list(read_wal(directory))

    def test_non_monotonic_across_segments_raises(self, tmp_path):
        directory = str(tmp_path / "wal")
        self._write(directory, n=3)
        # Forge a second segment that replays an already-covered sequence.
        body = json.dumps({"v": "dup"}).encode()
        crc = zlib.crc32(body, zlib.crc32(struct.pack("<Q", 1)))
        with open(segment_path(directory, "wal-0000000000000005.seg"), "wb") as f:
            f.write(struct.pack("<IIQ", len(body), crc, 1) + body)
        with pytest.raises(WalError, match="does not advance"):
            list(read_wal(directory))


class TestPrune:
    def test_prune_keeps_uncovered_segments(self, tmp_path):
        directory = str(tmp_path / "wal")
        with WalWriter(directory, segment_max_bytes=64) as wal:
            for seq in range(20):
                wal.append(seq, {"v": seq})
            names_before = segment_files(directory)
            assert len(names_before) >= 3
            deleted = wal.prune(9)
            assert deleted  # something was reclaimable
            # Every surviving record > 9 is still replayable, in order.
            seqs = [r.seq for r in read_wal(directory, start_after=9)]
            assert seqs == list(range(10, 20))

    def test_prune_never_deletes_final_segment(self, tmp_path):
        directory = str(tmp_path / "wal")
        with WalWriter(directory) as wal:
            wal.append(0, {"v": 0})
            assert wal.prune(10) == []
        assert len(segment_files(directory)) == 1

    def test_scan_wal_reports_segments(self, tmp_path):
        directory = str(tmp_path / "wal")
        with WalWriter(directory, segment_max_bytes=64) as wal:
            for seq in range(10):
                wal.append(seq, {"v": seq})
        infos = scan_wal(directory)
        assert sum(info.records for info in infos) == 10
        assert all(info.torn_bytes == 0 for info in infos)
        assert infos[0].first_seq == 0
        assert infos[-1].last_seq == 9


class TestFsyncPolicy:
    def test_parse(self):
        assert FsyncPolicy.parse("always") is FsyncPolicy.ALWAYS
        assert FsyncPolicy.parse("never") is FsyncPolicy.NEVER
        assert FsyncPolicy.parse("batch:8") == FsyncPolicy.BATCH(8)
        assert FsyncPolicy.parse(FsyncPolicy.ALWAYS) is FsyncPolicy.ALWAYS
        with pytest.raises(ValueError):
            FsyncPolicy.parse("sometimes")
        with pytest.raises(ValueError):
            FsyncPolicy.BATCH(0)

    def test_str_round_trips(self):
        for policy in (FsyncPolicy.ALWAYS, FsyncPolicy.NEVER, FsyncPolicy.BATCH(64)):
            assert FsyncPolicy.parse(str(policy)) == policy

    def test_always_fsyncs_every_append(self, tmp_path):
        with WalWriter(str(tmp_path / "wal"), fsync=FsyncPolicy.ALWAYS) as wal:
            for seq in range(5):
                wal.append(seq, {"v": seq})
            assert wal.fsyncs == 5

    def test_batch_fsyncs_every_n(self, tmp_path):
        with WalWriter(str(tmp_path / "wal"), fsync=FsyncPolicy.BATCH(3)) as wal:
            for seq in range(7):
                wal.append(seq, {"v": seq})
            assert wal.fsyncs == 2  # after seq 2 and seq 5
        # close() syncs the remainder


class TestOutbox:
    def _sink(self, log):
        def sink(detection, seq, ordinal):
            log.append((detection, seq, ordinal))

        return sink

    def test_deliver_then_suppress_across_reopen(self, tmp_path):
        directory = str(tmp_path)
        log = []
        with ActionOutbox(directory, self._sink(log)) as outbox:
            assert outbox.deliver("d0", 0, 0) is True
            assert outbox.deliver("d0", 0, 0) is False  # same life
        log2 = []
        with ActionOutbox(directory, self._sink(log2)) as outbox:
            assert outbox.deliver("d0", 0, 0) is False  # replay after reopen
            assert outbox.suppressed == 1
            assert outbox.deliver("d1", 1, 0) is True
        assert log == [("d0", 0, 0)]
        assert log2 == [("d1", 1, 0)]

    def test_in_flight_intent_is_redelivered(self, tmp_path):
        """Crash between intent and ack: the delivery runs again."""
        directory = str(tmp_path)

        def exploding(detection, seq, ordinal):
            raise RuntimeError("sink died")

        outbox = ActionOutbox(
            directory, exploding, retry=RetryPolicy(attempts=1, base_delay=0.0)
        )
        # Simulate the crash window: journal the intent, then die before
        # the sink resolves, by writing the intent line directly.
        outbox._append({"op": "i", "seq": 5, "ord": 0, "rule": None})
        outbox.close()
        log = []
        with ActionOutbox(directory, self._sink(log)) as outbox:
            assert outbox.in_flight == {(5, 0)}
            assert outbox.deliver("d5", 5, 0) is True
        assert log == [("d5", 5, 0)]

    def test_dead_letter_after_retries(self, tmp_path):
        attempts = []

        def exploding(detection, seq, ordinal):
            attempts.append(seq)
            raise RuntimeError("sink down")

        with ActionOutbox(
            str(tmp_path),
            exploding,
            retry=RetryPolicy(attempts=3, base_delay=0.0),
        ) as outbox:
            assert outbox.deliver("d0", 0, 0) is True  # resolved as dead
            assert len(attempts) == 3
            assert len(outbox.dead_letters) == 1
            assert outbox.dead_letters.entries()[0].kind == "delivery"
            # Dead is resolved: replay must not retry it.
            assert outbox.deliver("d0", 0, 0) is False

    def test_torn_journal_line_is_dropped(self, tmp_path):
        directory = str(tmp_path)
        log = []
        with ActionOutbox(directory, self._sink(log)) as outbox:
            outbox.deliver("d0", 0, 0)
            outbox.deliver("d1", 1, 0)
            path = outbox.path
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 4)
        with ActionOutbox(directory, self._sink(log)) as outbox:
            # The torn ack for (1, 0) is gone; only its intent survives,
            # so that delivery re-runs (at-least-once window) while the
            # fully-acked (0, 0) stays suppressed.
            assert outbox.is_resolved(0, 0)
            assert not outbox.is_resolved(1, 0)

    def test_compact_drops_covered_entries(self, tmp_path):
        directory = str(tmp_path)
        log = []
        with ActionOutbox(directory, self._sink(log)) as outbox:
            for seq in range(6):
                outbox.deliver(f"d{seq}", seq, 0)
            size_before = os.path.getsize(outbox.path)
            dropped = outbox.compact(3)
            assert dropped == 4
            assert os.path.getsize(outbox.path) < size_before
            # Entries above the prune point still suppress.
            assert outbox.deliver("d5", 5, 0) is False
        entries = read_journal(os.path.join(directory, "outbox.log"))
        assert {entry.seq for entry in entries} == {4, 5}


class TestGroupCommit:
    """``DurableEngine.submit_many`` journals a batch's deliveries with each
    ack riding the next intent — without widening the crash window."""

    @staticmethod
    def _durable(directory, sink):
        from repro import Engine, Var, obs
        from repro.core.expressions import TSeq
        from repro.resilience import DurableEngine
        from repro.rules import Rule

        rules = [
            Rule(
                rule_id, rule_id,
                TSeq(obs("a", Var("x")), obs("b", Var("x")), 0.0, 10.0),
                actions=[],
            )
            for rule_id in ("pair", "again")
        ]
        return DurableEngine(lambda: Engine(rules), directory, sink=sink)

    @staticmethod
    def _batch():
        from repro import Observation

        # Two detections (one per rule) on each of seqs 3, 4 and 5.
        return [
            Observation("a", "o0", 0.0), Observation("a", "o1", 1.0),
            Observation("a", "o2", 1.5), Observation("b", "o0", 3.0),
            Observation("b", "o1", 4.0), Observation("b", "o2", 5.0),
            Observation("z", "o9", 6.0),
        ]

    def test_sink_sees_earlier_acks_and_its_own_intent(self, tmp_path):
        directory = str(tmp_path)
        journal = os.path.join(directory, "outbox.log")
        seen = []

        def sink(detection, seq, ordinal):
            lines = {
                (entry.op, entry.seq, entry.ordinal)
                for entry in read_journal(journal)
            }
            for earlier in seen:
                assert ("a", *earlier) in lines, (seq, ordinal, earlier)
            assert ("i", seq, ordinal) in lines
            assert ("a", seq, ordinal) not in lines
            seen.append((seq, ordinal))

        with self._durable(directory, sink) as durable:
            detections = durable.submit_many(self._batch())
            assert len(detections) == 6
            # The last ack is on disk when submit_many returns.
            assert [
                (entry.op, entry.seq, entry.ordinal)
                for entry in read_journal(journal)
            ] == [
                (op, seq, ordinal) for seq, ordinal in seen for op in "ia"
            ]
        assert seen == [(3, 0), (3, 1), (4, 0), (4, 1), (5, 0), (5, 1)]

    def test_n_deliveries_take_n_plus_one_writes(self, tmp_path):
        writes = []

        class CountingHandle:
            def __init__(self, handle):
                self._handle = handle

            def write(self, data):
                writes.append(data)
                return self._handle.write(data)

            def __getattr__(self, name):
                return getattr(self._handle, name)

        directory = str(tmp_path)
        with self._durable(directory, lambda *_: None) as durable:
            outbox = durable.outbox
            outbox._handle = CountingHandle(outbox._handle)
            durable.submit_many(self._batch())
            assert outbox.delivered == 6
            assert len(writes) == 7
            with open(outbox.path, "rb") as handle:
                assert handle.read() == b"".join(writes)
