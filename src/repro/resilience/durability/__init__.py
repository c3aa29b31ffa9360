"""repro.resilience.durability — log-ahead detection that survives kill -9.

Three modules, one guarantee:

* :mod:`~repro.resilience.durability.wal` — a segmented, checksummed
  write-ahead observation log with pluggable fsync policy and a reader
  that self-heals torn tails;
* :mod:`~repro.resilience.durability.outbox` — a journaled action outbox
  giving detection side effects exactly-once semantics across replays;
* :mod:`~repro.resilience.durability.engine` —
  :class:`DurableEngine`, which composes the two with the existing
  checkpoint layer over any detection backend (sharded included): log,
  detect, deliver, checkpoint periodically, and
  :meth:`DurableEngine.recover` from any crash point with detections
  and external deliveries identical to an uninterrupted run.

See the "Durability & recovery" section of ``docs/resilience.md`` and
``python -m repro wal drill`` for a self-contained demonstration.
"""

from .engine import (
    DurableEngine,
    RecoveryReport,
    checkpoint_files,
    checkpoint_seq,
    decode_payload,
    decode_record,
    encode_observation,
)
from .outbox import ActionOutbox, OutboxEntry, read_journal
from .wal import (
    FsyncPolicy,
    SegmentInfo,
    WalRecord,
    WalWriter,
    read_wal,
    scan_segment,
    scan_wal,
    segment_files,
)

__all__ = [
    "ActionOutbox",
    "DurableEngine",
    "FsyncPolicy",
    "OutboxEntry",
    "RecoveryReport",
    "SegmentInfo",
    "WalRecord",
    "WalWriter",
    "checkpoint_files",
    "checkpoint_seq",
    "decode_payload",
    "decode_record",
    "encode_observation",
    "read_journal",
    "read_wal",
    "scan_segment",
    "scan_wal",
    "segment_files",
]
