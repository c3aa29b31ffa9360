"""repro.resilience — checkpoint/restore, supervision, chaos injection.

Three independent pieces, designed to compose:

* **Checkpoint/restore** (:mod:`repro.resilience.checkpoint`):
  ``Engine.checkpoint()`` serializes the full detection-graph runtime
  state — active event instances (with structural sharing preserved),
  pseudo-event queue, watermark buffer, clock, stats — to a versioned,
  dependency-free plain-data snapshot; ``Engine.restore()`` rebuilds it
  on a freshly constructed engine so a killed engine resumes mid-stream
  with detections identical to an uninterrupted run.  Sharded engines
  checkpoint per shard.

* **Supervision** (:mod:`repro.resilience.supervise`):
  :class:`SupervisedEngine` quarantines poison observations into a
  dead-letter queue, isolates repeatedly-failing rules behind per-rule
  circuit breakers, and runs actions through a configurable
  :class:`RetryPolicy` with an action dead-letter log — the stream keeps
  flowing and healthy rules keep detecting no matter what one bad rule
  or reading does.

* **Chaos** (:mod:`repro.resilience.chaos`): :class:`ChaosInjector`
  wraps any observation iterable with seeded, deterministic fault
  injection (reader dropout, clock skew, duplicate bursts, out-of-order
  spikes, malformed frames), and :func:`kill_and_restore_run` drives a
  mid-stream kill + restore.  Also behind ``python -m repro chaos``.

See ``docs/resilience.md`` for the full tour.
"""

from .chaos import (
    ChaosConfig,
    ChaosInjector,
    MalformedObservation,
    SimulatedCrash,
    corrupt_checkpoint,
    crash_failpoint,
    kill_and_restore_run,
    kill_at_byte,
    tear_wal_tail,
)
from .durability import (
    ActionOutbox,
    DurableEngine,
    FsyncPolicy,
    RecoveryReport,
    WalWriter,
    read_wal,
    scan_wal,
)
from .checkpoint import (
    FORMAT,
    SHARDED_FORMAT,
    VERSION,
    checkpoint_engine,
    engine_fingerprint,
    load_checkpoint,
    restore_engine,
    save_checkpoint,
)
from .supervise import (
    BreakerState,
    CircuitBreaker,
    DeadLetterEntry,
    DeadLetterQueue,
    ResilienceStats,
    RetryPolicy,
    SupervisedEngine,
)

__all__ = [
    "ActionOutbox",
    "BreakerState",
    "ChaosConfig",
    "ChaosInjector",
    "CircuitBreaker",
    "DeadLetterEntry",
    "DeadLetterQueue",
    "DurableEngine",
    "FORMAT",
    "FsyncPolicy",
    "MalformedObservation",
    "RecoveryReport",
    "ResilienceStats",
    "RetryPolicy",
    "SHARDED_FORMAT",
    "SimulatedCrash",
    "SupervisedEngine",
    "VERSION",
    "WalWriter",
    "corrupt_checkpoint",
    "crash_failpoint",
    "kill_at_byte",
    "tear_wal_tail",
    "checkpoint_engine",
    "engine_fingerprint",
    "kill_and_restore_run",
    "load_checkpoint",
    "read_wal",
    "restore_engine",
    "save_checkpoint",
    "scan_wal",
]
