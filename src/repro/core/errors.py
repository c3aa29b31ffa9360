"""Exception hierarchy for the RCEDA reproduction.

Every error raised by the library derives from :class:`ReproError` so that
applications can catch library failures with a single ``except`` clause
while still distinguishing compile-time problems (bad rule definitions)
from runtime problems (out-of-order streams, bad actions).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ExpressionError(ReproError):
    """An event expression was constructed with invalid arguments.

    Examples: a ``TSEQ`` whose lower distance bound exceeds its upper
    bound, a ``WITHIN`` with a non-positive interval, or a negation of a
    negation (which the engine normalizes away and therefore rejects as
    almost certainly a user mistake).
    """


class CompileError(ReproError):
    """An event graph could not be built from a set of rules."""


class InvalidRuleError(CompileError):
    """A rule's event is in *pull* detection mode and can never fire.

    The paper calls these *invalid rules*: the root of the rule's event
    graph is non-spontaneous and has no temporal bound that would let the
    engine schedule a pseudo event to query it, so no occurrence can ever
    be detected.
    """


class TimeOrderError(ReproError):
    """An observation arrived with a timestamp older than the engine clock.

    The engine processes a totally ordered stream; see
    ``Engine(out_of_order=...)`` for the available policies.
    """


class ShardError(ReproError):
    """A shard's engine failed while processing routed traffic.

    Raised by :class:`~repro.core.sharding.ShardedEngine` so a failure
    inside one shard identifies the shard and the rules it hosts instead
    of surfacing as an anonymous error from an unknown engine.  The
    original exception is attached as ``__cause__`` and as
    :attr:`original`; ``partial`` is the failing batch's result so far.
    """

    def __init__(self, shard: str, rule_ids: "list[str]", original: BaseException):
        self.shard = shard
        self.rule_ids = list(rule_ids)
        self.original = original
        rules = ", ".join(self.rule_ids) or "<no rules>"
        super().__init__(
            f"shard {shard!r} (rules: {rules}) failed: "
            f"{type(original).__name__}: {original}"
        )


class CheckpointError(ReproError):
    """A checkpoint could not be produced or restored.

    Raised on format/version mismatches, on restoring into an engine
    whose compiled rule graph differs from the checkpointed one, or on
    restoring into an engine that has already processed observations.
    """


class WalError(ReproError):
    """A write-ahead log could not be written, read or recovered.

    A *torn tail* — an incomplete or checksum-failing record at the very
    end of the newest segment, the signature of a crash mid-append — is
    not an error: readers silently truncate there.  ``WalError`` marks
    the conditions recovery must not paper over: corruption in the
    middle of the log, non-monotonic sequence numbers, appending to a
    directory that already holds another engine's log, or observations
    that cannot be encoded.
    """


class ActionError(ReproError):
    """A rule action failed to execute."""


class ConditionError(ReproError):
    """A rule condition could not be evaluated."""


class UnknownVariableError(ActionError):
    """An action template referenced a variable with no binding."""
