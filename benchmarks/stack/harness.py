"""Measurement helpers that know nothing about the system under test.

Spans, statistics, resource usage, the exactly-once sink audit and the
canonical forms the oracles compare.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from collections import Counter
from typing import Any, Iterable, Optional, Sequence

__all__ = [
    "SinkAudit",
    "Spans",
    "audit_sink_file",
    "batches_of",
    "canon_frames",
    "children_cpu_s",
    "input_digest",
    "mismatches",
    "peak_rss_mb",
    "percentile",
    "spread_pct",
]


# -- spans ---------------------------------------------------------------------


class _NoSpan:
    """Shared do-nothing context: what an untraced run enters instead."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *_exc) -> bool:
        return False


_NO_SPAN = _NoSpan()


class _OpenSpan:
    __slots__ = ("spans", "row")

    def __init__(self, spans: "Spans", row: dict) -> None:
        self.spans = spans
        self.row = row

    def __enter__(self) -> dict:
        self.spans._open.append(self.row["id"])
        self.row["start"] = time.perf_counter()
        return self.row

    def __exit__(self, *_exc) -> bool:
        self.row["end"] = time.perf_counter()
        self.spans._open.pop()
        return False


class Spans:
    """In-memory span log of one workload run, written out at the end.

    ``span`` records whenever the run is traced; ``call`` — the per-call
    spans around each entry into a layer — records only while ``calls``
    is on (the top rung's traced re-run), so the rungs whose times feed
    the ladder carry two clock reads each and nothing more.  An
    untraced run gets the shared no-op context from both.
    """

    def __init__(self, workload: str, recording: bool) -> None:
        self.workload = workload
        self.recording = recording
        self.calls = False
        self.rows: list[dict] = []
        self._open: list[int] = []

    def span(
        self, name: str, *, parent: Optional[int] = None, pass_index: int = 0
    ) -> Any:
        if not self.recording:
            return _NO_SPAN
        if parent is None and self._open:
            parent = self._open[-1]
        row = {
            "id": len(self.rows),
            "workload": self.workload,
            "pass": pass_index,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": parent,
        }
        self.rows.append(row)
        return _OpenSpan(self, row)

    def call(self, name: str) -> Any:
        if not (self.recording and self.calls):
            return _NO_SPAN
        return self.span(name)

    def first(self, name: str) -> Optional[int]:
        """Id of the first span called ``name`` (isolated calls hang there)."""
        for row in self.rows:
            if row["name"] == name:
                return row["id"]
        return None

    def total(self, name: str, parent: int) -> float:
        """Summed duration of ``parent``'s direct children called ``name``."""
        return sum(
            row["end"] - row["start"]
            for row in self.rows
            if row["parent"] == parent and row["name"] == name
        )

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for row in self.rows:
            if row["parent"] is not None:
                children.setdefault(row["parent"], []).append(
                    (row["start"], row["end"])
                )
        result = {}
        for row in self.rows:
            covered = 0.0
            edge = row["start"]
            for start, end in sorted(children.get(row["id"], ())):
                start = max(start, edge)
                end = min(end, row["end"])
                if end > start:
                    covered += end - start
                    edge = end
            result[row["id"]] = (row["end"] - row["start"]) - covered
        return result

    def write(self, path: str) -> None:
        self_times = self.self_times()
        rows = [dict(row, self_s=self_times[row["id"]]) for row in self.rows]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": self.workload, "spans": rows}, handle)
            handle.write("\n")


# -- statistics ------------------------------------------------------------------


def spread_pct(values: Sequence[float]) -> float:
    """Inter-quartile distance as a percentage of the median."""
    if len(values) < 2:
        return 0.0
    first, _mid, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values) * 100.0


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


# -- resources -------------------------------------------------------------------


def children_cpu_s() -> float:
    """User+sys CPU of every child reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this interpreter plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


# -- inputs ----------------------------------------------------------------------


def batches_of(observations: Sequence, size: int) -> list:
    return [observations[i : i + size] for i in range(0, len(observations), size)]


def input_digest(observations: Iterable) -> str:
    """SHA-256 over the canonical ``(reader, obj, timestamp)`` tuples."""
    digest = hashlib.sha256()
    for observation in observations:
        digest.update(
            f"{observation.reader}|{observation.obj}|"
            f"{observation.timestamp!r}\n".encode()
        )
    return digest.hexdigest()


# -- oracles ---------------------------------------------------------------------


def canon_frames(frames: Iterable) -> list:
    """Wire ``DetectionFrame`` objects in ``canon_detections`` form."""
    return [
        (frame.rule, round(frame.time, 9), tuple(sorted(frame.bindings.items())))
        for frame in frames
    ]


def mismatches(got: list, want: list) -> int:
    """Detections missing from or spurious in ``got`` (as multisets)."""
    if got == want:
        return 0
    got_counts, want_counts = Counter(got), Counter(want)
    return sum((got_counts - want_counts).values()) + sum(
        (want_counts - got_counts).values()
    )


class SinkAudit:
    """O(1)-memory exactly-once audit of an outbox sink.

    ``(seq, ordinal)`` keys must strictly increase; per-rule delivery
    counts must equal the oracle's.  Usable directly as the ``sink=``
    callable of a ``DurableEngine``.  ``remember=True`` also keeps the
    keys, for telling a second life's deliveries from the first's.
    """

    def __init__(self, remember: bool = False) -> None:
        self.count = 0
        self.per_rule: dict[str, int] = {}
        self.out_of_order = 0
        self.keys: Optional[set] = set() if remember else None
        self._last = (-1, -1)

    def __call__(self, detection: Any, seq: int, ordinal: int) -> None:
        self.record(detection.rule.rule_id, seq, ordinal)

    def record(self, rule_id: str, seq: int, ordinal: int) -> None:
        key = (seq, ordinal)
        if key <= self._last:
            self.out_of_order += 1
        self._last = key
        if self.keys is not None:
            self.keys.add(key)
        self.count += 1
        self.per_rule[rule_id] = self.per_rule.get(rule_id, 0) + 1

    def failures(self, expected: dict[str, int]) -> int:
        """Deliveries duplicated, reordered or lost against ``expected``."""
        rules = set(expected) | set(self.per_rule)
        return self.out_of_order + sum(
            abs(self.per_rule.get(rule, 0) - expected.get(rule, 0))
            for rule in rules
        )


def audit_sink_file(path: str) -> SinkAudit:
    """Audit a ``repro.serve.cluster.file_sink`` JSONL delivery log."""
    audit = SinkAudit()
    try:
        handle = open(path, encoding="utf-8")
    except FileNotFoundError:
        return audit
    with handle:
        for line in handle:
            payload = json.loads(line)
            audit.record(payload["rule"], payload["seq"], payload["ordinal"])
    return audit
