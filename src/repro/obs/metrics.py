"""Dependency-free metrics primitives: counters, gauges, histograms.

The registry is where everything the engine measures is exposed.  It
is deliberately tiny — a few hundred lines, no third-party
dependency — but speaks the two formats the outside world expects:

* :meth:`MetricsRegistry.snapshot` returns a plain-``dict`` snapshot
  (JSON-serialisable, stable ordering) for programmatic consumption and
  golden tests;
* :meth:`MetricsRegistry.render_prometheus` renders the Prometheus text
  exposition format (version 0.0.4) so an instrumented process can be
  scraped or its dump diffed with standard tooling.

Metrics support labels through *families*: ``registry.counter(name,
labelnames=("kind",))`` returns a family, and ``family.labels(kind="seq")``
returns (and caches) the child counter for that label value.  Hot paths
should resolve children once, up front, and call ``inc``/``observe`` on
the bound child — label resolution is a dict lookup plus tuple build and
does not belong inside a per-observation loop.

All mutation methods are plain attribute updates; there is no locking.
One registry per thread (or per sharded-engine coordinator) is the
intended deployment, matching the engine's own threading story.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

#: Latency bucket boundaries in seconds: 1µs .. 1s, log-ish spacing.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0,
)

#: Size/count bucket boundaries: queue depths, buffer occupancies.
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus clients do."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(value))}"' for key, value in labels.items()
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("labels_map", "value")

    kind = "counter"

    def __init__(self, labels_map: Optional[dict[str, str]] = None) -> None:
        self.labels_map = labels_map or {}
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def sample(self) -> dict:
        return {"labels": dict(self.labels_map), "value": self.value}


class Gauge:
    """A value that can go up and down (queue depth, occupancy)."""

    __slots__ = ("labels_map", "value")

    kind = "gauge"

    def __init__(self, labels_map: Optional[dict[str, str]] = None) -> None:
        self.labels_map = labels_map or {}
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0.0

    def sample(self) -> dict:
        return {"labels": dict(self.labels_map), "value": self.value}


class Histogram:
    """Fixed-boundary cumulative histogram (Prometheus semantics).

    ``boundaries`` are the inclusive upper edges of the finite buckets; a
    final ``+Inf`` bucket is implicit.  ``observe`` is two comparisons
    plus three attribute updates in the common case — cheap enough for a
    per-observation hot path once the child is pre-bound.
    """

    __slots__ = ("labels_map", "boundaries", "bucket_counts", "sum", "count")

    kind = "histogram"

    def __init__(
        self,
        boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labels_map: Optional[dict[str, str]] = None,
    ) -> None:
        ordered = tuple(float(edge) for edge in boundaries)
        if not ordered:
            raise ValueError("histogram needs at least one bucket boundary")
        if list(ordered) != sorted(ordered):
            raise ValueError(f"bucket boundaries must be sorted: {ordered}")
        self.labels_map = labels_map or {}
        self.boundaries = ordered
        self.bucket_counts = [0] * (len(ordered) + 1)  # trailing +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        index = 0
        boundaries = self.boundaries
        while index < len(boundaries) and value > boundaries[index]:
            index += 1
        self.bucket_counts[index] += 1

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.boundaries) + 1)
        self.sum = 0.0
        self.count = 0

    def cumulative(self) -> list[tuple[str, int]]:
        """(upper-edge label, cumulative count) per bucket, +Inf last."""
        out = []
        running = 0
        for edge, bucket_count in zip(self.boundaries, self.bucket_counts):
            running += bucket_count
            out.append((_format_value(edge), running))
        out.append(("+Inf", running + self.bucket_counts[-1]))
        return out

    def sample(self) -> dict:
        return {
            "labels": dict(self.labels_map),
            "buckets": {edge: total for edge, total in self.cumulative()},
            "sum": self.sum,
            "count": self.count,
        }


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """A named metric plus its labeled children.

    With empty ``labelnames`` the family has exactly one (label-less)
    child and the family itself proxies ``inc``/``set``/``observe`` to
    it, so unlabeled metrics read naturally::

        observations = registry.counter("observations_total")
        observations.inc()
    """

    __slots__ = ("name", "help", "kind", "labelnames", "buckets", "_children")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets)
        self._children: dict[tuple[str, ...], Union[Counter, Gauge, Histogram]] = {}
        if not self.labelnames:
            self._make_child(())

    def _make_child(self, key: tuple[str, ...]):
        labels_map = dict(zip(self.labelnames, key))
        if self.kind == "histogram":
            child = Histogram(self.buckets, labels_map)
        else:
            child = _METRIC_TYPES[self.kind](labels_map)
        self._children[key] = child
        return child

    def labels(self, **labels: str) -> Union[Counter, Gauge, Histogram]:
        """The child for one label-value combination (created on demand)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._make_child(key)
        return child

    def adopt(self, child) -> None:
        """Let ``child`` take the place of the child with its labels."""
        self._children[tuple(child.labels_map.values())] = child

    @property
    def _solo(self):
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} is labeled by {self.labelnames}; "
                "call .labels(...) first"
            )
        return self._children[()]

    # Unlabeled convenience proxies.
    def inc(self, amount: float = 1.0) -> None:
        self._solo.inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo.dec(amount)

    def set(self, value: float) -> None:
        self._solo.set(value)

    def observe(self, value: float) -> None:
        self._solo.observe(value)

    @property
    def value(self) -> float:
        return self._solo.value

    def children(self) -> Iterable[Union[Counter, Gauge, Histogram]]:
        return self._children.values()

    def reset(self) -> None:
        for child in self._children.values():
            child.reset()

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "samples": [child.sample() for child in self._children.values()],
        }


class MetricsRegistry:
    """A named collection of metric families.

    Registration is idempotent: asking for an existing name with the same
    type returns the existing family, so several engines (e.g. the shards
    of a :class:`~repro.core.sharding.ShardedEngine`) can share one
    registry and aggregate into the same families under distinct label
    values.  Re-registering a name as a different type raises.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    # -- registration ---------------------------------------------------------

    def register(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        """The family ``name`` of ``kind``, created on first registration."""
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            if existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.labelnames}"
                )
            return existing
        family = MetricFamily(name, kind, help, labelnames, buckets)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self.register(name, "counter", help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self.register(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self.register(name, "histogram", help, labelnames, buckets)

    # -- access ---------------------------------------------------------------

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __iter__(self):
        return iter(self._families.values())

    def names(self) -> list[str]:
        return sorted(self._families)

    def reset(self) -> None:
        """Zero every metric, keeping all registrations and children."""
        for family in self._families.values():
            family.reset()

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serialisable snapshot of every family, name-sorted."""
        return {
            name: self._families[name].snapshot()
            for name in sorted(self._families)
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for child in family.children():
                base = child.labels_map
                if family.kind == "histogram":
                    for edge, total in child.cumulative():
                        labels = dict(base)
                        labels["le"] = edge
                        lines.append(
                            f"{name}_bucket{_render_labels(labels)} {total}"
                        )
                    lines.append(
                        f"{name}_sum{_render_labels(base)} "
                        f"{_format_value(child.sum)}"
                    )
                    lines.append(f"{name}_count{_render_labels(base)} {child.count}")
                else:
                    lines.append(
                        f"{name}{_render_labels(base)} "
                        f"{_format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")
