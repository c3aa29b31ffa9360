"""repro.obs — observability: metrics registry + typed engine tracing.

Two halves, both dependency-free:

* **Metrics** (:mod:`repro.obs.metrics`): :class:`MetricsRegistry` with
  counters, gauges and fixed-bucket histograms; JSON snapshots and
  Prometheus text exposition.  Attach one to an engine with
  ``Engine(metrics=registry)`` (or ``engine.attach_metrics(registry)``)
  and every hot path reports per-node-kind match time, per-observation
  latency, pseudo-queue depth, GC reclaim and more — with near-zero cost
  when no registry is attached.  :data:`METRICS` is the table of every
  family each layer reports; :class:`Instruments` binds one layer's rows.

* **Tracing** (:mod:`repro.obs.tracing`): the typed
  :class:`EngineObserver` protocol, plus :class:`Span` timers and
  testing helpers.

See ``docs/observability.md`` for the full tour.

.. note::
   ``repro`` also re-exports the primitive-event helper ``obs()`` at the
   package root, so the attribute ``repro.obs`` refers to that function.
   Access this package with from-imports — ``from repro.obs import
   MetricsRegistry`` — which resolve through the module system and are
   unaffected by the name shadowing.
"""

from .instrument import METRICS, NODE_KINDS, Instruments, rollup
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from .tracing import (
    EngineObserver,
    MulticastObserver,
    RecordingObserver,
    Span,
    as_observer,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "EngineObserver",
    "Gauge",
    "Histogram",
    "Instruments",
    "METRICS",
    "MetricFamily",
    "MetricsRegistry",
    "MulticastObserver",
    "NODE_KINDS",
    "RecordingObserver",
    "Span",
    "as_observer",
    "rollup",
]
