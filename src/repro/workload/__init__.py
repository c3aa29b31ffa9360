"""Open-world workload generation over scenario packs.

Where :mod:`repro.simulator` replays one seeded trace with exact ground
truth, this package generates **unbounded** production-shaped streams
over any workload-capable scenario pack (see
:mod:`repro.scenarios`) — and keeps the ground truth exact anyway:

* :mod:`~repro.workload.zipf` — seeded Zipf tag popularity (YCSB-style
  O(1) rank sampling);
* :mod:`~repro.workload.shaping` — diurnal sinusoid + seeded burst
  storms over a thinned non-homogeneous Poisson arrival process;
* :mod:`~repro.workload.tags` — tag pools holding millions of distinct
  EPCs in O(active tags) memory;
* :mod:`~repro.workload.episodes` — the episode contract packs
  implement to power generation;
* :mod:`~repro.workload.generator` — episode scheduling with line
  backpressure, heap-merged into one time-ordered stream;
* :mod:`~repro.workload.smoke` — ``python -m repro smoke``, the
  standing production drill (exactly-once + oracle + cardinality
  through the durable serving stack): its profiles and workload
  building, run by the drill procedure of :mod:`repro.serve.drill`.
"""

from .episodes import Episode, EpisodeSource, TagStreams
from .generator import GeneratedWorkload, WorkloadConfig, WorkloadStats
from .shaping import ArrivalShaper, ShapingConfig
from .smoke import SMOKE_PROFILES, SmokeProfile, run_smoke_drill
from .tags import TagUniverse
from .zipf import ZipfSampler, zeta

__all__ = [
    "ArrivalShaper",
    "Episode",
    "EpisodeSource",
    "GeneratedWorkload",
    "SMOKE_PROFILES",
    "ShapingConfig",
    "SmokeProfile",
    "TagStreams",
    "TagUniverse",
    "WorkloadConfig",
    "WorkloadStats",
    "ZipfSampler",
    "run_smoke_drill",
    "zeta",
]
