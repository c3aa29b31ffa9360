"""The scenario-pack contract: name + rules + stream + seeded oracle.

A :class:`ScenarioPack` bundles everything one RFID deployment scenario
needs to be runnable *by name* anywhere in the system — the CLI
(``python -m repro scenario run``), the chaos drills, the workload
generator and the benches:

* a **name** and human-readable description,
* a **rule set** (the :class:`repro.rules.Rule` objects the scenario's
  detection logic lives in),
* a **stream/trace factory** (the seeded simulator producing the
  observation stream and its ground truth),
* a **ground-truth oracle** (checks that the engine's output — store
  state and detections — matches what the simulator promised).

``pack.build(seed=..., size=...)`` returns a :class:`ScenarioRun`: one
seeded realization that owns its observations, rules, reader
placements and verifier.  :func:`execute_run` pushes the run through a
fresh engine and returns a JSON-able report — the shared backbone of
``scenario run`` and the scenario tests.

Packs that can also power the open-world workload generator
additionally implement :meth:`ScenarioPack.episode_source` (see
:mod:`repro.workload.episodes`); packs that cannot simply inherit the
default ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..core.detector import Engine, FunctionRegistry
from ..core.instances import Observation
from ..store import RfidStore

__all__ = [
    "OracleCheck",
    "ScenarioPack",
    "ScenarioRun",
    "canon_detection",
    "canon_detections",
    "execute_run",
]


@dataclass(frozen=True)
class OracleCheck:
    """One named ground-truth assertion with a human-readable detail."""

    name: str
    ok: bool
    detail: str = ""


#: A pack-specific verifier: ``(run, store, detections) -> checks``.
Verifier = Callable[["ScenarioRun", RfidStore, list], list[OracleCheck]]


@dataclass
class ScenarioRun:
    """One seeded realization of a scenario: stream, rules and oracle.

    ``expected_detections`` maps rule ids to the detection count the
    ground truth promises; :meth:`verify` checks it (plus whatever
    pack-specific ``verifier`` was attached) against an engine run.
    """

    pack: str
    seed: int
    size: int
    rules: list
    observations: list[Observation]
    end_time: float = 0.0
    reader_placements: tuple[tuple[str, str], ...] = ()
    functions: Optional[FunctionRegistry] = None
    expected_detections: dict[str, int] = field(default_factory=dict)
    #: The raw simulator trace, for verifiers that need ground truth.
    trace: object = None
    verifier: Optional[Verifier] = None

    def build_store(self) -> RfidStore:
        """A fresh store with this scenario's readers placed."""
        store = RfidStore()
        for reader, location in self.reader_placements:
            store.place_reader(reader, location)
        return store

    def engine_factory(self) -> Callable[[], Engine]:
        """A zero-arg factory building a fresh engine per call.

        Each call gets its own store, so the factory is safe to hand to
        :class:`~repro.resilience.durability.DurableEngine` (recovery
        replays the WAL into a brand-new engine).
        """

        def factory() -> Engine:
            return Engine(
                self.rules,
                store=self.build_store(),
                functions=(
                    self.functions
                    if self.functions is not None
                    else FunctionRegistry()
                ),
                context="chronicle",
            )

        return factory

    def verify(self, store: RfidStore, detections: list) -> list[OracleCheck]:
        """Ground-truth checks for one engine run over this scenario."""
        checks: list[OracleCheck] = []
        if self.expected_detections:
            counts: dict[str, int] = {}
            for detection in detections:
                rule_id = detection.rule.rule_id
                counts[rule_id] = counts.get(rule_id, 0) + 1
            for rule_id in sorted(self.expected_detections):
                expected = self.expected_detections[rule_id]
                got = counts.get(rule_id, 0)
                checks.append(
                    OracleCheck(
                        f"detections_{rule_id}",
                        got == expected,
                        f"expected {expected}, got {got}",
                    )
                )
        if self.verifier is not None:
            checks.extend(self.verifier(self, store, detections))
        return checks


class ScenarioPack:
    """Base class for scenario packs; subclasses set the class attrs.

    Third-party packs subclass this (or duck-type it: any object with
    ``name``, ``description`` and a ``build(seed=..., size=...)``
    returning a :class:`ScenarioRun` registers fine).
    """

    #: Registry key; lowercase, dash-separated.
    name: str = ""
    #: One-line human description shown by ``scenario list``.
    description: str = ""
    #: Default primary size (cases, sales, exits ... — pack-specific).
    default_size: int = 10
    #: What ``size`` counts, for ``scenario info``.
    size_unit: str = "episodes"

    def build(self, *, seed: int = 7, size: Optional[int] = None) -> ScenarioRun:
        raise NotImplementedError

    def episode_source(self, *, lines: int = 4, popular_fraction: float = 0.35):
        """Open-world episode source, or ``None`` if not workload-capable.

        See :mod:`repro.workload.episodes` for the contract.
        """
        return None


def canon_detection(rule_id: str, time: float, bindings: dict) -> tuple:
    """One detection in canonical form, whatever carried it: a
    ``Detection``, a wire frame or a sink journal line."""
    return (rule_id, round(time, 9), tuple(sorted(bindings.items())))


def canon_detections(detections: Sequence) -> list:
    """The canonical detection form shared with the serve drills."""
    return [
        canon_detection(d.rule.rule_id, d.time, d.bindings) for d in detections
    ]


def execute_run(run: ScenarioRun) -> dict:
    """Run a scenario through a fresh engine and audit it.

    Returns a JSON-able report: ``report["ok"]`` is the verdict and
    ``report["checks"]`` itemizes each oracle assertion.
    """
    engine = run.engine_factory()()
    detections = list(engine.run(run.observations))
    checks = run.verify(engine.store, detections)
    return {
        "ok": all(check.ok for check in checks),
        "pack": run.pack,
        "seed": run.seed,
        "size": run.size,
        "observations": len(run.observations),
        "detections": len(detections),
        "checks": {
            check.name: {"ok": check.ok, "detail": check.detail}
            for check in checks
        },
    }
