"""The five paper scenarios, wrapped as registrable scenario packs.

Each pack pairs an existing simulator (:mod:`repro.simulator`) with its
application rules (:mod:`repro.apps`) and a seeded ground-truth oracle
derived from the simulator's trace — the same pairings the examples,
drills and tests used to hand-wire, now resolvable by name.
"""

from __future__ import annotations

import random
from typing import Optional

from ..apps import (
    asset_monitoring_rule,
    containment_rule,
    location_rule,
    sale_rule,
)
from ..core.detector import FunctionRegistry
from .pack import OracleCheck, ScenarioPack, ScenarioRun

__all__ = [
    "CheckoutPack",
    "GatePack",
    "MovementPack",
    "PackingPack",
    "ShelfPack",
    "builtin_packs",
]


class PackingPack(ScenarioPack):
    """Example 1 / Rule 4: conveyor packing with containment aggregation."""

    name = "packing"
    description = (
        "Packing line (paper Example 1): items past reader r1, the case "
        "past r2; Rule 4 aggregates exact containments"
    )
    default_size = 10
    size_unit = "cases"

    def build(self, *, seed: int = 7, size: Optional[int] = None) -> ScenarioRun:
        from ..simulator import PackingConfig, simulate_packing

        size = self.default_size if size is None else size
        config = PackingConfig(cases=size)
        trace = simulate_packing(config, rng=random.Random(seed))
        containment = containment_rule()
        lower, upper = containment.event.lower, containment.event.upper

        def verify(run, store, detections) -> list[OracleCheck]:
            # Rule 4's chronicle context pairs each case reading, in time
            # order, with the oldest unpaired item group whose last item
            # is lower..upper seconds earlier.  A case reading that
            # overtakes the previous case's therefore takes the older
            # group: the simulator's own case-to-items map is not the
            # answer then.
            read_at = {observation.obj: observation.timestamp
                       for observation in run.observations}
            unpaired = [case.item_epcs for case in run.trace.cases]
            expected: dict[str, tuple] = {}
            for case in sorted(run.trace.cases, key=lambda case: case.case_time):
                for index, items in enumerate(unpaired):
                    if lower <= case.case_time - read_at[items[-1]] <= upper:
                        expected[case.case_epc] = unpaired.pop(index)
                        break
            mismatched = [
                case.case_epc
                for case in run.trace.cases
                if sorted(store.contents_of(case.case_epc, at=case.case_time))
                != sorted(expected.get(case.case_epc, ()))
            ]
            return [
                OracleCheck(
                    "containments_match",
                    not mismatched,
                    f"{len(run.trace.cases) - len(mismatched)}/"
                    f"{len(run.trace.cases)} cases correct",
                )
            ]

        return ScenarioRun(
            pack=self.name,
            seed=seed,
            size=size,
            rules=[containment, location_rule()],
            observations=list(trace.observations),
            end_time=trace.end_time,
            reader_placements=(
                (config.item_reader, "conveyor"),
                (config.case_reader, "packing_station"),
            ),
            expected_detections={
                "r4": len(trace.cases),
                "r3": len(trace.observations),
            },
            trace=trace,
            verifier=verify,
        )

    def episode_source(self, *, lines: int = 4, popular_fraction: float = 0.35):
        from .episodes_builtin import PackingEpisodeSource

        return PackingEpisodeSource(lines=lines)


class MovementPack(ScenarioPack):
    """Rule 3: objects moving through a reader-equipped route."""

    name = "movement"
    description = (
        "Supply-chain movement (Rule 3): objects hop factory->warehouse->"
        "truck->store; location history must match the route exactly"
    )
    default_size = 6
    size_unit = "objects"

    def build(self, *, seed: int = 7, size: Optional[int] = None) -> ScenarioRun:
        from ..simulator import MovementConfig, simulate_movement

        size = self.default_size if size is None else size
        config = MovementConfig(objects=size)
        trace = simulate_movement(config, rng=random.Random(seed))

        def verify(run, store, detections) -> list[OracleCheck]:
            objects = sorted({visit.obj_epc for visit in run.trace.visits})
            wrong = 0
            for epc in objects:
                history = [
                    (location, start)
                    for location, start, _end in store.location_history(epc)
                ]
                if history != run.trace.expected_history(epc):
                    wrong += 1
            return [
                OracleCheck(
                    "location_histories_match",
                    wrong == 0,
                    f"{len(objects) - wrong}/{len(objects)} objects correct",
                )
            ]

        return ScenarioRun(
            pack=self.name,
            seed=seed,
            size=size,
            rules=[location_rule()],
            observations=list(trace.observations),
            end_time=trace.end_time,
            reader_placements=tuple(config.route),
            expected_detections={"r3": len(trace.observations)},
            trace=trace,
            verifier=verify,
        )


class ShelfPack(ScenarioPack):
    """Rule 2: smart-shelf bulk reads, duplicate and semantic filtering."""

    name = "shelf"
    description = (
        "Smart shelf (Rule 2): periodic bulk re-reads; semantic filtering "
        "must recover exact infield/outfield events per stay"
    )
    default_size = 8
    size_unit = "items"

    def build(self, *, seed: int = 7, size: Optional[int] = None) -> ScenarioRun:
        from ..simulator import ShelfConfig, simulate_shelf

        size = self.default_size if size is None else size
        config = ShelfConfig(items=size)
        trace = simulate_shelf(config, rng=random.Random(seed))

        def verify(run, store, detections) -> list[OracleCheck]:
            from ..filtering import SmartShelfMonitor

            monitor = SmartShelfMonitor(
                period=config.read_period, reader=config.reader
            )
            monitor.process(run.observations)
            read_stays = [stay for stay in run.trace.stays if stay.was_read]
            infields = [e for e in monitor.events if e[0] == "infield"]
            outfields = [e for e in monitor.events if e[0] == "outfield"]
            misplaced = [
                stay.item_epc
                for stay in read_stays
                if store.location_of(stay.item_epc) != "shelf"
            ]
            return [
                OracleCheck(
                    "infield_outfield_match",
                    len(infields) == len(read_stays)
                    and len(outfields) == len(read_stays),
                    f"{len(infields)} infield / {len(outfields)} outfield "
                    f"for {len(read_stays)} read stays",
                ),
                OracleCheck(
                    "shelf_location_recorded",
                    not misplaced,
                    f"{len(read_stays) - len(misplaced)}/{len(read_stays)} "
                    f"items located on shelf",
                ),
            ]

        return ScenarioRun(
            pack=self.name,
            seed=seed,
            size=size,
            rules=[location_rule()],
            observations=list(trace.observations),
            end_time=trace.end_time,
            reader_placements=((config.reader, "shelf"),),
            expected_detections={"r3": len(trace.observations)},
            trace=trace,
            verifier=verify,
        )


class GatePack(ScenarioPack):
    """Example 2 / Rule 5: unescorted assets through a security gate."""

    name = "gate"
    description = (
        "Security gate (paper Example 2): laptops leaving without a "
        "superuser badge within tau must raise exactly the true alarms"
    )
    default_size = 10
    size_unit = "exits"

    def build(self, *, seed: int = 7, size: Optional[int] = None) -> ScenarioRun:
        from ..epc import EpcFactory
        from ..simulator import GateConfig, gate_type_function, simulate_gate

        size = self.default_size if size is None else size
        config = GateConfig(exits=size)
        factory = EpcFactory()
        trace = simulate_gate(config, rng=random.Random(seed), factory=factory)

        def verify(run, store, detections) -> list[OracleCheck]:
            raised = sorted(
                (d.bindings["o4"], round(d.time, 6))
                for d in detections
                if d.rule.rule_id == "r5"
            )
            expected = sorted(
                (epc, round(alarm_time, 6))
                for epc, alarm_time in run.trace.expected_alarms()
            )
            return [
                OracleCheck(
                    "alarms_match",
                    raised == expected,
                    f"raised {len(raised)}, expected {len(expected)}",
                )
            ]

        return ScenarioRun(
            pack=self.name,
            seed=seed,
            size=size,
            rules=[asset_monitoring_rule(config.reader, config.tau)],
            observations=list(trace.observations),
            end_time=trace.end_time,
            functions=FunctionRegistry(
                obj_type=gate_type_function(config, factory)
            ),
            expected_detections={"r5": len(trace.expected_alarms())},
            trace=trace,
            verifier=verify,
        )


class CheckoutPack(ScenarioPack):
    """Point of sale: readings that close the supply chain."""

    name = "checkout"
    description = (
        "Checkout (point of sale): every POS reading records a sale, "
        "moves the item to 'sold' and closes open containments"
    )
    default_size = 12
    size_unit = "sales"

    def build(self, *, seed: int = 7, size: Optional[int] = None) -> ScenarioRun:
        from ..simulator import CheckoutConfig, simulate_checkout

        size = self.default_size if size is None else size
        config = CheckoutConfig(sales=size)
        trace = simulate_checkout(config, rng=random.Random(seed))

        def verify(run, store, detections) -> list[OracleCheck]:
            rows = sorted(
                (row["object_epc"], row["pos_reader"], round(row["timestamp"], 9))
                for row in store.database.table("SALE").rows
            )
            expected = sorted(
                (sale.item_epc, sale.pos_reader, round(sale.time, 9))
                for sale in run.trace.sales
            )
            unsold = [
                sale.item_epc
                for sale in run.trace.sales
                if store.location_of(sale.item_epc) != "sold"
            ]
            return [
                OracleCheck(
                    "sales_recorded",
                    rows == expected,
                    f"{len(rows)} SALE rows, expected {len(expected)}",
                ),
                OracleCheck(
                    "sold_location",
                    not unsold,
                    f"{len(run.trace.sales) - len(unsold)}/"
                    f"{len(run.trace.sales)} items at 'sold'",
                ),
            ]

        return ScenarioRun(
            pack=self.name,
            seed=seed,
            size=size,
            rules=[sale_rule(config.pos_readers)],
            observations=list(trace.observations),
            end_time=trace.end_time,
            expected_detections={"r6": len(trace.sales)},
            trace=trace,
            verifier=verify,
        )

    def episode_source(self, *, lines: int = 4, popular_fraction: float = 0.35):
        from .episodes_builtin import CheckoutEpisodeSource

        return CheckoutEpisodeSource(
            lines=lines, popular_fraction=popular_fraction
        )


def builtin_packs() -> list[ScenarioPack]:
    """Fresh instances of the five paper-scenario packs."""
    return [
        PackingPack(),
        MovementPack(),
        ShelfPack(),
        GatePack(),
        CheckoutPack(),
    ]
