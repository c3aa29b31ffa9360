"""Sharded detection: one engine per site, coordinated routing.

The paper's history-oriented deployments collect "RFID data streams from
multiple RFID readers at distributed locations"; an edge architecture
runs detection near the readers and ships only detections upstream.
:class:`ShardedEngine` models that: rules are assigned to shards, each
shard runs an independent :class:`~repro.core.detector.Engine`, and each
observation is routed only to the shards whose rules can possibly match
it.

Placement is computed from the rules' primitive event types:

* a rule whose primitives all name reader literals (or groups with a
  known member set) is placed on one shard, and its readers are pinned
  there;
* readers referenced by several co-placed rules stay together — rules
  sharing a reader form one placement unit (union-find);
* rules with wildcard readers match anything, so they are placed on
  every shard... which would duplicate detections; instead they go to a
  dedicated *catch-all* shard that receives a copy of every observation.

Within one shard the engine is exactly the single-engine RCEDA, so
sharded detection is equivalent to running everything on one engine
(`tests/test_sharding.py` verifies this on random streams) while each
shard only sees its own traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional

from ..obs.metrics import MetricsRegistry
from ..obs.tracing import EngineObserver
from .detector import (
    DetectionBackend,
    Detection,
    Engine,
    FunctionRegistry,
    RuleLike,
    SubmitResult,
)
from .errors import CheckpointError, ShardError
from .expressions import ObservationType
from .instances import Observation

CATCH_ALL = "__catch_all__"


def rule_reader_literals(rule: RuleLike) -> Optional[set[str]]:
    """The reader literals a rule's event touches; None if any wildcard.

    Group-filtered primitives count as wildcards unless the group's
    members are supplied to :class:`ShardedEngine` via ``group_members``.
    """
    readers: set[str] = set()
    for node in rule.event.walk():
        if not isinstance(node, ObservationType):
            continue
        if isinstance(node.reader, str):
            readers.add(node.reader)
        else:
            return None  # variable/wildcard/group reader
    return readers


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[Any, Any] = {}

    def find(self, item: Any) -> Any:
        self.parent.setdefault(item, item)
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, left: Any, right: Any) -> None:
        self.parent[self.find(left)] = self.find(right)


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic rule→shard assignment, independent of any engine.

    This is the single source of truth for placement: the in-process
    :class:`ShardedEngine` builds its engines from it, the durable
    sharded engine inherits it through its coordinator, and the cluster
    router (:mod:`repro.serve.cluster`) computes the *same* plan in every
    process so routing decisions agree without any coordination traffic.
    """

    #: shard name -> rules placed there, placement order.
    rules: dict[str, tuple]
    #: shard name -> reader literals pinned to it (empty for catch-all).
    readers: dict[str, frozenset]
    #: reader literal -> shard names needing its observations, in order.
    routes: dict[str, tuple]
    #: whether a catch-all shard (wildcard rules) exists.
    has_catch_all: bool

    @property
    def shard_names(self) -> tuple:
        return tuple(self.rules)

    def placement(self) -> dict[str, list[str]]:
        """shard name -> rule ids, the introspection view."""
        return {
            name: [rule.rule_id for rule in shard_rules]
            for name, shard_rules in self.rules.items()
        }

    def routes_for_reader(self, reader: str) -> list[str]:
        """Shard names one reader's observations fan out to, in order."""
        targets = list(self.routes.get(reader, ()))
        if self.has_catch_all:
            targets.append(CATCH_ALL)
        return targets


def plan_shards(
    rules: Iterable[RuleLike],
    max_shards: int,
    group_members: Optional[Mapping[str, set]] = None,
) -> ShardPlan:
    """Compute the canonical placement for ``rules`` over ``max_shards``.

    Rules whose primitives all name reader literals (or groups resolved
    through ``group_members``) are clustered by shared readers
    (union-find — co-reading rules must co-locate) and the clusters are
    packed round-robin by descending size onto ``shard-0..N-1``; rules
    with wildcard readers go to the dedicated catch-all shard.  The
    result is a pure function of its inputs, so every process that runs
    it over the same rule list derives the same shard set and routes.
    """
    if max_shards < 1:
        raise ValueError("need at least one shard")
    members = group_members or {}

    def rule_readers(rule: RuleLike) -> Optional[set]:
        readers: set = set()
        for node in rule.event.walk():
            if not isinstance(node, ObservationType):
                continue
            if isinstance(node.reader, str):
                readers.add(node.reader)
            elif node.group is not None and node.group in members:
                readers.update(members[node.group])
            else:
                return None
        return readers

    placeable: list[tuple[RuleLike, set]] = []
    catch_all: list[RuleLike] = []
    for rule in rules:
        readers = rule_readers(rule)
        if readers is None or not readers:
            catch_all.append(rule)
        else:
            placeable.append((rule, readers))

    # Rules sharing any reader must co-locate: union by reader.
    union = _UnionFind()
    for rule, readers in placeable:
        first, *rest = sorted(readers)
        for reader in rest:
            union.union(first, reader)
    clusters: dict[Any, tuple[list[RuleLike], set]] = {}
    for rule, readers in placeable:
        root = union.find(sorted(readers)[0])
        bucket = clusters.setdefault(root, ([], set()))
        bucket[0].append(rule)
        bucket[1].update(readers)

    # Pack clusters onto shards round-robin by descending size.
    shard_count = max(1, min(max_shards, len(clusters)) or 1)
    shards: dict[str, tuple[list[RuleLike], set]] = {
        f"shard-{index}": ([], set()) for index in range(shard_count)
    }
    ordered = sorted(clusters.values(), key=lambda bucket: -len(bucket[0]))
    names = list(shards)
    for index, (cluster_rules, cluster_readers) in enumerate(ordered):
        target = shards[names[index % shard_count]]
        target[0].extend(cluster_rules)
        target[1].update(cluster_readers)
    placements = {name: bucket for name, bucket in shards.items() if bucket[0]}
    if catch_all:
        placements[CATCH_ALL] = (catch_all, set())
    if not placements:
        placements["shard-0"] = ([], set())

    routes: dict[str, list[str]] = {}
    for name, (_shard_rules, shard_readers) in placements.items():
        if name == CATCH_ALL:
            continue
        for reader in shard_readers:
            routes.setdefault(reader, []).append(name)
    return ShardPlan(
        rules={
            name: tuple(shard_rules)
            for name, (shard_rules, _readers) in placements.items()
        },
        readers={
            name: frozenset(shard_readers)
            for name, (_rules, shard_readers) in placements.items()
        },
        routes={reader: tuple(names) for reader, names in routes.items()},
        has_catch_all=CATCH_ALL in placements,
    )


class ShardedEngine(DetectionBackend):
    """Partition rules and observation traffic across engines.

    Parameters mirror :class:`Engine` where they apply to every shard.
    ``group_members`` optionally maps group names to their reader sets so
    group-filtered rules can be placed instead of falling to the
    catch-all shard.  A single ``metrics`` registry is shared by every
    shard: each shard reports under its own ``engine`` label value, so
    fleet-wide values are per-family rollups (``repro.obs.rollup``).
    ``observer`` likewise receives the typed events of every shard.
    """

    def __init__(
        self,
        rules: Iterable[RuleLike],
        *,
        max_shards: int = 4,
        context: str = "chronicle",
        functions: Optional[FunctionRegistry] = None,
        store: Any = None,
        group_members: Optional[dict[str, set[str]]] = None,
        metrics: Optional[MetricsRegistry] = None,
        observer: Optional[EngineObserver] = None,
    ) -> None:
        self._group_members = group_members or {}
        self.plan = plan_shards(
            list(rules), max_shards, group_members=self._group_members
        )
        self.shards: dict[str, Engine] = {}
        #: reader literal -> shard names that need its observations.
        self._routes: dict[str, list[str]] = {
            reader: list(names) for reader, names in self.plan.routes.items()
        }
        self._has_catch_all = self.plan.has_catch_all
        for shard_name, shard_rules in self.plan.rules.items():
            self.shards[shard_name] = Engine(
                shard_rules,
                context=context,
                functions=functions,
                store=store,
                observer=observer,
                metrics=metrics,
                metrics_label=shard_name,
            )
        self.routed = 0
        self.multicast = 0
        self._last_seq = -1

    # -- streaming -----------------------------------------------------------

    def routes_for(self, observation: Observation) -> list[str]:
        """The shard names one observation fans out to, in submit order.

        Reader-pinned shards first (routing-table order), then the
        catch-all shard when one exists.
        """
        targets = list(self._routes.get(observation.reader, ()))
        if self._has_catch_all:
            targets.append(CATCH_ALL)
        return targets

    @property
    def last_seq(self) -> int:
        """Sequence number of the latest observation submitted with one."""
        return self._last_seq

    def submit_many(
        self,
        observations: Iterable[Observation],
        first_seq: Optional[int] = None,
    ) -> SubmitResult:
        """Route a batch to the shards; returns a :class:`SubmitResult`.

        Every shard shares one ``store``, so the batch is never split
        into per-shard sub-batches, which would run one shard's
        store-writing actions ahead of another's store-reading
        conditions: each observation goes to its target shards
        (``submit_many`` of one, in :meth:`routes_for` order) before the
        next one does.  ``first_seq`` is forwarded to every target shard.

        A failure inside a shard surfaces as
        :class:`~repro.core.errors.ShardError` naming the shard and its
        rule ids (the original exception is ``__cause__``) and carrying
        the batch's ``partial`` result, as the raise contract of
        :class:`~repro.core.detector.DetectionBackend` says.
        """
        shards = self.shards
        out = SubmitResult()
        ends = out.ends
        seq = first_seq
        for observation in observations:
            if seq is not None:
                self._last_seq = seq
            targets = self.routes_for(observation)
            for shard_name in targets:
                engine = shards[shard_name]
                try:
                    part = engine.submit_many((observation,), seq)
                except Exception as exc:
                    out += exc.partial
                    out.dropped += exc.partial.dropped
                    ends.append(len(out))
                    out.accepted = len(ends) - 1 - out.dropped
                    error = ShardError(
                        shard_name, [rule.rule_id for rule in engine.rules], exc
                    )
                    error.partial = out
                    raise error from exc
                out += part
                out.dropped += part.dropped
            ends.append(len(out))
            self.routed += 1
            self.multicast += max(0, len(targets) - 1)
            if seq is not None:
                seq += 1
        out.accepted = len(ends) - out.dropped
        return out

    def flush(self) -> list[Detection]:
        detections: list[Detection] = []
        for shard_name, engine in self.shards.items():
            try:
                detections.extend(engine.flush())
            except ShardError:
                raise
            except Exception as exc:
                raise ShardError(
                    shard_name, [rule.rule_id for rule in engine.rules], exc
                ) from exc
        detections.sort(key=lambda detection: detection.time)
        return detections

    # -- checkpoint/restore ----------------------------------------------------

    def checkpoint(self) -> dict:
        """Snapshot every shard plus the coordinator's routing counters.

        The same versioned plain-data contract as
        :meth:`~repro.core.detector.Engine.checkpoint`, with one engine
        snapshot per shard keyed by shard name.
        """
        from ..resilience.checkpoint import SHARDED_FORMAT, VERSION

        return {
            "format": SHARDED_FORMAT,
            "version": VERSION,
            "shards": {
                name: engine.checkpoint() for name, engine in self.shards.items()
            },
            "routed": self.routed,
            "multicast": self.multicast,
            "last_seq": self._last_seq,
        }

    def restore(self, snapshot: dict) -> None:
        """Load a :meth:`checkpoint` snapshot into freshly built shards.

        The coordinator must have been constructed from the same rules
        with the same ``max_shards`` (so placement — and therefore the
        shard set — is identical).
        """
        from ..resilience.checkpoint import SHARDED_FORMAT, VERSION

        if not isinstance(snapshot, dict) or snapshot.get("format") != SHARDED_FORMAT:
            raise CheckpointError("not a sharded-engine checkpoint")
        if snapshot.get("version") != VERSION:
            raise CheckpointError(
                f"checkpoint version {snapshot.get('version')!r} not supported"
            )
        if set(snapshot["shards"]) != set(self.shards):
            raise CheckpointError(
                f"shard layout mismatch: checkpoint has "
                f"{sorted(snapshot['shards'])}, this coordinator has "
                f"{sorted(self.shards)}"
            )
        for name, engine in self.shards.items():
            engine.restore(snapshot["shards"][name])
        self.routed = snapshot["routed"]
        self.multicast = snapshot["multicast"]
        self._last_seq = snapshot.get("last_seq", -1)

    # -- introspection -----------------------------------------------------------

    def placement(self) -> dict[str, list[str]]:
        """shard name -> rule ids (the shape the cluster router keys on)."""
        return {
            name: [rule.rule_id for rule in engine.rules]
            for name, engine in self.shards.items()
        }

    def traffic_summary(self) -> dict[str, int]:
        """Observations each shard actually processed."""
        return {
            name: engine.stats.observations
            for name, engine in self.shards.items()
        }
