"""Checkpoint/restore: serialize an engine's full detection-graph runtime state.

A crash in the middle of a stream destroys exactly the state the paper's
chronicle context exists to maintain — which initiator is oldest, which
pending negation windows are open, which ``TSEQ+`` chains are mid-build
and which pseudo events are scheduled to close them.  This module turns
all of that into a versioned, dependency-free snapshot (plain dicts,
lists and scalars — ``json`` round-trippable) and rebuilds it into a
freshly compiled engine so detection resumes *exactly* where it stopped:
a killed-and-restored run produces the same detections, in the same
order, with the same bindings, as an uninterrupted one.

What a snapshot covers:

* the engine clock, start flag, statistics and pending output;
* every runtime node state — occurrence histories, AND buffers, SEQ/TSEQ
  buckets, pending negation matches, ``TSEQ+`` chains, ``SEQ+`` runs and
  periodic anchors — with structural sharing of event instances
  preserved (an instance referenced from two states is serialized once
  and restored as one object);
* the pseudo-event queue, including its tie-break counters, so
  same-instant expirations replay in the original order;
* the watermark buffer of ``reorder_delay`` (or REVISE, with its
  speculation state) when configured.

What it deliberately does **not** cover: the compiled rule graph (rules
hold arbitrary callables; the restoring process re-creates the engine
from the same rule definitions, validated by a structural fingerprint)
and the RFID store (a database is durable on its own; recovery re-attaches
to it).

Checkpoint a snapshot with :meth:`repro.Engine.checkpoint`, restore with
:meth:`repro.Engine.restore`; :func:`save_checkpoint` /
:func:`load_checkpoint` handle the JSON file round trip.  See
``docs/resilience.md``.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from typing import TYPE_CHECKING, Any

from ..core.errors import CheckpointError
from ..core.instances import (
    CompositeInstance,
    EventInstance,
    NegationInstance,
    Observation,
    PrimitiveInstance,
)
from ..core.nodes import (
    AndState,
    PeriodicState,
    RuntimeNode,
    SeqPlusState,
    SeqState,
    TSeqPlusState,
    _Chain,
    _PendingMatch,
)
from ..core.pseudo import PseudoEvent

if TYPE_CHECKING:  # pragma: no cover
    from ..core.detector import Engine

FORMAT = "rceda-checkpoint"
SHARDED_FORMAT = "rceda-sharded-checkpoint"
VERSION = 1

__all__ = [
    "FORMAT",
    "SHARDED_FORMAT",
    "VERSION",
    "checkpoint_engine",
    "restore_engine",
    "engine_fingerprint",
    "save_checkpoint",
    "load_checkpoint",
]


def engine_fingerprint(engine: "Engine") -> str:
    """Structural hash of the compiled graph + rule ids + context.

    Two engines with equal fingerprints compile the same rules in the
    same order into the same node ids, so node-indexed runtime state
    transfers between them verbatim.
    """
    digest = hashlib.sha256()
    digest.update(engine.graph.describe().encode())
    for rule in engine.rules:
        digest.update(b"\x00")
        digest.update(str(rule.rule_id).encode())
    digest.update(b"\x01")
    digest.update(engine.context.name.encode())
    return digest.hexdigest()


class _InstanceTable:
    """Flat, identity-preserving encoding of event instances.

    Instances form a DAG (composites share constituents; several node
    states may hold the same instance).  Each unique object is encoded
    once, depth-first so constituents always precede their composites,
    and referenced everywhere else by table index.
    """

    def __init__(self) -> None:
        self.observations: list[dict] = []
        self.instances: list[dict] = []
        self._obs_ids: dict[int, int] = {}
        self._inst_ids: dict[int, int] = {}

    def obs_ref(self, observation: Observation) -> int:
        index = self._obs_ids.get(id(observation))
        if index is None:
            index = len(self.observations)
            self._obs_ids[id(observation)] = index
            record = {"r": observation.reader, "o": observation.obj,
                      "t": observation.timestamp}
            if observation.extra is not None:
                record["x"] = dict(observation.extra)
            self.observations.append(record)
        return index

    def ref(self, instance: EventInstance) -> int:
        index = self._inst_ids.get(id(instance))
        if index is not None:
            return index
        if isinstance(instance, PrimitiveInstance):
            record = {
                "t": "prim",
                "obs": self.obs_ref(instance.observation),
                "b": dict(instance.bindings),
            }
        elif isinstance(instance, CompositeInstance):
            children = [self.ref(child) for child in instance.constituents]
            record = {
                "t": "comp",
                "l": instance.label,
                "c": children,
                "b": dict(instance.bindings),
                "tb": instance.t_begin,
                "te": instance.t_end,
            }
        elif isinstance(instance, NegationInstance):
            record = {
                "t": "neg",
                "tb": instance.t_begin,
                "te": instance.t_end,
                "b": dict(instance.bindings),
            }
        else:
            raise CheckpointError(
                f"cannot checkpoint instance of type {type(instance).__name__}"
            )
        index = len(self.instances)
        self._inst_ids[id(instance)] = index
        self.instances.append(record)
        return index


def _decode_tables(
    snapshot: dict,
) -> tuple[list[Observation], list[EventInstance]]:
    """Rebuild the instance table; index ``i`` resolves records ``< i``."""
    observations = [
        Observation(record["r"], record["o"], record["t"], record.get("x"))
        for record in snapshot["observations"]
    ]
    instances: list[EventInstance] = []
    for record in snapshot["instances"]:
        kind = record["t"]
        if kind == "prim":
            instance: EventInstance = PrimitiveInstance(
                observations[record["obs"]], dict(record["b"])
            )
        elif kind == "comp":
            instance = CompositeInstance(
                record["l"],
                tuple(instances[index] for index in record["c"]),
                dict(record["b"]),
                t_begin=record["tb"],
                t_end=record["te"],
            )
        elif kind == "neg":
            instance = NegationInstance(record["tb"], record["te"], dict(record["b"]))
        else:  # pragma: no cover - format corruption
            raise CheckpointError(f"unknown instance record type {kind!r}")
        instances.append(instance)
    return observations, instances


# -- per-node state ------------------------------------------------------------


def _encode_pending(pending: _PendingMatch, table: _InstanceTable) -> dict:
    return {
        "id": pending.pending_id,
        "pos": [table.ref(instance) for instance in pending.positives],
        "b": dict(pending.bindings),
        "ws": pending.window_start,
        "we": pending.window_end,
    }


def _decode_pending(record: dict, instances: list[EventInstance]) -> _PendingMatch:
    return _PendingMatch(
        record["id"],
        tuple(instances[index] for index in record["pos"]),
        dict(record["b"]),
        record["ws"],
        record["we"],
    )


def _encode_state(state: RuntimeNode, table: _InstanceTable) -> dict:
    node = state.node
    record: dict[str, Any] = {
        "node": node.node_id,
        "kind": node.kind,
        "history": [table.ref(instance) for instance in state.history],
    }
    if isinstance(state, AndState):
        record["buffers"] = {
            str(index): [table.ref(instance) for instance in buffer]
            for index, buffer in state.buffers.items()
        }
        record["pending"] = [
            _encode_pending(pending, table) for pending in state.pending.values()
        ]
        record["next_pending"] = state._next_pending
    elif isinstance(state, SeqState):
        record["buckets"] = [
            {"key": list(key), "items": [table.ref(instance) for instance in bucket]}
            for key, bucket in state.buckets.items()
        ]
        record["pending"] = [
            _encode_pending(pending, table) for pending in state.pending.values()
        ]
        record["next_pending"] = state._next_pending
    elif isinstance(state, TSeqPlusState):
        record["chains"] = [
            {
                "key": list(key),
                "members": [table.ref(instance) for instance in chain.members],
                "gen": chain.generation,
            }
            for key, chain in state.chains.items()
        ]
        record["next_gen"] = state._next_generation
    elif isinstance(state, SeqPlusState):
        record["runs"] = [
            {
                "key": list(key),
                "members": [table.ref(instance) for instance in run.members],
                "gen": run.generation,
            }
            for key, run in state.runs.items()
        ]
    elif isinstance(state, PeriodicState):
        record["anchors"] = [
            {"id": anchor_id, "inst": table.ref(instance)}
            for anchor_id, instance in state._anchors.items()
        ]
        record["next_anchor"] = state._next_anchor
    return record


def _decode_chain(record: dict, instances: list[EventInstance]) -> _Chain:
    members = [instances[index] for index in record["members"]]
    chain = _Chain(members[0], record["gen"])
    chain.members.extend(members[1:])
    return chain


def _restore_state(
    state: RuntimeNode, record: dict, instances: list[EventInstance]
) -> None:
    state.history = [instances[index] for index in record["history"]]
    state._history_ends = [instance.t_end for instance in state.history]
    if isinstance(state, AndState):
        for index, items in record["buffers"].items():
            state.buffers[int(index)] = deque(
                instances[item] for item in items
            )
        state.pending = {
            pending["id"]: _decode_pending(pending, instances)
            for pending in record["pending"]
        }
        state._next_pending = record["next_pending"]
    elif isinstance(state, SeqState):
        state.buckets = {
            tuple(bucket["key"]): deque(instances[item] for item in bucket["items"])
            for bucket in record["buckets"]
        }
        state.pending = {
            pending["id"]: _decode_pending(pending, instances)
            for pending in record["pending"]
        }
        state._next_pending = record["next_pending"]
    elif isinstance(state, TSeqPlusState):
        state.chains = {
            tuple(chain["key"]): _decode_chain(chain, instances)
            for chain in record["chains"]
        }
        state._next_generation = record["next_gen"]
    elif isinstance(state, SeqPlusState):
        state.runs = {
            tuple(run["key"]): _decode_chain(run, instances)
            for run in record["runs"]
        }
    elif isinstance(state, PeriodicState):
        state._anchors = {
            anchor["id"]: instances[anchor["inst"]]
            for anchor in record["anchors"]
        }
        state._next_anchor = record["next_anchor"]


# -- pseudo queue --------------------------------------------------------------


def _encode_payload(payload: dict) -> dict:
    encoded = dict(payload)
    if "key" in encoded:
        encoded["key"] = list(encoded["key"])
    return encoded


def _decode_payload(payload: dict) -> dict:
    decoded = dict(payload)
    if "key" in decoded:
        decoded["key"] = tuple(decoded["key"])
    return decoded


def _encode_pseudo_queue(engine: "Engine") -> dict:
    entries = [
        {
            "tie": tie,
            "node": event.target_node_id,
            "tc": event.t_create,
            "te": event.t_execute,
            "kind": event.kind,
            "payload": _encode_payload(event.payload),
        }
        for _time, tie, event in sorted(
            engine._pseudo_queue._heap, key=lambda entry: entry[:2]
        )
    ]
    return {"entries": entries, "next_tie": engine._pseudo_queue._counter}


def _restore_pseudo_queue(engine: "Engine", record: dict) -> None:
    queue = engine._pseudo_queue
    queue._heap = [
        (
            entry["te"],
            entry["tie"],
            PseudoEvent(
                entry["node"],
                t_create=entry["tc"],
                t_execute=entry["te"],
                kind=entry["kind"],
                payload=_decode_payload(entry["payload"]),
            ),
        )
        for entry in record["entries"]
    ]
    # Entries were written in sorted order, which is a valid heap.
    queue._counter = record["next_tie"]


# -- engine-level entry points -------------------------------------------------


def checkpoint_engine(engine: "Engine") -> dict:
    """Serialize ``engine``'s full runtime state to a plain-data snapshot."""
    from dataclasses import asdict

    table = _InstanceTable()
    nodes = [_encode_state(state, table) for state in engine.states]
    out = [
        {
            "rule": detection.rule.rule_id,
            "inst": table.ref(detection.instance),
            "time": detection.time,
        }
        for detection in engine._out
    ]
    late = None
    if engine._late is not None:
        # Encoded before the tables are read out below: buffered
        # observations and speculation records share the instance table.
        late = engine._late.encode(table)
    revise = engine.speculation is not None
    snapshot = {
        "format": FORMAT,
        "version": VERSION,
        "fingerprint": engine_fingerprint(engine),
        "clock": engine._clock,
        "started": engine._started,
        "last_seq": engine._last_seq,
        "watch_counter": engine._watch_counter,
        "stats": asdict(engine.stats),
        "nodes": nodes,
        "pseudo": _encode_pseudo_queue(engine),
        "out": out,
        "observations": table.observations,
        "instances": table.instances,
        "reorder": None if revise else late,
        "speculation": late if revise else None,
    }
    return snapshot


def restore_engine(engine: "Engine", snapshot: dict) -> None:
    """Load ``snapshot`` into a freshly built engine with the same rules."""
    from ..core.detector import Detection, EngineStats

    if not isinstance(snapshot, dict):
        raise CheckpointError(
            f"not an engine checkpoint: got {type(snapshot).__name__}"
        )
    if snapshot.get("format") != FORMAT:
        raise CheckpointError(
            f"not an engine checkpoint: format={snapshot.get('format')!r}"
        )
    if snapshot.get("version") != VERSION:
        raise CheckpointError(
            f"checkpoint version {snapshot.get('version')!r} not supported "
            f"(this build reads version {VERSION})"
        )
    fingerprint = engine_fingerprint(engine)
    if snapshot.get("fingerprint") != fingerprint:
        raise CheckpointError(
            "checkpoint was taken from an engine with a different compiled "
            "rule graph; restore requires the same rules, in the same order, "
            "under the same context"
        )
    if engine.stats.observations or engine._started:
        raise CheckpointError(
            "restore target must be freshly built (it has already processed "
            "observations); construct a new engine from the same rules"
        )
    revise = engine.speculation is not None
    if snapshot.get("reorder") is not None and (engine._late is None or revise):
        raise CheckpointError(
            "checkpoint carries reorder-buffer state but the restore target "
            "has no reorder_delay configured"
        )
    if snapshot.get("speculation") is not None and not revise:
        raise CheckpointError(
            "checkpoint carries speculation state but the restore target "
            "is not configured with out_of_order=REVISE"
        )

    engine.reset()
    observations, instances = _decode_tables(snapshot)
    for record in snapshot["nodes"]:
        _restore_state(engine.states[record["node"]], record, instances)
    _restore_pseudo_queue(engine, snapshot["pseudo"])

    stats_record = dict(snapshot["stats"])
    per_rule = dict(stats_record.pop("per_rule", {}))
    engine.stats = EngineStats(**stats_record)
    engine.stats.per_rule = per_rule

    engine._clock = snapshot["clock"]
    engine._started = snapshot["started"]
    engine._last_seq = snapshot.get("last_seq", -1)
    engine._watch_counter = snapshot["watch_counter"]
    engine._out = [
        Detection(engine.rule(record["rule"]), instances[record["inst"]],
                  record["time"])
        for record in snapshot["out"]
    ]
    name = "speculation" if revise else "reorder"
    section = snapshot.get(name)
    if section is not None:
        try:
            fields = _SPECULATION_FIELDS if revise else _BUFFER_FIELDS
            _check_section(section, fields, engine._late.horizon,
                           len(observations))
            engine._late.restore(section, observations, instances)
        except (LookupError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed {name} section: {exc!r}") from exc


_NUMBER = (int, float)
#: A ``reorder`` section's fields and their types; a ``speculation``
#: section also has :data:`_SPECULATION_FIELDS`.
_BUFFER_FIELDS = {"horizon": _NUMBER, "max_ts": _NUMBER, "buffer": list}
_SPECULATION_FIELDS = dict(
    _BUFFER_FIELDS, advanced_to=_NUMBER, occ=list, sealed_occ=list,
    records=list, live=list,
)


def _check_section(section: Any, fields: dict, horizon: float,
                   observations: int) -> None:
    """Raise for a section that is not what the driver's ``encode``
    writes; ``restore`` raises for the rest (a missing record field, a
    reference past the tables)."""
    if not isinstance(section, dict) or set(section) != set(fields):
        raise ValueError(f"expected the fields {sorted(fields)}")
    for field, kind in fields.items():
        if not isinstance(section[field], kind):
            raise TypeError(f"{field} is a {type(section[field]).__name__}")
    if section["horizon"] != horizon:
        raise ValueError(f"horizon {section['horizon']}, the target's {horizon}")
    if any(type(index) is not int or not 0 <= index < observations
           for index in section["buffer"]):
        raise ValueError("a buffer entry is not an observation-table index")


# -- file round trip -----------------------------------------------------------


def save_checkpoint(snapshot: dict, path: str) -> None:
    """Atomically write a snapshot as JSON.

    The bytes go to a temporary file in the target directory, are
    fsynced, and only then renamed over ``path`` (``os.replace``), so a
    crash mid-write leaves either the previous checkpoint or the new one
    — never a truncated hybrid.  Non-finite floats use JSON-extension
    literals ``Infinity``/``-Infinity``, which :func:`load_checkpoint`
    reads back.
    """
    import os
    import tempfile

    directory = os.path.dirname(os.path.abspath(path)) or "."
    descriptor, temp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        # One json.dumps: the C encoder, where json.dump streams the same
        # bytes through the pure-Python iterencode.
        text = json.dumps(snapshot, separators=(",", ":"))
        with os.fdopen(descriptor, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    try:  # make the rename itself durable where the platform allows
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - e.g. directories not fsyncable
        pass


def load_checkpoint(path: str) -> dict:
    """Read a snapshot written by :func:`save_checkpoint`.

    Truncated, empty or otherwise undecodable files raise
    :class:`~repro.core.errors.CheckpointError` (so recovery code can
    fall back to an older checkpoint) instead of leaking raw
    ``json``/decode exceptions.  A missing file still raises
    ``FileNotFoundError`` — "not there" and "there but unreadable" are
    different recovery situations.
    """
    try:
        with open(path) as handle:
            snapshot = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint file {path!r} is corrupt or truncated: {exc}"
        ) from exc
    if not isinstance(snapshot, dict):
        raise CheckpointError(
            f"checkpoint file {path!r} does not contain a snapshot object"
        )
    return snapshot
