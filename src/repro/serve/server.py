"""The asyncio CEP server: many ingestion sessions, one detection backend.

:class:`CepServer` multiplexes any number of client sessions onto a
single detection backend — a plain :class:`~repro.core.detector.Engine`,
a :class:`~repro.core.sharding.ShardedEngine`, or a durable engine from
:mod:`repro.resilience.durability` (detected by its
``client_frontiers`` attribute).  The paper's engine is single-threaded
and order-sensitive, so the server funnels every submission through
**one writer task** consuming a bounded queue:

* per-connection *reader tasks* parse frames and ``await put()`` into
  the submit queue — when the queue is full the reader stops reading
  its transport, which is exactly TCP backpressure on the client;
* the *writer task* applies observations to the backend strictly in
  arrival order and releases each applied batch in that same order —
  its detections to subscribers, then the client's cumulative ack (see
  :class:`CepServer` for how an asynchronous backend, the cluster
  router, completes a batch later);
* per-connection *sender tasks* drain each session's outbound buffers
  onto the transport, so one slow consumer can never stall the writer.

Detection push to a slow subscriber is bounded by a per-session buffer
(``ServeConfig.push_queue``, in push frames: one per release);
overflow follows :class:`SlowConsumerPolicy` — ``DROP`` discards the
*oldest* buffered push (newest data wins, its detections are counted as
dropped and exported), while
``DISCONNECT`` closes the offending session.  Acks are cumulative and
coalesced (at most one in flight per session), so a client that submits
faster than it reads acks costs O(1) memory, not O(stream).

Resume: the server keeps one :class:`_ClientRecord` per ``client_id``
with the highest applied client sequence number.  A reconnecting client
offers its own last ack in HELLO; the server answers WELCOME with
``max(server record, client claim) + 1`` and silently skips any
re-sent duplicates below that.  A HELLO for a client id that still has
a live session *supersedes* it (newest wins): the stale session — a
peer that died without a FIN and is waiting out a TCP timeout — is
sent an ``ERROR superseded`` and evicted, so resume is never blocked
behind a dead connection.

With a durable backend the frontier itself is durable: the writer
passes ``(client_id, seq)`` provenance into ``submit``/``flush``, the
durability layer commits it inside the *same* WAL record as the
observation, and a recovered backend exposes the rebuilt map as
``client_frontiers`` — which this server consults whenever it sees a
client id it has no in-memory record for.  Combined with
ack-after-apply (for a durable backend: ack-after-WAL-append), every
observation is applied exactly once across client crashes, reconnects
and server recoveries (see ``docs/serving.md``).  Without a durable
backend the in-memory record is all there is, and a server restart
downgrades the guarantee to whatever the clients' own ``resume_from``
claims make true.

The per-client record map is bounded by ``ServeConfig.client_record_cap``:
past the cap, records without a live session are evicted
least-recently-connected first (a durable backend loses nothing — the
WAL-backed frontier is re-read on the next HELLO).
"""

from __future__ import annotations

import asyncio
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

from ..core.detector import Detection
from ..core.errors import ReproError
from ..obs.instrument import Instruments
from ..obs.metrics import MetricsRegistry
from .loopback import DEFAULT_MAX_BUFFER, LoopbackReader, LoopbackWriter, loopback_pair
from .protocol import (
    PROTOCOL_VERSION,
    Ack,
    Batch,
    Bye,
    DetectionFrame,
    ErrorFrame,
    Flush,
    Frame,
    FrameDecoder,
    FrameError,
    Hello,
    Ping,
    Pong,
    Subscribe,
    Welcome,
    detection_frames,
    encode_frame_into,
    push_frame,
    resequenced,
    tagged_frames,
)

__all__ = ["CepServer", "ServeConfig", "SlowConsumerPolicy", "ServeError"]

#: Transport read size, in bytes.
_READ_CHUNK = 64 * 1024


class ServeError(ReproError):
    """The serving layer was misused or hit an unrecoverable state."""


class SlowConsumerPolicy(str, Enum):
    """What to do when a subscriber's push buffer is full.

    ``DROP`` discards the oldest buffered detection (the subscriber
    keeps receiving the freshest data, and the drop is counted);
    ``DISCONNECT`` closes the session — the client's reconnect logic
    can then resubscribe and resume.
    """

    DROP = "drop"
    DISCONNECT = "disconnect"

    @classmethod
    def coerce(cls, value: "str | SlowConsumerPolicy") -> "SlowConsumerPolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"bad slow-consumer policy: {value!r} "
                f"(expected one of {[policy.value for policy in cls]})"
            ) from None


@dataclass(frozen=True)
class ServeConfig:
    """Queue bounds and policies for one server."""

    #: Bound on the central submit queue (frames, not observations);
    #: readers block here, which is the ingestion backpressure point.
    submit_queue: int = 1024
    #: Per-session detection push buffer bound.
    push_queue: int = 256
    #: Overflow policy for the push buffer.
    push_policy: "str | SlowConsumerPolicy" = SlowConsumerPolicy.DROP
    #: Bound on retained per-client ack records; past it, records with no
    #: live session are evicted least-recently-connected first (0 = no
    #: bound).  With a durable backend eviction loses nothing — the
    #: frontier is re-read from ``backend.client_frontiers`` on HELLO.
    client_record_cap: int = 10_000
    #: Advertised per-batch observation cap (``capabilities.max_batch``
    #: in WELCOME); clients chunk their batches to it.
    max_batch: int = 8192
    #: Seconds of session inactivity before the server probes the peer
    #: with PING (0 disables).
    heartbeat_interval: float = 0.0
    #: Seconds of inactivity (no frames, no PONG) after which a session
    #: is reaped: ``ERROR idle`` then disconnect (0 disables).  A live
    #: but quiet peer answers PINGs, which counts as activity; a dead
    #: peer answers nothing and is collected here.
    idle_deadline: float = 0.0
    #: Overload shedding: when the submit queue is full, how long a
    #: reader waits for space before the session is shed with
    #: ``ERROR overloaded``.  ``None`` (default) disables shedding —
    #: readers block indefinitely, which is plain TCP backpressure.
    overload_grace: Optional[float] = None
    #: ``retry_after`` hint (seconds) carried on ``ERROR overloaded``.
    retry_after: float = 1.0


@dataclass
class ServeStats:
    """Always-on counters (the ``serve`` metrics read them)."""

    sessions_opened: int = 0
    sessions_closed: int = 0
    frames_in: int = 0
    frames_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    submitted: int = 0
    duplicates_skipped: int = 0
    acks_sent: int = 0
    detections_pushed: int = 0
    detections_dropped: int = 0
    disconnects: int = 0
    errors_sent: int = 0
    sessions_superseded: int = 0
    client_records_evicted: int = 0
    pings_sent: int = 0
    pongs_received: int = 0
    sessions_reaped: int = 0
    overloads_shed: int = 0
    subscribers_shed: int = 0
    reconnects: int = 0

    @property
    def sessions_active(self) -> int:
        return self.sessions_opened - self.sessions_closed


class _ClientRecord:
    """Across-reconnects per-client state: the dedup and ack frontiers."""

    __slots__ = (
        "client_id", "last_applied", "last_acked", "active_session", "last_hello"
    )

    def __init__(self, client_id: str) -> None:
        self.client_id = client_id
        #: Highest client sequence number handed to the backend (the
        #: dedup frontier); ahead of ``last_acked`` only while an
        #: asynchronous backend has the batch in flight.
        self.last_applied = -1
        #: Highest client sequence number released (acked to the client).
        self.last_acked = -1
        self.active_session: Optional["_Session"] = None
        #: Monotonic handshake tick, for least-recently-connected eviction.
        self.last_hello = 0


class _Session:
    """One live connection: transport halves, outbound buffers, tasks."""

    def __init__(
        self,
        session_id: str,
        reader: Any,
        writer: Any,
    ) -> None:
        self.session_id = session_id
        self.reader = reader
        self.writer = writer
        self.record: Optional[_ClientRecord] = None
        #: ``loop.time()`` of the last inbound data; the liveness loop
        #: measures idleness against this.
        self.last_activity = 0.0
        self.subscribed = False
        self.rule_filter: Optional[frozenset] = None
        self.alive = True
        #: Sentinels/control frames for the sender task ("ack", "push",
        #: "close", or a Frame instance to send verbatim).
        self.outbound: asyncio.Queue = asyncio.Queue()
        #: Bounded detection buffer (policy applies on overflow).
        self.push_buffer: deque = deque()
        #: Tail ack box (``["ack", seq]``) still coalescable in the
        #: outbound queue, or None.  Acks coalesce by bumping the boxed
        #: seq *in place*, but only while nothing else (a push, a
        #: control frame) has been queued behind the box — otherwise a
        #: later ack would overtake frames it must follow, and a peer
        #: could see Ack(n) before the detections of batch n.
        self.tail_ack: Optional[list] = None
        self.tasks: list[asyncio.Task] = []

    @property
    def client_id(self) -> Optional[str]:
        return self.record.client_id if self.record is not None else None


@dataclass
class _SubmitItem:
    session: _Session
    seq: int
    observations: list = field(default_factory=list)
    flush: bool = False
    #: Relay provenance: ``(client_id, (seq, ...))`` for a batch (one
    #: source seq per observation, gaps allowed), ``(client_id, seq)``
    #: for a flush.  None for directly-connected clients.
    prov: Optional[tuple] = None


class CepServer:
    """Serve a detection backend to remote ingestion/subscription clients.

    Parameters
    ----------
    backend:
        A :class:`~repro.core.detector.DetectionBackend`, or a
        ``DurableEngine`` wrapped around one.  The server calls
        ``submit_many(observations)`` and ``flush()``; a backend
        without them is a ``TypeError`` here, not a failed session
        later.  A backend with ``client_frontiers`` is durable: it is
        passed ``client=`` provenance, and acks imply the observation
        reached the write-ahead log (``DurableEngine`` appends before it
        detects).
    config:
        Queue bounds and slow-consumer policy (:class:`ServeConfig`).
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`; reports the
        ``serve`` rows of :data:`repro.obs.METRICS` under
        ``metrics_label``.

    Release contract.  Every applied batch or flush is *released* in
    the order the writer applied it: first its detections are pushed to
    subscribers, then the client's cumulative ack is queued to the
    client's current session.  ``submit_many``/``flush`` return either
    the detections themselves (``Engine``, ``DurableEngine``: released
    at once, before the writer takes its next item) or an
    ``asyncio.Future`` resolving to them — Detection objects or
    DetectionFrames — when the backend has finished the batch
    (:class:`~repro.serve.cluster.CepRouter`: when the last shard acks).
    The writer never waits on a future, so many batches can be in
    flight; unreleased batches count against ``submit_queue``, and at
    that bound the writer stops taking items until the head releases.

    Each client record keeps two frontiers: the *dedup* frontier (the
    highest seq handed to the backend) and the *ack* frontier (the
    highest seq released).  On HELLO the dedup frontier is rewound to
    the ack frontier, so a reconnecting client's resend of unacked seqs
    is applied again — an asynchronous backend must make that re-apply
    idempotent (the router's workers dedupe it by provenance).
    """

    def __init__(
        self,
        backend: Any,
        *,
        config: Optional[ServeConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        metrics_label: str = "serve",
    ) -> None:
        for method in ("submit_many", "flush"):
            if not callable(getattr(backend, method, None)):
                raise TypeError(
                    f"backend {type(backend).__name__!r} has no {method}(): "
                    "CepServer serves a DetectionBackend or a DurableEngine "
                    "over one"
                )
        self.backend = backend
        self.config = config or ServeConfig()
        # A durable backend keeps per-client ack frontiers in its WAL and
        # exposes the recovered map; consult it so exactly-once survives
        # server restarts, not just client reconnects.
        self._durable = hasattr(backend, "client_frontiers")
        self._push_policy = SlowConsumerPolicy.coerce(self.config.push_policy)
        self.stats = ServeStats()
        self._instr = None
        if metrics is not None:
            self._instr = Instruments(metrics, "serve", metrics_label, self)
        self._queue: asyncio.Queue = asyncio.Queue(
            maxsize=self.config.submit_queue
        )
        #: Applied items awaiting in-order release, with the event the
        #: writer waits on when they fill the submit-queue bound.
        self._unreleased: deque = deque()
        self._released = asyncio.Event()
        self._clients: dict[str, _ClientRecord] = {}
        self._sessions: set[_Session] = set()
        self._writer_task: Optional[asyncio.Task] = None
        self._liveness_task: Optional[asyncio.Task] = None
        self._ping_token = 0
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._connection_tasks: set[asyncio.Task] = set()
        self._sender_tasks: set[asyncio.Task] = set()
        self._session_counter = 0
        self._hello_tick = 0
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Start the single writer task (idempotent)."""
        if self._closed:
            raise ServeError("server is closed")
        if self._writer_task is None:
            self._writer_task = asyncio.ensure_future(self._writer_loop())
        if self._liveness_task is None and (
            self.config.heartbeat_interval > 0 or self.config.idle_deadline > 0
        ):
            self._liveness_task = asyncio.ensure_future(self._liveness_loop())

    async def close(self) -> None:
        """Stop accepting, close every session, stop the writer."""
        if self._closed:
            return
        self._closed = True
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        if self._liveness_task is not None:
            self._liveness_task.cancel()
            try:
                await self._liveness_task
            except asyncio.CancelledError:
                pass
            self._liveness_task = None
        for session in list(self._sessions):
            self._disconnect(session)
        if self._writer_task is not None:
            self._released.set()  # a writer waiting on releases drains now
            await self._queue.put(None)
            await self._writer_task
            self._writer_task = None
        # Disconnected sessions close their transports from the sender
        # side; readers then exit on EOF.  Give them a beat before
        # cancelling stragglers — cancelling an asyncio-streams accept
        # task mid-read makes the event loop log a spurious
        # CancelledError — but still cancel: a sender can be parked in
        # ``drain()`` forever when its peer stopped reading, and
        # shutdown must not hang on a slow consumer.
        pending = list(self._connection_tasks) + list(self._sender_tasks)
        if pending:
            await asyncio.wait(pending, timeout=1.0)
        for task in pending:
            if not task.done():
                task.cancel()
        for task in pending:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    async def abort(self) -> None:
        """Hard stop: the in-process analogue of ``kill -9``, for drills.

        Unlike :meth:`close`, the submit queue is *not* drained — items
        read off the wire but not yet applied vanish exactly as they
        would in a crash (clients keep them in their unacked buffers and
        resend after reconnecting), sessions are dropped without a BYE,
        and a durable backend is left un-closed so the drill can hand
        its directory to ``DurableEngine.recover``.
        """
        if self._closed:
            return
        self._closed = True
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        for task in (self._liveness_task, self._writer_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self._liveness_task = None
        self._writer_task = None
        for session in list(self._sessions):
            session.alive = False
            self._sessions.discard(session)
            session.outbound.put_nowait("close")
            try:
                session.writer.close()
            except Exception:
                pass
        # Closed transports wake the reader/sender tasks with EOF; give
        # them a beat to exit on their own before cancelling stragglers
        # (cancelling an asyncio-streams accept task mid-read makes the
        # event loop log a spurious CancelledError).
        pending = list(self._connection_tasks) + list(self._sender_tasks)
        if pending:
            await asyncio.wait(pending, timeout=1.0)
        for task in pending:
            if not task.done():
                task.cancel()
        for task in pending:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    async def __aenter__(self) -> "CepServer":
        await self.start()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    # -- transports ---------------------------------------------------------

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Listen on ``host:port`` (0 = ephemeral); returns the bound port."""
        await self.start()
        self._tcp_server = await asyncio.start_server(
            self._accept_tcp, host, port
        )
        return self._tcp_server.sockets[0].getsockname()[1]

    async def _accept_tcp(self, reader: Any, writer: Any) -> None:
        # Track the handler task so close() can cancel readers that are
        # blocked on clients which never hang up.
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
        try:
            await self.handle_connection(reader, writer)
        finally:
            if task is not None:
                self._connection_tasks.discard(task)

    def connect_loopback(
        self, max_buffer: int = DEFAULT_MAX_BUFFER
    ) -> tuple[LoopbackReader, LoopbackWriter]:
        """Open an in-memory connection; returns the *client* endpoint.

        Must be called with the server's event loop running; the server
        side of the pair is handled exactly like a TCP connection.
        """
        if self._closed:
            raise ServeError("server is closed")
        client_end, server_end = loopback_pair(max_buffer)
        task = asyncio.ensure_future(self.handle_connection(*server_end))
        self._connection_tasks.add(task)
        task.add_done_callback(self._connection_tasks.discard)
        return client_end

    # -- connection handling ------------------------------------------------

    async def handle_connection(self, reader: Any, writer: Any) -> None:
        """Run one session to completion (also the TCP accept callback)."""
        await self.start()
        self._session_counter += 1
        session = _Session(f"s{self._session_counter}", reader, writer)
        session.last_activity = asyncio.get_running_loop().time()
        self._sessions.add(session)
        self.stats.sessions_opened += 1
        sender = asyncio.ensure_future(self._sender_loop(session))
        session.tasks.append(sender)
        self._sender_tasks.add(sender)
        sender.add_done_callback(self._sender_tasks.discard)
        try:
            await self._reader_loop(session)
        finally:
            self._disconnect(session)
            try:
                await sender
            except asyncio.CancelledError:
                pass

    async def _reader_loop(self, session: _Session) -> None:
        decoder = FrameDecoder()
        reader = session.reader
        loop = asyncio.get_running_loop()
        greeted = False
        try:
            while session.alive:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    return
                session.last_activity = loop.time()
                self.stats.bytes_in += len(data)
                for frame in decoder.feed(data):
                    self.stats.frames_in += 1
                    if not greeted:
                        if not isinstance(frame, Hello):
                            self._send_error(
                                session, "protocol", "expected HELLO first"
                            )
                            return
                        if not self._handshake(session, frame):
                            return
                        greeted = True
                        continue
                    if not await self._handle_frame(session, frame):
                        return
        except FrameError as exc:
            self._send_error(session, "frame", str(exc))
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
        ):
            return

    def _handshake(self, session: _Session, hello: Hello) -> bool:
        if hello.version != PROTOCOL_VERSION:
            self._send_error(
                session,
                "version",
                f"server speaks protocol {PROTOCOL_VERSION}, "
                f"client spoke {hello.version}",
            )
            return False
        record = self._clients.get(hello.client_id)
        known = record is not None
        if record is None:
            record = _ClientRecord(hello.client_id)
            if self._durable:
                # A restarted server starts with an empty record map, but
                # the durable backend rebuilt the true frontier from WAL
                # provenance — without this, a client whose final ack was
                # lost in the crash would resend an already-applied seq
                # and the backend would apply it twice.
                record.last_acked = self.backend.client_frontiers.get(
                    hello.client_id, -1
                )
                known = record.last_acked >= 0
            self._clients[hello.client_id] = record
        if known or hello.resume_from >= 0:
            # A client id the server (or its WAL) has seen before, or one
            # claiming a prior ack frontier: this HELLO is a reconnect.
            self.stats.reconnects += 1
        stale = record.active_session
        if stale is not None:
            # Newest wins: the previous session is usually a peer that
            # died without a FIN and would otherwise block resume until
            # TCP times the corpse out.
            self.stats.sessions_superseded += 1
            self._send_error(
                stale,
                "superseded",
                f"client id {hello.client_id!r} opened a newer session",
            )
            self._disconnect(stale)
        # Whoever remembers more wins: the server's applied frontier or
        # the client's own ack record.  The dedup frontier rewinds to it:
        # seqs handed to an asynchronous backend but never acked must be
        # accepted again on resend (a provenance-keyed backend drops the
        # ones it already applied).
        record.last_acked = max(record.last_acked, hello.resume_from)
        record.last_applied = record.last_acked
        record.active_session = session
        self._hello_tick += 1
        record.last_hello = self._hello_tick
        session.record = record
        self._prune_client_records()
        self._send_control(
            session,
            Welcome(
                session_id=session.session_id,
                next_seq=record.last_acked + 1,
                capabilities={"max_batch": self.config.max_batch},
            ),
        )
        return True

    def _prune_client_records(self) -> None:
        """Keep ``_clients`` bounded: drop idle, least-recently-seen records.

        Short-lived auto-id clients would otherwise leak one record each
        for the life of the server.  Only records without a live session
        are candidates; if every record is live the map may exceed the
        cap (each live record is pinned by a real connection).
        """
        cap = self.config.client_record_cap
        if cap <= 0 or len(self._clients) <= cap:
            return
        idle = sorted(
            (
                record
                for record in self._clients.values()
                if record.active_session is None
            ),
            key=lambda record: record.last_hello,
        )
        for record in idle[: len(self._clients) - cap]:
            del self._clients[record.client_id]
            self.stats.client_records_evicted += 1

    async def _handle_frame(self, session: _Session, frame: Frame) -> bool:
        """Dispatch one post-handshake frame; False ends the session."""
        if isinstance(frame, Batch):
            # A relayed batch's provenance lists one strictly ascending
            # source seq per observation: its decoder refused it otherwise.
            return await self._enqueue(
                session,
                _SubmitItem(
                    session, frame.seq, list(frame.observations), prov=frame.prov
                ),
            )
        if isinstance(frame, Flush):
            return await self._enqueue(
                session,
                _SubmitItem(session, frame.seq, flush=True, prov=frame.prov),
            )
        if isinstance(frame, Ping):
            self._send_control(session, Pong(token=frame.token))
            return True
        if isinstance(frame, Pong):
            self.stats.pongs_received += 1
            return True
        if isinstance(frame, Subscribe):
            session.subscribed = True
            session.rule_filter = (
                frozenset(frame.rules) if frame.rules is not None else None
            )
            return True
        if isinstance(frame, Bye):
            return False
        self._send_error(
            session, "protocol", f"unexpected {type(frame).__name__} frame"
        )
        return False

    async def _enqueue(self, session: _Session, item: "_SubmitItem") -> bool:
        """Put one item on the submit queue, shedding load if configured.

        With ``overload_grace`` unset this is a plain blocking put — the
        reader stops reading its transport, which is TCP backpressure.
        With a grace period, saturation shed order is: first the
        deepest-buffered *subscriber* (push fan-out is the usual reason
        the writer cannot keep up), then — if the queue still has no
        room within the grace — the submitting session itself, with an
        explicit ``ERROR overloaded`` carrying ``retry_after`` so its
        backoff knows when to come back.
        """
        grace = self.config.overload_grace
        if grace is None:
            await self._queue.put(item)
            return True
        try:
            self._queue.put_nowait(item)
            return True
        except asyncio.QueueFull:
            pass
        self._shed_slowest_subscriber(session)
        try:
            await asyncio.wait_for(self._queue.put(item), grace)
            return True
        except asyncio.TimeoutError:
            self.stats.overloads_shed += 1
            self._send_error(
                session,
                "overloaded",
                f"submit queue full; retry after {self.config.retry_after}s",
                retry_after=self.config.retry_after,
            )
            self._disconnect(session)
            return False

    def _shed_slowest_subscriber(self, submitter: _Session) -> None:
        """Drop the subscriber with the deepest push backlog (not the
        submitter): under overload, ingestion outranks fan-out."""
        victim = None
        for candidate in self._sessions:
            if (
                candidate.alive
                and candidate.subscribed
                and candidate is not submitter
            ):
                if victim is None or len(candidate.push_buffer) > len(
                    victim.push_buffer
                ):
                    victim = candidate
        if victim is None:
            return
        self.stats.subscribers_shed += 1
        self._send_error(
            victim,
            "overloaded",
            "server shedding subscribers under load",
            retry_after=self.config.retry_after,
        )
        self._disconnect(victim)

    # -- liveness ------------------------------------------------------------

    async def _liveness_loop(self) -> None:
        """Probe idle sessions; reap sessions past the deadline."""
        interval = self.config.heartbeat_interval
        deadline = self.config.idle_deadline
        periods = [p for p in (interval, deadline) if p > 0]
        tick = max(0.01, min(periods) / 2)
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(tick)
            now = loop.time()
            for session in list(self._sessions):
                # Pre-handshake sessions (record is None) are still
                # reaped: a peer whose HELLO was lost to corruption
                # would otherwise hold its connection open forever.
                if not session.alive:
                    continue
                idle = now - session.last_activity
                if deadline > 0 and idle > deadline:
                    self.stats.sessions_reaped += 1
                    self._send_error(
                        session,
                        "idle",
                        f"no activity for {idle:.1f}s "
                        f"(deadline {deadline:g}s); reaping session",
                    )
                    self._disconnect(session)
                    # Give the sender a beat to flush the ERROR to a
                    # live-but-quiet peer, then force-close: a dead
                    # peer never drains or hangs up, and without the
                    # close its blocked reader task would leak.
                    def _force_close(target=session):
                        try:
                            target.writer.close()
                        except Exception:
                            pass

                    loop.call_later(1.0, _force_close)
                    continue
                if interval > 0 and idle >= interval:
                    self._ping_token += 1
                    self._send_control(session, Ping(token=self._ping_token))
                    self.stats.pings_sent += 1

    # -- the single writer --------------------------------------------------

    async def _writer_loop(self) -> None:
        unreleased = self._unreleased
        cap = self.config.submit_queue
        while True:
            item = await self._queue.get()
            if item is None:
                return
            # Unreleased batches hold submit-queue slots: past the bound
            # the writer stops taking items, the queue fills and readers
            # block — TCP backpressure on clients of a stalled backend.
            while len(unreleased) >= cap and not self._closed:
                self._released.clear()
                await self._released.wait()
            session = item.session
            record = session.record
            if record is None or not session.alive:
                continue
            try:
                if item.flush:
                    self._apply_flush(session, record, item)
                else:
                    self._apply_submit(session, record, item)
            except Exception as exc:  # backend failure: isolate the session
                self._send_error(
                    session, "backend", f"{type(exc).__name__}: {exc}"
                )
                self._disconnect(session)

    def _apply_submit(
        self, session: _Session, record: _ClientRecord, item: _SubmitItem
    ) -> None:
        observations = item.observations
        first = item.seq
        expected = record.last_applied + 1
        if first > expected:
            self._send_error(
                session,
                "sequence",
                f"got seq {first}, expected {expected}",
            )
            self._disconnect(session)
            return
        # A batch is contiguous, so a resend overlap is always a prefix:
        # trim it in one step instead of testing every observation.
        skip = min(expected - first, len(observations))
        prov_seqs = item.prov[1] if item.prov is not None else None
        if skip:
            self.stats.duplicates_skipped += skip
            observations = observations[skip:]
            if prov_seqs is not None:
                prov_seqs = prov_seqs[skip:]
            first += skip
        if observations:
            count = len(observations)
            if not self._durable:
                detections = self.backend.submit_many(observations)
            elif item.prov is not None:
                detections = self._apply_relayed(
                    item.prov[0], observations, prov_seqs
                )
            else:
                # Provenance rides in the WAL records themselves, so
                # the ack frontier is durable exactly when the
                # observations are — and the whole batch commits
                # under one fsync.
                detections = self.backend.submit_many(
                    observations, client=(record.client_id, first)
                )
            record.last_applied = first + count - 1
            self.stats.submitted += count
            self._release(record, record.last_applied, detections)
        else:
            self._queue_ack(session, record.last_acked)

    def _apply_relayed(
        self, origin: str, observations: list, prov_seqs: tuple
    ) -> list:
        """Apply relayed observations exactly once, keyed on source seqs.

        Sub-batches travel one ordered link per shard and are applied in
        order, so the source seqs this backend has already applied are
        always a prefix of the ordered subsequence routed here, and the
        seqs ascend (the frame decoders check it): one ``bisect`` at the
        recovered frontier splits the replayed prefix from the fresh
        tail.  Source seqs may have gaps (the relay splits batches
        across shards); the durable backend takes the per-observation
        seq list directly, so the whole fresh tail commits as one batch.
        """
        skip = bisect_right(
            prov_seqs, self.backend.client_frontiers.get(origin, -1)
        )
        if skip:
            self.stats.duplicates_skipped += skip
            observations = observations[skip:]
            if not observations:
                return []
        return self.backend.submit_many(
            observations, client=(origin, prov_seqs[skip:])
        )

    def _apply_flush(
        self, session: _Session, record: _ClientRecord, item: _SubmitItem
    ) -> None:
        seq = item.seq
        if seq > record.last_applied:
            if seq != record.last_applied + 1:
                self._send_error(
                    session,
                    "sequence",
                    f"got flush seq {seq}, expected {record.last_applied + 1}",
                )
                self._disconnect(session)
                return
            if self._durable and item.prov is not None:
                origin, source_seq = item.prov
                if source_seq <= self.backend.client_frontiers.get(origin, -1):
                    detections = []  # replayed flush: already applied
                else:
                    detections = self.backend.flush(
                        client=(origin, source_seq)
                    )
            elif self._durable:
                detections = self.backend.flush(
                    client=(record.client_id, seq)
                )
            else:
                detections = self.backend.flush()
            record.last_applied = seq
            self._release(record, seq, detections)
        else:
            self._queue_ack(session, record.last_acked)

    # -- in-order release ---------------------------------------------------

    def _release(self, record: _ClientRecord, seq: int, detections: Any) -> None:
        """Queue one applied item's detections and ack for release.

        Items release strictly in the order they were applied: a
        synchronous backend's list is complete at once, an asynchronous
        backend's future when the backend resolves it.
        """
        if isinstance(detections, asyncio.Future) and not detections.done():
            detections.add_done_callback(self._release_ready)
        self._unreleased.append((record, seq, detections))
        self._release_ready()

    def _release_ready(self, _done: Any = None) -> None:
        """Release every complete head item: detections first, then ack."""
        unreleased = self._unreleased
        released = False
        while unreleased:
            record, seq, detections = unreleased[0]
            if isinstance(detections, asyncio.Future):
                if not detections.done():
                    break
                detections = detections.result()
            unreleased.popleft()
            released = True
            self._fan_out(detections, seq)
            if seq > record.last_acked:
                record.last_acked = seq
            session = record.active_session
            if session is not None:
                self._queue_ack(session, record.last_acked)
        if released:
            self._released.set()

    def _fan_out(self, detections: list, seq: int) -> None:
        if not detections:
            return
        subscribers = [s for s in self._sessions if s.alive and s.subscribed]
        if not subscribers:
            return
        # One DetectionFrame per firing, built once per release: plain
        # Detections column by column, revision-tagged ones with their
        # tags, and the router's fan-in renumbered as this release.  A
        # subscriber's rule filter then runs on these frames, and each
        # subscriber is pushed one frame for the release.
        kinds = {detection.__class__ for detection in detections}
        if kinds == {Detection}:
            frames = detection_frames(detections, seq)
        elif kinds == {DetectionFrame}:
            frames = resequenced(detections, seq)
        else:
            frames = tagged_frames(detections, seq)
        for subscriber in subscribers:
            wanted = frames
            if subscriber.rule_filter is not None:
                wanted = [f for f in wanted if f.rule in subscriber.rule_filter]
            if wanted:
                self._push_detection(subscriber, push_frame(wanted))

    def _push_detection(self, session: _Session, frame: Frame) -> None:
        if len(session.push_buffer) >= self.config.push_queue:
            if self._push_policy is SlowConsumerPolicy.DISCONNECT:
                self.stats.disconnects += 1
                self._disconnect(session)
                # The consumer is too far behind to receive anything
                # more (its sender may be parked in drain); close the
                # transport so that sender wakes up and exits.
                try:
                    session.writer.close()
                except Exception:
                    pass
                return
            # DROP: oldest out, newest in — buffer size and the number
            # of outstanding "push" sentinels both stay unchanged.
            victim = session.push_buffer.popleft()
            session.push_buffer.append(frame)
            self.stats.detections_dropped += len(victim.detections)
            return
        session.push_buffer.append(frame)
        # The push now sits behind any queued ack box; later acks must
        # queue behind this push, not coalesce ahead of it.
        session.tail_ack = None
        session.outbound.put_nowait("push")
        if self._instr is not None:
            self._instr.push_depth.set(len(session.push_buffer))

    def _queue_ack(self, session: _Session, seq: int) -> None:
        if not session.alive:
            return
        box = session.tail_ack
        if box is not None:
            # Still the newest queued item: safe to coalesce in place.
            box[1] = seq
            return
        box = ["ack", seq]
        session.tail_ack = box
        session.outbound.put_nowait(box)

    def _send_control(self, session: _Session, frame: Frame) -> None:
        if session.alive:
            session.tail_ack = None
            session.outbound.put_nowait(frame)

    def _send_error(
        self,
        session: _Session,
        code: str,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        self.stats.errors_sent += 1
        self._send_control(
            session,
            ErrorFrame(code=code, message=message, retry_after=retry_after),
        )

    # -- per-session sender --------------------------------------------------

    #: Coalescing budget for the sender loop: once a single write buffer
    #: grows past this many bytes it is flushed before more queue items
    #: are drained, bounding per-write latency and memory.
    _SEND_COALESCE_BYTES = 64 * 1024

    async def _sender_loop(self, session: _Session) -> None:
        writer = session.writer
        buffer = bytearray()
        try:
            while True:
                item = await session.outbound.get()
                # Coalesce everything already queued into one write +
                # drain: a burst of detection pushes costs one transport
                # round trip instead of one per frame.
                buffer.clear()
                frames = 0
                closing = False
                while True:
                    if item == "close":
                        closing = True
                    elif item.__class__ is list:  # ["ack", seq] box
                        if session.tail_ack is item:
                            session.tail_ack = None
                        encode_frame_into(Ack(seq=item[1]), buffer)
                        frames += 1
                        self.stats.acks_sent += 1
                    elif item == "push":
                        if session.push_buffer:
                            frame = session.push_buffer.popleft()
                            encode_frame_into(frame, buffer)
                            frames += 1
                            # Count detections, not frames: a push
                            # carries a whole release.
                            self.stats.detections_pushed += len(
                                frame.detections
                            )
                            if self._instr is not None:
                                self._instr.push_depth.set(
                                    len(session.push_buffer)
                                )
                    else:
                        encode_frame_into(item, buffer)
                        frames += 1
                    if closing or len(buffer) >= self._SEND_COALESCE_BYTES:
                        break
                    try:
                        item = session.outbound.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                if buffer:
                    writer.write(bytes(buffer))
                    await writer.drain()
                    self.stats.frames_out += frames
                    self.stats.bytes_out += len(buffer)
                if closing:
                    break
        except (ConnectionError, RuntimeError):
            pass
        finally:
            self._disconnect(session)
            try:
                writer.close()
            except Exception:
                pass

    # -- teardown ------------------------------------------------------------

    def _disconnect(self, session: _Session) -> None:
        if not session.alive:
            return
        session.alive = False
        self._sessions.discard(session)
        record = session.record
        if record is not None and record.active_session is session:
            record.active_session = None
        session.outbound.put_nowait("close")
        self.stats.sessions_closed += 1

    # -- introspection --------------------------------------------------------

    def client_frontier(self, client_id: str) -> int:
        """The highest applied client seq for ``client_id`` (-1 unknown)."""
        record = self._clients.get(client_id)
        if record is not None:
            return record.last_acked
        if self._durable:
            return self.backend.client_frontiers.get(client_id, -1)
        return -1

    def session_summary(self) -> dict:
        """Live serving state, one entry per active session."""
        return {
            "sessions": [
                {
                    "id": session.session_id,
                    "client": session.client_id,
                    "subscribed": session.subscribed,
                    "push_buffered": len(session.push_buffer),
                    "last_acked": (
                        session.record.last_acked
                        if session.record is not None
                        else -1
                    ),
                }
                for session in self._sessions
            ],
            "submit_queue_depth": self._queue.qsize(),
            "client_records": len(self._clients),
            "stats": self.stats.__dict__.copy(),
        }
