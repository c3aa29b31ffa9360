"""Client SDK for the RCEDA serve protocol: async core, sync facade.

:class:`AsyncClient` is the full implementation — batching, cumulative
ack tracking, retry/backoff reconnect with resume-from-seq, detection
subscription.  :class:`Client` wraps it for synchronous callers by
running a private event loop on a background thread (TCP transports
only; loopback connections live inside the server's own loop, so drive
those with :class:`AsyncClient`).

Delivery contract: every observation a client submits is assigned the
next client sequence number and kept in an unacked buffer until the
server's cumulative ACK covers it.  On connection loss the client
reconnects (exponential backoff), offers its last acked seq in HELLO,
learns from WELCOME which seq the server still needs, discards the
prefix the server already applied and resends the rest — so a flaky
network costs retransmits, never duplicates or gaps.  A *new* client
process resuming an old stream passes ``resume_from`` (the previous
life's ``last_acked``, which the caller persisted) and continues
numbering where the server says.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import random
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from ..core.errors import ReproError
from ..core.instances import Observation
from .protocol import (
    Ack,
    Bye,
    DetectionFrame,
    ErrorFrame,
    Flush,
    FrameDecoder,
    FrameError,
    Hello,
    Ping,
    Pong,
    Subscribe,
    Welcome,
    encode_frame,
    get_codec,
    received_frames,
)

logger = logging.getLogger("repro.serve.client")

__all__ = [
    "AsyncClient",
    "Client",
    "ClientError",
    "RetryConfig",
    "tcp_connector",
    "loopback_connector",
]

_client_ids = itertools.count(1)


class ClientError(ReproError):
    """The server rejected the session, or the connection is beyond retry."""


@dataclass(frozen=True)
class RetryConfig:
    """Reconnect/backoff policy for one client."""

    #: Connection attempts per (re)connect before giving up.
    max_attempts: int = 5
    #: First backoff delay; the *ceiling* doubles per failed attempt.
    backoff_base: float = 0.05
    #: Backoff ceiling.
    backoff_max: float = 2.0
    #: Full jitter: each delay is uniform in ``[0, min(cap, base·2ⁿ)]``.
    #: Pure doubling synchronizes a fleet's reconnect storm after a
    #: server restart — every client that died together retries
    #: together; jitter decorrelates them.  Disable only in tests that
    #: assert exact timing.
    jitter: bool = True
    #: Wall-clock bound (seconds) across *all* attempts of one
    #: (re)connect, sleeps included; ``None`` = attempts alone bound it.
    connect_deadline: Optional[float] = None
    #: Default timeout (seconds) for ack-waiting operations —
    #: ``drain``/``flush`` and the waits inside ``submit`` — when the
    #: caller passes no explicit timeout; ``None`` = wait forever.
    op_timeout: Optional[float] = None


def tcp_connector(host: str, port: int) -> Callable:
    """An async connector for a real socket (``asyncio.open_connection``)."""

    async def connect():
        return await asyncio.open_connection(host, port)

    return connect


def loopback_connector(server: Any) -> Callable:
    """An async connector for a :class:`~repro.serve.CepServer` loopback."""

    async def connect():
        return server.connect_loopback()

    return connect


_FLUSH = object()  # pending-buffer marker for a sequenced FLUSH

#: Server error codes that mean "this connection is done, the session is
#: not": the client reconnects and resends instead of raising.
#: ``overloaded`` — shed under load (may carry ``retry_after``);
#: ``idle`` — reaped by the server's idle deadline; ``frame`` — the
#: server's CRC caught corruption on the ingest path.
_TRANSIENT_ERRORS = frozenset({"overloaded", "idle", "frame"})

#: ``submit_many`` packs encoded batch frames into its reusable buffer
#: and writes once per this many bytes — one syscall/drain per stretch
#: instead of per chunk, which is most of the TCP win at small scales.
_WRITE_COALESCE_BYTES = 64 * 1024


class AsyncClient:
    """One ingestion/subscription session with reconnect and resume.

    Parameters
    ----------
    connector:
        Async callable returning a connected ``(reader, writer)`` pair —
        :func:`tcp_connector` or :func:`loopback_connector`.
    client_id:
        Stable identity for resume; generated when omitted (a generated
        id cannot resume across client processes).
    subscribe:
        Ask the server to push detections; they accumulate in
        :attr:`detections` and feed ``on_detection`` when given.
    rules:
        Optional rule-id filter for the subscription.
    batch_size:
        Observations buffered per batch frame.
    resume_from:
        Last acked seq of a previous client life (-1 = fresh stream).
    codec:
        The ingest codec's name; ``"binary"`` is the only one, and any
        other value raises :class:`ValueError`.
    """

    def __init__(
        self,
        connector: Callable,
        *,
        client_id: Optional[str] = None,
        subscribe: bool = False,
        rules: Optional[Iterable[str]] = None,
        batch_size: int = 64,
        resume_from: int = -1,
        retry: Optional[RetryConfig] = None,
        on_detection: Optional[Callable[[DetectionFrame], None]] = None,
        codec: str = "binary",
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        try:
            self._codec = get_codec(codec)
        except FrameError as exc:
            raise ValueError(str(exc)) from None
        self._connector = connector
        self.client_id = client_id or f"client-{next(_client_ids)}"
        self._subscribe = subscribe
        self._rules = tuple(rules) if rules is not None else None
        self._batch_size = batch_size
        self._retry = retry or RetryConfig()
        self._on_detection = on_detection
        self._server_max_batch: Optional[int] = None
        #: Reused across batches: frames are packed here, then written
        #: as one buffer, instead of allocating bytes per frame.
        self._encode_buffer = bytearray()

        self.last_acked = resume_from
        self._next_seq = resume_from + 1
        #: Unacked runs, chunk-granular: ``(first_seq, [Observation, ...])``
        #: entries in seq order (one per wire batch, registered at send
        #: time) plus ``(seq, _FLUSH)`` markers.  Chunk granularity keeps
        #: both ack trimming and reconnect replay O(batches), not
        #: O(observations).
        self._pending: list = []
        self._batch: list[tuple[int, Observation]] = []
        self.detections: list[DetectionFrame] = []
        self.reconnects = 0
        #: Server PINGs answered.
        self.heartbeats = 0
        #: ``ERROR overloaded`` sheds absorbed (each is a reconnect, not
        #: a failure — the server asked this client to back off).
        self.overloads = 0
        #: Corrupt frames the CRC caught on the return path; each one
        #: cost a reconnect, never a wrongly decoded frame.
        self.frame_errors = 0

        self._reader: Any = None
        self._writer: Any = None
        self._receiver: Optional[asyncio.Task] = None
        self._cond = asyncio.Condition()
        self._connected = False
        self._closed = False
        self._error: Optional[ErrorFrame] = None
        #: ``retry_after`` from the latest transient server error; the
        #: next (re)connect sleeps at least this long before dialing.
        self._retry_after_hint = 0.0

    # -- connection management ----------------------------------------------

    async def connect(self) -> None:
        """Establish (or re-establish) the session, resending unacked data.

        Backoff is *full jitter*: attempt ``n`` sleeps uniformly in
        ``[0, min(backoff_max, backoff_base · 2ⁿ⁻¹)]``, so a fleet that
        lost its server together does not retry in lockstep.  A server
        ``retry_after`` hint (from an ``ERROR overloaded`` shed) floors
        the first sleep.  ``RetryConfig.connect_deadline`` bounds the
        whole affair in wall-clock time, sleeps included.
        """
        retry = self._retry
        loop = asyncio.get_running_loop()
        deadline = (
            loop.time() + retry.connect_deadline
            if retry.connect_deadline is not None
            else None
        )
        hint, self._retry_after_hint = self._retry_after_hint, 0.0
        if hint > 0:
            await asyncio.sleep(hint)
        last_exc: Optional[BaseException] = None
        for attempt in range(retry.max_attempts):
            if attempt:
                cap = min(
                    retry.backoff_max, retry.backoff_base * 2 ** (attempt - 1)
                )
                delay = random.uniform(0, cap) if retry.jitter else cap
                # A failed attempt may itself have been shed with a fresh
                # retry_after (ERROR during the handshake): honour it, or
                # an overloaded server gets hammered at jitter speed.
                hint, self._retry_after_hint = self._retry_after_hint, 0.0
                delay = max(delay, hint)
                if deadline is not None:
                    delay = min(delay, max(0.0, deadline - loop.time()))
                await asyncio.sleep(delay)
            try:
                await self._connect_once()
                return
            except (
                ConnectionError,
                OSError,
                FrameError,  # chaos-corrupted handshake: retry, don't die
                asyncio.IncompleteReadError,
            ) as exc:
                last_exc = exc
                self._teardown_transport()
            if deadline is not None and loop.time() >= deadline:
                raise ClientError(
                    f"connect deadline of {retry.connect_deadline:g}s "
                    f"exhausted after {attempt + 1} attempts"
                ) from last_exc
        raise ClientError(
            f"could not connect after {retry.max_attempts} attempts"
        ) from last_exc

    async def _connect_once(self) -> None:
        reader, writer = await self._connector()
        self._reader = reader
        self._writer = writer
        await self._send_raw(
            Hello(client_id=self.client_id, resume_from=self.last_acked)
        )
        welcome = await self._read_welcome(reader)
        max_batch = welcome.capabilities.get("max_batch")
        if isinstance(max_batch, int) and max_batch > 0:
            self._server_max_batch = max_batch
        async with self._cond:
            # The server's frontier may be ahead of our ack record (acks
            # lost in flight): everything below next_seq is applied.
            self._advance_acks(welcome.next_seq - 1)
        self._next_seq = max(self._next_seq, welcome.next_seq)
        if self._subscribe:
            await self._send_raw(Subscribe(rules=self._rules))
        self._connected = True
        self._receiver = asyncio.ensure_future(self._receiver_loop(reader))
        await self._resend_pending()

    async def _read_welcome(self, reader: Any) -> Welcome:
        decoder = FrameDecoder()
        while True:
            data = await reader.read(65536)
            if not data:
                raise ConnectionResetError("server closed during handshake")
            for frame in decoder.feed(data):
                if isinstance(frame, Welcome):
                    return frame
                if isinstance(frame, ErrorFrame):
                    if frame.code in _TRANSIENT_ERRORS:
                        # e.g. chaos corrupted our HELLO in flight and the
                        # server's CRC caught it: retry the connect, don't
                        # poison the client.
                        if frame.retry_after:
                            self._retry_after_hint = max(
                                self._retry_after_hint,
                                float(frame.retry_after),
                            )
                        raise ConnectionResetError(
                            f"transient refusal during handshake: "
                            f"[{frame.code}] {frame.message}"
                        )
                    raise ClientError(
                        f"server refused session: [{frame.code}] {frame.message}"
                    )
                raise ClientError(
                    f"expected WELCOME, got {type(frame).__name__}"
                )

    async def _resend_pending(self) -> None:
        """Replay the unacked buffer as full batches, not per-obs frames."""
        if not self._pending:
            return
        limit = self._chunk_limit()
        run: list[Observation] = []
        run_first = -1
        for first, items in list(self._pending):
            if items is _FLUSH:
                if run:
                    await self._write_chunk(run_first, run)
                    run = []
                await self._send_raw(Flush(seq=first))
                continue
            if run and first != run_first + len(run):
                await self._write_chunk(run_first, run)
                run = []
            if not run:
                run_first = first
            run.extend(items)
            # The server's max_batch can shrink across reconnects;
            # re-split merged runs to the server's current limit.
            while len(run) >= limit:
                await self._write_chunk(run_first, run[:limit])
                run = run[limit:]
                run_first += limit
        if run:
            await self._write_chunk(run_first, run)

    def _teardown_transport(self) -> None:
        self._connected = False
        if self._receiver is not None:
            self._receiver.cancel()
            self._receiver = None
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:
                pass
        self._reader = None
        self._writer = None

    async def close(self) -> None:
        """Say goodbye and drop the connection (unacked data is kept)."""
        if self._closed:
            return
        self._closed = True
        receiver = self._receiver
        self._receiver = None
        if self._writer is not None:
            try:
                await self._send_raw(Bye())
            except (ConnectionError, OSError, RuntimeError):
                pass
            try:
                self._writer.close()
            except Exception:
                pass
        if receiver is not None:
            receiver.cancel()
            try:
                await receiver
            except (asyncio.CancelledError, Exception):
                pass
        self._connected = False
        async with self._cond:
            self._cond.notify_all()

    async def __aenter__(self) -> "AsyncClient":
        await self.connect()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    # -- submission -----------------------------------------------------------

    async def submit(self, observation: Observation) -> int:
        """Buffer one observation; returns its client seq.

        The observation goes on the wire when the batch fills (or at
        :meth:`drain`/:meth:`flush`); it is resent automatically across
        reconnects until acked.
        """
        self._check_usable()
        seq = self._next_seq
        self._next_seq += 1
        self._batch.append((seq, observation))
        if len(self._batch) >= self._batch_size:
            await self._send_batch()
        return seq

    async def submit_many(self, observations: Iterable[Observation]) -> int:
        """Submit a whole stream; returns the last assigned client seq.

        This is the wire-client contract, distinct from engine-side
        ``submit_many``: detections flow back asynchronously over the
        subscription (:attr:`detections`), so the useful return here is
        the last sequence number — persist it (with
        :attr:`last_acked`) to resume the stream in a later client
        life.  Engine-side ``submit_many`` returns a
        :class:`~repro.core.detector.SubmitResult` instead.

        The fast path: observations are chunked to the server's batch
        limit, each chunk encoded through the ingest codec into
        a reused buffer, and the buffer is written out in
        ~:data:`_WRITE_COALESCE_BYTES` stretches — one transport
        write/drain per stretch, not per chunk or per observation.
        """
        self._check_usable()
        observations = (
            observations if isinstance(observations, list) else list(observations)
        )
        if not observations:
            return self.last_acked
        # Push out any partial per-submit batch first so every chunk
        # below owns a contiguous seq run.
        await self._send_batch()
        limit = self._chunk_limit()
        last = self.last_acked
        index = 0
        total = len(observations)
        buffer = self._encode_buffer
        buffer.clear()
        while index < total:
            chunk = observations[index : index + limit]
            index += limit
            first = self._next_seq
            self._next_seq += len(chunk)
            # Registered before the write: a failed send reconnects and
            # replays the unacked buffer, which must include this chunk.
            self._pending.append((first, chunk))
            self._codec.encode_batch_into(buffer, first, chunk)
            last = first + len(chunk) - 1
            if len(buffer) >= _WRITE_COALESCE_BYTES:
                await self._flush_encode_buffer()
        await self._flush_encode_buffer()
        return last

    async def _flush_encode_buffer(self) -> None:
        """Write out coalesced frames; on failure, reconnect and replay.

        The buffer is cleared before the write: everything encoded into
        it is already registered in the unacked buffer, so a failed
        write loses nothing — reconnect replays it from ``_pending``.
        """
        buffer = self._encode_buffer
        if not buffer:
            return
        data = bytes(buffer)
        buffer.clear()
        writer = self._writer
        try:
            if writer is None:
                raise ConnectionResetError("not connected")
            writer.write(data)
            await writer.drain()
        except (ConnectionError, OSError, RuntimeError):
            await self._reconnect_and_resend()

    def _chunk_limit(self) -> int:
        if self._server_max_batch is not None:
            return max(1, min(self._batch_size, self._server_max_batch))
        return self._batch_size

    async def _send_batch(self) -> None:
        if not self._batch:
            return
        first_seq = self._batch[0][0]
        observations = [item for _seq, item in self._batch]
        self._batch.clear()
        self._pending.append((first_seq, observations))
        await self._send_chunk(first_seq, observations)

    async def _send_chunk(
        self, first_seq: int, chunk: list[Observation]
    ) -> None:
        self._check_usable()
        try:
            await self._write_chunk(first_seq, chunk)
        except (ConnectionError, OSError, RuntimeError):
            # connect() replays the entire unacked buffer — the chunk
            # that failed is still in it, so nothing is lost.
            await self._reconnect_and_resend()

    async def _write_chunk(
        self, first_seq: int, chunk: list[Observation]
    ) -> None:
        buffer = self._encode_buffer
        buffer.clear()
        self._codec.encode_batch_into(buffer, first_seq, chunk)
        writer = self._writer
        if writer is None:
            raise ConnectionResetError("not connected")
        writer.write(bytes(buffer))
        await writer.drain()

    async def drain(self, timeout: Optional[float] = None) -> None:
        """Push any partial batch and wait until everything sent is acked."""
        await self._send_batch()
        await self._wait_for_ack(self._next_seq - 1, timeout)

    async def flush(self, timeout: Optional[float] = None) -> int:
        """Sequence an end-of-stream FLUSH and wait for its ack.

        Returns the flush's seq.  Detections triggered by the flush
        reach this client's subscription before the returned await
        completes only if the server pushed them first — callers
        comparing detection sets should wait on the ack (this method
        does) and then read :attr:`detections`.
        """
        await self._send_batch()
        seq = self._next_seq
        self._next_seq += 1
        self._pending.append((seq, _FLUSH))
        await self._send_with_retry(Flush(seq=seq))
        await self._wait_for_ack(seq, timeout)
        return seq

    # -- receiving -------------------------------------------------------------

    async def _receiver_loop(self, reader: Any) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                for frame in decoder.feed(data):
                    await self._handle_frame(frame)
        except FrameError:
            # CRC caught wire corruption: framing is lost, so the only
            # correct move is a clean reconnect — which resends every
            # unacked observation.  Never a wrongly decoded frame.
            self.frame_errors += 1
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            self._connected = False
            async with self._cond:
                self._cond.notify_all()

    async def _handle_frame(self, frame: Any) -> None:
        if isinstance(frame, Ack):
            async with self._cond:
                self._advance_acks(frame.seq)
                self._cond.notify_all()
        elif received := received_frames(frame):
            self.detections.extend(received)
            if self._on_detection is not None:
                for detection in received:
                    self._on_detection(detection)
        elif isinstance(frame, Ping):
            self.heartbeats += 1
            try:
                await self._send_raw(Pong(token=frame.token))
            except (ConnectionError, OSError, RuntimeError):
                pass
        elif isinstance(frame, Pong):
            pass
        elif isinstance(frame, ErrorFrame):
            if frame.code in _TRANSIENT_ERRORS:
                # The server is closing this connection but the session
                # is recoverable: reconnect (honoring any retry_after
                # hint) instead of poisoning the client.
                if frame.code == "overloaded":
                    self.overloads += 1
                if frame.retry_after:
                    self._retry_after_hint = max(
                        self._retry_after_hint, float(frame.retry_after)
                    )
            else:
                self._error = frame
            async with self._cond:
                self._cond.notify_all()
        elif isinstance(frame, Bye):
            pass

    def _advance_acks(self, seq: int) -> None:
        if seq <= self.last_acked:
            return
        self.last_acked = seq
        pending = self._pending
        cut = 0
        for first, items in pending:
            if items is _FLUSH:
                if first > seq:
                    break
                cut += 1
                continue
            last = first + len(items) - 1
            if last <= seq:
                cut += 1
                continue
            if first <= seq:
                # Cumulative ack landed inside this run: keep the
                # unacked suffix.
                pending[cut] = (seq + 1, items[seq + 1 - first :])
            break
        if cut:
            del pending[:cut]

    # -- plumbing ---------------------------------------------------------------

    def _check_usable(self) -> None:
        if self._closed:
            raise ClientError("client is closed")
        if self._error is not None:
            raise ClientError(
                f"server error: [{self._error.code}] {self._error.message}"
            )

    async def _send_raw(self, frame: Any) -> None:
        writer = self._writer
        if writer is None:
            raise ConnectionResetError("not connected")
        writer.write(encode_frame(frame))
        await writer.drain()

    async def _send_with_retry(self, frame: Any) -> None:
        self._check_usable()
        try:
            await self._send_raw(frame)
        except (ConnectionError, OSError, RuntimeError):
            await self._reconnect_and_resend()

    async def _reconnect_and_resend(self) -> None:
        # connect() replays the entire unacked buffer — the frame that
        # failed is still in it, so nothing is lost.
        self._teardown_transport()
        self.reconnects += 1
        await self.connect()

    async def _wait_for_ack(
        self, seq: int, timeout: Optional[float] = None
    ) -> None:
        async def wait() -> None:
            while self.last_acked < seq:
                self._check_usable()
                if not self._connected:
                    await self._reconnect_and_resend()
                    continue
                async with self._cond:
                    if self.last_acked >= seq or self._error is not None:
                        continue
                    if not self._connected:
                        continue
                    await self._cond.wait()
            self._check_usable()

        if timeout is None:
            # Per-operation deadline: an unset caller timeout falls back
            # to the retry policy's op_timeout, so a hung server cannot
            # park drain()/flush() forever by default configuration.
            timeout = self._retry.op_timeout
        if timeout is None:
            await wait()
        else:
            await asyncio.wait_for(wait(), timeout)


class Client:
    """Synchronous facade over :class:`AsyncClient` (TCP transports).

    Runs a private event loop on a daemon thread and forwards every call
    with ``run_coroutine_threadsafe``.  Use as a context manager::

        with Client(host="127.0.0.1", port=7007, subscribe=True) as client:
            for observation in stream:
                client.submit(observation)
            client.flush()
            print(len(client.detections()))
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int,
        client_id: Optional[str] = None,
        subscribe: bool = False,
        rules: Optional[Iterable[str]] = None,
        batch_size: int = 64,
        resume_from: int = -1,
        retry: Optional[RetryConfig] = None,
        call_timeout: float = 60.0,
    ) -> None:
        self._call_timeout = call_timeout
        self._closed = False
        self._stopped = False
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serve-client", daemon=True
        )
        self._thread.start()
        self._async = AsyncClient(
            tcp_connector(host, port),
            client_id=client_id,
            subscribe=subscribe,
            rules=rules,
            batch_size=batch_size,
            resume_from=resume_from,
            retry=retry,
        )
        try:
            self._call(self._async.connect())
        except BaseException:
            self._stop_loop()
            raise

    def _call(self, coro):
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout=self._call_timeout)

    def _stop_loop(self) -> bool:
        """Stop the IO loop and join its thread; True when fully stopped.

        A join that times out used to be silently ignored — ``close()``
        returned as if done while the daemon thread (and its event
        loop, sockets, buffers) kept running.  The leak is now logged
        and reported: the loop is only closed once the thread is
        actually gone.
        """
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)
        if self._thread.is_alive():
            logger.warning(
                "serve client IO thread %r did not stop within 5s; "
                "leaking the thread and its event loop",
                self._thread.name,
            )
            return False
        if not self._loop.is_running():
            self._loop.close()
        return True

    # -- public surface -------------------------------------------------------

    @property
    def client_id(self) -> str:
        return self._async.client_id

    @property
    def last_acked(self) -> int:
        """Persist this across client lives to resume with ``resume_from``."""
        return self._async.last_acked

    @property
    def reconnects(self) -> int:
        return self._async.reconnects

    @property
    def heartbeats(self) -> int:
        """Server liveness probes answered on this session."""
        return self._async.heartbeats

    @property
    def overloads(self) -> int:
        """``ERROR overloaded`` sheds absorbed (each cost a reconnect)."""
        return self._async.overloads

    def submit(self, observation: Observation) -> int:
        return self._call(self._async.submit(observation))

    def submit_many(self, observations: Iterable[Observation]) -> int:
        return self._call(self._async.submit_many(list(observations)))

    def drain(self, timeout: Optional[float] = None) -> None:
        self._call(self._async.drain(timeout))

    def flush(self, timeout: Optional[float] = None) -> int:
        return self._call(self._async.flush(timeout))

    def detections(self) -> list[DetectionFrame]:
        """Snapshot of the detections pushed so far (subscribe=True)."""
        return list(self._async.detections)

    def close(self) -> bool:
        """Say goodbye and stop the IO thread (idempotent).

        Returns ``True`` when the background thread actually stopped;
        ``False`` means it leaked (a warning is logged) — the process
        can still exit, the thread is a daemon, but resources held by
        the loop were not released.  Closing twice — e.g. an explicit
        ``close()`` after a ``with`` block — repeats the last verdict
        instead of raising on the dead event loop.
        """
        if self._closed:
            return self._stopped
        self._closed = True
        try:
            self._call(self._async.close())
        finally:
            self._stopped = self._stop_loop()
        return self._stopped

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
