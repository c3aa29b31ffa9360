"""repro.serve — the network serving layer for RCEDA detection.

The paper's DRER engine consumes "streams collected from multiple
readers at distributed locations"; this package is the network boundary
that makes the repo an actual *server* for those streams:

* :mod:`repro.serve.protocol` — a length-prefixed, versioned, CRC'd
  binary wire protocol with one session shape: columnar observation
  batches in (BBATCH), columnar detection batches out (BDETBATCH),
  JSON control frames (HELLO/WELCOME/ACK/FLUSH/SUBSCRIBE/ERROR/BYE/
  PING/PONG) and JSON fallbacks for what the columns cannot carry;
* :mod:`repro.serve.server` — :class:`CepServer`, an asyncio server
  multiplexing many ingestion sessions onto one detection backend
  (plain, sharded or durable) behind a single writer task with bounded
  queues, explicit backpressure and per-client resume-from-seq;
* :mod:`repro.serve.client` — :class:`AsyncClient` / :class:`Client`
  with batching, cumulative acks and retry/backoff reconnect;
* :mod:`repro.serve.loopback` — an in-memory transport with real flow
  control, so every protocol/session/backpressure path is testable
  without sockets;
* :mod:`repro.serve.cluster` — :class:`Cluster` / :class:`CepRouter`:
  N shard-worker processes (each a :class:`CepServer` over a durable
  engine with its own WAL) behind a router backend served by one more
  :class:`CepServer`, with round-robin shard placement, deterministic
  detection fan-in and crash recovery;
* :mod:`repro.serve.drill` — the one procedure behind ``python -m repro
  chaos serve|skew|cluster`` and ``smoke``: stand up a durable topology,
  stream, kill one component mid-slice, recover, and audit the sink,
  WAL and ack frontiers for exactly-once delivery.  A cluster worker
  never loads it: ``cluster_program`` and ``run_cluster_drill`` import
  it on first call.

Quickstart (see ``docs/serving.md`` for the full tour)::

    # server process
    engine = Engine(rules)
    server = CepServer(engine)
    port = await server.serve_tcp("0.0.0.0", 7007)

    # client process
    with Client(host="server", port=7007, subscribe=True) as client:
        client.submit_many(observations)
        client.flush()
        detections = client.detections()

Or from the command line: ``python -m repro serve --rules rules.txt``.
"""

from .client import (
    AsyncClient,
    Client,
    ClientError,
    RetryConfig,
    loopback_connector,
    tcp_connector,
)
from .cluster import (
    CepRouter,
    Cluster,
    ClusterPlan,
    RouterStats,
    ShardWorker,
    WorkerLink,
    WorkerProcess,
    file_sink,
    plan_cluster,
    run_worker,
)
from .faults import (
    ChaosProxy,
    FaultSchedule,
    FaultStats,
    FaultyTransport,
    FaultyWriter,
    NetworkFaultPlan,
)
from .loopback import LoopbackReader, LoopbackWriter, loopback_pair
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Ack,
    Batch,
    BinaryBatch,
    BinaryCodec,
    Bye,
    DetectionBatch,
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
    decode_frame,
    encode_frame,
    encode_frame_into,
    get_codec,
)
from .server import CepServer, ServeConfig, ServeError, SlowConsumerPolicy


def cluster_program(reader_pairs, **options) -> str:
    """See :func:`repro.serve.drill.cluster_program`."""
    from . import drill

    return drill.cluster_program(reader_pairs, **options)


def run_cluster_drill(seed: int = 7, **options) -> dict:
    """See :func:`repro.serve.drill.run_cluster_drill`."""
    from . import drill

    return drill.run_cluster_drill(seed, **options)


#: The curated public surface of the serving layer; anything not listed
#: here is an implementation detail that may change between releases.
__all__ = [
    "Ack",
    "AsyncClient",
    "Batch",
    "BinaryBatch",
    "BinaryCodec",
    "Bye",
    "CepRouter",
    "CepServer",
    "ChaosProxy",
    "Client",
    "ClientError",
    "Cluster",
    "ClusterPlan",
    "DetectionBatch",
    "DetectionFrame",
    "ErrorFrame",
    "FaultSchedule",
    "FaultStats",
    "FaultyTransport",
    "FaultyWriter",
    "Flush",
    "Frame",
    "FrameDecoder",
    "FrameError",
    "Hello",
    "LoopbackReader",
    "LoopbackWriter",
    "MAX_FRAME_BYTES",
    "NetworkFaultPlan",
    "PROTOCOL_VERSION",
    "Ping",
    "Pong",
    "RetryConfig",
    "RouterStats",
    "ServeConfig",
    "ServeError",
    "ShardWorker",
    "SlowConsumerPolicy",
    "Subscribe",
    "Welcome",
    "WorkerLink",
    "WorkerProcess",
    "cluster_program",
    "decode_frame",
    "encode_frame",
    "encode_frame_into",
    "file_sink",
    "get_codec",
    "loopback_connector",
    "loopback_pair",
    "plan_cluster",
    "run_cluster_drill",
    "run_worker",
    "tcp_connector",
]
