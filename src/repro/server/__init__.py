"""Network-facing collection gateway for the PrivShape service.

This package puts a wire boundary, concurrency, and durability around the
round-based collection service:

* :class:`SocketServiceBase` — the shared asyncio transport (NDJSON ops +
  HTTP ``GET`` on one port, bounded per-shard queues, deterministic
  lifecycle) that the gateway and the :mod:`repro.cluster` processes all
  serve through;
* :class:`CollectionGateway` — asyncio TCP server speaking a newline-delimited
  JSON protocol (plus HTTP ``GET /status`` / ``GET /result`` on the same
  port), with one bounded queue + aggregation worker per shard and idempotent
  batch ingestion;
* :class:`CheckpointStore` — atomic (write-temp + rename) JSON checkpoints of
  the full protocol state, written after every round close and optionally
  mid-round, enabling exact crash recovery via
  :meth:`CollectionGateway.from_checkpoint`;
* :class:`GatewayClient` — the blocking reference client;
* :func:`run_loadgen` — the one client round loop over the socket, for a
  gateway or a cluster coordinator, plain or windowed (it reads which from
  the server's replies), optionally fanned out over OS processes
  (``repro loadgen`` on the command line);
* :func:`serve_in_thread` — in-process hosting for tests and benchmarks,
  returning a :class:`ServerHandle`;
* :func:`publish_port` / :func:`wait_for_port_file` — atomic port-file
  publication for servers bound to ephemeral ports.

A run driven through the gateway — any batching, any sharding, including a
kill-and-recover from a mid-round checkpoint — finalizes byte-identically to
the offline ``PrivShape.extract()`` path under the same master seed.
"""

from repro.server.base import SocketServiceBase, result_payload
from repro.server.client import GatewayClient
from repro.server.gateway import CollectionGateway
from repro.server.loadgen import (
    LoadgenRoundStats,
    LoadgenStats,
    SliceStats,
    SliceTask,
    run_loadgen,
    stream_worker_slice,
)
from repro.server.portfile import publish_port, read_port, wait_for_port_file
from repro.server.state import CheckpointStore
from repro.server.testing import GatewayHandle, ServerHandle, serve_in_thread
from repro.server.wire import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    batch_from_wire,
    batch_to_wire,
    decode_message,
    encode_message,
)
from repro.service.client import batch_id_for

__all__ = [
    "SocketServiceBase",
    "result_payload",
    "CollectionGateway",
    "GatewayClient",
    "CheckpointStore",
    "GatewayHandle",
    "ServerHandle",
    "serve_in_thread",
    "publish_port",
    "read_port",
    "wait_for_port_file",
    "run_loadgen",
    "stream_worker_slice",
    "batch_id_for",
    "LoadgenStats",
    "LoadgenRoundStats",
    "SliceStats",
    "SliceTask",
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "encode_message",
    "decode_message",
    "batch_to_wire",
    "batch_from_wire",
]
