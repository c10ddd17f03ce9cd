"""Multi-process collection cluster for the PrivShape protocol.

The single-process gateway aggregates every report on one GIL-bound event
loop; this package scales the collection side out over OS processes while
keeping the estimates *byte-identical* to the offline extractor:

* :class:`~repro.cluster.spec.ClusterSpec` — the topology (worker addresses
  and contiguous user-id slice assignments) shared with clients;
* :class:`~repro.cluster.worker.ShardWorker` — one process per disjoint
  user-id slice, running the gateway's aggregation loop (bounded shard
  queues, idempotent batch dedup, atomic checkpoints) without an engine;
* :class:`~repro.cluster.coordinator.Coordinator` — the one engine of the
  run: round control, worker health, and the exact int64 merge of collected
  shard states (integer addition is associative, so process layout cannot
  change a single count);
* :class:`~repro.cluster.supervisor.Supervisor` — spawns the workers,
  restarts a crashed one on the same port from its last checkpoint;
* :func:`~repro.cluster.loadgen.run_cluster_loadgen` — the shared client
  round loop with the cluster's slice-replay retry policy, plus
  :class:`~repro.cluster.loadgen.ChaosKill` fault injection;
* :func:`~repro.cluster.testing.launch_cluster` — one-call boot/teardown
  for tests, benchmarks, and the ``cluster`` execution backend.

Correctness rests on three invariants established by the lower layers:
client randomness is a PRF of (round key, user id); round aggregation is
exact int64 addition; batch ids are deterministic functions of the (round,
user-window) pair.  Together they make any slicing, any process layout, and
any crash-and-replay schedule produce the same final counts.
"""

from repro.cluster.coordinator import Coordinator
from repro.cluster.loadgen import (
    ChaosKill,
    run_cluster_loadgen,
    stream_worker_slice,
)
from repro.cluster.spec import ClusterSpec, WorkerAddress
from repro.cluster.supervisor import Supervisor
from repro.cluster.testing import ClusterHandle, launch_cluster
from repro.cluster.worker import ShardWorker, run_worker_process

__all__ = [
    "ChaosKill",
    "ClusterHandle",
    "ClusterSpec",
    "Coordinator",
    "ShardWorker",
    "Supervisor",
    "WorkerAddress",
    "launch_cluster",
    "run_cluster_loadgen",
    "run_worker_process",
    "stream_worker_slice",
]
