"""Load generation against a collection cluster.

The client round loop is :func:`~repro.server.loadgen.run_loadgen`, the
same one that drives a gateway: it reads the topology (worker addresses and
user-id slice assignments) and any window ticket from the coordinator's own
replies and streams every slice straight to its owning
:class:`~repro.cluster.worker.ShardWorker` — the coordinator never touches a
report.  Each slice stream starts with an idempotent ``open_round``, which
doubles as the healing path for a worker restarted from a checkpoint taken
before the round opened.

:func:`run_cluster_loadgen` is that loop with the cluster's retry policy:
a transport failure replays the whole slice (deterministic batch ids make
the replay exact), and a ``close_round`` answered with ``retryable: true``
replays just the slices the coordinator could not collect before retrying
the close.  :class:`ChaosKill` injects a mid-round ``SIGKILL`` into exactly
this machinery so tests and examples can prove a worker crash is invisible
in the final estimates.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass

from repro.server.loadgen import LoadgenStats, run_loadgen, stream_worker_slice

__all__ = ["ChaosKill", "run_cluster_loadgen", "stream_worker_slice"]


@dataclass
class ChaosKill:
    """Fire one ``SIGKILL`` at a shard worker mid-round (fault injection).

    Picklable, so it travels into multiprocessing loadgen workers: every
    process gets its own copy, but the ``(round_index, worker_index)`` filter
    means only the copy streaming the targeted slice ever fires, and the
    ``fired`` flag keeps the kill from repeating on that process's replays.
    """

    round_index: int
    worker_index: int
    after_batches: int = 1
    fired: bool = False

    def maybe_fire(
        self,
        round_index: int,
        worker_index: int,
        batches_sent: int,
        pid: int | None,
    ) -> bool:
        if (
            self.fired
            or pid is None
            or round_index != self.round_index
            or worker_index != self.worker_index
            or batches_sent < self.after_batches
        ):
            return False
        self.fired = True
        os.kill(pid, signal.SIGKILL)
        return True


def run_cluster_loadgen(
    host: str,
    port: int,
    population,
    *,
    batch_size: int = 8192,
    workers: int = 0,
    mp_context: str = "spawn",
    timeout: float = 120.0,
    chaos: ChaosKill | None = None,
    max_attempts: int = 12,
    retry_delay: float = 0.25,
) -> LoadgenStats:
    """Drive a complete (plain or windowed) run against a cluster coordinator.

    :func:`~repro.server.loadgen.run_loadgen` with retry defaults sized for
    the supervisor to restart a killed worker before the replays run out.
    """
    return run_loadgen(
        host,
        port,
        population,
        batch_size=batch_size,
        workers=workers,
        mp_context=mp_context,
        timeout=timeout,
        max_attempts=max_attempts,
        retry_delay=retry_delay,
        chaos=chaos,
    )
