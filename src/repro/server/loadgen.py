"""Load generation against a collection gateway or a cluster coordinator.

``run_loadgen`` is the one client-side round loop over the socket: it asks
the server for the open round, streams every user-id slice of it through
:func:`~repro.service.client.round_batches`, ships the resulting
:class:`~repro.service.reports.ReportBatch` frames and closes the round —
repeating until the protocol is done.  Everything it needs to know about the
server comes from the server's own replies:

* **windows** — a ``round`` reply carrying a ``window`` ticket streams a
  :class:`~repro.continual.windows.WindowView` of the population (the
  ticket's users, re-based to local ids), and ``window_done`` is answered
  with a ``window`` op that folds the window in and opens the next one;
* **topology** — a coordinator's reply carries worker addresses and user-id
  slice ``assignments``, and every slice goes straight to its owning shard
  worker (opened with an idempotent ``open_round``); a gateway's reply
  carries neither, and the population is cut into ``max(workers, 1)``
  contiguous slices against the one address.

Slices run in-process (``workers=0``, deterministic) or on a pool of that
many OS processes; populations are PRF-keyed pure functions of the user id,
so slices are exact.  Batch ids are deterministic functions of ``(round,
user-id window)``, which makes retries and post-crash replays idempotent on
the server side: a transport failure replays the whole slice from the top,
and a coordinator's ``close_round`` answered ``retryable`` replays just the
slices it could not collect before retrying the close.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.continual.windows import WindowView
from repro.exceptions import ConfigurationError, ServerConnectionError, ServerError
from repro.obs import PHASE_TRANSPORT, profile_phase, trace_span
from repro.server.client import GatewayClient
from repro.service.client import round_batches
from repro.service.plan import CollectionPlan, RoundSpec
from repro.service.population import worker_slices

if TYPE_CHECKING:
    from repro.cluster.loadgen import ChaosKill


@dataclass
class SliceStats:
    """What streaming one user-id slice through one round achieved."""

    #: Reports the server newly accepted (idempotent replays count zero).
    accepted: int = 0
    #: Batches sent (including replays and duplicate acknowledgements).
    batches: int = 0
    #: Reconnect-and-replay attempts beyond the first.
    retries: int = 0


@dataclass(frozen=True)
class SliceTask:
    """One round's user-id slice ``[start, stop)`` bound for one address.

    Picklable, so pool workers receive it whole.  ``worker_index`` is set
    only when a coordinator assigned the slice to one of its shard workers.
    """

    host: str
    port: int
    population: Any
    plan: dict[str, Any]
    round: dict[str, Any]
    start: int
    stop: int
    batch_size: int
    max_attempts: int
    retry_delay: float
    worker_index: int | None = None
    worker_pid: int | None = None
    chaos: ChaosKill | None = None


def slice_tasks(
    current: dict[str, Any],
    host: str,
    port: int,
    population,
    *,
    workers: int,
    batch_size: int,
    max_attempts: int,
    retry_delay: float,
    chaos: ChaosKill | None = None,
) -> list[SliceTask]:
    """The slices one ``round`` reply asks for, all under one retry policy."""
    ticket = current.get("window")
    if ticket is not None:
        population = WindowView(population, ticket["start"], ticket["stop"])
    common = dict(
        population=population,
        plan=current["plan"],
        round=current["round"],
        batch_size=batch_size,
        max_attempts=max_attempts,
        retry_delay=retry_delay,
    )
    if "assignments" in current:
        return [
            SliceTask(
                host=address["host"],
                port=address["port"],
                start=start,
                stop=stop,
                worker_index=address["index"],
                worker_pid=address.get("pid"),
                chaos=chaos,
                **common,
            )
            for address, (start, stop) in zip(current["workers"], current["assignments"])
        ]
    return [
        SliceTask(host=host, port=port, start=start, stop=stop, **common)
        for start, stop in worker_slices(population.n_users, max(workers, 1))
    ]


def stream_worker_slice(task: SliceTask) -> SliceStats:
    """Stream one slice of one round, replaying it on transport failures.

    Top-level so pool workers can run it.  A coordinator-assigned slice
    first sends ``open_round`` — even when empty, so every worker is
    collectable at round close — and is the only kind ``chaos`` can fire
    on.  A transport failure (including one ``chaos`` caused) replays the
    slice from the top after a backoff, up to ``max_attempts`` times;
    protocol rejections are never retried.
    """
    plan = CollectionPlan.from_dict(task.plan)
    spec = RoundSpec.from_dict(task.round)
    stats = SliceStats()
    for attempt in range(max(int(task.max_attempts), 1)):
        try:
            with GatewayClient(task.host, task.port) as client:
                if task.worker_index is not None:
                    client.request(
                        {"op": "open_round", "round": task.round,
                         "start": task.start, "stop": task.stop}
                    )
                for batch, batch_id in round_batches(
                    task.population, plan, spec, task.start, task.stop, task.batch_size
                ):
                    with profile_phase(PHASE_TRANSPORT, spec.index):
                        response = client.report(batch, batch_id=batch_id)
                    stats.batches += 1
                    if response.get("accepted"):
                        stats.accepted += int(response.get("reports", len(batch)))
                    if task.chaos is not None and task.worker_index is not None:
                        task.chaos.maybe_fire(
                            spec.index, task.worker_index, stats.batches, task.worker_pid
                        )
            return stats
        except ServerConnectionError:
            if attempt + 1 >= task.max_attempts:
                raise
            stats.retries += 1
            time.sleep(min(task.retry_delay * (attempt + 1), 2.0))
    return stats  # pragma: no cover - loop always returns or raises


@dataclass
class LoadgenRoundStats:
    """Observability record of one round driven over the socket."""

    index: int
    kind: str
    reports: int
    elapsed_seconds: float
    #: Trie level of an expand round (-1 otherwise), published by the server.
    level: int = -1

    @property
    def reports_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.reports / self.elapsed_seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "round": self.index,
            "kind": self.kind,
            "level": self.level,
            "reports": self.reports,
            "elapsed_seconds": self.elapsed_seconds,
            "reports_per_second": self.reports_per_second,
        }


@dataclass
class LoadgenStats:
    """Observability record of one full load-generation run."""

    rounds: list[LoadgenRoundStats] = field(default_factory=list)
    total_reports: int = 0
    total_seconds: float = 0.0
    workers: int = 0
    batches: int = 0
    retries: int = 0
    result: dict[str, Any] | None = None
    server_status: dict[str, Any] | None = None
    #: One summary per ``window`` op driven (continual servers only).
    windows: list[dict[str, Any]] = field(default_factory=list)

    @property
    def reports_per_second(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.total_reports / self.total_seconds

    def summary(self) -> dict[str, Any]:
        """The one-look run summary (``repro loadgen --json`` publishes this)."""
        return {
            "reports_sent": self.total_reports,
            "batches": self.batches,
            "retries": self.retries,
            "wall_seconds": self.total_seconds,
            "reports_per_second": self.reports_per_second,
            "workers": self.workers,
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "rounds": [r.to_dict() for r in self.rounds],
            "total_reports": self.total_reports,
            "total_seconds": self.total_seconds,
            "reports_per_second": self.reports_per_second,
            "workers": self.workers,
            "batches": self.batches,
            "retries": self.retries,
            "summary": self.summary(),
            "result": self.result,
            "server_status": self.server_status,
            "windows": self.windows,
        }


def _check_population_size(hello: dict[str, Any], population) -> None:
    """Refuse a population whose size differs from the one the server planned."""
    windows = hello.get("windows")
    planned = hello.get("n_users") if windows is None else windows["n_users"]
    if planned is not None and int(planned) != int(population.n_users):
        scope = "is sized for" if windows is None else "planned windows over"
        raise ConfigurationError(
            f"server {scope} {planned} users, population has {population.n_users}"
        )


def run_loadgen(
    host: str,
    port: int,
    population,
    *,
    batch_size: int = 8192,
    workers: int = 0,
    mp_context: str = "spawn",
    timeout: float = 120.0,
    max_attempts: int = 1,
    retry_delay: float = 0.5,
    chaos: ChaosKill | None = None,
) -> LoadgenStats:
    """Drive a complete collection run against a gateway or a coordinator.

    ``workers=0`` streams the slices in-process (deterministic,
    test-friendly); ``workers>=1`` runs them on that many OS processes.
    Either way every slice gets the same retry policy (``max_attempts``,
    ``retry_delay``), and ``chaos`` can fire only on coordinator-assigned
    slices.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    stats = LoadgenStats(workers=max(int(workers), 0))
    started = time.perf_counter()
    pool = None
    try:
        with GatewayClient(host, port, timeout=timeout) as control:
            _check_population_size(control.hello(), population)
            while True:
                current = control.round()
                if current["done"]:
                    break
                if current.get("window_done"):
                    closed = control.request({"op": "window"}).get("closed", {})
                    stats.windows.append(
                        {key: closed.get(key)
                         for key in ("window", "attempt", "mode", "final", "shapes")}
                    )
                    continue
                round_dict = current["round"]
                tasks = slice_tasks(
                    current, host, port, population,
                    workers=stats.workers, batch_size=batch_size,
                    max_attempts=max_attempts, retry_delay=retry_delay, chaos=chaos,
                )
                ticket = current.get("window")
                round_started = time.perf_counter()
                with trace_span(
                    "loadgen.round",
                    round=round_dict["index"],
                    kind=round_dict["kind"],
                    **({} if ticket is None else {"window": ticket["index"]}),
                ):
                    if stats.workers >= 1:
                        if pool is None:
                            # One pool for the whole run: workers pay the
                            # spawn + import cost once, not once per round.
                            context = multiprocessing.get_context(mp_context)
                            pool = context.Pool(min(stats.workers, len(tasks)))
                        slice_stats = pool.map(stream_worker_slice, tasks)
                    else:
                        slice_stats = [stream_worker_slice(task) for task in tasks]
                    stats.batches += sum(s.batches for s in slice_stats)
                    stats.retries += sum(s.retries for s in slice_stats)
                    closed = _close_with_replays(
                        control,
                        int(round_dict["index"]),
                        tasks,
                        stats,
                        max_attempts=max_attempts,
                        retry_delay=retry_delay,
                    )
                stats.rounds.append(
                    LoadgenRoundStats(
                        index=int(round_dict["index"]),
                        kind=str(round_dict["kind"]),
                        # A coordinator's merged aggregate is authoritative:
                        # client-side accepted counts double-count any batch a
                        # crashed worker lost after acking and re-accepted on
                        # replay.  A gateway sends no such record.
                        reports=int(closed["reports"])
                        if closed is not None
                        else int(sum(s.accepted for s in slice_stats)),
                        elapsed_seconds=time.perf_counter() - round_started,
                        level=int(round_dict.get("level", -1)),
                    )
                )
            stats.total_seconds = time.perf_counter() - started
            stats.total_reports = sum(r.reports for r in stats.rounds)
            stats.result = control.result()
            stats.server_status = control.status()
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
    return stats


def _close_with_replays(
    control: GatewayClient,
    round_index: int,
    tasks: list[SliceTask],
    stats: LoadgenStats,
    *,
    max_attempts: int,
    retry_delay: float,
) -> dict[str, Any] | None:
    """Close one round, replaying uncollectable slices until it sticks.

    Returns the coordinator's ``closed`` record (authoritative report count),
    or ``None`` when the server sent none (a gateway, or a retried close that
    found the round already closed).
    """
    by_worker = {task.worker_index: task for task in tasks}
    for attempt in range(max(int(max_attempts), 1)):
        response = control.request(
            {"op": "close_round", "round": round_index}, check=False
        )
        if response.get("ok"):
            return response.get("closed")
        failed = response.get("failed_workers")
        if not response.get("retryable") or not failed:
            raise ServerError(
                f"server rejected 'close_round': {response.get('error')}"
            )
        stats.retries += 1
        time.sleep(min(retry_delay * (attempt + 1), 2.0))
        for index in failed:
            # Replay in-process with chaos disarmed: the point is recovery.
            replayed = stream_worker_slice(replace(by_worker[index], chaos=None))
            stats.batches += replayed.batches
            stats.retries += replayed.retries
    raise ServerError(
        f"could not close round {round_index} after {max_attempts} attempts"
    )
