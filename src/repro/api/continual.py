"""Per-window :class:`RunResult` sequences from continual collection runs.

A one-shot spec executes to a single :class:`~repro.api.results.RunResult`;
a spec carrying a :class:`~repro.continual.windows.WindowSpec` executes to a
*sequence* of them — one per closed window record (a drift-triggered
re-extraction closes the same window index twice: the rejected refresh
probe, then the authoritative ``final`` full run).  :func:`run_windows` is
the dispatch behind ``spec.run(...)`` for windowed specs; it hosts the same
:class:`~repro.continual.engine.WindowController` on the requested backend
(``inline``, ``gateway``, or ``cluster``) and converts its plain window
payloads — which are byte-identical across backends under one master seed —
into :class:`RunResult` artifacts whose fingerprint sequences diff cleanly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.api.results import RUN_RESULT_FORMAT, TASK_EXTRACT, RunResult
from repro.api.spec import ExperimentSpec
from repro.exceptions import ConfigurationError

#: Format tag of a serialized run sequence.
RUN_SEQUENCE_FORMAT = "repro.run_sequence/v1"

#: Backends able to host a window controller.
WINDOW_BACKENDS = ("inline", "gateway", "cluster")

#: Option names each windowed backend accepts (anything else raises).
_WINDOW_OPTIONS = {
    "inline": ("batch_size", "shards"),
    "gateway": ("batch_size", "shards", "workers", "queue_depth", "mp_context"),
    "cluster": ("batch_size", "workers", "queue_depth", "checkpoint_every",
                "loadgen_workers", "mp_context"),
}


def window_run_result(
    spec: ExperimentSpec,
    payload: Mapping[str, Any],
    *,
    backend: str,
    master_seed: int | None = None,
    data: Mapping[str, Any] | None = None,
) -> RunResult:
    """One closed-window payload as a canonical :class:`RunResult`.

    The fingerprint fields come straight from the controller payload (seed =
    the window's derived ticket seed, estimates, accounting, and the window
    coordinates folded into ``data``); drift telemetry and the window's
    epsilon land in ``details``, which fingerprints exclude.
    """
    estimates = [
        {"shape": shape, "estimated_count": float(count)}
        for shape, count in zip(payload["shapes"], payload["frequencies"])
    ]
    window_data = {
        **(dict(data) if data else {}),
        "window": int(payload["window"]),
        "attempt": int(payload["attempt"]),
        "mode": str(payload["mode"]),
        "start": int(payload["start"]),
        "stop": int(payload["stop"]),
        "final": bool(payload["final"]),
    }
    return RunResult(
        task=TASK_EXTRACT,
        spec=spec,
        backend=backend,
        seed=int(payload["seed"]),
        estimates=estimates,
        estimated_length=payload.get("estimated_length"),
        accounting=dict(payload.get("accounting", {})),
        data=window_data,
        details={
            "window_epsilon": payload.get("epsilon"),
            "drift": payload.get("drift"),
            "master_seed": master_seed,
        },
    )


@dataclass
class RunSequence:
    """Every closed window of one continual run, in execution order.

    Iterates like a list of :class:`RunResult`; ``continual`` carries the
    run-level master accounting (per-window ledger, user-level epsilon views)
    plus the base seed and backend provenance.
    """

    results: list[RunResult] = field(default_factory=list)
    continual: dict[str, Any] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]

    @property
    def final_results(self) -> list[RunResult]:
        """The authoritative record of each window index (probes excluded)."""
        return [r for r in self.results if r.data.get("final")]

    def fingerprints(self) -> list[dict[str, Any]]:
        """The deterministic projection, window by window.

        Two continual runs of the same windowed spec on the same stream under
        the same master seed must produce equal fingerprint sequences no
        matter which backend executed them.
        """
        return [result.fingerprint() for result in self.results]

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": RUN_SEQUENCE_FORMAT,
            "results": [result.to_dict() for result in self.results],
            "continual": dict(self.continual),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunSequence":
        declared = payload.get("format", RUN_SEQUENCE_FORMAT)
        if declared != RUN_SEQUENCE_FORMAT:
            raise ConfigurationError(
                f"expected a {RUN_SEQUENCE_FORMAT} document, got {declared!r}"
            )
        return cls(
            results=[
                RunResult.from_dict({**r, "format": RUN_RESULT_FORMAT})
                for r in payload.get("results", [])
            ],
            continual=dict(payload.get("continual", {})),
        )


def run_windows(
    spec: ExperimentSpec,
    data,
    *,
    backend: str = "inline",
    seed: int | None = None,
    cache: dict | None = None,
    **options: Any,
) -> RunSequence:
    """Execute a windowed spec on ``data`` → a per-window :class:`RunSequence`.

    ``backend`` must be able to host the window controller: ``inline`` runs
    :class:`~repro.continual.engine.ContinualEngine` in-process, ``gateway``
    boots a windowed :class:`~repro.server.gateway.CollectionGateway` on an
    ephemeral port, ``cluster`` a windowed coordinator/worker topology.  All
    three return byte-identical window payloads under one master ``seed``.

    ``telemetry=True`` runs the controller under a recording tracer/profiler
    and attaches its summary as ``sequence.continual["telemetry"]``;
    ``trace="out.json"`` additionally writes the spans as Chrome-trace JSON.
    Wall-clock only — window payloads and fingerprints are unchanged.
    """
    # Imported lazily for the same reason as ExperimentSpec.run: executors
    # pull the service/server stacks.
    from repro.api.data import DataSpec
    from repro.api.executors import _coerce_population

    telemetry_enabled = bool(options.pop("telemetry", False))
    trace_path = options.pop("trace", None)
    if spec.windows is None:
        raise ConfigurationError(
            "run_windows needs a windowed spec; set ExperimentSpec.windows to "
            "a repro.continual.WindowSpec"
        )
    if backend not in WINDOW_BACKENDS:
        raise ConfigurationError(
            f"backend {backend!r} cannot host a window controller; windowed "
            f"specs run on one of {WINDOW_BACKENDS}"
        )
    known = _WINDOW_OPTIONS[backend]
    unknown = set(options) - set(known) - {"task"}
    if unknown:
        raise ConfigurationError(
            f"unknown or inert option(s) {sorted(unknown)} for windowed "
            f"backend {backend!r}; accepted: {sorted(known)}"
        )
    if spec.mechanism != "privshape":
        raise ConfigurationError(
            "continual collection streams through the round-based PrivShape "
            f"protocol and cannot run mechanism {spec.mechanism!r}"
        )
    realized = _coerce_population(spec, data, cache)
    realized.spec._require_concrete()
    rspec = realized.spec
    population = realized.population
    config = rspec.to_privshape_config()
    batch_size = int(options.get("batch_size", 8192))
    data_desc = data.describe() if isinstance(data, DataSpec) else {}
    started = time.perf_counter()

    telemetry: dict[str, Any] | None = None
    if telemetry_enabled or trace_path is not None:
        from repro.obs import capture

        with capture() as cap:
            payloads, accounting, base_seed, info = _execute_windows(
                backend, config, rspec, population, batch_size, seed, options
            )
        telemetry = cap.summary()
        if trace_path is not None:
            cap.write_chrome_trace(str(trace_path))
    else:
        payloads, accounting, base_seed, info = _execute_windows(
            backend, config, rspec, population, batch_size, seed, options
        )

    results = [
        window_run_result(
            rspec, payload, backend=backend, master_seed=seed, data=data_desc
        )
        for payload in payloads
    ]
    continual: dict[str, Any] = {
        "accounting": dict(accounting),
        "base_seed": base_seed,
        "backend": backend,
        "n_windows": len({r.data["window"] for r in results}),
        "elapsed_seconds": time.perf_counter() - started,
        **info,
    }
    if telemetry is not None:
        continual["telemetry"] = telemetry
    return RunSequence(results=results, continual=continual)


def _execute_windows(
    backend: str,
    config,
    rspec: ExperimentSpec,
    population,
    batch_size: int,
    seed: int | None,
    options: dict[str, Any],
) -> tuple[list, dict, Any, dict[str, Any]]:
    """Host the window controller on one backend → (payloads, accounting,
    base_seed, backend info)."""
    if backend == "inline":
        from repro.continual.engine import ContinualEngine

        outcome = ContinualEngine(
            config,
            rspec.windows,
            population,
            batch_size=batch_size,
            n_shards=int(options.get("shards", 1)),
            seed=seed,
        ).run()
        payloads = outcome.windows
        accounting = outcome.accounting
        base_seed = outcome.base_seed
        info: dict[str, Any] = {"window_seconds": list(outcome.timings)}
    elif backend == "gateway":
        from repro.server.gateway import CollectionGateway
        from repro.server.loadgen import run_loadgen
        from repro.server.testing import serve_in_thread

        gateway = CollectionGateway(
            config,
            rng=seed,
            n_shards=int(options.get("shards", 1)),
            queue_depth=int(options.get("queue_depth", 64)),
            windows=rspec.windows,
            n_users=int(population.n_users),
        )
        with serve_in_thread(gateway) as handle:
            stats = run_loadgen(
                handle.host,
                handle.port,
                population,
                batch_size=batch_size,
                workers=int(options.get("workers", 0)),
                mp_context=str(options.get("mp_context", "spawn")),
            )
        served = stats.result or {}
        payloads = served.get("windows", [])
        accounting = served.get("accounting", {})
        base_seed = served.get("base_seed")
        info = {
            "total_reports": stats.total_reports,
            "server_status": stats.server_status,
        }
    else:  # cluster
        from repro.cluster.loadgen import run_cluster_loadgen
        from repro.cluster.testing import launch_cluster

        with launch_cluster(
            config,
            n_users=int(population.n_users),
            n_workers=int(options.get("workers", 2)),
            rng=seed,
            windows=rspec.windows,
            queue_depth=int(options.get("queue_depth", 64)),
            checkpoint_every=int(options.get("checkpoint_every", 16)),
            mp_context=str(options.get("mp_context", "spawn")),
        ) as cluster:
            stats = run_cluster_loadgen(
                cluster.host,
                cluster.port,
                population,
                batch_size=batch_size,
                workers=int(options.get("loadgen_workers", 0)),
                mp_context=str(options.get("mp_context", "spawn")),
            )
            restarts = cluster.supervisor.restarts
        served = stats.result or {}
        payloads = served.get("windows", [])
        accounting = served.get("accounting", {})
        base_seed = served.get("base_seed")
        info = {
            "total_reports": stats.total_reports,
            "restarts": restarts,
            "server_status": stats.server_status,
        }

    return payloads, accounting, base_seed, info
