"""Pluggable execution backends behind ``ExperimentSpec.run()``.

Every execution surface the repo has grown — offline extraction, the
streaming :class:`~repro.service.driver.ProtocolDriver`, the socket
:class:`~repro.server.gateway.CollectionGateway` — collects with the same
engine and the same PRF-keyed client randomness, so under one master seed
they are byte-identical.  What differed was the *launching*: each surface had
its own entry point, arguments, and result shape.  This module closes that
gap with one protocol:

* an :class:`Executor` takes one :class:`ExecutionRequest` (a resolved spec,
  a concrete population, a master seed, backend options) and returns one
  :class:`~repro.api.results.RunResult`;
* executors register in :data:`executor_registry` under a backend name, so
  ``spec.run(data, backend="gateway")`` and ``repro run --backend gateway``
  reach them uniformly, and downstream code can register its own.

Built-in backends:

``inline``
    The in-process reference: PrivShape streams through ``ProtocolDriver``
    (any batch size / shard count); other extraction mechanisms run directly
    on the materialized sequences.
``sharded``
    Multiprocess fan-out: each round's client encoding runs in ``shards``
    worker processes over disjoint user-id slices, and the parent merges the
    integer :class:`~repro.service.rounds.RoundAccumulator` states — exact
    because accumulator merge is int64 addition and client randomness is a
    pure PRF of ``(round key, user id)``.
``gateway``
    A real wire boundary: boots a :class:`CollectionGateway` on an ephemeral
    port via :func:`~repro.server.testing.serve_in_thread` and drives the
    population through :func:`~repro.server.loadgen.run_loadgen` sockets.
``cluster``
    Multi-process collection: boots a supervised coordinator and shard
    workers via :func:`~repro.cluster.testing.launch_cluster` and streams
    each user-id slice straight to its owning worker through
    :func:`~repro.cluster.loadgen.run_cluster_loadgen` (the same client
    round loop as ``gateway``, with the cluster's replay policy).
``subprocess``
    CLI-backed isolation: serializes the spec + data spec to JSON, executes
    ``python -m repro.cli run --json`` in a child interpreter, and parses the
    child's :class:`RunResult` document.

Every client-side path encodes through one loop,
:func:`~repro.service.client.round_batches`.  All five backends produce
byte-identical ``estimates`` under the same master seed
(``tests/api/test_executors.py``).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

from repro.api.data import DataSpec, RealizedData, length_percentile
from repro.api.mechanisms import (
    KIND_EXTRACTION,
    available_mechanisms,
    mechanism_registry,
)
from repro.api.registry import Registry
from repro.api.results import (
    TASK_CLASSIFY,
    TASK_CLUSTER,
    TASK_EXTRACT,
    TASK_SHAPELET,
    RunResult,
    accounting_payload,
    estimates_from_extraction,
)
from repro.api.spec import ExperimentSpec
from repro.exceptions import ConfigurationError, ExecutionError
from repro.service.client import round_batches
from repro.service.driver import ProtocolDriver
from repro.service.plan import CollectionPlan, RoundSpec
from repro.service.population import worker_slices
from repro.service.protocol import PrivShapeEngine
from repro.service.rounds import RoundAccumulator, accumulate, new_accumulator


@dataclass
class ExecutionRequest:
    """Everything an executor needs to run one resolved spec."""

    spec: ExperimentSpec
    population: Any
    seed: int | None = None
    data: DataSpec | None = None
    sequences: list | None = None
    options: dict[str, Any] = field(default_factory=dict)

    def option(self, name: str, default: Any = None) -> Any:
        return self.options.get(name, default)


@runtime_checkable
class Executor(Protocol):
    """An execution backend: one request in, one structured artifact out."""

    def __call__(self, request: ExecutionRequest) -> RunResult: ...


#: Options every extract backend accepts.
COMMON_OPTIONS = ("batch_size",)


@dataclass(frozen=True)
class ExecutorEntry:
    """One registered backend: its name, runner, and capabilities."""

    name: str
    run: Callable[[ExecutionRequest], RunResult]
    description: str = ""
    #: Whether the backend re-materializes data in another process and
    #: therefore needs a serializable :class:`DataSpec` (not a live object).
    needs_dataspec: bool = False
    #: Backend-specific option names (beyond :data:`COMMON_OPTIONS`); a
    #: run_spec call naming anything else raises instead of being ignored.
    options: tuple[str, ...] = ()


executor_registry: Registry[ExecutorEntry] = Registry("executor")


def register_executor(
    name: str,
    description: str = "",
    needs_dataspec: bool = False,
    options: tuple[str, ...] = (),
) -> Callable[[Callable[[ExecutionRequest], RunResult]], Callable]:
    """Register an execution backend under ``name``."""

    def decorate(run: Callable[[ExecutionRequest], RunResult]):
        executor_registry.add(
            name,
            ExecutorEntry(
                name=name, run=run, description=description,
                needs_dataspec=needs_dataspec, options=tuple(options),
            ),
        )
        return run

    return decorate


def available_executors() -> tuple[str, ...]:
    """Registered backend names."""
    return executor_registry.names()


# ------------------------------------------------------------------- helpers


def materialize_sequences(population, batch_size: int = 8192) -> list:
    """Decode a (possibly streaming) population back into symbol tuples."""
    sequences = []
    for _, batch in population.iter_batches(batch_size):
        for row in batch.codes:
            sequences.append(batch.decode_row(row))
    return sequences


def _require_privshape(request: ExecutionRequest, backend: str) -> None:
    if request.spec.mechanism != "privshape":
        raise ConfigurationError(
            f"backend {backend!r} streams through the round-based PrivShape "
            f"protocol and cannot run mechanism {request.spec.mechanism!r}; "
            "use backend='inline' (or 'subprocess') for other mechanisms"
        )


def _extraction_result(
    request: ExecutionRequest,
    extraction,
    *,
    backend: str,
    rounds: list[dict[str, Any]] | None = None,
    timings: dict[str, float] | None = None,
    backend_info: dict[str, Any] | None = None,
    elapsed_seconds: float | None = None,
) -> RunResult:
    """Assemble the canonical artifact from one finished extraction."""
    metrics: dict[str, float] = {}
    if elapsed_seconds is not None:
        metrics["elapsed_seconds"] = float(elapsed_seconds)
    return RunResult(
        task=TASK_EXTRACT,
        spec=request.spec,
        backend=backend,
        seed=request.seed,
        estimates=estimates_from_extraction(extraction),
        estimated_length=int(extraction.estimated_length),
        metrics=metrics,
        accounting=accounting_payload(extraction.accountant),
        rounds=rounds or [],
        timings=timings or {},
        backend_info=backend_info or {},
        data={} if request.data is None else request.data.describe(),
    )


# ------------------------------------------------------------ inline backend


@register_executor(
    "inline",
    "in-process execution: streaming ProtocolDriver for PrivShape, direct "
    "extraction for every other registered mechanism",
    options=("shards", "serialize"),
)
def run_inline(request: ExecutionRequest) -> RunResult:
    spec = request.spec
    batch_size = int(request.option("batch_size", 8192))
    n_shards = int(request.option("shards", 1))
    started = time.perf_counter()
    if spec.mechanism == "privshape":
        driver = ProtocolDriver(
            spec,
            request.population,
            batch_size=batch_size,
            n_shards=n_shards,
            serialize=bool(request.option("serialize", False)),
            rng=request.seed,
        )
        extraction = driver.run()
        stats = driver.stats
        return _extraction_result(
            request,
            extraction,
            backend="inline",
            rounds=[r.to_dict() for r in stats.rounds],
            timings={
                "total_reports": stats.total_reports,
                "total_seconds": stats.total_seconds,
                "reports_per_second": stats.reports_per_second,
                "peak_rss_bytes": stats.peak_rss_bytes,
            },
            backend_info={
                "batch_size": batch_size,
                "shards": n_shards,
                "serialize": bool(request.option("serialize", False)),
            },
            elapsed_seconds=time.perf_counter() - started,
        )

    entry = mechanism_registry.get(spec.mechanism)
    if entry.kind != KIND_EXTRACTION:
        raise ConfigurationError(
            f"mechanism {spec.mechanism!r} perturbs raw series instead of "
            "extracting shapes; run it through the cluster/classify tasks "
            f"(extraction mechanisms: {available_mechanisms(KIND_EXTRACTION)})"
        )
    if n_shards != 1 or request.option("serialize"):
        raise ConfigurationError(
            f"mechanism {spec.mechanism!r} extracts in one shot; 'shards' "
            "and 'serialize' only apply to the streaming privshape protocol"
        )
    sequences = (
        request.sequences
        if request.sequences is not None
        else materialize_sequences(request.population, batch_size)
    )
    extraction = entry.build(spec).extract(sequences, rng=request.seed)
    return _extraction_result(
        request,
        extraction,
        backend="inline",
        backend_info={"batch_size": batch_size},
        elapsed_seconds=time.perf_counter() - started,
    )


# ----------------------------------------------------------- sharded backend


#: Per-worker-process population, installed once by the pool initializer so
#: each protocol round only ships (plan, round, slice) — not the data.
_worker_population = None


def _install_worker_population(population) -> None:
    """Pool initializer: pin this worker process's population source."""
    global _worker_population
    _worker_population = population


def _accumulate_assigned_slice(
    plan_dict: dict[str, Any],
    round_dict: dict[str, Any],
    start: int,
    stop: int,
    batch_size: int,
) -> dict[str, Any]:
    """Worker entry point over the initializer-installed population."""
    return accumulate_user_slice(
        _worker_population, plan_dict, round_dict, start, stop, batch_size
    )


def accumulate_user_slice(
    population,
    plan_dict: dict[str, Any],
    round_dict: dict[str, Any],
    start: int,
    stop: int,
    batch_size: int,
) -> dict[str, Any]:
    """One worker's round contribution for the user-id slice ``[start, stop)``.

    Top-level (picklable) so multiprocessing workers can run it.  Returns the
    slice's :class:`RoundAccumulator` state — plain data, exact int64 counts —
    which the parent merges; the merge order cannot matter because integer
    addition is associative and commutative.
    """
    plan = CollectionPlan.from_dict(plan_dict)
    spec = RoundSpec.from_dict(round_dict)
    accumulator = new_accumulator(spec)
    n_reports = 0
    for batch, _ in round_batches(population, plan, spec, start, stop, batch_size):
        accumulate(spec, accumulator, batch.payload)
        n_reports += len(batch)
    assert accumulator.n_reports == n_reports
    return accumulator.to_state()


@register_executor(
    "sharded",
    "multiprocess execution: per-round client encoding fans out over worker "
    "processes on disjoint user-id slices; integer accumulator merge is exact",
    options=("shards", "mp_context"),
)
def run_sharded(request: ExecutionRequest) -> RunResult:
    _require_privshape(request, "sharded")
    shards = int(request.option("shards", 2))
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    batch_size = int(request.option("batch_size", 8192))
    mp_context = str(request.option("mp_context", "spawn"))
    n_users = int(request.population.n_users)

    engine = PrivShapeEngine(request.spec.to_privshape_config(), rng=request.seed)
    rounds: list[dict[str, Any]] = []
    started = time.perf_counter()
    context = multiprocessing.get_context(mp_context)
    slices = worker_slices(n_users, shards)
    # The population ships to each worker exactly once (initializer); the
    # per-round messages carry only the plan, the round spec, and a slice.
    with context.Pool(
        len(slices),
        initializer=_install_worker_population,
        initargs=(request.population,),
    ) as pool:
        while (round_spec := engine.open_round()) is not None:
            round_started = time.perf_counter()
            states = pool.starmap(
                _accumulate_assigned_slice,
                [
                    (engine.plan.to_dict(), round_spec.to_dict(),
                     start, stop, batch_size)
                    for start, stop in slices
                ],
            )
            aggregate = new_accumulator(round_spec)
            for state in states:
                aggregate.merge(RoundAccumulator.from_state(state))
            engine.close_round(round_spec, aggregate)
            rounds.append(
                {
                    "round": round_spec.index,
                    "kind": round_spec.kind,
                    "level": round_spec.level,
                    "reports": aggregate.n_reports,
                    "elapsed_seconds": time.perf_counter() - round_started,
                }
            )
    extraction = engine.finalize()
    total_seconds = time.perf_counter() - started
    total_reports = sum(r["reports"] for r in rounds)
    return _extraction_result(
        request,
        extraction,
        backend="sharded",
        rounds=rounds,
        timings={
            "total_reports": total_reports,
            "total_seconds": total_seconds,
            "reports_per_second": (
                total_reports / total_seconds if total_seconds > 0 else 0.0
            ),
        },
        backend_info={
            "batch_size": batch_size,
            "shards": len(slices),
            "mp_context": mp_context,
        },
        elapsed_seconds=total_seconds,
    )


# ----------------------------------------------------------- gateway backend


@register_executor(
    "gateway",
    "socket execution: boots a CollectionGateway on an ephemeral port and "
    "drives the population through the NDJSON wire protocol",
    options=("shards", "workers", "queue_depth", "mp_context"),
)
def run_gateway(request: ExecutionRequest) -> RunResult:
    _require_privshape(request, "gateway")
    # Imported lazily: repro.server pulls asyncio and is itself imported by
    # the top-level package after repro.api.
    from repro.server.gateway import CollectionGateway
    from repro.server.loadgen import run_loadgen
    from repro.server.testing import serve_in_thread

    n_shards = int(request.option("shards", 1))
    batch_size = int(request.option("batch_size", 8192))
    workers = int(request.option("workers", 0))
    gateway = CollectionGateway(
        request.spec.to_privshape_config(),
        rng=request.seed,
        n_shards=n_shards,
        queue_depth=int(request.option("queue_depth", 64)),
    )
    started = time.perf_counter()
    with serve_in_thread(gateway) as handle:
        host, port = handle.host, handle.port
        stats = run_loadgen(
            host,
            port,
            request.population,
            batch_size=batch_size,
            workers=workers,
            mp_context=str(request.option("mp_context", "spawn")),
        )
    elapsed = time.perf_counter() - started
    payload = stats.result or {}
    estimates = [
        {"shape": shape, "estimated_count": float(count)}
        for shape, count in zip(payload.get("shapes", []),
                                payload.get("frequencies", []))
    ]
    return RunResult(
        task=TASK_EXTRACT,
        spec=request.spec,
        backend="gateway",
        seed=request.seed,
        estimates=estimates,
        estimated_length=payload.get("estimated_length"),
        metrics={"elapsed_seconds": elapsed},
        accounting=dict(payload.get("accounting", {})),
        rounds=[r.to_dict() for r in stats.rounds],
        timings={
            "total_reports": stats.total_reports,
            "total_seconds": stats.total_seconds,
            "reports_per_second": stats.reports_per_second,
        },
        backend_info={
            "host": host,
            "port": port,
            "shards": n_shards,
            "batch_size": batch_size,
            "workers": workers,
            "server_status": stats.server_status,
        },
        data={} if request.data is None else request.data.describe(),
    )


# ----------------------------------------------------------- cluster backend


@register_executor(
    "cluster",
    "multi-process execution: boots a supervised coordinator/worker cluster "
    "and streams each user-id slice straight to its owning shard worker",
    options=("workers", "queue_depth", "checkpoint_every", "loadgen_workers",
             "mp_context", "kill_round", "kill_worker", "kill_after_batches"),
)
def run_cluster(request: ExecutionRequest) -> RunResult:
    _require_privshape(request, "cluster")
    # Imported lazily for the same reason as the gateway backend.
    from repro.cluster.loadgen import ChaosKill, run_cluster_loadgen
    from repro.cluster.testing import launch_cluster

    n_workers = int(request.option("workers", 2))
    batch_size = int(request.option("batch_size", 8192))
    loadgen_workers = int(request.option("loadgen_workers", 0))
    mp_context = str(request.option("mp_context", "spawn"))
    kill_round = request.option("kill_round", None)
    chaos = None
    if kill_round is not None:
        # Fault injection: SIGKILL one shard worker mid-round and prove the
        # supervised recovery leaves the estimates untouched.
        chaos = ChaosKill(
            round_index=int(kill_round),
            worker_index=int(request.option("kill_worker", 0)),
            after_batches=int(request.option("kill_after_batches", 1)),
        )
    started = time.perf_counter()
    with launch_cluster(
        request.spec.to_privshape_config(),
        n_users=request.population.n_users,
        n_workers=n_workers,
        rng=request.seed,
        queue_depth=int(request.option("queue_depth", 64)),
        checkpoint_every=int(request.option("checkpoint_every", 16)),
        mp_context=mp_context,
    ) as cluster:
        host, port = cluster.host, cluster.port
        stats = run_cluster_loadgen(
            host,
            port,
            request.population,
            batch_size=batch_size,
            workers=loadgen_workers,
            mp_context=mp_context,
            chaos=chaos,
        )
        restarts = cluster.supervisor.restarts
    elapsed = time.perf_counter() - started
    payload = stats.result or {}
    estimates = [
        {"shape": shape, "estimated_count": float(count)}
        for shape, count in zip(payload.get("shapes", []),
                                payload.get("frequencies", []))
    ]
    return RunResult(
        task=TASK_EXTRACT,
        spec=request.spec,
        backend="cluster",
        seed=request.seed,
        estimates=estimates,
        estimated_length=payload.get("estimated_length"),
        metrics={"elapsed_seconds": elapsed},
        accounting=dict(payload.get("accounting", {})),
        rounds=[r.to_dict() for r in stats.rounds],
        timings={
            "total_reports": stats.total_reports,
            "total_seconds": stats.total_seconds,
            "reports_per_second": stats.reports_per_second,
        },
        backend_info={
            "host": host,
            "port": port,
            "n_workers": n_workers,
            "batch_size": batch_size,
            "loadgen_workers": loadgen_workers,
            "restarts": restarts,
            "retries": stats.retries,
            "server_status": stats.server_status,
        },
        data={} if request.data is None else request.data.describe(),
    )


# -------------------------------------------------------- subprocess backend


@register_executor(
    "subprocess",
    "CLI-backed execution: serializes the spec + data spec and runs "
    "`python -m repro.cli run --json` in a child interpreter",
    needs_dataspec=True,
    options=("inner_backend", "timeout", "shards", "workers", "queue_depth",
             "mp_context", "serialize"),
)
def run_subprocess(request: ExecutionRequest) -> RunResult:
    if request.data is None:
        raise ConfigurationError(
            "backend 'subprocess' re-materializes the population in a child "
            "process and therefore needs a serializable DataSpec, not a live "
            "population object"
        )
    inner_backend = str(request.option("inner_backend", "inline"))
    if inner_backend == "subprocess":
        raise ConfigurationError("inner_backend cannot itself be 'subprocess'")
    timeout = float(request.option("timeout", 600.0))
    task = str(request.option("task", TASK_EXTRACT))
    with tempfile.TemporaryDirectory(prefix="repro-run-") as tmp:
        spec_path = Path(tmp) / "spec.json"
        data_path = Path(tmp) / "data.json"
        spec_path.write_text(request.spec.to_json(), encoding="utf-8")
        data_path.write_text(request.data.to_json(), encoding="utf-8")
        # The child CLI's --seed defaults to 0, which would silently turn an
        # unseeded run deterministic; preserve seed=None's fresh-entropy
        # semantics by drawing the master seed here, and record it (the
        # artifact then reports the seed that actually ran).
        seed = request.seed
        if seed is None:
            seed = int(np.random.SeedSequence().generate_state(1)[0])
        argv = [
            sys.executable, "-m", "repro.cli", "run",
            "--backend", inner_backend,
            "--task", task,
            "--spec", str(spec_path),
            "--data-spec", str(data_path),
            "--seed", str(int(seed)),
            "--json",
        ]
        if task in (TASK_EXTRACT, TASK_SHAPELET):
            # Collection knob; the inline evaluation tasks reject it.
            argv[-1:-1] = [
                "--batch-size", str(int(request.option("batch_size", 8192)))
            ]
        # Every backend option the child CLI understands is forwarded, so the
        # caller's fan-out configuration survives the process hop.
        for name, flag, convert in [
            ("shards", "--shards", int),
            ("workers", "--workers", int),
            ("queue_depth", "--queue-depth", int),
            ("evaluation_size", "--evaluation-size", int),
            ("mp_context", "--mp-context", str),
        ]:
            value = request.option(name)
            if value is not None:
                argv += [flag, str(convert(value))]
        if request.option("serialize"):
            argv += ["--serialize"]
        # The child must import the same repro tree as the parent even when
        # the package is not installed (PYTHONPATH=src workflows).
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )
        started = time.perf_counter()
        try:
            completed = subprocess.run(
                argv, capture_output=True, text=True, timeout=timeout, env=env,
            )
        except subprocess.TimeoutExpired as exc:
            raise ExecutionError(
                f"subprocess run exceeded {timeout:.0f}s: {' '.join(argv)}"
            ) from exc
        elapsed = time.perf_counter() - started
    if completed.returncode != 0:
        tail = (completed.stderr or "").strip().splitlines()[-5:]
        raise ExecutionError(
            f"subprocess run exited with code {completed.returncode}: "
            + " | ".join(tail)
        )
    try:
        result = RunResult.from_dict(json.loads(completed.stdout))
    except (json.JSONDecodeError, ValueError) as exc:
        raise ExecutionError(
            f"subprocess run emitted an unparsable result: {exc}"
        ) from exc
    result.backend = "subprocess"
    result.backend_info = {
        "inner_backend": inner_backend,
        "argv": argv,
        "returncode": completed.returncode,
        "elapsed_seconds": elapsed,
        # Preserve how the inner run was actually configured (gateway
        # host/port, sharding, ...) — provenance must survive the hop.
        "inner_info": result.backend_info,
    }
    return result


# ------------------------------------------------------------- orchestration


def _run_task_pipeline(
    spec: ExperimentSpec,
    data,
    task: str,
    seed,
    options: dict[str, Any],
    cache: dict | None = None,
) -> RunResult:
    """Cluster/classify evaluation tasks (inline pipelines) as a RunResult."""
    # Imported lazily: core.pipeline <-> repro.api is the one import cycle in
    # the tree; it is only resolvable at call time.
    from repro.core.pipeline import run_classification_task, run_clustering_task

    data_spec = data if isinstance(data, DataSpec) else None
    if isinstance(data, DataSpec):
        if not data.labeled:
            raise ConfigurationError(
                f"task {task!r} evaluates against class labels; data source "
                f"{data.source!r} has none"
            )
        key = (data, "dataset")
        dataset = None if cache is None else cache.get(key)
        if dataset is None:
            dataset = data.build_dataset()
            if cache is not None:
                cache[key] = dataset
    elif hasattr(data, "series") and hasattr(data, "labels"):
        dataset = data
    else:
        raise ConfigurationError(
            f"task {task!r} needs a labelled dataset (a DataSpec naming one, "
            f"or a LabeledDataset); got {type(data).__name__}"
        )
    evaluation_size = int(options.get("evaluation_size", 500))
    if task == TASK_CLUSTER:
        result = run_clustering_task(
            dataset, spec=spec, evaluation_size=evaluation_size, rng=seed
        )
    else:
        result = run_classification_task(
            dataset, spec=spec, evaluation_size=evaluation_size, rng=seed
        )
    run = result.to_run_result(seed=seed)
    run.data = (
        data_spec.describe()
        if data_spec is not None
        else {"source": "dataset", "name": dataset.name, "n_users": len(dataset)}
    )
    run.details.setdefault("dataset", dataset.name)
    run.details.setdefault("n_users", len(dataset))
    return run


def _coerce_population(
    spec: ExperimentSpec, data, cache: dict | None = None
) -> RealizedData:
    """Turn whatever the caller handed us into a concrete, resolved request."""
    if isinstance(data, DataSpec):
        return data.realize(spec, cache=cache)
    if hasattr(data, "series") and hasattr(data, "labels"):
        # A live LabeledDataset: symbolize it exactly like DataSpec.realize.
        from repro.service.population import EncodedPopulation

        sequences = spec.sax.build_transformer().transform_dataset(data.series)
        resolved = spec.resolve(
            top_k=data.n_classes,
            length_high=length_percentile([len(s) for s in sequences]),
        )
        return RealizedData(
            population=EncodedPopulation.from_sequences(sequences, spec.sax.alphabet),
            spec=resolved,
            meta={"dataset": data.name},
            dataset=data,
            sequences=sequences,
        )
    if hasattr(data, "iter_range") and hasattr(data, "n_users"):
        # A live population source (EncodedPopulation, SyntheticShapeStream,
        # or anything speaking the same protocol).  An EncodedPopulation
        # exposes its sequence lengths, so length_high can still be resolved;
        # top_k falls back to 3 extracted shapes when the spec leaves it open.
        resolved = spec
        lengths = getattr(data, "lengths", None)
        if lengths is not None and spec.collection.length_high is None:
            resolved = resolved.resolve(length_high=length_percentile(lengths))
        if resolved.collection.top_k is None:
            resolved = resolved.resolve(top_k=3)
        return RealizedData(population=data, spec=resolved)
    if isinstance(data, (list, tuple)):
        from repro.service.population import EncodedPopulation

        sequences = [tuple(s) for s in data]
        resolved = spec.resolve(
            top_k=3,
            length_high=length_percentile([len(s) for s in sequences])
            if sequences else None,
        )
        return RealizedData(
            population=EncodedPopulation.from_sequences(sequences, spec.sax.alphabet),
            spec=resolved,
            sequences=sequences,
        )
    raise ConfigurationError(
        "data must be a DataSpec, a LabeledDataset, a population source "
        f"(iter_range/n_users), or a sequence list; got {type(data).__name__}"
    )


def run_spec(
    spec: ExperimentSpec,
    data,
    *,
    backend: str = "inline",
    task: str = TASK_EXTRACT,
    seed: int | None = None,
    cache: dict | None = None,
    **options: Any,
) -> RunResult:
    """Execute ``spec`` on ``data`` with the named backend → :class:`RunResult`.

    This is the single dispatch point behind :meth:`ExperimentSpec.run` and
    ``repro run``.  ``task="extract"`` runs the collection itself on any
    registered backend; the evaluation tasks (``cluster`` / ``classify``)
    wrap the paper's pipelines and run ``inline`` (or via ``subprocess``,
    which forwards the task to a child CLI).  ``cache`` is an optional
    caller-owned dict memoizing dataset generation + SAX encoding across
    calls that share a :class:`DataSpec` (the sweep harness passes one per
    sweep).

    Two telemetry options are accepted by every backend and task:
    ``telemetry=True`` runs under a recording tracer/profiler
    (:func:`repro.obs.capture`) and attaches its summary as
    ``result.telemetry``; ``trace="out.json"`` additionally writes the spans
    as Chrome-trace JSON (implies ``telemetry=True``).  Neither touches any
    random generator, so fingerprints are unchanged.
    """
    from repro.api.tasks import task_registry

    task_registry.get(task)  # unknown task names fail here, uniformly
    telemetry_enabled = bool(options.pop("telemetry", False))
    trace_path = options.pop("trace", None)
    if spec.windows is not None:
        # A windowed spec executes to a per-window RunResult sequence; the
        # continual dispatcher owns backend/option validation for that path.
        if task != TASK_EXTRACT:
            raise ConfigurationError(
                f"a windowed spec only runs task 'extract', got {task!r}"
            )
        from repro.api.continual import run_windows

        return run_windows(
            spec, data, backend=backend, seed=seed, cache=cache,
            telemetry=telemetry_enabled, trace=trace_path, **options,
        )
    if not telemetry_enabled and trace_path is None:
        return _run_spec_dispatch(spec, data, backend, task, seed, cache, options)
    from repro.obs import capture

    with capture() as cap:
        result = _run_spec_dispatch(spec, data, backend, task, seed, cache, options)
    result.telemetry = cap.summary()
    if trace_path is not None:
        cap.write_chrome_trace(str(trace_path))
    return result


def _run_spec_dispatch(
    spec: ExperimentSpec,
    data,
    backend: str,
    task: str,
    seed: int | None,
    cache: dict | None,
    options: dict[str, Any],
) -> RunResult:
    """Validate options and execute one non-windowed run (see run_spec)."""
    from repro.api.tasks import task_registry

    entry = executor_registry.get(backend)
    tentry = task_registry.get(task)
    # One up-front accepted-option set per (task, backend): a misspelled or
    # inert knob (shard= for shards=, shards on a single-process evaluation
    # task, evaluation_size on a collection run) silently running with
    # defaults is worse than an error.
    if tentry.all_backends:
        known = set(COMMON_OPTIONS) | set(entry.options) | set(tentry.options)
    else:
        known = set(tentry.options)
        if backend == "subprocess":
            known |= {"inner_backend", "timeout"}
    unknown = set(options) - known
    if unknown:
        raise ConfigurationError(
            f"unknown or inert option(s) {sorted(unknown)} for backend "
            f"{backend!r}, task {task!r}; accepted: {sorted(known)}"
        )
    if not tentry.all_backends:
        if backend == "subprocess":
            request = ExecutionRequest(
                spec=spec,
                population=None,
                seed=seed,
                data=data if isinstance(data, DataSpec) else None,
                options={**options, "task": task},
            )
            return entry.run(request)
        if backend != "inline":
            raise ConfigurationError(
                f"task {task!r} evaluates through the inline pipelines; "
                f"backend {backend!r} only runs task 'extract'"
            )
        return _run_task_pipeline(spec, data, task, seed, options, cache)
    if task == TASK_SHAPELET and not entry.needs_dataspec:
        # Shapelet runs extraction through the chosen backend, then a
        # deterministic in-process discover/transform/classify stage; the
        # runner owns data coercion (it also needs the labelled dataset).
        from repro.tasks.shapelet.runner import run_shapelet_task

        return run_shapelet_task(
            spec, data,
            backend=backend, entry=entry, seed=seed, cache=cache,
            options=options,
        )

    if entry.needs_dataspec:
        if not isinstance(data, DataSpec):
            raise ConfigurationError(
                f"backend {backend!r} needs a serializable DataSpec describing "
                "the population (it re-materializes the data elsewhere)"
            )
        # The population materializes in the other process; hand the backend
        # the raw description and let the far side realize + resolve it.
        request = ExecutionRequest(
            spec=spec, population=None, seed=seed, data=data,
            options={**options, "task": task},
        )
        return entry.run(request)
    realized = _coerce_population(spec, data, cache)
    realized.spec._require_concrete()
    request = ExecutionRequest(
        spec=realized.spec,
        population=realized.population,
        seed=seed,
        data=data if isinstance(data, DataSpec) else None,
        sequences=realized.sequences,
        options={**options, "task": task},
    )
    result = entry.run(request)
    if realized.meta:
        for key, value in realized.meta.items():
            result.details.setdefault(key, value)
    return result
