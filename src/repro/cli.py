"""Command-line interface for the PrivShape reproduction.

The canonical execution surface is ``repro run`` — one spec, one population,
one ``--backend`` — and ``repro sweep`` for grids:

* ``run``       — execute one experiment spec on a chosen backend
  (``inline`` / ``sharded`` / ``gateway`` / ``subprocess``) and print the
  structured :class:`~repro.api.results.RunResult` artifact;
* ``sweep``     — expand a :class:`~repro.api.sweep.SweepSpec` grid
  (epsilons × mechanisms × SAX parameters × datasets) on any backend, with
  optional ``--parallel`` fan-out, and print the
  :class:`~repro.api.sweep.SweepResult`;
* ``cluster``   — the paper's clustering-task evaluation for one mechanism;
* ``classify``  — the paper's classification-task evaluation;
* ``serve``     — run the network-facing collection gateway (NDJSON over TCP
  + HTTP ``/status`` / ``/result``), with optional durable checkpoints and
  ``--resume`` crash recovery;
* ``loadgen``   — hammer a running gateway or cluster coordinator (plain or
  windowed) with the synthetic population over the socket, optionally from
  multiple worker processes.

Two legacy sub-commands remain as deprecated shims over the same path:
``extract`` (= ``run --task extract``) and ``simulate``
(= ``run --dataset synthetic``); they keep their flags and emit a
``DeprecationWarning``.

Datasets are the built-in generators (``symbols``, ``trace``, ``waves``),
the constant-memory ``synthetic`` template stream, or a UCR-format file
passed with ``--ucr-file``.  Every sub-command accepts ``--json`` for
machine-readable output; run/cluster/classify/extract print one
:class:`RunResult` document (estimates, per-round accounting, timings,
backend metadata, spec echo) with normalized key names across sub-commands.

Examples
--------
::

    python -m repro.cli run --dataset trace --users 10000 --epsilon 4
    python -m repro.cli run --dataset synthetic --users 200000 --backend gateway --shards 4
    python -m repro.cli sweep --task extract --dataset synthetic --epsilons 1 2 4 --backend inline
    python -m repro.cli classify --dataset trace --mechanism privshape --epsilon 2
    python -m repro.cli cluster --ucr-file Symbols_TRAIN.tsv --epsilon 4 --alphabet-size 6
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import sys
import warnings
from pathlib import Path
from typing import Any, Sequence

from repro import __version__
from repro.api import (
    CollectionSpec,
    DataSpec,
    ExperimentSpec,
    PrivacySpec,
    RunResult,
    SAXSpec,
    SweepSpec,
    available_executors,
    available_mechanisms,
)
from repro.api.sweep import AXIS_ORDER
from repro.exceptions import ReproError
from repro.server import CollectionGateway, GatewayClient, publish_port, run_loadgen

#: Dataset sources selectable with --dataset (DataSpec sources).
DATASET_CHOICES = ("trace", "symbols", "waves", "synthetic")


#: One-shot guard: main() must not grow warnings.filters on every call when
#: embedded (tests, programmatic drivers invoke it repeatedly).
_deprecations_visible = False


def _ensure_deprecations_visible() -> None:
    """Show this CLI's DeprecationWarnings regardless of the entry point.

    Python's default filters only display DeprecationWarning raised from
    ``__main__``, which would hide the extract/simulate notices when the CLI
    runs through the installed ``repro`` console script (module
    ``repro.cli``).  Installed once per process, and never when the user
    configured warnings explicitly (``-W`` / ``PYTHONWARNINGS``) — e.g.
    ``-W error::DeprecationWarning`` must stay fatal.
    """
    global _deprecations_visible
    if not _deprecations_visible and not sys.warnoptions:
        warnings.filterwarnings(
            "default", category=DeprecationWarning,
            module=r"(repro\.cli|__main__)$",
        )
    _deprecations_visible = True


def _deprecated(old: str, new: str) -> None:
    """Emit one DeprecationWarning for a legacy CLI surface (kept working)."""
    warnings.warn(
        f"`repro {old}` is deprecated; use `repro {new}` instead "
        "(same results, structured RunResult output)",
        DeprecationWarning,
        stacklevel=3,
    )


def _emit(args: argparse.Namespace, payload: dict[str, Any], text: str) -> None:
    """Print the machine-readable or human-readable form of one result."""
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _load_json_file(path: str, kind: str, parse) -> Any:
    """Load and parse one JSON document file with CLI-grade errors."""
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise SystemExit(f"cannot read {kind} file {path!r}: {exc}") from exc
    except (json.JSONDecodeError, ReproError, TypeError, ValueError) as exc:
        # Malformed JSON, unknown fields (TypeError), or invalid values
        # (library ConfigurationError and friends).
        raise SystemExit(f"invalid {kind} file {path!r}: {exc}") from exc


def _load_spec(path: str) -> ExperimentSpec:
    """Load a serialized :class:`ExperimentSpec` from a JSON file."""
    return _load_json_file(path, "spec", ExperimentSpec.from_json)


# --------------------------------------------------------------- spec building


def _default_sax(args: argparse.Namespace) -> tuple[int, int]:
    """Dataset-appropriate SAX defaults when the user did not override them."""
    alphabet_size = args.alphabet_size
    segment_length = args.segment_length
    symbols = args.dataset == "symbols" and not args.ucr_file
    if alphabet_size is None:
        alphabet_size = 6 if symbols else 4
    if segment_length is None:
        segment_length = 25 if symbols else 10
    return alphabet_size, segment_length


def _spec_from_args(args: argparse.Namespace, default_metric: str) -> ExperimentSpec:
    """The experiment spec requested on the command line (file or flags)."""
    if args.spec:
        return _load_spec(args.spec)
    alphabet_size, segment_length = _default_sax(args)
    # Task-level knobs ride spec.options so they serialize with the spec
    # (surviving --backend subprocess and sweep grids).
    options: dict[str, Any] = {}
    for attr, key in (("n_shapelets", "n_shapelets"),
                      ("shapelet_min_length", "shapelet_min_length"),
                      ("shapelet_max_length", "shapelet_max_length")):
        value = getattr(args, attr, None)
        if value is not None:
            options[key] = value
    return ExperimentSpec(
        mechanism=args.mechanism,
        privacy=PrivacySpec(epsilon=args.epsilon),
        sax=SAXSpec(alphabet_size=alphabet_size, segment_length=segment_length),
        collection=CollectionSpec(
            top_k=args.top_k,
            metric=args.metric or default_metric,
        ),
        options=options,
    )


def _data_from_args(
    args: argparse.Namespace, source: str | None = None
) -> DataSpec:
    """The population description requested on the command line.

    ``source`` overrides ``--dataset`` (the sweep's ``--datasets`` axis
    builds one DataSpec per named source from the same remaining flags).
    """
    if source is None:
        if getattr(args, "data_spec", None):
            return _load_json_file(args.data_spec, "data spec", DataSpec.from_json)
        if args.ucr_file:
            return DataSpec(source="ucr", path=args.ucr_file)
        source = args.dataset
    return DataSpec(
        source=source,
        n_users=args.users,
        seed=args.seed,
        n_templates=getattr(args, "templates", 6),
        template_length=getattr(args, "template_length", 5),
        length_jitter=getattr(args, "length_jitter", 0.2),
        wave_length=getattr(args, "wave_length", 400),
    )


def _default_metric(data: DataSpec, task: str) -> str:
    """The task/data-appropriate distance metric default."""
    if data.source == "synthetic" or task in ("classify", "shapelet"):
        return "sed"
    return "dtw"


def _backend_options(args: argparse.Namespace, task: str) -> dict[str, Any]:
    """Backend options actually set on the command line, scoped to the task.

    ``evaluation_size`` only reaches the evaluation tasks and the collection
    knobs only reach extract runs, so an inert flag raises in `run_spec`
    instead of being forwarded and silently ignored.
    """
    options: dict[str, Any] = {}
    # Telemetry is accepted by every task/backend (run_spec pops it before
    # the per-backend option validation).
    if getattr(args, "telemetry", False):
        options["telemetry"] = True
    if getattr(args, "trace", None):
        options["trace"] = args.trace
    if task in ("cluster", "classify"):
        if getattr(args, "evaluation_size", None) is not None:
            options["evaluation_size"] = args.evaluation_size
        return options
    if task == "shapelet" and getattr(args, "evaluation_size", None) is not None:
        # Shapelet takes both: collection knobs drive the extraction phase,
        # evaluation_size bounds the labelled scoring pool.
        options["evaluation_size"] = args.evaluation_size
    for name in ("batch_size", "shards", "workers", "queue_depth",
                 "mp_context"):
        value = getattr(args, name, None)
        if value is not None:
            options[name] = value
    if getattr(args, "serialize", False):
        options["serialize"] = True
    return options


# ---------------------------------------------------------------- emitting


def _dataset_and_users(result: RunResult) -> tuple[Any, Any]:
    """The display (dataset name, user count) of one run, wherever stamped."""
    dataset = result.details.get(
        "dataset", result.data.get("name", result.data.get("source"))
    )
    users = result.details.get("n_users", result.data.get("n_users"))
    return dataset, users


def _run_payload(command: str, result: RunResult) -> dict[str, Any]:
    """One normalized ``--json`` document for a finished run.

    The document is the :class:`RunResult` serialization itself, plus a few
    flattened convenience keys every sub-command spells identically
    (``epsilon`` — never ``eps`` —, ``mechanism``, ``dataset``, ``users``,
    lowercase ``ari`` / ``accuracy``).
    """
    payload = {"command": command, **result.to_dict()}
    payload["mechanism"] = result.spec.mechanism
    payload["epsilon"] = float(result.spec.privacy.epsilon)
    payload["dataset"], payload["users"] = _dataset_and_users(result)
    payload["shapes"] = [dict(entry) for entry in result.estimates]
    if result.estimated_length is not None:
        payload["estimated_length"] = result.estimated_length
    for metric in ("ari", "accuracy", "elapsed_seconds"):
        if metric in result.metrics:
            payload[metric] = float(result.metrics[metric])
    grouped = result.shapes_by_class()
    if grouped:
        payload["shapes_by_class"] = {
            str(label): shapes for label, shapes in sorted(grouped.items())
        }
    return payload


def _accounting_lines(result: RunResult) -> list[str]:
    accounting = result.accounting
    if not accounting:
        return []
    lines = []
    per_population = accounting.get("per_population", {})
    if per_population:
        lines.append(
            "population budgets: "
            + ", ".join(f"{name}={value:g}" for name, value in per_population.items())
        )
    if "user_level_epsilon" in accounting:
        verdict = "within budget" if accounting.get("within_budget") else "OVER BUDGET"
        lines.append(
            f"effective user-level epsilon {accounting['user_level_epsilon']:g} "
            f"({verdict})"
        )
    return lines


def _run_text(result: RunResult) -> str:
    """Human-readable rendering of one RunResult."""
    dataset, users = _dataset_and_users(result)
    lines = [
        f"task: {result.task}  backend: {result.backend}",
        f"dataset: {dataset or '?'} ({users if users is not None else '?'} users)",
        f"mechanism: {result.spec.mechanism}, "
        f"epsilon = {result.spec.privacy.epsilon}",
    ]
    for metric in ("ari", "accuracy"):
        if metric in result.metrics:
            lines.append(f"{metric.upper() if metric == 'ari' else metric} = "
                         f"{result.metrics[metric]:.3f}")
    if "elapsed_seconds" in result.metrics:
        lines.append(f"elapsed = {result.metrics['elapsed_seconds']:.2f}s")
    if result.estimated_length is not None:
        lines.append(f"estimated frequent length: {result.estimated_length}")
    grouped = result.shapes_by_class()
    if grouped:
        lines.append("per-class shapes:")
        for label, shapes in sorted(grouped.items()):
            lines.append(f"  class {label}: {', '.join(shapes) if shapes else '-'}")
    elif result.estimates:
        lines.append("top shapes:")
        for entry in result.estimates:
            count = entry.get("estimated_count")
            suffix = "" if count is None else f" estimated count {count:12.1f}"
            lines.append(f"  {entry['shape']:<16}{suffix}")
    shapelets = result.details.get("shapelets")
    if result.task == "shapelet" and shapelets:
        lines.append("shapelets (gain / threshold):")
        for entry in shapelets:
            lines.append(
                f"  {entry['symbols']:<16} gain {entry['gain']:.3f}  "
                f"threshold {entry['threshold']:.4f}"
            )
    truth = result.details.get("ground_truth_shapes")
    if truth:
        lines.append(f"ground truth: {', '.join(truth)}")
    if result.timings.get("total_reports"):
        lines.append(
            f"total: {result.timings['total_reports']} reports in "
            f"{result.timings.get('total_seconds', 0.0):.2f}s "
            f"= {result.timings.get('reports_per_second', 0.0):,.0f} reports/sec"
        )
    lines.extend(_accounting_lines(result))
    return "\n".join(lines)


# --------------------------------------------------------------- sub-commands


def _execute(args: argparse.Namespace, task: str, backend: str) -> RunResult:
    """Shared spec-building + execution path of run/extract/cluster/classify."""
    data = _data_from_args(args)
    spec = _spec_from_args(args, _default_metric(data, task))
    try:
        return spec.run(
            data, backend=backend, task=task, seed=args.seed,
            **_backend_options(args, task),
        )
    except ReproError as exc:
        raise SystemExit(f"run failed: {exc}") from exc


def _command_run(args: argparse.Namespace) -> int:
    result = _execute(args, task=args.task, backend=args.backend)
    _emit(args, _run_payload("run", result), _run_text(result))
    return 0


def _windows_payload(sequence) -> dict[str, Any]:
    """One ``--json`` document for a finished continual run."""
    return {"command": "windows", **sequence.to_dict()}


def _windows_text(sequence) -> str:
    """Human-readable rendering of one RunSequence."""
    continual = sequence.continual
    lines = [
        f"continual run: {len(sequence)} closed windows "
        f"({len(sequence.final_results)} final) on backend "
        f"{continual.get('backend', '?')}"
    ]
    for result in sequence:
        data = result.data
        drift = result.details.get("drift") or {}
        mark = "final" if data.get("final") else "superseded"
        line = (
            f"  window {data['window']} [{data['start']}:{data['stop']}] "
            f"attempt {data['attempt']} {data['mode']:<7} {mark}: "
            + (", ".join(result.shapes) or "-")
        )
        if drift:
            line += f"  (l1 drift {drift.get('l1', 0.0):.3f}"
            if drift.get("fired"):
                line += ", re-extraction FIRED"
            line += ")"
        lines.append(line)
    accounting = continual.get("accounting", {})
    if accounting:
        verdict = (
            "within budget" if accounting.get("within_budget") else "OVER BUDGET"
        )
        lines.append(
            f"user-level epsilon {accounting.get('user_level_epsilon', 0.0):g} "
            f"over the whole stream; {accounting.get('user_horizon', '?')}-window "
            f"horizon epsilon "
            f"{accounting.get('user_level_epsilon_horizon', 0.0):g} ({verdict})"
        )
    return "\n".join(lines)


def _drifting_population(args: argparse.Namespace, spec: ExperimentSpec):
    """The scripted-drift synthetic stream the windows sub-command runs on.

    Template pool and base weights match the ``synthetic`` DataSpec source;
    every ``--breakpoint`` flips to the reversed popularity profile and back,
    so the dominant shape changes at each scripted arrival index.
    """
    from repro.service.population import DriftingShapeStream, default_templates

    alphabet = tuple(spec.sax.alphabet)
    templates = default_templates(
        alphabet,
        n_templates=args.templates,
        length=args.template_length,
        rng=args.seed,
    )
    base = tuple(1.0 / (rank + 1) for rank in range(len(templates)))
    breakpoints = tuple(sorted(int(b) for b in (args.breakpoints or [])))
    mixtures = tuple(
        base if segment % 2 == 0 else tuple(reversed(base))
        for segment in range(len(breakpoints) + 1)
    )
    return DriftingShapeStream(
        n_users=args.users,
        alphabet=alphabet,
        templates=tuple(templates),
        weights=base,
        seed=args.seed,
        length_jitter=args.length_jitter,
        breakpoints=breakpoints,
        mixtures=mixtures,
    )


def _command_windows(args: argparse.Namespace) -> int:
    from repro.continual import WindowSpec

    windows = WindowSpec(
        length=args.window_length,
        stride=args.stride,
        n_windows=args.n_windows,
        budget_renewal=args.budget_renewal,
        carry_over=not args.no_carry_over,
        decay=args.decay,
        refresh=args.refresh,
        refresh_fraction=args.refresh_fraction,
        drift_threshold=args.drift_threshold,
        churn_threshold=args.churn_threshold,
        hysteresis=args.hysteresis,
    )
    spec = dataclasses.replace(_spec_from_args(args, "sed"), windows=windows)
    population = _drifting_population(args, spec)
    # Live streams expose no sequence lengths, so resolve the open spec slots
    # the way the synthetic DataSpec source does.
    spec = spec.resolve(
        top_k=min(3, len(population.templates)),
        length_high=args.template_length,
    )
    try:
        sequence = spec.run(
            population, backend=args.backend, seed=args.seed,
            **_backend_options(args, "extract"),
        )
    except ReproError as exc:
        raise SystemExit(f"windows run failed: {exc}") from exc
    _emit(args, _windows_payload(sequence), _windows_text(sequence))
    return 0


def _command_extract(args: argparse.Namespace) -> int:
    _deprecated("extract", "run --task extract")
    result = _execute(args, task="extract", backend="inline")
    _emit(args, _run_payload("extract", result), _run_text(result))
    return 0


def _command_cluster(args: argparse.Namespace) -> int:
    result = _execute(args, task="cluster", backend="inline")
    _emit(args, _run_payload("cluster", result), _run_text(result))
    return 0


def _command_classify(args: argparse.Namespace) -> int:
    result = _execute(args, task="classify", backend="inline")
    _emit(args, _run_payload("classify", result), _run_text(result))
    return 0


# ---------------------------------------------------------------------- sweep


def _sweep_from_args(args: argparse.Namespace) -> tuple[SweepSpec, DataSpec | None]:
    """The sweep grid requested on the command line (file or flags)."""
    if args.sweep_spec:
        sweep = _load_json_file(args.sweep_spec, "sweep spec", SweepSpec.from_json)
        return sweep, None if sweep.datasets else _data_from_args(args)
    data = _data_from_args(args)
    base = _spec_from_args(args, _default_metric(data, args.task))
    datasets: tuple[DataSpec, ...] = ()
    if args.datasets:
        datasets = tuple(
            _data_from_args(args, source=source) for source in args.datasets
        )
    sweep = SweepSpec(
        base=base,
        task=args.task,
        epsilons=tuple(args.epsilons or ()),
        mechanisms=tuple(args.mechanisms or ()),
        alphabet_sizes=tuple(args.alphabet_sizes or ()),
        segment_lengths=tuple(args.segment_lengths or ()),
        shapelet_counts=tuple(getattr(args, "shapelet_counts", None) or ()),
        shapelet_lengths=tuple(getattr(args, "shapelet_lengths", None) or ()),
        datasets=datasets,
    )
    return sweep, None if datasets else data


def _command_sweep(args: argparse.Namespace) -> int:
    sweep, data = _sweep_from_args(args)
    try:
        result = sweep.run(
            data,
            backend=args.backend,
            seed=args.seed,
            parallel=args.parallel,
            **_backend_options(args, sweep.task),
        )
    except ReproError as exc:
        raise SystemExit(f"sweep failed: {exc}") from exc

    metric_name = {"cluster": "ari", "classify": "accuracy",
                   "shapelet": "accuracy"}.get(sweep.task, "elapsed_seconds")
    points = []
    for point, run in zip(result.points, result.runs):
        record = {
            name: (value.name if isinstance(value, DataSpec) else value)
            for name, value in point.items()
        }
        record.update({name: float(value) for name, value in run.metrics.items()})
        points.append(record)
    payload = {
        "command": "sweep",
        **result.to_dict(),
        "task": sweep.task,
        "metric_name": metric_name,
        "points": points,
    }

    axis_names = [name for name in AXIS_ORDER if name in sweep.axes()]
    header = "  ".join(f"{name:>14}" for name in axis_names + [metric_name])
    lines = [
        f"sweep: task={sweep.task}, backend={result.backend}, "
        f"{len(result.runs)} point(s)",
        header,
        "-" * len(header),
    ]
    for record in points:
        cells = [f"{record.get(name, ''):>14}" for name in axis_names]
        cells.append(f"{record.get(metric_name, float('nan')):>14.3f}")
        lines.append("  ".join(cells))
    _emit(args, payload, "\n".join(lines))
    return 0


# ----------------------------------------------------- simulate / serve / loadgen


def _synthetic_stream(args: argparse.Namespace):
    """The deterministic synthetic population shared by serve and loadgen.

    Built through :meth:`DataSpec.build_population` — the same code path
    ``repro run --dataset synthetic`` uses — so serve + loadgen with the
    same seed/flags collect exactly the population the in-process run
    streams.  Returns ``(population, template_strings, alphabet_size)``.
    """
    alphabet_size = args.alphabet_size or 4
    data = _data_from_args(args, source="synthetic")
    spec = ExperimentSpec(sax=SAXSpec(alphabet_size=alphabet_size))
    population, meta, _, _ = data.build_population(spec)
    return population, meta["templates"], alphabet_size


def _serving_spec(args: argparse.Namespace, n_templates: int | None = None) -> ExperimentSpec:
    """The collection spec shared by ``simulate`` and ``serve``."""
    default_top_k = 3 if n_templates is None else min(3, n_templates)
    return ExperimentSpec(
        mechanism="privshape",
        privacy=PrivacySpec(epsilon=args.epsilon),
        sax=SAXSpec(alphabet_size=args.alphabet_size or 4),
        collection=CollectionSpec(
            top_k=args.top_k or default_top_k,
            metric=args.metric or "sed",
            length_low=1,
            length_high=args.template_length,
        ),
    )


def _command_simulate(args: argparse.Namespace) -> int:
    """Deprecated shim: stream the synthetic population through `run`."""
    _deprecated("simulate", "run --dataset synthetic")
    data = _data_from_args(args, source="synthetic")
    # top_k=None resolves to min(3, the *actual* template-pool size) at
    # realization, exactly like the pre-shim code that counted the generated
    # templates (a small alphabet can yield fewer than requested).
    spec = ExperimentSpec(
        mechanism="privshape",
        privacy=PrivacySpec(epsilon=args.epsilon),
        sax=SAXSpec(alphabet_size=args.alphabet_size or 4),
        collection=CollectionSpec(
            top_k=args.top_k,
            metric=args.metric or "sed",
            length_low=1,
            length_high=args.template_length,
        ),
    )
    try:
        result = spec.run(
            data,
            backend="inline",
            seed=args.seed,
            batch_size=args.batch_size,
            shards=args.shards,
            serialize=args.serialize,
        )
    except ReproError as exc:
        raise SystemExit(f"simulate failed: {exc}") from exc

    # Legacy envelope, now assembled from the structured artifact.
    payload = {
        "command": "simulate",
        **_run_payload("simulate", result),
        "batch_size": args.batch_size,
        "shards": args.shards,
        "serialize_reports": bool(args.serialize),
        "alphabet_size": result.spec.sax.alphabet_size,
        "templates": result.details.get("templates", []),
        "throughput": {
            **result.timings,
            # "participants" is the key DriverStats always emitted here;
            # keep it alongside the normalized "reports" for old consumers.
            "rounds": [
                {**record, "participants": record["reports"]}
                for record in result.rounds
            ],
        },
    }
    lines = [
        f"simulated population: {args.users} users "
        f"(batch size {args.batch_size}, {args.shards} shard(s), "
        f"wire serialization {'on' if args.serialize else 'off'})",
        f"templates: {', '.join(result.details.get('templates', []))}",
        "rounds:",
    ]
    for record in result.rounds:
        level = f" level {record['level']}" if record["kind"] == "expand" else ""
        lines.append(
            f"  round {record['round']}: {record['kind']}{level:<8} "
            f"{record['reports']:>9} reports in {record['elapsed_seconds']:6.2f}s "
            f"({record['reports_per_second']:>12,.0f} reports/sec)"
        )
    lines.append(
        f"total: {result.timings['total_reports']} reports in "
        f"{result.timings['total_seconds']:.2f}s "
        f"= {result.timings['reports_per_second']:,.0f} reports/sec"
    )
    lines.append(f"peak RSS: {result.timings['peak_rss_bytes'] / 1e6:.1f} MB")
    lines.append(f"estimated frequent length: {result.estimated_length}")
    lines.append("top shapes:")
    for entry in result.estimates:
        lines.append(
            f"  {entry['shape']:<16} estimated count {entry['estimated_count']:12.1f}"
        )
    lines.extend(_accounting_lines(result))
    _emit(args, payload, "\n".join(lines))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    """Run the network-facing collection gateway until stopped."""
    try:
        if args.resume:
            if not args.checkpoint_dir:
                raise SystemExit("--resume requires --checkpoint-dir")
            gateway = CollectionGateway.from_checkpoint(
                args.checkpoint_dir,
                queue_depth=args.queue_depth,
                checkpoint_every=args.checkpoint_every,
            )
        else:
            spec = _load_spec(args.spec) if args.spec else _serving_spec(args)
            gateway = CollectionGateway(
                spec,
                rng=args.seed,
                n_shards=args.shards,
                queue_depth=args.queue_depth or 64,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
            )
    except ReproError as exc:
        raise SystemExit(f"cannot start gateway: {exc}") from exc

    async def _serve() -> None:
        await gateway.start(args.host, args.port)
        if args.port_file:
            # Published only once the listener is bound, and atomically
            # (write-temp + rename), so scripts polling this file to learn an
            # ephemeral (--port 0) port can never read a torn write.
            publish_port(args.port_file, gateway.port)
        announcement = {
            "event": "listening",
            "host": gateway.host,
            "port": gateway.port,
            "shards": gateway.n_shards,
            "queue_depth": gateway.queue_depth,
            "checkpoint_dir": args.checkpoint_dir,
            "resumed": bool(args.resume),
            "stage": gateway.engine.stage,
        }
        _emit(
            args,
            announcement,
            f"collection gateway listening on {gateway.host}:{gateway.port} "
            f"({gateway.n_shards} shard(s), stage {gateway.engine.stage}"
            + (f", checkpoints in {args.checkpoint_dir}" if args.checkpoint_dir else "")
            + ")",
        )
        sys.stdout.flush()
        await gateway.serve_until_stopped()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _command_loadgen(args: argparse.Namespace) -> int:
    """Drive a running gateway or cluster through a full collection run."""
    population, templates, alphabet_size = _synthetic_stream(args)

    def _drive():
        if args.cluster:
            from repro.cluster import ChaosKill, run_cluster_loadgen

            chaos = None
            if args.chaos_kill_round is not None:
                # Fault injection for smoke tests: SIGKILL one shard worker
                # mid-round and let the supervised recovery prove itself.
                chaos = ChaosKill(
                    round_index=args.chaos_kill_round,
                    worker_index=args.chaos_kill_worker,
                    after_batches=args.chaos_kill_after,
                )
            return run_cluster_loadgen(
                args.host,
                args.port,
                population,
                batch_size=args.batch_size,
                workers=args.workers,
                chaos=chaos,
            )
        return run_loadgen(
            args.host,
            args.port,
            population,
            batch_size=args.batch_size,
            workers=args.workers,
        )

    telemetry = None
    try:
        if args.telemetry or args.trace:
            from repro.obs import capture

            with capture() as cap:
                stats = _drive()
            telemetry = cap.summary()
            if args.trace:
                cap.write_chrome_trace(args.trace)
        else:
            stats = _drive()
        if args.stop_server:
            with GatewayClient(args.host, args.port) as client:
                client.stop()
    except ReproError as exc:
        raise SystemExit(f"load generation failed: {exc}") from exc

    result = stats.result or {}
    payload = {
        "command": "loadgen",
        "host": args.host,
        "port": args.port,
        "cluster": bool(args.cluster),
        "users": args.users,
        "batch_size": args.batch_size,
        "workers": args.workers,
        "alphabet_size": alphabet_size,
        "templates": list(templates),
        **stats.to_dict(),
    }
    if telemetry is not None:
        payload["telemetry"] = telemetry
    target = "cluster coordinator" if args.cluster else "gateway"
    lines = [
        f"load generation against {target} {args.host}:{args.port}: "
        f"{args.users} users, {args.workers or 'in-process'} worker(s), "
        f"batch size {args.batch_size}",
        "rounds:",
    ]
    for round_stats in stats.rounds:
        lines.append(
            f"  round {round_stats.index}: {round_stats.kind:<14} "
            f"{round_stats.reports:>9} reports in {round_stats.elapsed_seconds:6.2f}s "
            f"({round_stats.reports_per_second:>12,.0f} reports/sec)"
        )
    lines.append(
        f"total: {stats.total_reports} reports in {stats.total_seconds:.2f}s "
        f"= {stats.reports_per_second:,.0f} reports/sec over the socket "
        f"({stats.batches} batches, {stats.retries} retries)"
    )
    lines.append(f"estimated frequent length: {result.get('estimated_length')}")
    lines.append("top shapes (from GET /result):")
    for shape, frequency in zip(result.get("shapes", []), result.get("frequencies", [])):
        lines.append(f"  {shape:<16} estimated count {frequency:12.1f}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _command_cluster_serve(args: argparse.Namespace) -> int:
    """Boot a supervised worker fleet plus coordinator; serve until stopped."""
    import tempfile

    from repro.cluster import Coordinator, Supervisor

    try:
        spec = _load_spec(args.spec) if args.spec else _serving_spec(args)
    except ReproError as exc:
        raise SystemExit(f"cannot start cluster: {exc}") from exc
    cluster_dir = args.cluster_dir or tempfile.mkdtemp(prefix="repro-cluster-")
    supervisor = Supervisor(
        args.workers,
        cluster_dir,
        host=args.host,
        n_shards=args.shards,
        queue_depth=args.queue_depth or 64,
        checkpoint_every=args.checkpoint_every,
    )
    try:
        supervisor.start()
        coordinator = Coordinator(
            spec,
            supervisor.cluster_spec(),
            n_users=args.users,
            rng=args.seed,
            supervisor=supervisor,
        )

        async def _serve() -> None:
            await coordinator.start(args.host, args.port)
            if args.port_file:
                publish_port(args.port_file, coordinator.port)
            announcement = {
                "event": "listening",
                "host": coordinator.host,
                "port": coordinator.port,
                "n_workers": supervisor.n_workers,
                "n_users": args.users,
                "cluster_dir": cluster_dir,
                "worker_ports": [w.port for w in supervisor.cluster_spec()],
                "stage": coordinator.engine.stage,
            }
            _emit(
                args,
                announcement,
                f"cluster coordinator listening on "
                f"{coordinator.host}:{coordinator.port} "
                f"({supervisor.n_workers} worker(s), {args.users} users, "
                f"state in {cluster_dir})",
            )
            sys.stdout.flush()
            await coordinator.serve_until_stopped()

        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    except ReproError as exc:
        raise SystemExit(f"cannot start cluster: {exc}") from exc
    finally:
        supervisor.stop()
    return 0


def _command_cluster_status(args: argparse.Namespace) -> int:
    """Print a running cluster's status (coordinator + per-worker health)."""
    try:
        with GatewayClient(args.host, args.port) as client:
            status = client.status()
    except ReproError as exc:
        raise SystemExit(f"cannot reach cluster: {exc}") from exc
    lines = [
        f"cluster at {args.host}:{args.port}: stage {status.get('stage')}, "
        f"round {status.get('round')}, "
        f"{status.get('rounds_closed', 0)} round(s) closed, "
        f"{status.get('total_reports', 0)} reports",
    ]
    for worker in status.get("workers", []):
        state = "alive" if worker.get("alive") else "DOWN"
        detail = worker.get("status", {})
        lines.append(
            f"  worker {worker['index']} @ {worker['host']}:{worker['port']} "
            f"[{state}] pid={worker.get('pid')} "
            f"reports={detail.get('total_reports', '?')} "
            f"checkpoint_lag={detail.get('checkpoint_lag_batches', '?')}"
        )
    if "restarts" in status:
        lines.append(f"restarts: {status['restarts']}")
    _emit(args, {"command": "cluster-status", "status": status}, "\n".join(lines))
    return 0


def _command_cluster_stop(args: argparse.Namespace) -> int:
    """Ask a running cluster coordinator to shut down."""
    try:
        with GatewayClient(args.host, args.port) as client:
            client.stop()
    except ReproError as exc:
        raise SystemExit(f"cannot reach cluster: {exc}") from exc
    _emit(
        args,
        {"command": "cluster-stop", "stopping": True},
        f"cluster at {args.host}:{args.port} is stopping",
    )
    return 0


# --------------------------------------------------------------------- parser


def _add_common_arguments(
    parser: argparse.ArgumentParser,
    datasets: Sequence[str] = ("symbols", "trace", "waves"),
) -> None:
    parser.add_argument("--dataset", choices=tuple(datasets), default="trace",
                        help="population source (default: trace)")
    parser.add_argument("--ucr-file", default=None,
                        help="path to a UCR-format file; overrides --dataset")
    parser.add_argument("--users", type=int, default=10000,
                        help="number of users for the synthetic datasets")
    parser.add_argument("--wave-length", type=int, default=400,
                        help="series length for the 'waves' dataset")
    parser.add_argument("--epsilon", type=float, default=4.0, help="user-level privacy budget")
    parser.add_argument("--mechanism", choices=available_mechanisms(),
                        default="privshape",
                        help="registered mechanism name (see repro.api.mechanisms)")
    parser.add_argument("--spec", default=None, metavar="FILE",
                        help="path to a serialized ExperimentSpec JSON document; "
                             "replaces --mechanism, --epsilon, --alphabet-size, "
                             "--segment-length, --metric and --top-k entirely "
                             "(dataset/evaluation/seed flags still apply)")
    parser.add_argument("--alphabet-size", type=int, default=None, help="SAX symbol size t")
    parser.add_argument("--segment-length", type=int, default=None, help="SAX segment length w")
    parser.add_argument("--metric", default=None,
                        help="distance metric (dtw / sed / euclidean); task-appropriate default")
    parser.add_argument("--top-k", type=int, default=None,
                        help="number of shapes to extract (default: number of classes)")
    parser.add_argument("--evaluation-size", type=int, default=500,
                        help="number of held-out series scored for ARI / accuracy")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--json", action="store_true",
                        help="print one machine-readable JSON document instead of prose")


def _add_synthetic_arguments(parser: argparse.ArgumentParser) -> None:
    """Knobs of the constant-memory synthetic template stream."""
    parser.add_argument("--templates", type=int, default=6,
                        help="number of template shapes in the synthetic pool")
    parser.add_argument("--template-length", type=int, default=5,
                        help="length of each template shape")
    parser.add_argument("--length-jitter", type=float, default=0.2,
                        help="fraction of users whose shape is one symbol shorter")


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    """Execution-backend knobs of the run/sweep sub-commands."""
    parser.add_argument("--backend", choices=available_executors(), default="inline",
                        help="execution backend (see repro.api.executors)")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="users per streamed batch (bounds peak memory)")
    parser.add_argument("--shards", type=int, default=None,
                        help="aggregation shards (inline/gateway) or worker "
                             "processes (sharded backend)")
    parser.add_argument("--workers", type=int, default=None,
                        help="gateway backend: load-generation worker processes")
    parser.add_argument("--queue-depth", type=int, default=None,
                        help="gateway backend: bounded per-shard queue depth")
    parser.add_argument("--mp-context", choices=("spawn", "fork", "forkserver"),
                        default=None,
                        help="multiprocessing start method for process fan-out")
    parser.add_argument("--data-spec", default=None, metavar="FILE",
                        help="serialized DataSpec JSON describing the population; "
                             "replaces the dataset flags")


def _add_shapelet_arguments(parser: argparse.ArgumentParser) -> None:
    """Knobs of the shapelet workload (spec-level: they ride spec.options)."""
    parser.add_argument("--n-shapelets", type=int, default=None,
                        help="task=shapelet: shapelets kept after overlap "
                             "pruning (default: 5)")
    parser.add_argument("--shapelet-min-length", type=int, default=None,
                        help="task=shapelet: shortest candidate window, in "
                             "symbols (default: 2)")
    parser.add_argument("--shapelet-max-length", type=int, default=None,
                        help="task=shapelet: longest candidate window, in "
                             "symbols (default: the full shape)")


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """Observability knobs (repro.obs) of the run/windows/loadgen commands."""
    parser.add_argument("--telemetry", action="store_true",
                        help="record spans + phase/kernel profile and attach "
                             "the summary to the result (wall-clock only; "
                             "fingerprints are unchanged)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write recorded spans as Chrome-trace JSON "
                             "(open in Perfetto / chrome://tracing; implies "
                             "--telemetry)")


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PrivShape: shape extraction in time series under user-level LDP",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run",
        help="execute one experiment spec on a chosen backend (RunResult out)",
    )
    _add_common_arguments(run, datasets=DATASET_CHOICES)
    _add_synthetic_arguments(run)
    _add_backend_arguments(run)
    run.add_argument("--task", choices=("extract", "cluster", "classify",
                                        "shapelet"),
                     default="extract",
                     help="what to execute: the collection itself, one of "
                          "the paper's evaluation tasks, or the shapelet "
                          "workload (default: extract)")
    _add_shapelet_arguments(run)
    run.add_argument("--serialize", action="store_true",
                     help="inline backend: push every report batch through the "
                          "wire format")
    _add_telemetry_arguments(run)
    run.set_defaults(handler=_command_run)

    windows = subparsers.add_parser(
        "windows",
        help="run a continual (sliding-window) collection over a scripted "
             "drifting synthetic stream (RunSequence out)",
    )
    _add_common_arguments(windows, datasets=("synthetic",))
    _add_synthetic_arguments(windows)
    _add_backend_arguments(windows)
    windows.add_argument("--window-length", type=int, required=True,
                         help="users per collection window")
    windows.add_argument("--stride", type=int, default=None,
                         help="window start offset (default: the length, i.e. "
                              "tumbling windows)")
    windows.add_argument("--n-windows", type=int, default=None,
                         help="cap on the number of windows (default: cover "
                              "the whole stream)")
    windows.add_argument("--budget-renewal", choices=("per_window", "global"),
                         default="per_window",
                         help="epsilon renews every window (event-level view) "
                              "or is split across all windows")
    windows.add_argument("--no-carry-over", action="store_true",
                         help="start every window's trie cold instead of "
                              "seeding it from the previous window")
    windows.add_argument("--decay", type=float, default=0.5,
                         help="carry-over frequency decay factor in (0, 1]")
    windows.add_argument("--refresh", action="store_true",
                         help="refine-only refresh windows (full re-extraction "
                              "only when drift fires)")
    windows.add_argument("--refresh-fraction", type=float, default=0.5,
                         help="fraction of the window budget spent by a "
                              "refresh probe")
    windows.add_argument("--drift-threshold", type=float, default=0.25,
                         help="L1 (total-variation) drift firing threshold")
    windows.add_argument("--churn-threshold", type=float, default=None,
                         help="top-k churn firing threshold (default: L1 only)")
    windows.add_argument("--hysteresis", type=int, default=1,
                         help="consecutive drifted windows before firing")
    windows.add_argument("--breakpoints", type=int, nargs="*", default=[],
                         metavar="USER_ID",
                         help="scripted drift: user ids where the stream's "
                              "template mixture flips")
    _add_telemetry_arguments(windows)
    windows.set_defaults(handler=_command_windows, dataset="synthetic")

    extract = subparsers.add_parser(
        "extract", help="[deprecated: use `run --task extract`]")
    _add_common_arguments(extract)
    extract.set_defaults(handler=_command_extract)

    cluster = subparsers.add_parser(
        "cluster",
        help="run the clustering-task evaluation, or manage a collection "
             "cluster (`cluster serve` / `cluster status` / `cluster stop`)",
    )
    _add_common_arguments(cluster)
    cluster.set_defaults(handler=_command_cluster)
    # Optional nested sub-commands: a bare `repro cluster` stays the paper's
    # clustering evaluation; `repro cluster serve/status/stop` manage the
    # multi-process collection cluster.
    cluster_sub = cluster.add_subparsers(dest="cluster_command")

    cluster_serve = cluster_sub.add_parser(
        "serve",
        help="boot a supervised coordinator/worker collection cluster",
    )
    cluster_serve.add_argument("--users", type=int, default=100_000,
                               help="population size the cluster is sized for")
    cluster_serve.add_argument("--workers", type=int, default=2,
                               help="shard-worker processes to supervise")
    cluster_serve.add_argument("--cluster-dir", default=None, metavar="DIR",
                               help="directory for worker state (ports, pids, "
                                    "checkpoints); default: a temp directory")
    cluster_serve.add_argument("--host", default="127.0.0.1",
                               help="interface to bind")
    cluster_serve.add_argument("--port", type=int, default=0,
                               help="coordinator TCP port (0 picks ephemeral)")
    cluster_serve.add_argument("--port-file", default=None, metavar="FILE",
                               help="atomically publish the coordinator port "
                                    "to FILE once listening")
    cluster_serve.add_argument("--epsilon", type=float, default=4.0,
                               help="user-level privacy budget")
    cluster_serve.add_argument("--metric", default=None,
                               help="distance metric (default: sed)")
    cluster_serve.add_argument("--top-k", type=int, default=None,
                               help="number of shapes to extract (default: 3)")
    cluster_serve.add_argument("--alphabet-size", type=int, default=None,
                               help="SAX symbol size t (default: 4)")
    cluster_serve.add_argument("--template-length", type=int, default=5,
                               help="length_high of the collection "
                                    "(matches loadgen templates)")
    cluster_serve.add_argument("--spec", default=None, metavar="FILE",
                               help="serialized ExperimentSpec JSON; replaces "
                                    "the spec flags")
    cluster_serve.add_argument("--shards", type=int, default=1,
                               help="aggregation shards per worker")
    cluster_serve.add_argument("--queue-depth", type=int, default=None,
                               help="bounded per-shard queue depth per worker")
    cluster_serve.add_argument("--checkpoint-every", type=int, default=16,
                               help="checkpoint each worker every N accepted "
                                    "batches (crash-recovery granularity)")
    cluster_serve.add_argument("--seed", type=int, default=0, help="random seed")
    cluster_serve.add_argument("--json", action="store_true",
                               help="print the listening announcement as JSON")
    cluster_serve.set_defaults(handler=_command_cluster_serve)

    cluster_status = cluster_sub.add_parser(
        "status", help="query a running cluster's coordinator + worker health")
    cluster_status.add_argument("--host", default="127.0.0.1")
    cluster_status.add_argument("--port", type=int, required=True)
    cluster_status.add_argument("--json", action="store_true",
                                help="print the raw status document as JSON")
    cluster_status.set_defaults(handler=_command_cluster_status)

    cluster_stop = cluster_sub.add_parser(
        "stop", help="shut a running cluster down (coordinator + workers)")
    cluster_stop.add_argument("--host", default="127.0.0.1")
    cluster_stop.add_argument("--port", type=int, required=True)
    cluster_stop.add_argument("--json", action="store_true",
                              help="print the acknowledgement as JSON")
    cluster_stop.set_defaults(handler=_command_cluster_stop)

    classify = subparsers.add_parser("classify", help="run the classification-task evaluation")
    _add_common_arguments(classify)
    classify.set_defaults(handler=_command_classify)

    sweep = subparsers.add_parser(
        "sweep",
        help="expand an experiment grid (SweepSpec) on any backend",
    )
    _add_common_arguments(sweep, datasets=DATASET_CHOICES)
    _add_synthetic_arguments(sweep)
    _add_backend_arguments(sweep)
    sweep.add_argument("--task", choices=("extract", "cluster", "classify",
                                          "shapelet"),
                       default="classify")
    _add_shapelet_arguments(sweep)
    sweep.add_argument("--shapelet-counts", type=int, nargs="+", default=None,
                       help="task=shapelet: shapelet-count axis of the grid")
    sweep.add_argument("--shapelet-lengths", type=int, nargs="+", default=None,
                       help="task=shapelet: max-window-length axis of the "
                            "grid (in symbols)")
    sweep.add_argument("--epsilons", type=float, nargs="+", default=[0.5, 1.0, 2.0, 4.0],
                       help="privacy-budget axis of the grid")
    sweep.add_argument("--mechanisms", nargs="+", choices=available_mechanisms(),
                       default=None, help="mechanism axis of the grid")
    sweep.add_argument("--alphabet-sizes", type=int, nargs="+", default=None,
                       help="SAX symbol-size axis of the grid")
    sweep.add_argument("--segment-lengths", type=int, nargs="+", default=None,
                       help="SAX segment-length axis of the grid")
    sweep.add_argument("--datasets", nargs="+", choices=DATASET_CHOICES,
                       default=None, help="dataset axis of the grid")
    sweep.add_argument("--parallel", type=int, default=1,
                       help="run up to N grid points concurrently")
    sweep.add_argument("--sweep-spec", default=None, metavar="FILE",
                       help="serialized SweepSpec JSON; replaces the grid flags")
    sweep.set_defaults(handler=_command_sweep)

    def _add_population_arguments(sub: argparse.ArgumentParser, default_users: int) -> None:
        """Synthetic-population knobs shared by simulate and loadgen."""
        sub.add_argument("--users", type=int, default=default_users,
                         help=f"population size to stream (default: {default_users:,})")
        sub.add_argument("--batch-size", type=int, default=65536,
                         help="users per streamed batch (bounds peak memory)")
        sub.add_argument("--alphabet-size", type=int, default=None,
                         help="SAX symbol size t (default: 4)")
        _add_synthetic_arguments(sub)
        sub.add_argument("--seed", type=int, default=0, help="random seed")
        sub.add_argument("--json", action="store_true",
                         help="print one machine-readable JSON document instead of prose")

    def _add_serving_spec_arguments(sub: argparse.ArgumentParser) -> None:
        """Collection-run knobs shared by simulate and serve."""
        sub.add_argument("--epsilon", type=float, default=4.0,
                         help="user-level privacy budget")
        sub.add_argument("--metric", default=None,
                         help="distance metric (default: sed)")
        sub.add_argument("--top-k", type=int, default=None,
                         help="number of shapes to extract (default: 3)")

    simulate = subparsers.add_parser(
        "simulate",
        help="[deprecated: use `run --dataset synthetic`]",
    )
    _add_population_arguments(simulate, default_users=1_000_000)
    _add_serving_spec_arguments(simulate)
    simulate.add_argument("--shards", type=int, default=1,
                          help="number of aggregator shards")
    simulate.add_argument("--serialize", action="store_true",
                          help="push every report batch through the wire format")
    simulate.set_defaults(handler=_command_simulate)

    serve = subparsers.add_parser(
        "serve",
        help="run the network-facing collection gateway (NDJSON over TCP + HTTP status)",
    )
    _add_serving_spec_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve.add_argument("--port", type=int, default=7733,
                       help="TCP port to bind (0 picks an ephemeral port)")
    serve.add_argument("--port-file", default=None, metavar="FILE",
                       help="write the bound port to FILE once listening "
                            "(for scripts using --port 0)")
    serve.add_argument("--spec", default=None, metavar="FILE",
                       help="serialized ExperimentSpec JSON describing the run; "
                            "must be concrete (top_k and length_high set); "
                            "replaces --epsilon/--metric/--top-k/--alphabet-size")
    serve.add_argument("--alphabet-size", type=int, default=None,
                       help="SAX symbol size t (default: 4)")
    serve.add_argument("--template-length", type=int, default=5,
                       help="length_high of the collection (matches loadgen templates)")
    serve.add_argument("--shards", type=int, default=1,
                       help="number of aggregation workers (bounded queue each)")
    serve.add_argument("--queue-depth", type=int, default=None,
                       help="bounded per-shard queue depth (backpressure threshold; "
                            "default 64, or the checkpointed value with --resume)")
    serve.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="directory for atomic JSON checkpoints (durability)")
    serve.add_argument("--checkpoint-every", type=int, default=0,
                       help="also checkpoint mid-round every N accepted batches")
    serve.add_argument("--resume", action="store_true",
                       help="resume from the checkpoint in --checkpoint-dir")
    serve.add_argument("--seed", type=int, default=0, help="random seed")
    serve.add_argument("--json", action="store_true",
                       help="print the listening announcement as JSON")
    serve.set_defaults(handler=_command_serve)

    loadgen = subparsers.add_parser(
        "loadgen",
        help="hammer a running gateway with the synthetic population over the socket",
    )
    _add_population_arguments(loadgen, default_users=100_000)
    loadgen.add_argument("--host", default="127.0.0.1", help="gateway host")
    loadgen.add_argument("--port", type=int, required=True, help="gateway port")
    loadgen.add_argument("--workers", type=int, default=0,
                         help="load-generation worker processes (0 = in-process)")
    loadgen.add_argument("--cluster", action="store_true",
                         help="the target is a cluster coordinator: replay "
                              "slices the way a restarted shard worker needs "
                              "(the topology itself comes from the server's replies)")
    loadgen.add_argument("--chaos-kill-round", type=int, default=None,
                         metavar="ROUND",
                         help="cluster mode fault injection: SIGKILL one shard "
                              "worker during round ROUND and recover")
    loadgen.add_argument("--chaos-kill-worker", type=int, default=0,
                         metavar="INDEX",
                         help="which worker --chaos-kill-round kills (default 0)")
    loadgen.add_argument("--chaos-kill-after", type=int, default=1,
                         metavar="BATCHES",
                         help="kill after this many batches of the slice "
                              "(default 1)")
    loadgen.add_argument("--stop-server", action="store_true",
                         help="send a stop op to the server after the run")
    _add_telemetry_arguments(loadgen)
    loadgen.set_defaults(handler=_command_loadgen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    _ensure_deprecations_visible()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Downstream consumer (head, jq -e, ...) closed the pipe early; point
        # stdout at devnull so the interpreter's final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
