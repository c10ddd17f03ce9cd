"""Child-process side of the benchmark: measurement, reference, quality pool, probe.

``run.py`` starts this script once per role.  Each role imports ``repro``,
builds the workload's inputs from the seed, and talks to ``run.py`` in JSON
lines: events on standard output prefixed with :data:`MARK`, replies on
standard input.

* ``measure`` — asks ``run.py`` for the reference of the seed, then runs
  the workload closed-loop for ``--seconds`` of timed runs and checks every
  run against the reference.  Between timed runs it asks ``run.py`` to start
  a ``probe`` and, on untraced runs of a pooled-quality workload, the
  ``quality`` process, so the timed samples spread over the whole life of
  the process.  With ``--trace 1`` it alternates untraced and traced runs.
  Only the workload's own runs (and the processes they spawn) count towards
  its peak RSS: the reference and the quality populations run elsewhere.
* ``reference`` — runs the workload's task once on the inline backend and
  cross-checks it against offline ``PrivShape`` extraction on the same users.
* ``quality`` — runs the extra populations pooled into the quality figure.
* ``probe`` — stops once the inputs are ready (a set-up time sample).
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

MARK = "@@privbench "
HERE = Path(__file__).resolve().parent


def emit(event: str, **payload) -> None:
    print(MARK + json.dumps({"event": event, **payload}), flush=True)


def ask(event: str, **payload) -> dict:
    """Emit a request to ``run.py`` and wait for its one-line reply."""
    emit(event, **payload)
    return json.loads(sys.stdin.readline())


@dataclass
class Inputs:
    workload: dict
    spec: object
    data: object
    cache: dict
    seed: int


def build_inputs(workload: dict, seed: int) -> Inputs:
    from repro.api import CollectionSpec, DataSpec, ExperimentSpec, PrivacySpec

    spec = ExperimentSpec(
        privacy=PrivacySpec(epsilon=4.0), collection=CollectionSpec(metric="dtw")
    )
    data = DataSpec(seed=seed, **workload["data"])
    cache: dict = {}
    if workload["task"] == "classify":
        cache[(data, "dataset")] = data.build_dataset()
    else:
        data.realize(spec, cache=cache)
    return Inputs(workload, spec, data, cache, seed)


def run_once(inputs: Inputs, backend: str | None = None):
    workload = inputs.workload
    return inputs.spec.run(
        inputs.data,
        backend=backend or workload["backend"],
        task=workload["task"],
        seed=inputs.seed,
        cache=inputs.cache,
        **({} if backend else workload["options"]),
    )


class Calibration:
    """A fixed mix of interpreter and NumPy work, timed next to each run.

    The host's speed changes by up to half for tens of seconds at a time;
    a run's wall time divided by this loop's wall time, measured right before
    and after it, cancels most of that drift.
    """

    def __init__(self) -> None:
        import numpy

        generator = numpy.random.default_rng(0)
        self.rows = generator.integers(0, 4, size=(20_000, 5))
        self.keys = generator.integers(0, 2**62, size=200_000, dtype=numpy.uint64)

    def __call__(self) -> float:
        import numpy

        started = time.perf_counter()
        total = 0
        for value in range(60_000):
            total += value * value % 7
        numpy.unique(self.rows, axis=0, return_inverse=True)
        mixed = (self.keys ^ (self.keys >> numpy.uint64(29))) * numpy.uint64(0x9E3779B97F4A7C15)
        numpy.bincount((mixed >> numpy.uint64(54)).astype(numpy.int64))
        return time.perf_counter() - started


def reference_role(inputs: Inputs) -> None:
    import checks

    result = run_once(inputs, backend="inline")
    reference = {
        "fingerprint": checks.fingerprint_digest(result),
        "expected_reports": checks.expected_reports(inputs),
        "shapes": list(result.shapes),
    }
    reference["failures"] = checks.check_run(result, reference)
    reference["offline_match"] = (
        checks.offline_digest(inputs, result.spec) == checks.result_digest(result)
    )
    emit("reference", **reference)


def quality_role(inputs: Inputs) -> None:
    import checks

    found = sought = 0
    for index in range(checks.quality_populations(inputs)):
        hits, total = checks.quality_hits(inputs, index)
        found, sought = found + hits, sought + total
    emit("quality", found=found, sought=sought)


def measure_role(inputs: Inputs, seconds: float, trace: bool, spans_path: str) -> None:
    import numpy

    import checks

    classify = inputs.workload["task"] == "classify"
    pooled = inputs.workload["quality"] == "pooled"
    reference = ask("child", role="reference")
    failures: list[str] = []
    realized = None if classify else inputs.data.realize(inputs.spec, cache=inputs.cache)

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    samples: dict[str, list[float]] = {"run_s": [], "reports_per_s": [],
                                       "calibration_s": [], "traced_run_s": [],
                                       "restarts": [], "accuracy": [],
                                       "agreement": []}
    calibration = Calibration()
    calibration()
    attempted = 0
    shape_recall = None

    def attempt(traced: bool, timed: bool) -> None:
        nonlocal attempted, shape_recall
        attempted += 1
        before = calibration() if timed and not traced else 0.0
        started = time.perf_counter()
        try:
            if traced:
                with tracer.run(attempted):
                    result = run_once(inputs)
            else:
                result = run_once(inputs)
            elapsed = time.perf_counter() - started
            reasons = checks.check_run(result, reference)
        except Exception as exc:  # a run that raises is a failed run
            failures.append(f"run {attempted}: raised {type(exc).__name__}: {exc}")
            return
        samples["agreement"].append(checks.shape_agreement(result, reference["shapes"]))
        if reasons:
            failures.append(f"run {attempted}: " + "; ".join(reasons))
            return
        if classify:
            samples["accuracy"].append(float(result.metrics["accuracy"]))
        else:
            shape_recall = checks.shape_recall(
                result, realized.meta["templates"], realized.spec.collection.top_k
            )
        if not timed:
            return
        if traced:
            samples["traced_run_s"].append(elapsed)
            samples["restarts"].append(float(sum(result.backend_info.get("restarts", []))))
        else:
            samples["run_s"].append(elapsed)
            samples["reports_per_s"].append(checks.report_total(result) / elapsed)
            samples["calibration_s"].append((before + calibration()) / 2)

    if inputs.workload["backend"] != "inline":
        attempt(traced=False, timed=False)  # warm-up of the workload's backend

    pool = {}

    def quality() -> None:
        pool.update(ask("child", role="quality"))

    # Untimed work spread evenly between the timed runs; every child process
    # started here also gives one set-up sample.
    pending = [lambda: ask("child", role="probe")]
    pending.append(quality if pooled and not trace else pending[0])
    minimum = 2 if trace else 1
    timed_s = 0.0
    index = 0
    while timed_s < seconds or index < minimum:
        started = time.perf_counter()
        attempt(traced=trace and index % 2 == 1, timed=True)
        timed_s += time.perf_counter() - started
        index += 1
        runs_left = max((seconds - timed_s) / (timed_s / index), 1.0)
        for _ in range(math.ceil(len(pending) / runs_left)):
            pending.pop(0)()
    while pending:
        pending.pop(0)()

    layers = None
    if tracer is not None:
        from tracer import rtt_layers, run_layers

        runs = sorted({span.run for span in tracer.spans})
        per_run = [run_layers(tracer.spans, run) for run in runs]
        layers = {
            name: statistics.median(run[name] for run in per_run) for name in per_run[0]
        } if per_run else {}
        layers.update(rtt_layers(tracer.spans, inputs.workload["backend"]))
        layers["cluster.restarts"] = (
            statistics.median(samples["restarts"]) if samples["restarts"] else 0.0
        )
        tracer.write(spans_path)

    if pooled and not trace:
        quality_value = pool["found"] / pool["sought"]
        if classify and samples["accuracy"]:
            # The run's own accuracy counts as one more pooled population.
            quality_value = (pool["found"] + statistics.median(samples["accuracy"])) / (
                pool["sought"] + 1
            )
    else:
        quality_value = statistics.median(samples["agreement"]) if samples["agreement"] else None
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    emit(
        "measured",
        attempted=attempted,
        failures=failures,
        reference_failures=reference["failures"],
        offline_match=reference["offline_match"],
        samples=samples,
        shape_recall=shape_recall,
        quality=quality_value,
        peak_rss_mb=(usage_self + usage_children) / 1024.0,
        layers=layers,
        numpy=numpy.__version__,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("measure", "probe", "reference", "quality"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=os.devnull)
    args = parser.parse_args()
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    workload = workloads[args.workload]

    import repro  # noqa: F401  (timed: the import is part of set-up)

    imported = time.perf_counter()
    inputs = build_inputs(workload, args.seed)
    emit("setup", import_s=imported - STARTED,
         inputs_s=time.perf_counter() - imported)
    if args.role == "measure":
        measure_role(inputs, args.seconds, bool(args.trace), args.spans)
    elif args.role == "reference":
        reference_role(inputs)
    elif args.role == "quality":
        quality_role(inputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
