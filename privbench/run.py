"""PrivShape collection benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 privbench/run.py --workload synthetic-inline --seed 1 --seconds 10 --trace 0

The workloads are described in ``privbench/workloads.json``.  A run starts
the measuring process (``worker.py measure``), which runs the workload
closed-loop for ``--seconds`` of timed runs and checks every run's output
against the reference for the seed.  It asks this script to start the other
roles as separate processes, so that its peak RSS covers only the workload's
own runs: first the ``reference`` (the inline run, cross-checked against
offline extraction), then between timed runs a set-up ``probe`` and, for
the workloads whose quality is pooled, the ``quality`` populations.  Each
process's time from spawn until its inputs are ready is one set-up sample;
``setup_s`` is their median scaled to a nominal host speed (see
:data:`NOMINAL_CALIBRATION_S`).

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of the traced runs.  The
exit status is 0 only if every check passed.  Every result is also written
under ``.privbench/results/`` for ``compare.py``.  This script uses only the
standard library; the program is imported from ``src/`` by the child
processes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".privbench"
MARK = "@@privbench "
#: Whole-run time limit; children are killed past it.
DEADLINE_S = 170.0
#: ``setup_s`` is set-up wall time scaled to a host on which the calibration
#: loop takes this long, so that drift in host speed between two sets of
#: runs does not read as a set-up regression.
NOMINAL_CALIBRATION_S = 0.05


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def git_commit() -> str:
    """HEAD of the checkout read from ``.git`` directly, or ``unknown``."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return "unknown"


def run_child(role: str, args, deadline: float, serve=None) -> tuple[float, list[dict]]:
    """Run one worker role; returns (spawn-to-ready seconds, events).

    ``serve`` answers the ``child`` requests of the measuring process: it
    runs the requested role and its reply goes back on the worker's stdin.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = str(OUT / "tmp")
    command = [
        sys.executable, str(HERE / "worker.py"), role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spans", str(OUT / "spans" / f"{args.workload}.seed{args.seed}.json"),
    ]
    spawned = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    watchdog = threading.Timer(max(deadline - spawned, 1.0), process.kill)
    watchdog.start()
    events: list[dict] = []
    ready = None
    try:
        if serve is None:
            process.stdin.close()
        for line in process.stdout:
            if not line.startswith(MARK):
                continue
            event = json.loads(line[len(MARK):])
            if event["event"] == "setup":
                ready = time.perf_counter() - spawned
            elif event["event"] == "child":
                process.stdin.write(json.dumps(serve(event)) + "\n")
                process.stdin.flush()
            events.append(event)
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdin.close()
    if code != 0 or ready is None:
        raise BenchmarkError(f"{role} process exited with code {code}")
    return ready, events


def _event(events: list[dict], name: str) -> dict:
    for event in events:
        if event["event"] == name:
            return event
    raise BenchmarkError(f"no {name!r} event")


def _median(values: list[float]) -> float:
    if not values:
        raise BenchmarkError("no successful samples")
    return statistics.median(values)


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.6g}, q3={q3:.6g}"


def count_failed(measured: dict) -> tuple[list[str], int]:
    """The failure messages and the number of failed runs of one measurement.

    A reference that fails its own checks or disagrees with offline
    extraction makes every run checked against it suspect, so then every
    attempted run counts as failed.
    """
    failures = [f"reference: {reason}" for reason in measured["reference_failures"]]
    if measured["offline_match"] is not True:
        failures.append("reference: inline result differs from offline extraction")
    if failures:
        return failures + measured["failures"], measured["attempted"]
    return measured["failures"], len(measured["failures"])


def benchmark(args) -> dict:
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro package under {ROOT / 'src'}")
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if args.workload not in workloads:
        raise BenchmarkError(f"unknown workload {args.workload!r}; one of {sorted(workloads)}")
    for sub in ("tmp", "spans", "results"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)

    setup_samples, setup_events = [], []

    def serve(request: dict) -> dict:
        ready, events = run_child(request["role"], args, deadline)
        setup_samples.append(ready)
        setup_events.append(_event(events, "setup"))
        return _event(events, request["role"]) if request["role"] != "probe" else {}

    ready, events = run_child("measure", args, deadline, serve=serve)
    setup_samples.append(ready)
    setup_events.append(_event(events, "setup"))
    measured = _event(events, "measured")

    samples = measured["samples"]
    if not samples["run_s"]:
        raise BenchmarkError("no timed run succeeded: " + "; ".join(measured["failures"][:3]))
    attempted = measured["attempted"]
    failures, failed = count_failed(measured)
    correct = failed == 0
    quality = measured["quality"]
    run_cal = [run / cal for run, cal in zip(samples["run_s"], samples["calibration_s"])]
    reports_per_cal = [rate * cal for rate, cal in
                       zip(samples["reports_per_s"], samples["calibration_s"])]
    host_speed = NOMINAL_CALIBRATION_S / _median(samples["calibration_s"])
    setup_s = [ready * host_speed for ready in setup_samples]
    end_to_end = {
        "setup_s": (_median(setup_s), "s"),
        "run_cal": (_median(run_cal), "cal"),
        "reports_per_cal": (_median(reports_per_cal), "1/cal"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
        "quality": (quality, "share"),
        "success_rate": (1.0 - failed / attempted, "share"),
        "run_s": (_median(samples["run_s"]), "s"),
        "reports_per_s": (_median(samples["reports_per_s"]), "1/s"),
        "calibration_s": (_median(samples["calibration_s"]), "s"),
        "setup_wall_s": (_median(setup_samples), "s"),
    }
    sample_lists = {"setup_s": setup_s, "setup_wall_s": setup_samples, "run_cal": run_cal,
                    "reports_per_cal": reports_per_cal, "run_s": samples["run_s"],
                    "reports_per_s": samples["reports_per_s"],
                    "calibration_s": samples["calibration_s"]}
    layers = {}
    if args.trace:
        layers = dict(measured["layers"])
        layers["setup.import_s"] = statistics.median(e["import_s"] for e in setup_events)
        layers["setup.inputs_s"] = statistics.median(e["inputs_s"] for e in setup_events)
        layers["trace.overhead"] = (
            _median(samples["traced_run_s"]) / end_to_end["run_s"][0] - 1.0
        )
        layers["ladder.run_reports_per_s"] = end_to_end["reports_per_s"][0]
    units = {m["name"]: m["unit"] for m in _declared("per_layer")}
    if args.trace:
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]][0], "unit": m["unit"]}
                   for m in _declared("end_to_end")}

    for name, (value, unit) in end_to_end.items():
        if value is None:
            continue
        detail = _spread(sample_lists[name]) if name in sample_lists else "n=1"
        print(f"{args.workload}  {name:<16} {value:.6g} {unit}  (median; {detail})")
    print(f"{args.workload}  error_rate       {failed / attempted:.6g}  "
          f"({failed} failed of {attempted} runs attempted)")
    if measured["shape_recall"] is not None:
        print(f"{args.workload}  shape_recall     {measured['shape_recall']:.6g} share  "
              "(this seed's population)")
    for failure in failures:
        print(f"{args.workload}  FAILED: {failure}")
    if args.trace:
        for name in units:
            print(f"{args.workload}  {name:<32} {layers[name]:.6g} {units[name]}")
        print(f"{args.workload}  traced runs: {len(samples['traced_run_s'])}, "
              f"untraced runs: {len(samples['run_s'])}")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "offline_match": measured["offline_match"],
        "metrics": metrics,
        "samples": sample_lists | {"traced_run_s": samples["traced_run_s"]},
        "shape_recall": measured["shape_recall"],
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": measured["numpy"],
            "git_commit": git_commit(),
            "machine": platform.machine(),
        },
        "wall_s": time.perf_counter() - started,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT / "results" / f"{args.workload}.seed{args.seed}.trace{args.trace}.{stamp}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
    return result


def _declared(section: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = benchmark(args)
    except (BenchmarkError, OSError, KeyError, ValueError) as exc:
        print(f"privbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 2


if __name__ == "__main__":
    sys.exit(main())
