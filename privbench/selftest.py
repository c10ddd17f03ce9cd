"""Self-test of the benchmark's own checks, tracer arithmetic and tables.

Run from the repository root (takes a few seconds)::

    PYTHONPATH=src python3 privbench/selftest.py

It shows that a tampered fingerprint, a short report total and an
over-budget accounting are each counted as a failed run, that a reference
which disagrees with offline extraction fails every run, that the tracer's
self times and RTT tails follow their definitions, that tracing leaves every
patched name restored, and that ``BENCHMARK.json`` declares exactly the
per-layer metrics the traced run emits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def small_inputs():
    """A 5000-user synthetic population on the inline backend."""
    from worker import build_inputs

    workload = {"data": {"source": "synthetic", "n_users": 5000},
                "backend": "inline", "task": "extract", "options": {}}
    return build_inputs(workload, seed=3)


def check_failures_are_counted() -> None:
    import checks
    from worker import run_once

    inputs = small_inputs()
    result = run_once(inputs)
    reference = {"fingerprint": checks.fingerprint_digest(result),
                 "expected_reports": 5000}
    expect(checks.check_run(result, reference) == [], "an untouched run must pass")

    tampered = type(result).from_json(result.to_json())
    tampered.estimates[0]["estimated_count"] += 1.0
    expect(any("fingerprint" in r for r in checks.check_run(tampered, reference)),
           "a tampered fingerprint must fail")

    short = type(result).from_json(result.to_json())
    short.timings["total_reports"] -= 1
    expect(any("report total" in r for r in checks.check_run(short, reference)),
           "a short report total must fail")

    over = type(result).from_json(result.to_json())
    over.accounting["within_budget"] = False
    expect(any("over budget" in r for r in checks.check_run(over, reference)),
           "an over-budget accounting must fail")

    expect(checks.shape_agreement(result, result.shapes) == 1.0, "a run agrees with itself")
    lost = type(result).from_json(result.to_json())
    lost.estimates[0]["shape"] = "zzzzz"
    expect(checks.shape_agreement(lost, result.shapes) < 1.0, "a lost shape lowers agreement")

    expect(checks.expected_reports(inputs) == 5000, "every user reports once")
    expect(checks.offline_digest(inputs, result.spec) == checks.result_digest(result),
           "inline must match offline extraction")
    expect(checks.offline_digest(inputs, result.spec) != checks.result_digest(tampered),
           "the offline cross-check must see a tampered estimate")


def check_reference_mismatch_fails_every_run() -> None:
    from run import count_failed

    clean = {"attempted": 7, "failures": [], "reference_failures": [], "offline_match": True}
    expect(count_failed(clean) == ([], 0), "a clean measurement has no failed run")
    one = dict(clean, failures=["run 3: fingerprint differs from the reference"])
    expect(count_failed(one)[1] == 1, "one failed run counts once")
    for bad in (dict(clean, offline_match=False),
                dict(clean, reference_failures=["accounting is over budget"])):
        expect(count_failed(bad)[1] == 7, "a bad reference fails every run")


def check_tracer() -> None:
    import repro.service.rounds as rounds
    from tracer import Span, Tracer, rtt_summary, run_layers

    parent = Span("api.run", 0.0, None, 1, 0)
    parent.end = 10.0
    child = Span("plan.mask", 2.0, 0, 1, 0)
    child.end = 5.0
    parent.child_time = child.duration
    layers = run_layers([parent, child], 1)
    expect(layers["plan.mask_s"] == 3.0, "leaf self time is its duration")
    expect(layers["api.self_s"] == 7.0, "self time excludes child spans")
    expect(layers["layers.unattributed_share"] == 0.7, "unattributed share")

    tail = rtt_summary("x", [float(i) for i in range(1, 26)])
    expect(tail["x_tail_pct"] == 50.0 and tail["x_count"] == 25.0,
           "25 samples leave at least ten beyond only the median")
    tail = rtt_summary("x", [float(i) for i in range(1, 201)])
    expect(tail["x_tail_pct"] == 90.0 and tail["x_tail_s"] == 180.0,
           "200 samples: p90 is the highest with ten beyond it")

    from worker import run_once

    inputs = small_inputs()
    original = rounds.encode_reports
    tracer = Tracer()
    with tracer.run(1):
        run_once(inputs)
    expect(rounds.encode_reports is original, "tracing must restore patched names")
    traced = run_layers(tracer.spans, 1)
    expect(traced["encode.reports"] == 5000.0, "every user reports exactly once")
    expect(traced["population.rows"] >= 5000.0, "rows generated cover the users")
    expect(0.0 <= traced["layers.unattributed_share"] < 1.0, "share is a fraction")


def check_tables() -> None:
    from tracer import rtt_layers, run_layers

    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    design = json.loads((HERE / "workloads.json").read_text())
    declared = [m["name"] for m in benchmark["per_layer"]]
    tabled = [name for row in design["layers"] for name in row["metrics"]]
    expect(declared == tabled, "BENCHMARK.json per_layer must follow the layer table")
    expect([w["name"] for w in benchmark["workloads"]] == list(design["workloads"]),
           "BENCHMARK.json workloads must follow workloads.json")
    emitted = set(run_layers([], 0)) | set(rtt_layers([], "inline")) | {
        "cluster.restarts", "setup.import_s", "setup.inputs_s",
        "trace.overhead", "ladder.run_reports_per_s"}
    expect(set(declared) == emitted, f"undeclared or missing: {set(declared) ^ emitted}")


def check_compare_verdicts() -> None:
    from compare import verdict

    lower = {"better": "lower", "bound": 0.1}
    expect(verdict(lower, [1.0] * 10, [1.2] * 10, 0, 10) == "regression", "regression")
    expect(verdict(lower, [1.0, 1.01] * 5, [0.8] * 10, 10, 10) == "gain", "gain")
    expect(verdict(lower, [1.0, 1.5] * 5, [1.1, 1.2] * 5, 5, 10) == "unresolved",
           "wide parent spread is unresolved")
    expect(verdict(lower, [1.0] * 10, [1.05] * 10, 0, 10) == "within bound", "within bound")


def main() -> int:
    sys.path.insert(0, str(HERE))
    check_tables()
    check_compare_verdicts()
    check_failures_are_counted()
    check_reference_mismatch_fails_every_run()
    check_tracer()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
