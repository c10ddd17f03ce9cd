"""Telemetry no-op overhead on the GRR encode hot path.

The observability layer's contract is "zero-overhead unless installed": with
no tracer/profiler installed, every ``profile_kernel``/``trace_span`` call
site costs one function call returning a shared null context manager.

The gate is a direct bound, not an A/B difference of two loop timings: the
median cost of one no-op ``profile_kernel`` enter/exit, times the hooks one
``encode_batch`` call passes through, divided by the median ``encode_batch``
call time, must stay under 2%.  Both medians are over many short samples, so
host drift moves each by a few percent of itself instead of landing on one
side of a difference of two near-equal numbers (the A/B figure swung between
-7% and +17% on unchanged code).  The A/B loop timings — bare, no-op hooks,
and a *recording* profiler, now interleaved repetition by repetition — are
still recorded as information.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.helpers import print_table, record_benchmark
from repro.ldp.grr import GeneralizedRandomizedResponse
from repro.obs import (
    PhaseProfiler,
    install_profiler,
    profile_kernel,
    uninstall_profiler,
)

#: Batch size of one encode call — matches the service's default report batch.
BATCH = 8192
#: Encode calls per timed repetition.
CALLS = 60
#: Timed repetitions; the median damps scheduler noise.
REPETITIONS = 9
#: ``profile_kernel`` hooks one ``encode_batch`` call passes through.
HOOKS_PER_CALL = 1
#: No-op enter/exit pairs per hook-cost sample.
HOOK_LOOPS = 20_000
#: Acceptance gate on the no-op (hooks present, nothing installed) overhead.
MAX_NOOP_OVERHEAD_PERCENT = 2.0


def _encode_loop(oracle, indices, user_ids, *, hooked: bool) -> None:
    if hooked:
        for call in range(CALLS):
            with profile_kernel("grr.encode_batch"):
                oracle.encode_batch(indices, user_ids, key=call)
    else:
        for call in range(CALLS):
            oracle.encode_batch(indices, user_ids, key=call)


def _median(samples: list[float]) -> float:
    samples = sorted(samples)
    return samples[len(samples) // 2]


def _seconds(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _noop_hooks() -> None:
    for _ in range(HOOK_LOOPS):
        with profile_kernel("grr.encode_batch"):
            pass


def _empty_loop() -> None:
    for _ in range(HOOK_LOOPS):
        pass


def _hook_seconds() -> float:
    """Median cost of one no-op enter/exit, net of the bare loop around it."""
    return _median(
        [(_seconds(_noop_hooks) - _seconds(_empty_loop)) / HOOK_LOOPS
         for _ in range(REPETITIONS * 3)]
    )


def _encode_call_seconds(oracle, indices, user_ids) -> float:
    """Median wall time of one bare ``encode_batch`` call."""
    return _median(
        [_seconds(lambda: oracle.encode_batch(indices, user_ids, key=call))
         for call in range(CALLS * 3)]
    )


def test_noop_telemetry_overhead_is_under_the_gate():
    oracle = GeneralizedRandomizedResponse(4.0, domain=list("abcdef"))
    indices = np.arange(BATCH) % 6
    user_ids = np.arange(BATCH)
    assert profile_kernel("grr.encode_batch") is profile_kernel("other")

    # Warm both paths (imports, numpy buffers) before timing anything.
    _encode_loop(oracle, indices, user_ids, hooked=False)
    _encode_loop(oracle, indices, user_ids, hooked=True)

    hook = _hook_seconds()
    encode_call = _encode_call_seconds(oracle, indices, user_ids)
    noop_bound = max(hook, 0.0) * HOOKS_PER_CALL / encode_call * 100.0

    # Information only: the old A/B figures, bare and hooked interleaved.
    profiler = PhaseProfiler()
    bare_samples, noop_samples, recording_samples = [], [], []
    for _ in range(REPETITIONS):
        bare_samples.append(_seconds(
            lambda: _encode_loop(oracle, indices, user_ids, hooked=False)))
        noop_samples.append(_seconds(
            lambda: _encode_loop(oracle, indices, user_ids, hooked=True)))
        install_profiler(profiler)
        try:
            recording_samples.append(_seconds(
                lambda: _encode_loop(oracle, indices, user_ids, hooked=True)))
        finally:
            uninstall_profiler()
    assert profiler.report()["kernels"]["grr.encode_batch"]["calls"] > 0
    bare, noop, recording = (
        _median(bare_samples), _median(noop_samples), _median(recording_samples)
    )
    noop_overhead = (noop - bare) / bare * 100.0
    recording_overhead = (recording - bare) / bare * 100.0

    reports = CALLS * BATCH
    print_table(
        "telemetry overhead on the GRR encode path "
        f"({BATCH} users/batch, {CALLS} calls, median of {REPETITIONS})",
        ["path", "seconds", "reports/sec", "overhead %"],
        [
            ["bare loop", f"{bare:.4f}", f"{reports / bare:,.0f}", "-"],
            ["no-op hooks", f"{noop:.4f}", f"{reports / noop:,.0f}",
             f"{noop_overhead:+.2f}"],
            ["recording profiler", f"{recording:.4f}",
             f"{reports / recording:,.0f}", f"{recording_overhead:+.2f}"],
            ["no-op bound (gated)",
             f"{hook * 1e9:.0f} ns/hook", f"{encode_call * 1e6:.0f} us/call",
             f"{noop_bound:.3f}"],
        ],
    )
    record_benchmark(
        "telemetry_overhead",
        metric="noop_overhead_bound_percent",
        value=noop_bound,
        units="percent",
        seed=None,
        backend="inline",
        extra={
            "method": "median no-op hook ns x hooks per call / median "
                      "encode_batch call time",
            "hook_ns": hook * 1e9,
            "hooks_per_call": HOOKS_PER_CALL,
            "encode_call_seconds": encode_call,
            "batch_size": BATCH,
            "calls_per_repetition": CALLS,
            "repetitions": REPETITIONS,
            "bare_seconds": bare,
            "noop_seconds": noop,
            "recording_seconds": recording,
            "ab_noop_overhead_percent": noop_overhead,
            "recording_overhead_percent": recording_overhead,
            "gate_percent": MAX_NOOP_OVERHEAD_PERCENT,
        },
    )
    assert noop_bound < MAX_NOOP_OVERHEAD_PERCENT, (
        f"no-op telemetry hooks cost {hook * 1e9:.0f} ns x {HOOKS_PER_CALL} per "
        f"{encode_call * 1e6:.0f} us encode_batch call = {noop_bound:.3f}% "
        f"(gate: {MAX_NOOP_OVERHEAD_PERCENT}%)"
    )
