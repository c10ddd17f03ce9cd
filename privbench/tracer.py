"""In-memory span tracer that wraps repro's public layer functions.

The tracer patches functions at the names their callers bind (a module
attribute, or a method on its class), so the program under test stays
unchanged.  Each call made while the tracer is active becomes one span:
name, start, end, parent span, run id and thread, plus a work count.  Spans
stay in memory until :meth:`Tracer.write` is called at the end of the
benchmark.  A span's self time is its duration minus the time its child
spans (same thread) cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from typing import Any, Callable

#: Encode span name per round kind (labelled refinement folds into refine).
_ENCODE_KIND = {
    "length": "encode.length",
    "subshape": "encode.subshape",
    "expand": "encode.expand",
    "refine": "encode.refine",
    "refine_labeled": "encode.refine",
}


class Span:
    """One call: ``count`` is its work (rows, reports, batches) and ``extra``
    a second tally (wire bytes, loadgen retries)."""

    __slots__ = ("name", "start", "end", "parent", "run", "thread", "count",
                 "extra", "child_time")

    def __init__(self, name, start, parent, run, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.thread = thread
        self.count = 0
        self.extra = 0
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    def to_dict(self, index: int) -> dict[str, Any]:
        return {
            "id": index, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "run": self.run, "thread": self.thread,
            "count": self.count, "extra": self.extra,
        }


class Tracer:
    """Span recorder plus the patch table over the layers the benchmark names."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = -1
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []

    # ----------------------------------------------------------------- spans

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None,
                    self.run_id, threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    @contextlib.contextmanager
    def run(self, run_id: int):
        """Trace one benchmark iteration: patches installed, root span open."""
        self.run_id = run_id
        self.install()
        self.active = True
        try:
            with self.span("api.run") as root:
                yield root
        finally:
            self.active = False
            self.uninstall()

    # -------------------------------------------------------------- wrappers

    def _call(self, fn: Callable, name: Callable | str, count: Callable | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                count(span, args, result)
            return result

        return wrapper

    def _generator(self, fn: Callable, name: str):
        """Each step of the generator is a span; count = rows yielded."""
        tracer = self

        def steps(generator):
            while True:
                span = tracer.open(name)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                span.count = len(item[0])
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            generator = fn(*args, **kwargs)
            return steps(generator) if tracer.active else generator

        return wrapper

    def _context(self, fn: Callable, enter_name: str, exit_name: str):
        """A context-manager factory whose enter and exit are separate spans."""
        tracer = self

        @functools.wraps(fn)
        @contextlib.contextmanager
        def wrapper(*args, **kwargs):
            manager = fn(*args, **kwargs)
            if not tracer.active:
                with manager as value:
                    yield value
                return
            with tracer.span(enter_name):
                value = manager.__enter__()
            try:
                yield value
            except BaseException as exc:
                with tracer.span(exit_name):
                    if not manager.__exit__(type(exc), exc, exc.__traceback__):
                        raise
            else:
                with tracer.span(exit_name):
                    manager.__exit__(None, None, None)

        return wrapper

    # ---------------------------------------------------------------- patching

    def _patch_attr(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            patched = staticmethod(make(raw.__func__))
        elif isinstance(raw, classmethod):
            patched = classmethod(make(raw.__func__))
        else:
            patched = make(raw)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def _patch_function(self, modules: list[str], attr: str, make) -> None:
        """Patch one function at every module that binds it by name."""
        original = getattr(importlib.import_module(modules[0]), attr)
        wrapped = make(original)
        for name in modules:
            module = importlib.import_module(name)
            if getattr(module, attr, None) is original:
                self._restore.append((module, attr, original))
                setattr(module, attr, wrapped)

    def install(self) -> None:
        for module, qualname, make in _patch_table(self):
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(importlib.import_module(module[0]), class_name)
                self._patch_attr(owner, attr, make)
            else:
                self._patch_function(module, qualname, make)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # ----------------------------------------------------------------- output

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.to_dict(i) for i, span in enumerate(self.spans)], handle)


# --------------------------------------------------------------- patch table


def _count_arg(position: int):
    def count(span, args, result):
        span.count = len(args[position])
    return count


def _count_result_rows(span, args, result):
    span.count = len(result)


def _count_wire(span, args, result):
    span.count = len(args[0])
    span.extra = len(result)


def _count_open_round(span, args, result):
    span.count = 0 if result is None else 1


def _count_loadgen(span, args, result):
    span.count = int(result.batches)
    span.extra = int(result.retries)


def _encode_name(args) -> str:
    return _ENCODE_KIND.get(args[0].kind, "encode.other")


def _request_name(args) -> str:
    return f"rpc.{args[1].get('op')}"


def _patch_table(tracer: Tracer):
    """(modules binding the name, attribute or Class.method, wrapper factory).

    The first module owns the definition; function names are patched in every
    listed module that bound the same object at import time.
    """
    call, gen, ctx = tracer._call, tracer._generator, tracer._context

    def plain(name, count=None):
        return lambda fn: call(fn, name, count)

    return [
        (["repro.sax.compressive"], "CompressiveSAX.transform_dataset",
         plain("sax.transform", _count_arg(1))),
        (["repro.service.population"], "SyntheticShapeStream.iter_range",
         lambda fn: gen(fn, "population.iter")),
        (["repro.service.population"], "EncodedPopulation.iter_range",
         lambda fn: gen(fn, "population.iter")),
        (["repro.service.plan"], "CollectionPlan.participant_mask",
         plain("plan.mask", _count_arg(2))),
        (["repro.service.client"], "ClientReporter.make_reports",
         plain("encode.make_reports")),
        (["repro.service.rounds", "repro.service.client", "repro.core.privshape",
          "repro.service"], "encode_reports",
         plain(_encode_name, _count_arg(2))),
        (["repro.core.selection", "repro.service.rounds"], "candidate_scores",
         plain("distance.candidate_scores")),
        (["repro.distance.registry", "repro.distance", "repro.core.selection",
          "repro.service.rounds", "repro.core.refinement", "repro.mining.nearest",
          "repro.mining.matching"], "shape_distance",
         plain("distance.shape_distance")),
        (["repro.ldp.grr"], "GeneralizedRandomizedResponse.encode_batch",
         plain("ldp.grr", _count_arg(1))),
        (["repro.ldp.unary"], "UnaryEncoding.encode_batch",
         plain("ldp.oue", _count_arg(1))),
        (["repro.ldp.exponential"], "ExponentialMechanism.sample_from_cdf",
         plain("ldp.em", _count_arg(1))),
        (["repro.service.aggregator"], "ShardedAggregator.consume",
         plain("aggregate.consume")),
        (["repro.service.aggregator"], "ShardedAggregator.consume_shard",
         plain("aggregate.consume")),
        (["repro.service.aggregator"], "ShardedAggregator.finalize_round",
         plain("aggregate.finalize_round")),
        (["repro.service.rounds", "repro.service.aggregator", "repro.api.executors",
          "repro.core.privshape", "repro.service"], "accumulate",
         plain("aggregate.accumulate")),
        (["repro.service.protocol"], "PrivShapeEngine.open_round",
         plain("engine.open", _count_open_round)),
        (["repro.service.protocol"], "PrivShapeEngine.close_round",
         plain("engine.close")),
        (["repro.service.protocol"], "PrivShapeEngine.finalize",
         plain("engine.close")),
        (["repro.service.protocol"], "PrivShapeEngine.finalize_labeled",
         plain("engine.close")),
        (["repro.service.reports"], "ReportBatch.to_bytes", plain("wire.encode")),
        (["repro.service.reports"], "ReportBatch.from_bytes", plain("wire.decode")),
        (["repro.server.wire", "repro.server.client"], "batch_to_wire",
         plain("wire.encode", _count_wire)),
        (["repro.server.wire", "repro.server.gateway"], "batch_from_wire",
         plain("wire.decode", _count_result_rows)),
        (["repro.server.testing"], "serve_in_thread", plain("gateway.boot")),
        (["repro.server.client"], "GatewayClient.request", plain(_request_name)),
        (["repro.server.loadgen"], "run_loadgen", plain("loadgen.run", _count_loadgen)),
        (["repro.cluster.testing"], "launch_cluster",
         lambda fn: ctx(fn, "cluster.boot", "cluster.teardown")),
        (["repro.cluster.loadgen"], "stream_worker_slice", plain("cluster.slice")),
        (["repro.cluster.loadgen"], "run_cluster_loadgen",
         plain("cluster.loadgen", _count_loadgen)),
        (["repro.core.privshape"], "PrivShape.extract", plain("core.extract")),
        (["repro.core.privshape"], "PrivShape.extract_labeled", plain("core.extract")),
        (["repro.mining.forest"], "RandomForestClassifier.fit", plain("mining.fit")),
        (["repro.mining.forest"], "RandomForestClassifier.predict",
         plain("mining.predict")),
        (["repro.mining.nearest"], "NearestShapeClassifier.predict",
         plain("mining.predict")),
    ]


# ------------------------------------------------------------ layer metrics

#: RPCs whose round trips the gateway and cluster metrics report.
_RTT_OPS = {"report": "rpc.report", "close": "rpc.close_round"}


def _unattributed(name: str) -> bool:
    """No layer metric claims this span's self time: the benchmark's root
    span, the load generators' driving loops and the other RPCs."""
    if name.startswith("rpc."):
        return name not in _RTT_OPS.values()
    return name in ("api.run", "loadgen.run", "cluster.loadgen", "cluster.slice")

#: Percentiles tried, highest first, for an RTT's tail figure.
_TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def rtt_summary(prefix: str, durations: list[float]) -> dict[str, float]:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    ordered = sorted(durations)
    n = len(ordered)
    summary = {f"{prefix}_s": 0.0, f"{prefix}_tail_s": 0.0,
               f"{prefix}_tail_pct": 0.0, f"{prefix}_count": float(n)}
    if not n:
        return summary
    middle = n // 2
    summary[f"{prefix}_s"] = (
        ordered[middle] if n % 2 else (ordered[middle - 1] + ordered[middle]) / 2
    )
    for pct in _TAIL_PERCENTILES:
        rank = -(-n * pct // 100)  # nearest rank
        if n - rank >= 10:
            summary[f"{prefix}_tail_s"] = ordered[int(rank) - 1]
            summary[f"{prefix}_tail_pct"] = pct
            break
    return summary


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def run_layers(spans: list[Span], run_id: int) -> dict[str, float]:
    """Per-layer figures of one traced iteration (RTTs excluded)."""
    self_time: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    count: dict[str, float] = {}
    extra: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in spans:
        if span.run != run_id:
            continue
        name = span.name
        self_time[name] = self_time.get(name, 0.0) + span.self_time
        inclusive[name] = inclusive.get(name, 0.0) + span.duration
        count[name] = count.get(name, 0) + span.count
        extra[name] = extra.get(name, 0) + span.extra
        calls[name] = calls.get(name, 0) + 1

    def selfs(prefix: str) -> float:
        return sum((v for k, v in self_time.items() if k.startswith(prefix)), 0.0)

    kinds = ("length", "subshape", "expand", "refine")
    encode_reports = sum(count.get(f"encode.{kind}", 0) for kind in kinds)
    encode_time = sum(inclusive.get(f"encode.{kind}", 0.0) for kind in kinds)
    kernel_time = selfs("ldp.")
    kernel_reports = sum(v for k, v in count.items() if k.startswith("ldp."))
    rows = count.get("population.iter", 0)
    layers = {
        "sax.transform_s": self_time.get("sax.transform", 0.0),
        "sax.series": float(count.get("sax.transform", 0)),
        "population.iter_s": self_time.get("population.iter", 0.0),
        "population.rows": float(rows),
        "population.useful_ratio": _ratio(encode_reports, rows),
        "plan.mask_s": self_time.get("plan.mask", 0.0),
        "plan.mask_calls": float(calls.get("plan.mask", 0)),
        **{f"encode.{kind}_s": inclusive.get(f"encode.{kind}", 0.0) for kind in kinds},
        "encode.self_s": selfs("encode."),
        "encode.reports": float(encode_reports),
        "encode.reports_per_s": _ratio(encode_reports, encode_time),
        "distance.calls": float(calls.get("distance.shape_distance", 0)
                                + calls.get("distance.candidate_scores", 0)),
        "distance.s": selfs("distance."),
        "ldp.grr_s": self_time.get("ldp.grr", 0.0),
        "ldp.oue_s": self_time.get("ldp.oue", 0.0),
        "ldp.em_s": self_time.get("ldp.em", 0.0),
        "ldp.kernel_reports_per_s": _ratio(kernel_reports, kernel_time),
        "aggregate.s": selfs("aggregate."),
        "engine.open_s": self_time.get("engine.open", 0.0),
        "engine.close_s": self_time.get("engine.close", 0.0),
        "engine.rounds": float(count.get("engine.open", 0)),
        "wire.encode_s": selfs("wire.encode"),
        "wire.decode_s": selfs("wire.decode"),
        "wire.bytes_per_report": _ratio(extra.get("wire.encode", 0),
                                        count.get("wire.encode", 0)),
        "gateway.boot_s": inclusive.get("gateway.boot", 0.0),
        "loadgen.batches": float(count.get("loadgen.run", 0)),
        "loadgen.retries": float(extra.get("loadgen.run", 0)),
        "cluster.boot_s": inclusive.get("cluster.boot", 0.0),
        "cluster.teardown_s": inclusive.get("cluster.teardown", 0.0),
        "cluster.retries": float(extra.get("cluster.loadgen", 0)),
        "core.extract_s": inclusive.get("core.extract", 0.0),
        "mining.fit_s": inclusive.get("mining.fit", 0.0),
        "mining.predict_s": inclusive.get("mining.predict", 0.0),
        "api.self_s": self_time.get("api.run", 0.0),
        "layers.unattributed_share": _ratio(
            sum((v for k, v in self_time.items() if _unattributed(k)), 0.0),
            inclusive.get("api.run", 0.0),
        ),
    }
    return layers


def rtt_layers(spans: list[Span], backend: str) -> dict[str, float]:
    """RTT figures pooled over every traced iteration, named by backend."""
    layers: dict[str, float] = {}
    for target in ("gateway", "cluster"):
        for op, name in _RTT_OPS.items():
            durations = [s.duration for s in spans if s.name == name] if backend == target else []
            layers.update(rtt_summary(f"{target}.{op}_rtt", durations))
    return layers
