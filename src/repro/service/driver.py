"""End-to-end round orchestration: the streaming protocol driver.

:class:`ProtocolDriver` wires the pieces together for one collection run:

1. ask the :class:`~repro.service.protocol.PrivShapeEngine` for the next
   :class:`RoundSpec`;
2. stream the population source through the shared client round loop
   (:func:`~repro.service.client.round_batches`), which encodes the round's
   participants batch by batch; optionally push every batch through the wire
   format (``serialize=True``), and feed it to a
   :class:`~repro.service.aggregator.ShardedAggregator`;
3. close the round with the merged aggregate and repeat until the engine
   reports the protocol done.

Peak memory is bounded by ``batch_size`` (plus the engine's candidate trie),
never by the population size, so the same driver handles a 1 000-user test
and a multi-million-user simulation.  Given the same master seed, the driver
returns byte-identical results to the offline ``PrivShape.extract()`` path —
see ``tests/service/test_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.config import PrivShapeConfig
from repro.core.results import ShapeExtractionResult
from repro.obs.profiling import (
    PHASE_AGGREGATE,
    PHASE_ESTIMATE,
    PHASE_TRANSPORT,
    profile_phase,
)
from repro.obs.tracing import trace_span
from repro.service.aggregator import ShardedAggregator
from repro.service.client import round_batches
from repro.service.metrics import ThroughputMeter, peak_rss_bytes
from repro.service.protocol import PrivShapeEngine
from repro.service.reports import ReportBatch
from repro.utils.rng import RngLike


@dataclass
class RoundStats:
    """Observability record of one completed round."""

    index: int
    kind: str
    level: int
    participants: int
    elapsed_seconds: float

    @property
    def reports_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.participants / self.elapsed_seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "round": self.index,
            "kind": self.kind,
            "level": self.level,
            "participants": self.participants,
            "elapsed_seconds": self.elapsed_seconds,
            "reports_per_second": self.reports_per_second,
        }


@dataclass
class DriverStats:
    """Observability record of one completed protocol run."""

    rounds: list[RoundStats] = field(default_factory=list)
    total_reports: int = 0
    total_seconds: float = 0.0
    peak_rss_bytes: int = 0

    @property
    def reports_per_second(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.total_reports / self.total_seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "rounds": [r.to_dict() for r in self.rounds],
            "total_reports": self.total_reports,
            "total_seconds": self.total_seconds,
            "reports_per_second": self.reports_per_second,
            "peak_rss_bytes": self.peak_rss_bytes,
        }


class ProtocolDriver:
    """Round-based PrivShape collection over a streaming population source."""

    def __init__(
        self,
        config: PrivShapeConfig,
        population,
        batch_size: int = 8192,
        n_shards: int = 1,
        serialize: bool = False,
        rng: RngLike = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        # Accept a resolved repro.api ExperimentSpec as well (duck-typed; see
        # PrivShapeEngine.__init__ for why the api package is not imported).
        if not isinstance(config, PrivShapeConfig) and hasattr(config, "to_privshape_config"):
            config = config.to_privshape_config()
        self.config = config
        self.population = population
        self.batch_size = int(batch_size)
        self.n_shards = int(n_shards)
        self.serialize = bool(serialize)
        self.rng = rng
        self.stats = DriverStats()

    def run(self, engine: PrivShapeEngine | None = None) -> ShapeExtractionResult:
        """Execute every round of the protocol and return the extraction result.

        ``engine`` lets a caller inject a pre-built engine (the continual
        subsystem passes carry-over-seeded and refresh-mode engines); by
        default a fresh one is constructed from the driver's config and rng.
        """
        if engine is None:
            engine = PrivShapeEngine(self.config, rng=self.rng)
        total = ThroughputMeter()
        total.start()
        while (spec := engine.open_round()) is not None:
            aggregator = ShardedAggregator(spec, n_shards=self.n_shards)
            meter = ThroughputMeter()
            meter.start()
            # Telemetry attributes this round's wall time to the protocol
            # phases (encode / transport / aggregate / estimate); both hooks
            # are shared no-ops unless a capture is active, and neither ever
            # touches the engine's generator.
            with trace_span("round", round=spec.index, kind=spec.kind,
                            level=spec.level):
                for batch, _ in round_batches(
                    self.population, engine.plan, spec,
                    0, self.population.n_users, self.batch_size,
                ):
                    if self.serialize:
                        with profile_phase(PHASE_TRANSPORT, spec.index):
                            batch = ReportBatch.from_bytes(batch.to_bytes())
                    with profile_phase(PHASE_AGGREGATE, spec.index):
                        aggregator.consume(batch)
                    meter.add(len(batch))
                with profile_phase(PHASE_AGGREGATE, spec.index):
                    aggregate = aggregator.finalize_round()
                with profile_phase(PHASE_ESTIMATE, spec.index):
                    engine.close_round(spec, aggregate)
            meter.stop()
            self.stats.rounds.append(
                RoundStats(
                    index=spec.index,
                    kind=spec.kind,
                    level=spec.level,
                    participants=aggregate.n_reports,
                    elapsed_seconds=meter.elapsed_seconds,
                )
            )
            total.add(aggregate.n_reports)
        total.stop()
        self.stats.total_reports = total.reports
        self.stats.total_seconds = total.elapsed_seconds
        self.stats.peak_rss_bytes = peak_rss_bytes()
        return engine.finalize()
