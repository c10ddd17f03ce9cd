"""Stateless client-side reporter for the collection service.

A :class:`ClientReporter` holds no protocol state: given a published
:class:`~repro.service.plan.RoundSpec` and a batch of users, it produces one
compact LDP report per user.  All randomness is PRF-keyed by
``(round key, user id)`` inside :mod:`repro.service.rounds`, so the same user
always produces the same report for the same round no matter how the
population is batched — which is what makes streaming collection equivalent
to the offline path.

:func:`round_batches` is the one client round loop every collection path
iterates (the in-process driver, the sharded executor and the socket load
generators): it streams a user-id slice, keeps the round's participants and
encodes them, one :class:`ReportBatch` per population window.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.trie import Shape
from repro.obs.profiling import PHASE_ENCODE, profile_phase
from repro.service.plan import CollectionPlan, RoundSpec
from repro.service.population import EncodedPopulation
from repro.service.reports import ReportBatch
from repro.service.rounds import encode_reports


class ClientReporter:
    """Produces serializable report batches for published round specs.

    The reporter holds no *protocol* state; it only memoizes pure per-round
    computations (per-prefix Exponential-Mechanism CDFs, per-sequence closest
    candidates) so that streaming many batches of one round does not redo the
    same distance scoring.  The memo is dropped whenever a new round key
    appears and never changes any report.
    """

    def __init__(self) -> None:
        self._memo_key: int | None = None
        self._memo: dict = {}

    def _round_memo(self, spec: RoundSpec) -> dict:
        if self._memo_key != spec.key:
            self._memo_key = spec.key
            self._memo = {}
        return self._memo

    def make_reports(
        self,
        spec: RoundSpec,
        population: EncodedPopulation,
        user_ids: np.ndarray,
    ) -> ReportBatch:
        """Encode one report per user of ``population`` (vectorized)."""
        return ReportBatch(
            round_index=spec.index,
            kind=spec.kind,
            user_ids=np.asarray(user_ids, dtype=np.int64),
            payload=encode_reports(spec, population, user_ids, memo=self._round_memo(spec)),
        )

    def make_report(
        self,
        spec: RoundSpec,
        sequence: Sequence[str] | Shape,
        user_id: int,
        label: int | None = None,
    ) -> ReportBatch:
        """Single-user convenience wrapper around :meth:`make_reports`."""
        population = EncodedPopulation.from_sequences(
            [tuple(sequence)],
            spec.alphabet,
            labels=None if label is None else [int(label)],
        )
        return self.make_reports(
            spec, population, np.array([int(user_id)], dtype=np.int64)
        )


def batch_id_for(round_index: int, window_start: int, window_stop: int) -> str:
    """The deterministic idempotency key of one (round, user-window) batch."""
    return f"r{int(round_index)}:u{int(window_start)}:{int(window_stop)}"


def round_batches(
    population,
    plan: CollectionPlan,
    spec: RoundSpec,
    start: int,
    stop: int,
    batch_size: int,
) -> Iterator[tuple[ReportBatch, str]]:
    """Encode one round's participants in the user-id slice ``[start, stop)``.

    Yields ``(batch, batch_id)`` per ``iter_range`` window that holds at least
    one participant; the id names the whole window, so a replay of the slice
    with the same ``batch_size`` reproduces every id exactly.
    """
    reporter = ClientReporter()
    for user_ids, batch_population in population.iter_range(start, stop, batch_size):
        mask = plan.participant_mask(spec, user_ids)
        if not mask.any():
            continue
        participants = np.flatnonzero(mask)
        with profile_phase(PHASE_ENCODE, spec.index):
            batch = reporter.make_reports(
                spec, batch_population.take(participants), user_ids[participants]
            )
        yield batch, batch_id_for(spec.index, user_ids[0], user_ids[-1] + 1)
