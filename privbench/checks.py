"""Output checks for benchmark runs and the reference they are checked against.

A timed run fails if it raises, if its ``RunResult.fingerprint()`` differs
from the reference for its seed, if its report total is not the expected
count, or if its accounting is over budget.  The reference comes from the
inline backend and is cross-checked against offline ``PrivShape.extract`` /
``extract_labeled`` on the same population.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

import numpy as np

from repro.api.results import (
    accounting_payload,
    estimates_from_extraction,
    estimates_from_labeled,
)
from repro.core.privshape import PrivShape
from repro.utils.rng import ensure_rng

#: Extra populations pooled into the quality figure of the workloads whose
#: ``quality`` is ``pooled``, and their size for synthetic-inline
#: (trace-classify uses the workload's own size).
SYNTHETIC_QUALITY_POPULATIONS = 16
SYNTHETIC_QUALITY_USERS = 100_000
CLASSIFY_QUALITY_POPULATIONS = 3


def fingerprint_digest(result) -> str:
    """SHA-256 of the run's canonical fingerprint document."""
    document = json.dumps(result.fingerprint(), sort_keys=True)
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def report_total(result) -> int:
    """Reports the run aggregated (the extraction population for classify)."""
    if result.task == "classify":
        return int(result.details["n_train"])
    return int(result.timings["total_reports"])


def check_run(result, reference: dict[str, Any]) -> list[str]:
    """Why ``result`` fails against ``reference``; empty when it passes."""
    reasons = []
    if fingerprint_digest(result) != reference["fingerprint"]:
        reasons.append("fingerprint differs from the reference")
    total = report_total(result)
    if total != reference["expected_reports"]:
        reasons.append(
            f"report total {total} != expected {reference['expected_reports']}"
        )
    if not result.accounting.get("within_budget", False):
        reasons.append("accounting is over budget")
    return reasons


def shape_recall(result, templates: list[str], top_k: int) -> float:
    """Share of the true top-k templates found among the extracted shapes."""
    truth = templates[:top_k]
    return sum(shape in result.shapes for shape in truth) / len(truth)


def shape_agreement(result, reference_shapes: list[str]) -> float:
    """Share of the reference's extracted shapes that ``result`` also returns.

    The quality of a backend whose output must equal the inline reference:
    1.0 for a correct run, lower by the share of shapes a wrong run lost.
    """
    if not reference_shapes:
        return 1.0 if not result.shapes else 0.0
    return sum(shape in result.shapes for shape in reference_shapes) / len(reference_shapes)


def extraction_digest(estimates, accounting, estimated_length) -> str:
    """SHA-256 of the estimates, accounting and length of one extraction."""
    document = json.dumps(
        {"estimates": estimates, "accounting": accounting,
         "estimated_length": int(estimated_length)},
        sort_keys=True,
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def result_digest(result) -> str:
    """:func:`extraction_digest` of a run's result."""
    return extraction_digest(result.estimates, result.accounting, result.estimated_length)


def _training_split(inputs):
    """The classification pipeline's split, replaying its generator use."""
    dataset = inputs.cache[(inputs.data, "dataset")]
    generator = ensure_rng(inputs.seed)
    train, test = dataset.train_test_split(test_fraction=0.3, rng=generator)
    test.subsample(min(500, len(test)), rng=generator)
    return dataset, train, generator


def expected_reports(inputs) -> int:
    """Reports a correct run aggregates: every user, or every training user."""
    if inputs.workload["task"] == "classify":
        return len(_training_split(inputs)[1])
    return int(inputs.data.n_users)


def _decoded_sequences(population) -> list[tuple]:
    """The whole population as symbol tuples (each distinct row decoded once)."""
    (_, encoded), = population.iter_range(0, population.n_users, population.n_users)
    rows, inverse = np.unique(encoded.codes, axis=0, return_inverse=True)
    decoded = [encoded.decode_row(row) for row in rows]
    return [decoded[i] for i in inverse.ravel()]


def offline_digest(inputs, resolved_spec) -> str:
    """Offline ``PrivShape.extract`` / ``extract_labeled`` on the same users.

    ``resolved_spec`` is the spec the run resolved (its ``RunResult.spec``).
    The labelled path replays the classification pipeline's split so the
    offline extraction sees the same users and generator state as the run.
    """
    mechanism = PrivShape(resolved_spec)
    if inputs.workload["task"] == "classify":
        dataset, train, generator = _training_split(inputs)
        sequences = resolved_spec.sax.build_transformer().transform_dataset(train.series)
        extraction = mechanism.extract_labeled(
            sequences, train.labels, n_classes=dataset.n_classes, rng=generator
        )
        estimates = estimates_from_labeled(extraction)
    else:
        realized = inputs.data.realize(inputs.spec, cache=inputs.cache)
        extraction = mechanism.extract(
            _decoded_sequences(realized.population), rng=inputs.seed
        )
        estimates = estimates_from_extraction(extraction)
    return extraction_digest(
        estimates, accounting_payload(extraction.accountant), extraction.estimated_length
    )


def quality_populations(inputs) -> int:
    """How many extra populations the workload's quality figure pools."""
    if inputs.workload["task"] == "classify":
        return CLASSIFY_QUALITY_POPULATIONS
    return SYNTHETIC_QUALITY_POPULATIONS


def quality_hits(inputs, index: int) -> tuple[float, int]:
    """Quality of extra population ``index``: (score, populations or templates).

    One seed's figure is coarse — a synthetic run's recall moves in steps of
    1/top_k and trace-classify's accuracy moves by a few points from seed to
    seed — so the quality figure pools extra populations drawn from seeds
    derived from the benchmark seed, each run with the workload's spec and
    task on the inline backend.  Synthetic populations return (templates
    found, templates sought); classify populations return (accuracy, 1).
    """
    seed = 1000 * inputs.seed + index + 1
    if inputs.workload["task"] == "classify":
        data = dataclasses.replace(inputs.data, seed=seed)
        cache = {(data, "dataset"): data.build_dataset()}
        result = inputs.spec.run(data, task="classify", seed=seed, cache=cache)
        return float(result.metrics["accuracy"]), 1
    data = dataclasses.replace(inputs.data, n_users=SYNTHETIC_QUALITY_USERS, seed=seed)
    cache: dict = {}
    realized = data.realize(inputs.spec, cache=cache)
    result = inputs.spec.run(data, seed=seed, cache=cache)
    truth = realized.meta["templates"][: realized.spec.collection.top_k]
    return sum(shape in result.shapes for shape in truth), len(truth)
