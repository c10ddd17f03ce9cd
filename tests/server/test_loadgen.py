"""Load-generation correctness: slicing, determinism, multi-process fan-out."""

import pickle

import numpy as np
import pytest

from repro.cluster import ChaosKill
from repro.continual.windows import WindowView
from repro.core.config import PrivShapeConfig
from repro.core.privshape import PrivShape
from repro.server import CollectionGateway, batch_id_for, run_loadgen, serve_in_thread
from repro.server.loadgen import slice_tasks
from repro.service.population import worker_slices
from repro.service import EncodedPopulation, SyntheticShapeStream, default_templates

ALPHABET = ("a", "b", "c", "d")


def _stream(n_users: int = 3000) -> SyntheticShapeStream:
    templates = default_templates(ALPHABET, n_templates=4, length=5, rng=0)
    return SyntheticShapeStream(
        n_users=n_users,
        alphabet=ALPHABET,
        templates=tuple(templates),
        weights=tuple(1.0 / (rank + 1) for rank in range(len(templates))),
        seed=0,
        length_jitter=0.2,
    )


def _materialize(population) -> list:
    """The stream's users as explicit sequences (for the offline reference)."""
    sequences = []
    for _, batch in population.iter_batches(512):
        sequences.extend(batch.decode_row(row) for row in batch.codes)
    return sequences


class TestRangeIteration:
    @pytest.mark.parametrize("make", [_stream, lambda: EncodedPopulation.from_sequences(
        _materialize(_stream()), ALPHABET)])
    def test_slices_union_to_full_stream(self, make):
        population = make()
        full = list(population.iter_batches(256))
        cuts = [0, 700, 701, 2050, population.n_users]
        sliced = []
        for start, stop in zip(cuts, cuts[1:]):
            sliced.extend(population.iter_range(start, stop, 256))
        assert np.array_equal(
            np.concatenate([ids for ids, _ in sliced]),
            np.concatenate([ids for ids, _ in full]),
        )
        assert np.array_equal(
            np.concatenate([batch.lengths for _, batch in sliced]),
            np.concatenate([batch.lengths for _, batch in full]),
        )
        sliced_codes = [batch.padded_codes(6) for _, batch in sliced]
        full_codes = [batch.padded_codes(6) for _, batch in full]
        assert np.array_equal(np.vstack(sliced_codes), np.vstack(full_codes))

    def test_worker_slices_partition_the_population(self):
        for n_users, workers in [(10, 3), (1000, 4), (3, 8)]:
            slices = worker_slices(n_users, workers)
            covered = [i for start, stop in slices for i in range(start, stop)]
            assert covered == list(range(n_users))

    def test_batch_ids_are_deterministic(self):
        assert batch_id_for(3, 100, 200) == batch_id_for(3, 100, 200)
        assert batch_id_for(3, 100, 200) != batch_id_for(4, 100, 200)
        assert batch_id_for(3, 100, 200) != batch_id_for(3, 0, 200)


class TestLoadgenEquivalence:
    @pytest.fixture(scope="class")
    def offline_result(self):
        config = PrivShapeConfig(
            epsilon=6.0, top_k=2, alphabet_size=4, metric="sed",
            length_low=1, length_high=5,
        )
        return PrivShape(config).extract(_materialize(_stream()), rng=3)

    def _gateway(self, **kwargs):
        config = PrivShapeConfig(
            epsilon=6.0, top_k=2, alphabet_size=4, metric="sed",
            length_low=1, length_high=5,
        )
        return CollectionGateway(config, rng=3, **kwargs)

    def test_inline_loadgen_matches_offline(self, offline_result):
        with serve_in_thread(self._gateway(n_shards=2)) as handle:
            stats = run_loadgen(handle.host, handle.port, _stream(), batch_size=277)
        assert [tuple(s) for s in stats.result["shape_tuples"]] == offline_result.shapes
        assert stats.result["frequencies"] == offline_result.frequencies
        assert stats.total_reports == 3000
        assert [r.kind for r in stats.rounds][0] == "length"
        assert stats.server_status["done"] is True

    def test_multiprocess_loadgen_matches_offline(self, offline_result):
        """Two OS processes stream disjoint user slices; the result must be
        identical — reports are PRF functions of (round, user id) alone."""
        with serve_in_thread(self._gateway(n_shards=2)) as handle:
            stats = run_loadgen(
                handle.host, handle.port, _stream(),
                batch_size=512, workers=2, mp_context="fork",
            )
        assert [tuple(s) for s in stats.result["shape_tuples"]] == offline_result.shapes
        assert stats.result["frequencies"] == offline_result.frequencies
        assert stats.total_reports == 3000
        assert stats.workers == 2


class TestSliceTasks:
    """One retry policy for every slice a round reply asks for, whether the
    slices run in-process or on a pool."""

    ROUND = {"index": 0, "kind": "length"}

    def _tasks(self, current, workers):
        return slice_tasks(
            current, "127.0.0.1", 9, _stream(), workers=workers, batch_size=100,
            max_attempts=5, retry_delay=0.125, chaos=ChaosKill(0, 1),
        )

    @pytest.mark.parametrize("workers", [0, 1, 3])
    def test_windowed_gateway_slices_keep_the_retry_policy(self, workers):
        current = {"round": self.ROUND, "plan": {},
                   "window": {"index": 1, "start": 1000, "stop": 2000}}
        tasks = self._tasks(current, workers)
        assert [(t.start, t.stop) for t in tasks] == worker_slices(1000, max(workers, 1))
        for task in tasks:
            assert (task.max_attempts, task.retry_delay) == (5, 0.125)
            assert isinstance(task.population, WindowView)
            assert (task.host, task.port, task.batch_size) == ("127.0.0.1", 9, 100)
            # Gateway slices are never coordinator-assigned: no open_round,
            # and chaos cannot fire on them.
            assert task.worker_index is None and task.chaos is None
            assert pickle.loads(pickle.dumps(task)).stop == task.stop

    def test_coordinator_slices_follow_the_assignments(self):
        current = {
            "round": self.ROUND, "plan": {},
            "workers": [{"host": "h0", "port": 1, "index": 0, "pid": 10},
                        {"host": "h1", "port": 2, "index": 1, "pid": 11}],
            "assignments": [[0, 1200], [1200, 3000]],
        }
        tasks = self._tasks(current, workers=4)
        assert [(t.host, t.port, t.start, t.stop, t.worker_index, t.worker_pid)
                for t in tasks] == [("h0", 1, 0, 1200, 0, 10),
                                    ("h1", 2, 1200, 3000, 1, 11)]
        for task in tasks:
            assert (task.max_attempts, task.retry_delay) == (5, 0.125)
            assert task.chaos == ChaosKill(0, 1)
