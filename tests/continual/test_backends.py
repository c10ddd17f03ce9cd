"""Backend equivalence for continual runs: inline == gateway == cluster.

The per-window payloads are produced by the one shared
:class:`~repro.continual.engine.WindowController`, so any execution backend
must emit the byte-identical result sequence under one master seed — and a
gateway killed mid-window and restored from its checkpoint must leave every
window's estimates unchanged.
"""

import pytest

from repro.cluster import launch_cluster, run_cluster_loadgen
from repro.continual import ContinualEngine
from repro.continual.windows import WindowSpec, WindowView
from repro.core.config import PrivShapeConfig
from repro.exceptions import ConfigurationError
from repro.server import (
    CollectionGateway,
    GatewayClient,
    run_loadgen,
    serve_in_thread,
)
from repro.service import DriftingShapeStream, SyntheticShapeStream
from repro.service.client import round_batches
from repro.service.plan import CollectionPlan, RoundSpec

ALPHABET = ("a", "b", "c", "d")
TEMPLATES = (
    ("a", "b", "c", "d"),
    ("d", "c", "b", "a"),
    ("b", "c", "a", "b"),
)
WEIGHTS = (0.7, 0.2, 0.1)
SHIFTED = (0.1, 0.2, 0.7)
N_USERS = 1800
SEED = 11
WINDOWS = WindowSpec(length=600, refresh=True, drift_threshold=0.3)


def _config() -> PrivShapeConfig:
    return PrivShapeConfig(
        epsilon=6.0, top_k=2, alphabet_size=4, metric="sed",
        length_low=1, length_high=5,
    )


@pytest.fixture(scope="module")
def population():
    return DriftingShapeStream(
        n_users=N_USERS,
        alphabet=ALPHABET,
        templates=TEMPLATES,
        weights=WEIGHTS,
        seed=3,
        breakpoints=(1200,),
        mixtures=(WEIGHTS, SHIFTED),
    )


@pytest.fixture(scope="module")
def inline_outcome(population):
    return ContinualEngine(
        _config(), WINDOWS, population, batch_size=512, seed=SEED
    ).run()


def _assert_matches_inline(result_payload, inline):
    assert result_payload["windows"] == inline.windows
    assert result_payload["accounting"] == inline.accounting
    assert result_payload["base_seed"] == inline.base_seed


class TestGatewayEquivalence:
    def test_gateway_run_matches_inline(self, population, inline_outcome):
        gateway = CollectionGateway(
            _config(), rng=SEED, n_shards=2,
            windows=WINDOWS, n_users=population.n_users,
        )
        with serve_in_thread(gateway) as handle:
            stats = run_loadgen(
                handle.host, handle.port, population, batch_size=257
            )
        _assert_matches_inline(stats.result, inline_outcome)
        # One closed-window record per window attempt (drift re-run included).
        assert len(stats.windows) == len(inline_outcome.windows)

    def test_kill_and_recover_mid_window_leaves_estimates_unchanged(
        self, population, inline_outcome, tmp_path
    ):
        """The acceptance criterion: crash the gateway mid-window-1, restore
        from the checkpoint, finish the run — every window byte-identical."""
        checkpoint_dir = str(tmp_path / "ckpt")
        gateway = CollectionGateway(
            _config(), rng=SEED, checkpoint_dir=checkpoint_dir,
            windows=WINDOWS, n_users=population.n_users,
        )
        handle = serve_in_thread(gateway)
        client = GatewayClient(handle.host, handle.port)
        # Drive window 0 to completion and open window 1, then stop partway
        # through window 1's current round.
        while True:
            current = client.round()
            assert not current["done"]
            ticket = current["window"]
            if ticket["index"] == 1:
                break
            if current.get("window_done"):
                client.request({"op": "window"})
                continue
            _stream_round(client, population, current)
            client.close_round(current["round"]["index"])
        batches = _round_batches(population, current)
        half = len(batches) // 2
        assert half >= 1
        for batch, batch_id in batches[:half]:
            client.report(batch, batch_id)
        client.checkpoint()
        client.close()
        handle.stop()  # crash: everything since the checkpoint is gone

        recovered = CollectionGateway.from_checkpoint(checkpoint_dir)
        with serve_in_thread(recovered) as handle:
            with handle.client() as client:
                current = client.round()
                assert current["window"]["index"] == 1
                duplicates = 0
                # Replay the interrupted round with the same batch boundaries:
                # the checkpointed half is rejected as duplicates, the rest
                # lands, and no user is ever counted twice.
                for batch, batch_id in batches:
                    if not client.report(batch, batch_id)["accepted"]:
                        duplicates += 1
                assert duplicates == half
                client.close_round(current["round"]["index"])
            # Finish the remaining rounds and windows via the loadgen.
            stats = run_loadgen(
                handle.host, handle.port, population, batch_size=257
            )
        _assert_matches_inline(stats.result, inline_outcome)

    def test_windowed_gateway_rejects_a_population_of_another_size(
        self, population
    ):
        gateway = CollectionGateway(
            _config(), rng=SEED, windows=WINDOWS, n_users=population.n_users,
        )
        other = SyntheticShapeStream(
            n_users=N_USERS - 600, alphabet=ALPHABET, templates=TEMPLATES,
            weights=WEIGHTS, seed=3,
        )
        with serve_in_thread(gateway) as handle:
            with pytest.raises(
                ConfigurationError, match=f"planned windows over {N_USERS} users"
            ):
                run_loadgen(handle.host, handle.port, other)


class TestClusterEquivalence:
    def test_cluster_run_matches_inline(self, population, inline_outcome):
        with launch_cluster(
            _config(),
            n_users=population.n_users,
            n_workers=2,
            rng=SEED,
            windows=WINDOWS,
        ) as cluster:
            stats = run_cluster_loadgen(
                cluster.host, cluster.port, population, batch_size=193
            )
            restarts = list(cluster.supervisor.restarts)
        _assert_matches_inline(stats.result, inline_outcome)
        assert restarts == [0, 0]
        assert len(stats.windows) == len(inline_outcome.windows)


def _round_batches(population, current):
    """All (batch, batch_id) pairs one round needs, over the window's view."""
    ticket = current["window"]
    view = WindowView(population, ticket["start"], ticket["stop"])
    return list(
        round_batches(
            view,
            CollectionPlan.from_dict(current["plan"]),
            RoundSpec.from_dict(current["round"]),
            0,
            view.n_users,
            200,
        )
    )


def _stream_round(client, population, current):
    for batch, batch_id in _round_batches(population, current):
        client.report(batch, batch_id)
