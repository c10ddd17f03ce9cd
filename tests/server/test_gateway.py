"""Socket-level gateway behaviour and the offline-equivalence guarantee.

The acceptance bar for the server subsystem: a run driven over the socket —
any batching, any sharding, including a kill-and-recover-from-checkpoint
mid-round — produces byte-identical shape estimates to the offline
``PrivShape.extract()`` path under the same PRF seed.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.config import PrivShapeConfig
from repro.core.privshape import PrivShape
from repro.exceptions import ServerError
from repro.server import (
    CollectionGateway,
    GatewayClient,
    run_loadgen,
    serve_in_thread,
)
from repro.service import EncodedPopulation
from repro.service.client import round_batches
from repro.service.plan import CollectionPlan, RoundSpec

SEQUENCES = [tuple("abcd")] * 900 + [tuple("dcba")] * 600 + [tuple("bca")] * 300
CONFIG = dict(epsilon=6.0, top_k=2, alphabet_size=4, metric="sed", length_high=6)


@pytest.fixture(scope="module")
def offline_result():
    return PrivShape(PrivShapeConfig(**CONFIG)).extract(SEQUENCES, rng=5)


@pytest.fixture(scope="module")
def population():
    return EncodedPopulation.from_sequences(
        SEQUENCES, PrivShapeConfig(**CONFIG).alphabet
    )


def _assert_matches_offline(result_payload, offline):
    assert [tuple(s) for s in result_payload["shape_tuples"]] == offline.shapes
    assert result_payload["frequencies"] == offline.frequencies
    assert result_payload["estimated_length"] == offline.estimated_length
    assert result_payload["accounting"]["per_population"] == \
        offline.accountant.per_population()


def _collect_round_batches(population, plan_dict, round_dict, batch_size):
    """All (batch, batch_id) pairs a loadgen would send for one round."""
    return list(
        round_batches(
            population,
            CollectionPlan.from_dict(plan_dict),
            RoundSpec.from_dict(round_dict),
            0,
            population.n_users,
            batch_size,
        )
    )


class TestSocketEquivalence:
    @pytest.mark.parametrize(
        "n_shards,batch_size,queue_depth", [(1, 97, 64), (3, 333, 64), (2, 5000, 1)]
    )
    def test_socket_run_matches_offline(
        self, offline_result, population, n_shards, batch_size, queue_depth
    ):
        """Any sharding/batching — including queue_depth=1 backpressure —
        yields byte-identical results over the socket."""
        gateway = CollectionGateway(
            PrivShapeConfig(**CONFIG), rng=5, n_shards=n_shards, queue_depth=queue_depth
        )
        with serve_in_thread(gateway) as handle:
            stats = run_loadgen(
                handle.host, handle.port, population, batch_size=batch_size
            )
        _assert_matches_offline(stats.result, offline_result)
        assert stats.total_reports == len(SEQUENCES)

    def test_duplicate_batches_are_not_double_counted(
        self, offline_result, population
    ):
        gateway = CollectionGateway(PrivShapeConfig(**CONFIG), rng=5, n_shards=2)
        with serve_in_thread(gateway) as handle:
            with handle.client() as client:
                while not (current := client.round())["done"]:
                    batches = _collect_round_batches(
                        population, current["plan"], current["round"], 250
                    )
                    for batch, batch_id in batches:
                        first = client.report(batch, batch_id)
                        replay = client.report(batch, batch_id)
                        assert first["accepted"] is True
                        assert replay["accepted"] is False
                    client.close_round(current["round"]["index"])
                result = client.result()
        _assert_matches_offline(result, offline_result)

    def test_kill_and_recover_from_mid_round_checkpoint(
        self, offline_result, population, tmp_path
    ):
        """The acceptance criterion: crash mid-round, restore from the
        checkpoint, replay the round, finish — byte-identical to offline."""
        checkpoint_dir = str(tmp_path / "ckpt")
        gateway = CollectionGateway(
            PrivShapeConfig(**CONFIG), rng=5, n_shards=3, checkpoint_dir=checkpoint_dir
        )
        handle = serve_in_thread(gateway)
        client = GatewayClient(handle.host, handle.port)
        # Advance into round 2, then send only half of that round's batches.
        for _ in range(2):
            current = client.round()
            for batch, batch_id in _collect_round_batches(
                population, current["plan"], current["round"], 200
            ):
                client.report(batch, batch_id)
            client.close_round(current["round"]["index"])
        current = client.round()
        batches = _collect_round_batches(
            population, current["plan"], current["round"], 200
        )
        half = len(batches) // 2
        assert half >= 1
        for batch, batch_id in batches[:half]:
            client.report(batch, batch_id)
        client.checkpoint()
        client.close()
        handle.stop()  # crash: everything since the checkpoint is gone

        recovered = CollectionGateway.from_checkpoint(checkpoint_dir)
        assert recovered.engine.current_round.index == current["round"]["index"]
        with serve_in_thread(recovered) as handle:
            with handle.client() as client:
                duplicates = 0
                for batch, batch_id in batches:  # replay the full round
                    if not client.report(batch, batch_id)["accepted"]:
                        duplicates += 1
                assert duplicates == half
                client.close_round(current["round"]["index"])
            # Finish the remaining rounds through the plain loadgen path.
            stats = run_loadgen(handle.host, handle.port, population, batch_size=411)
        _assert_matches_offline(stats.result, offline_result)

    def test_server_initiated_checkpoints_recover(
        self, offline_result, population, tmp_path
    ):
        """checkpoint_every=N writes mid-round snapshots without being asked;
        recovery from the last one is exact."""
        checkpoint_dir = str(tmp_path / "auto")
        gateway = CollectionGateway(
            PrivShapeConfig(**CONFIG),
            rng=5,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=2,
        )
        handle = serve_in_thread(gateway)
        with handle.client() as client:
            current = client.round()
            batches = _collect_round_batches(
                population, current["plan"], current["round"], 150
            )
            for batch, batch_id in batches[:5]:
                client.report(batch, batch_id)
            status = client.status()
        assert status["checkpoints_written"] >= 2
        handle.stop()

        recovered = CollectionGateway.from_checkpoint(checkpoint_dir)
        with serve_in_thread(recovered) as handle:
            with handle.client() as client:
                for batch, batch_id in batches:
                    client.report(batch, batch_id)
                client.close_round(current["round"]["index"])
            stats = run_loadgen(handle.host, handle.port, population, batch_size=500)
        _assert_matches_offline(stats.result, offline_result)


class TestProtocolErrors:
    @pytest.fixture()
    def served(self):
        gateway = CollectionGateway(PrivShapeConfig(**CONFIG), rng=5)
        with serve_in_thread(gateway) as handle:
            with handle.client() as client:
                yield handle, client

    def test_result_before_done_is_rejected(self, served):
        _, client = served
        with pytest.raises(ServerError, match="stage"):
            client.result()

    def test_wrong_round_batch_rejected(self, served, population):
        _, client = served
        current = client.round()
        plan, round_dict = current["plan"], dict(current["round"])
        batch, batch_id = _collect_round_batches(population, plan, round_dict, 300)[0]
        wrong = type(batch)(
            round_index=batch.round_index + 5,
            kind=batch.kind,
            user_ids=batch.user_ids,
            payload=batch.payload,
        )
        with pytest.raises(ServerError, match="does not"):
            client.report(wrong, batch_id)

    def test_close_wrong_round_rejected(self, served):
        _, client = served
        with pytest.raises(ServerError, match="close_round"):
            client.close_round(41)

    def test_unknown_op_rejected(self, served):
        _, client = served
        with pytest.raises(ServerError, match="unknown op"):
            client.request({"op": "reboot"})

    def test_malformed_report_rejected_and_connection_survives(self, served):
        _, client = served
        response = client.request(
            {"op": "report", "batch_id": "x", "data": "!!notbase64!!"}, check=False
        )
        assert response["ok"] is False
        assert response["error_type"] == "WireFormatError"
        assert client.round()["done"] is False  # same connection still works

    def test_checkpoint_without_directory_rejected(self, served):
        _, client = served
        with pytest.raises(ServerError, match="checkpoint"):
            client.checkpoint()

    def test_recovery_requires_a_checkpoint(self, tmp_path):
        with pytest.raises(ServerError, match="no checkpoint"):
            CollectionGateway.from_checkpoint(str(tmp_path / "empty"))


class TestHttpEndpoints:
    def test_status_result_and_health(self, offline_result, population):
        gateway = CollectionGateway(PrivShapeConfig(**CONFIG), rng=5)
        with serve_in_thread(gateway) as handle:
            base = f"http://{handle.host}:{handle.port}"
            status = json.load(urllib.request.urlopen(f"{base}/status", timeout=30))
            assert status["ok"] is True
            assert status["status"]["stage"] == "length"
            # Operational metrics: per-shard queue depth, checkpoint lag, and
            # cumulative throughput ride along with the protocol state.
            assert status["status"]["queue_depths"] == [0]
            assert status["status"]["checkpoint_lag_batches"] == 0
            assert status["status"]["reports_per_second"] == 0.0
            assert json.load(urllib.request.urlopen(f"{base}/healthz", timeout=30))["ok"]

            with pytest.raises(urllib.error.HTTPError) as not_done:
                urllib.request.urlopen(f"{base}/result", timeout=30)
            assert not_done.value.code == 409
            with pytest.raises(urllib.error.HTTPError) as missing:
                urllib.request.urlopen(f"{base}/nope", timeout=30)
            assert missing.value.code == 404

            run_loadgen(handle.host, handle.port, population, batch_size=700)
            result = json.load(urllib.request.urlopen(f"{base}/result", timeout=30))
            status = json.load(urllib.request.urlopen(f"{base}/status", timeout=30))
        _assert_matches_offline(result["result"], offline_result)
        assert status["status"]["done"] is True
        assert status["status"]["total_reports"] == len(SEQUENCES)
        assert status["status"]["reports_per_second"] > 0
