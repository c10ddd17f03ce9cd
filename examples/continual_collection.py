#!/usr/bin/env python
"""Continual collection: sliding windows, drift, and a mid-window crash.

A deployment rarely collects once.  This example runs the continual
subsystem end to end on a scripted-drift population:

1. a :class:`~repro.service.DriftingShapeStream` whose template mixture
   flips at a scripted breakpoint (user ids play the role of arrival time);
2. a windowed :class:`~repro.server.CollectionGateway` that renews the
   privacy budget every window, carries the trie survivors forward, probes
   later windows with cheap refine-only *refresh* rounds, and re-extracts in
   full only when the drift detector fires — which it does exactly at the
   window crossing the breakpoint;
3. a kill: mid-way through window 1 the gateway checkpoints and dies.  A
   fresh process restores it with ``CollectionGateway.from_checkpoint``, the
   interrupted round is replayed (checkpointed batches deduplicate), and the
   run finishes — byte-identical, window for window, to an uninterrupted
   inline :class:`~repro.continual.ContinualEngine` run on the same seed.

Run with:  python examples/continual_collection.py [n_users]
"""

from __future__ import annotations

import sys

from repro import (
    ContinualEngine,
    DriftingShapeStream,
    WindowSpec,
)
from repro.continual.windows import WindowView
from repro.core.config import PrivShapeConfig
from repro.server import (
    CollectionGateway,
    GatewayClient,
    run_loadgen,
    serve_in_thread,
)
from repro.service import default_templates
from repro.service.client import round_batches
from repro.service.plan import CollectionPlan, RoundSpec

SEED = 11


def build_population(n_users: int) -> DriftingShapeStream:
    """Three tumbling windows' worth of users; the mixture flips in the last."""
    alphabet = ("a", "b", "c", "d")
    templates = default_templates(alphabet, n_templates=5, length=5, rng=0)
    base = tuple(1.0 / (rank + 1) for rank in range(len(templates)))
    return DriftingShapeStream(
        n_users=n_users,
        alphabet=alphabet,
        templates=tuple(templates),
        weights=base,
        seed=0,
        breakpoints=(2 * n_users // 3,),
        mixtures=(base, tuple(reversed(base))),
    )


def window_round_batches(population, current, batch_size=512):
    """The (batch, batch_id) pairs one round needs, over the window's view."""
    ticket = current["window"]
    view = WindowView(population, ticket["start"], ticket["stop"])
    plan = CollectionPlan.from_dict(current["plan"])
    spec = RoundSpec.from_dict(current["round"])
    return list(round_batches(view, plan, spec, 0, view.n_users, batch_size))


def main(n_users: int = 9_000) -> None:
    config = PrivShapeConfig(
        epsilon=6.0, top_k=3, alphabet_size=4, metric="sed",
        length_low=1, length_high=5,
    )
    windows = WindowSpec(
        length=n_users // 3,  # three tumbling windows
        refresh=True,  # cheap refine-only probes while the mixture holds
        drift_threshold=0.3,  # full re-extraction when L1 drift exceeds this
    )
    population = build_population(n_users)

    # ---- reference: the uninterrupted inline run --------------------------
    inline = ContinualEngine(
        config, windows, population, batch_size=2048, seed=SEED
    ).run()

    # ---- the same run on a gateway, with a crash inside window 1 ----------
    checkpoint_dir = "/tmp/privshape-continual-ckpt"
    gateway = CollectionGateway(
        config, rng=SEED, checkpoint_dir=checkpoint_dir,
        windows=windows, n_users=n_users,
    )
    handle = serve_in_thread(gateway)
    print(f"windowed gateway on {handle.host}:{handle.port}")

    client = GatewayClient(handle.host, handle.port)
    while True:  # drive window 0, then stop partway through window 1
        current = client.round()
        if current["window"]["index"] == 1:
            break
        if current.get("window_done"):
            closed = client.request({"op": "window"})["closed"]
            print(f"  window 0 closed: {closed['shapes']}")
            continue
        for batch, batch_id in window_round_batches(population, current):
            client.report(batch, batch_id)
        client.close_round(current["round"]["index"])

    batches = window_round_batches(population, current)
    for batch, batch_id in batches[: len(batches) // 2]:
        client.report(batch, batch_id)
    client.checkpoint()
    client.close()
    handle.stop()
    print("  gateway killed mid-window-1 (half a round in flight)")

    # A fresh process restores the exact window schedule, ledger, and the
    # interrupted round's accepted batches from the checkpoint.
    recovered = CollectionGateway.from_checkpoint(checkpoint_dir)
    with serve_in_thread(recovered) as handle:
        print(f"  recovered gateway on {handle.host}:{handle.port}")
        with handle.client() as client:
            current = client.round()
            replayed = sum(
                not client.report(batch, batch_id)["accepted"]
                for batch, batch_id in batches  # same batch ids: exact dedup
            )
            print(f"  replayed window 1's round; {replayed} duplicates dropped")
            client.close_round(current["round"]["index"])
        stats = run_loadgen(handle.host, handle.port, population)

    served = stats.result
    for payload in served["windows"]:
        drift = payload["drift"] or {}
        print(
            f"  window {payload['window']} attempt {payload['attempt']} "
            f"({payload['mode']}, final={payload['final']}): "
            f"{payload['shapes']}"
            + (f"  drift l1={drift['l1']:.3f} fired={drift['fired']}" if drift else "")
        )
    accounting = served["accounting"]
    print(
        f"per-window budget renewal: {accounting['window_epsilons']} "
        f"(user horizon {accounting['user_horizon']}, user-level epsilon "
        f"{accounting['user_level_epsilon_horizon']:.1f})"
    )

    # ---- the defining guarantee ------------------------------------------
    assert served["windows"] == inline.windows
    assert served["accounting"] == inline.accounting
    fired = [p["window"] for p in served["windows"] if (p["drift"] or {}).get("fired")]
    assert fired == [2], "drift should fire exactly at the breakpoint window"
    print("crash-recovered gateway run is byte-identical to the inline run ✓")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 9_000)
