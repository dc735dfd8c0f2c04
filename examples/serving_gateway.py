"""The production serving runtime: gateway, tiers, canary, telemetry.

"This has enabled model retraining and deployment to be nearly automatic"
(§1) — and the serving side of that promise is :mod:`repro.serve`: a
gateway that owns request queueing, dynamic cross-request micro-batching,
large/small tier routing by latency budget (§2.4), canary/shadow rollout
against the model store, and live telemetry that feeds the monitoring
stack.

This example walks the full rollout loop:

1. train a synchronized large/small pair and push it to a store;
2. serve mixed-budget traffic through a :class:`repro.serve.ServingGateway`
   (tight budgets land on the small tier, relaxed ones on the large);
3. retrain a candidate, stage it in the store *without* releasing it,
   canary 25% of traffic onto it while shadow-mirroring the rest;
4. read the telemetry dashboard, the shadow disagreement rate, and an
   input-drift report built from the gateway's sampled live payloads;
5. promote the candidate — the store's latest pointer moves and the
   gateway serves the new version without restarting.

Run:  python examples/serving_gateway.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import ModelConfig, ModelStore, PayloadConfig, TrainerConfig
from repro.api import Application
from repro.deploy.sync import push_pair
from repro.serve import GatewayConfig, ReplicaPool, ServingGateway
from repro.workloads import (
    FactoidGenerator,
    WorkloadConfig,
    apply_standard_weak_supervision,
)


def config(size: int, epochs: int) -> ModelConfig:
    return ModelConfig(
        payloads={
            "tokens": PayloadConfig(encoder="bow", size=size),
            "query": PayloadConfig(size=size),
            "entities": PayloadConfig(size=size),
        },
        trainer=TrainerConfig(epochs=epochs, batch_size=32, lr=0.05),
    )


def main() -> None:
    dataset = FactoidGenerator(WorkloadConfig(n=400, seed=7)).generate()
    apply_standard_weak_supervision(dataset.records, seed=7)
    app = Application(dataset.schema, name="factoid-qa")

    # ------------------------------------------------------------------
    # 1. Train and push the synchronized pair (§2.4).
    # ------------------------------------------------------------------
    large = app.fit(dataset, config(size=48, epochs=8))
    small = app.fit(dataset, config(size=12, epochs=8))
    store = ModelStore(Path(tempfile.mkdtemp(prefix="overton-serve-")) / "store")
    pushed = push_pair(store, app.name, large.artifact(), small.artifact())
    print(
        f"pushed pair: large@{pushed.large.version} "
        f"({large.model.num_parameters():,} params)  "
        f"small@{pushed.small.version} "
        f"({small.model.num_parameters():,} params)"
    )

    requests = [
        {"tokens": r.payloads["tokens"], "entities": r.payloads["entities"]}
        for r in dataset.records
    ]

    # ------------------------------------------------------------------
    # 2. Serve mixed-budget traffic through the gateway.
    # ------------------------------------------------------------------
    pool = ReplicaPool.from_store(store, app.name)
    pool.warmup(requests[:16])  # seed the per-tier latency estimates
    gateway = ServingGateway(
        pool, GatewayConfig(max_batch_size=16, max_wait_s=0.002)
    )
    with gateway:
        # Two SLA classes: a 0.1ms budget nothing can meet (degrades to the
        # cheapest tier, the §2.4 "small model must meet SLA" path) and an
        # unconstrained one (most capable tier).
        tight, relaxed = 0.0001, 10.0
        futures = []
        for i, request in enumerate(requests[:200]):
            budget = tight if i % 2 else relaxed  # alternate SLA classes
            futures.append(gateway.submit_async(request, latency_budget=budget))
        responses = [f.result(timeout=60) for f in futures]
        print(f"\nserved {len(responses)} mixed-budget requests:")
        print(gateway.dashboard())

        # --------------------------------------------------------------
        # 3. Stage a retrained candidate and canary it.
        # --------------------------------------------------------------
        retrained_large = app.fit(dataset, config(size=48, epochs=2))
        retrained_small = app.fit(dataset, config(size=12, epochs=2))
        cand_large = store.push(
            f"{app.name}/large", retrained_large.artifact(), set_latest=False
        )
        cand_small = store.push(
            f"{app.name}/small", retrained_small.artifact(), set_latest=False
        )
        print(
            f"\nstaged candidate: large@{cand_large.version} "
            f"small@{cand_small.version} (latest pointers unchanged)"
        )
        gateway.set_canary(
            {"large": cand_large.version, "small": cand_small.version},
            fraction=0.25,
            shadow=True,
        )
        stable_before = gateway.rollout.status().stable_served
        for i, request in enumerate(requests[200:400]):
            gateway.submit(request, request_id=f"canary-wave-{i}")
        gateway.drain()

        # --------------------------------------------------------------
        # 4. What the rollout evidence says.
        # --------------------------------------------------------------
        status = gateway.rollout.status()
        rate = status.disagreement_rate
        print(
            f"\ncanary wave: stable={status.stable_served - stable_before} "
            f"canary={status.canary_served} shadowed={status.shadow_served}"
        )
        print(
            "shadow disagreement rate: "
            + (f"{rate:.3f}" if rate is not None else "n/a")
        )
        vocab = dataset.build_vocabs()["tokens"]
        drift = gateway.telemetry.drift_report(dataset.records, vocab)
        print(
            f"live-input drift: js={drift.token_js_divergence:.4f} "
            f"oov={drift.oov_rate_live:.4f} drifted={drift.drifted()}"
        )

        # --------------------------------------------------------------
        # 5. Promote: store pointers move, serving never stops.
        # --------------------------------------------------------------
        promoted = gateway.promote_canary()
        print(f"\npromoted candidate: {promoted}")
        print(
            f"store latest now: large={store.latest_version(f'{app.name}/large')} "
            f"small={store.latest_version(f'{app.name}/small')}"
        )
        response = gateway.submit(requests[0])
        print(f"post-promotion Intent -> {response['Intent']['label']}")
        print("\nfinal dashboard:")
        print(gateway.dashboard())


if __name__ == "__main__":
    main()
