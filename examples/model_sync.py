"""Large/small model pairs and versioning (§2.4 "ancillary data products").

"Teams use multiple models to train a 'large' and a 'small' model on the
same data.  The large model is often used to populate caches and do error
analysis, while the small model must meet SLA requirements.  Overton makes
it easy to keep these two models synchronized."

This example trains a synchronized pair through one Application, pushes it
atomically, verifies the sync invariants (same schema, same data
fingerprint, prediction agreement), and then exercises the versioning
extension: semantic versions, release, and rollback — ending with an
:class:`repro.api.Endpoint` pinned to the released version.

Run:  python examples/model_sync.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import ModelConfig, ModelStore, PayloadConfig, TrainerConfig
from repro.api import Application, Endpoint, check_pair
from repro.deploy import VersionLog, push_pair
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
    dataset = FactoidGenerator(WorkloadConfig(n=500, seed=11)).generate()
    apply_standard_weak_supervision(dataset.records, seed=11)
    app = Application(dataset.schema, name="factoid-qa")

    # ------------------------------------------------------------------
    # Train the pair on the SAME data: cache-filling large model + SLA
    # small model.
    # ------------------------------------------------------------------
    large = app.fit(dataset, config(size=48, epochs=10))
    small = app.fit(dataset, config(size=12, epochs=10))
    print(
        f"large: {large.model.num_parameters():,} params   "
        f"small: {small.model.num_parameters():,} params"
    )

    store = ModelStore(Path(tempfile.mkdtemp(prefix="overton-sync-")) / "store")
    pushed = push_pair(store, app.name, large.artifact(), small.artifact())
    print(f"pushed pair: large@{pushed.large.version} small@{pushed.small.version}")

    # ------------------------------------------------------------------
    # Verify the pair stays in sync, probing prediction agreement.
    # ------------------------------------------------------------------
    probes = [
        {"tokens": r.payloads["tokens"], "entities": r.payloads["entities"]}
        for r in dataset.split("test").records[:30]
    ]
    check = check_pair(store, app.name, probe_payloads=probes, min_agreement=0.7)
    print(f"\nsync check: in_sync={check.in_sync} agreement={check.agreement:.2f}")
    for problem in check.problems:
        print(f"  problem: {problem}")

    # ------------------------------------------------------------------
    # Versioning (the paper's stated design oversight, implemented here):
    # record semantic versions, release, roll back.
    # ------------------------------------------------------------------
    log = VersionLog(store, "factoid-qa/small")
    v1 = log.record(pushed.small.version, notes="initial small model")
    log.release(v1.semver)
    print(f"\nreleased small model {v1.semver} -> {v1.content_version}")

    # A retrained candidate arrives...
    retrained = app.fit(dataset, config(size=12, epochs=4))  # undertrained!
    candidate = store.push("factoid-qa/small", retrained.artifact())
    v2 = log.record(candidate.version, bump="minor", notes="retrained candidate")
    log.release(v2.semver)
    print(f"released candidate {v2.semver}")

    # ...it misbehaves in production; roll back instantly.
    log.rollback(v1.semver)
    print(f"rolled back to {v1.semver}")
    print(f"store latest now: {store.latest_version('factoid-qa/small')}")
    print("\nversion history:")
    for record in log.records():
        print(f"  {record.semver:<8} {record.status:<12} {record.notes}")

    # Serving pins against the store: this endpoint stays on the rolled-back
    # version even if later pushes move the latest pointer.
    endpoint = Endpoint.from_store(
        store, "factoid-qa/small", version=store.latest_version("factoid-qa/small")
    )
    print(f"\nserving pinned endpoint @ {endpoint.version}")
    print(f"  sample Intent -> {endpoint.predict(probes[0])['Intent']['label']}")


if __name__ == "__main__":
    main()
