"""Extension bench: application-level constraints (the §5 future work).

"Supporting more complex, application-level constraints seems ideally
suited to an SRL approach, and is future work for Overton."

Setup: a model trained *without* the compatibility labeling function — its
IntentArg head has learned the popularity heuristic's systematic error, so
its independent predictions frequently violate the application's natural
invariant (the selected entity must be compatible with the intent).

The extension adds one declarative constraint and decodes Intent+IntentArg
jointly at serving time — no retraining, no new supervision.

Shape targets: the independent model violates the constraint on a large
fraction of examples; constrained decoding removes (nearly) all violations
and substantially improves both overall and hard-slice accuracy.
"""

from __future__ import annotations

from repro.api import Application, Endpoint
from repro.data.tags import slice_tag
from repro.workloads import (
    FactoidGenerator,
    HARD_DISAMBIGUATION_SLICE,
    WorkloadConfig,
    apply_standard_weak_supervision,
    factoid_constraints,
)

from benchmarks.conftest import print_table, small_model_config


def _accuracy(endpoint: Endpoint, records) -> float:
    correct = 0
    for record in records:
        response = endpoint.predict_one(
            {
                "tokens": record.payloads["tokens"],
                "entities": record.payloads["entities"],
            }
        )
        correct += int(
            response["IntentArg"]["index"] == record.label_from("IntentArg", "gold")
        )
    return correct / max(len(records), 1)


def _violation_rate(endpoint: Endpoint, records, constraints) -> float:
    distributions = []
    contexts = []
    for record in records:
        # Reuse the endpoint's model outputs via its public API by
        # rebuilding distributions from scores.
        response = endpoint.predict_one(
            {
                "tokens": record.payloads["tokens"],
                "entities": record.payloads["entities"],
            }
        )
        import numpy as np

        intent_classes = endpoint.signature.output("Intent").classes
        intent_probs = np.array(
            [response["Intent"]["scores"][c] for c in intent_classes]
        )
        arg_scores = np.array(response["IntentArg"]["scores"])
        distributions.append({"Intent": intent_probs, "IntentArg": arg_scores})
        contexts.append(record)
    return constraints.violation_rate(distributions, contexts)


def run_constraints(seed: int = 13) -> dict[str, list]:
    dataset = FactoidGenerator(
        WorkloadConfig(n=700, seed=seed, hard_fraction=0.25)
    ).generate()
    apply_standard_weak_supervision(dataset.records, seed=seed)
    # The engineer has not written the targeted LF: the model inherits the
    # popularity heuristic's systematic error.
    for record in dataset.records:
        record.tasks.get("IntentArg", {}).pop("lf_compatible", None)

    app = Application(dataset.schema)
    trained = app.fit(dataset, small_model_config(size=24, epochs=10)).trained
    artifact = app.build_artifact(trained)

    test = dataset.split("test")
    hard = test.with_tag(slice_tag(HARD_DISAMBIGUATION_SLICE))
    constraints = factoid_constraints(weight=20.0)

    plain = Endpoint(artifact)
    constrained = Endpoint(artifact, constraints=constraints)

    violation = _violation_rate(plain, test.records, constraints)
    rows = {
        "decoding": ["independent", "constrained"],
        "overall_arg_acc": [
            round(_accuracy(plain, test.records), 4),
            round(_accuracy(constrained, test.records), 4),
        ],
        "hard_slice_arg_acc": [
            round(_accuracy(plain, hard.records), 4),
            round(_accuracy(constrained, hard.records), 4),
        ],
        "independent_violation_rate": [round(violation, 4), 0.0],
    }
    return rows


def test_constrained_decoding(benchmark):
    rows = benchmark.pedantic(run_constraints, rounds=1, iterations=1)
    print_table("SRL future work: constrained joint decoding", rows)

    # Shape 1: the unconstrained model violates the invariant often.
    assert rows["independent_violation_rate"][0] > 0.1, rows
    # Shape 2: constrained decoding improves both overall and the hard
    # slice without retraining.
    assert rows["overall_arg_acc"][1] > rows["overall_arg_acc"][0] + 0.1, rows
    assert rows["hard_slice_arg_acc"][1] > rows["hard_slice_arg_acc"][0] + 0.2, rows
