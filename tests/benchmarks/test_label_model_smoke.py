"""Tier-1 smoke for the label-model ablation bench.

Runs ``benchmarks/bench_label_model_ablation.run_ablation`` at full size
(4 scenarios x 4000 items, well under a second) against the bench's own
shape targets: the label model never loses to majority vote beyond noise,
wins clearly on heterogeneous sources, and recovers the true source
accuracies within a few points.  The conformance tests pin the EM
estimator's bits; this pins that it still learns source accuracies.
"""

from benchmarks.bench_label_model_ablation import (
    SCENARIOS,
    assert_ablation_shape,
    run_ablation,
)


def test_label_model_ablation_holds_its_shape():
    rows = run_ablation(seed=0)
    assert rows["scenario"] == list(SCENARIOS)
    assert_ablation_shape(rows)
