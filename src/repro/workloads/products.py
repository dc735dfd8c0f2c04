"""The four Fig. 3 "products" at different resource levels.

Fig. 3 compares Overton against each product's previous system at four
resourcing levels (High / Medium / Medium / Low).  Resourcing translates
into: training-set size, how much trusted human annotation exists, how many
weak sources engineers have written, and the tuning budget.  The weak
supervision share (80–99% in the paper) falls out of those choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.tuning_spec import ModelConfig, PayloadConfig, TrainerConfig
from repro.data.dataset import Dataset
from repro.supervision.source import LabelSource, SourceRegistry
from repro.workloads.factoid import FactoidGenerator, WorkloadConfig
from repro.workloads.weak_sources import (
    WeakSourceSpec,
    apply_standard_weak_supervision,
)


@dataclass
class ProductSpec:
    """One product's resourcing profile (scaled to simulator size)."""

    name: str
    resourcing: str  # High | Medium | Low
    n_records: int
    intent_sources: tuple[tuple[str, float, float], ...]
    crowd_arg_coverage: float
    epochs: int
    hidden: int

    def workload(self, seed: int = 0) -> WorkloadConfig:
        return WorkloadConfig(n=self.n_records, seed=seed)

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            payloads={
                "tokens": PayloadConfig(encoder="bow", size=self.hidden),
                "query": PayloadConfig(size=self.hidden),
                "entities": PayloadConfig(size=self.hidden),
            },
            trainer=TrainerConfig(
                epochs=self.epochs, batch_size=32, lr=0.05, patience=0
            ),
        )


# Scaled-down analogues of the paper's four production systems.  A
# high-resource product has more data, more (and better) sources, more
# crowd coverage, and a bigger training budget.
PRODUCTS: tuple[ProductSpec, ...] = (
    ProductSpec(
        name="assistant-qa",
        resourcing="High",
        n_records=900,
        intent_sources=(
            ("crowd_intent", 0.95, 0.20),
            ("lf_intent_a", 0.85, 0.95),
            ("lf_intent_b", 0.75, 0.95),
            ("lf_intent_c", 0.70, 0.90),
        ),
        crowd_arg_coverage=0.25,
        epochs=10,
        hidden=32,
    ),
    ProductSpec(
        name="knowledge-cards",
        resourcing="Medium",
        n_records=600,
        intent_sources=(
            ("crowd_intent", 0.92, 0.08),
            ("lf_intent_a", 0.82, 0.95),
            ("lf_intent_b", 0.72, 0.90),
        ),
        crowd_arg_coverage=0.10,
        epochs=12,
        hidden=24,
    ),
    ProductSpec(
        name="entity-linker",
        resourcing="Medium",
        n_records=600,
        intent_sources=(
            ("crowd_intent", 0.9, 0.05),
            ("lf_intent_a", 0.8, 0.9),
            ("lf_intent_b", 0.7, 0.9),
        ),
        crowd_arg_coverage=0.05,
        epochs=12,
        hidden=24,
    ),
    ProductSpec(
        name="locale-expansion",
        resourcing="Low",
        n_records=450,
        intent_sources=(
            ("crowd_intent", 0.9, 0.02),
            ("lf_intent_a", 0.75, 0.9),
            ("lf_intent_b", 0.65, 0.85),
        ),
        crowd_arg_coverage=0.02,
        epochs=14,
        hidden=16,
    ),
)


@dataclass
class BuiltProduct:
    """A generated product: data with supervision attached + bookkeeping."""

    spec: ProductSpec
    dataset: Dataset
    sources: list[WeakSourceSpec] = field(default_factory=list)

    def registry(self) -> SourceRegistry:
        reg = SourceRegistry()
        for spec in self.sources:
            if spec.source.name not in reg:
                reg.register(spec.source)
        if "gold" not in reg:
            reg.register(
                LabelSource(name="gold", kind="human", description="curated validation")
            )
        return reg

    def weak_supervision_fraction(self) -> float:
        """Share of *training* labels from weak sources (the Fig. 3 column).

        Gold labels on train records are excluded from training (they exist
        for the simulator's bookkeeping), so the denominator counts only
        labels a production system would train on: weak sources + crowd.
        """
        stats: dict[str, int] = {}
        for record in self.dataset.split("train").records:
            for task, sources in record.tasks.items():
                for source, label in sources.items():
                    if source == "gold" or label is None:
                        continue
                    stats[source] = stats.get(source, 0) + 1
        return self.registry().weak_fraction(stats)


def build_product(spec: ProductSpec, seed: int = 0) -> BuiltProduct:
    """Generate a product's dataset and attach its supervision bundle."""
    dataset = FactoidGenerator(spec.workload(seed=seed)).generate()
    sources = apply_standard_weak_supervision(
        dataset.records,
        seed=seed,
        intent_sources=spec.intent_sources,
        arg_crowd_coverage=spec.crowd_arg_coverage,
    )
    return BuiltProduct(spec=spec, dataset=dataset, sources=sources)
