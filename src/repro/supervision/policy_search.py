"""Learned augmentation policies.

"One promising approach is to learn augmentation policies, first described
in Ratner et al. [21], which can further automate this process" (§4).  This
module implements the simple, practical version of that idea: treat each
augmentation policy (and each (policy, copies) setting) as an arm, measure
its dev-set utility by actually training with it, and keep the subset that
helps — a TANDA/AutoAugment-style search at Overton's coarse granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.data.dataset import Dataset
from repro.errors import SupervisionError
from repro.supervision.augmentation import AugmentationPolicy, Augmenter


@dataclass
class PolicyTrial:
    """One evaluated policy configuration."""

    policy_name: str
    copies: int
    dev_score: float
    records_added: int


@dataclass
class PolicySearchResult:
    """Augmentation-policy search outcome: trials plus the selected mix."""

    baseline_score: float
    trials: list[PolicyTrial] = field(default_factory=list)
    selected: list[tuple[AugmentationPolicy, int]] = field(default_factory=list)

    @property
    def best_gain(self) -> float:
        if not self.trials:
            return 0.0
        return max(t.dev_score for t in self.trials) - self.baseline_score


def search_augmentation_policies(
    dataset: Dataset,
    policies: Sequence[AugmentationPolicy],
    train_and_score: Callable[[Dataset], float],
    copies_options: Sequence[int] = (1,),
    min_gain: float = 0.0,
    seed: int = 0,
) -> PolicySearchResult:
    """Evaluate each policy by retraining with its augmented data.

    ``train_and_score(dataset) -> dev score`` is the caller's training
    closure (typically wrapping ``Application.fit`` + dev evaluation) so the
    search composes with any model configuration.

    Policies whose best setting beats the no-augmentation baseline by more
    than ``min_gain`` are selected.
    """
    if not policies:
        raise SupervisionError("policy search needs at least one policy")
    baseline = train_and_score(dataset)
    result = PolicySearchResult(baseline_score=baseline)

    train_records = dataset.split("train").records
    best_by_policy: dict[str, tuple[float, int]] = {}
    for policy in policies:
        for copies in copies_options:
            augmenter = Augmenter([policy], seed=seed)
            added = augmenter.augment(train_records, copies=copies)
            augmented = Dataset(
                dataset.schema, dataset.records + added, validate=False
            )
            score = train_and_score(augmented)
            result.trials.append(
                PolicyTrial(
                    policy_name=policy.name,
                    copies=copies,
                    dev_score=score,
                    records_added=len(added),
                )
            )
            current = best_by_policy.get(policy.name)
            if current is None or score > current[0]:
                best_by_policy[policy.name] = (score, copies)

    for policy in policies:
        score, copies = best_by_policy[policy.name]
        if score > baseline + min_gain:
            result.selected.append((policy, copies))
    return result


def apply_selected_policies(
    dataset: Dataset,
    result: PolicySearchResult,
    seed: int = 0,
) -> Dataset:
    """Materialize the winning policies into an augmented dataset."""
    records = list(dataset.records)
    train_records = dataset.split("train").records
    for policy, copies in result.selected:
        augmenter = Augmenter([policy], seed=seed)
        records.extend(augmenter.augment(train_records, copies=copies))
    return Dataset(dataset.schema, records, validate=False)
