"""The generative label model: learning source accuracies without labels.

"Overton learns the accuracy of these sources using ideas from the Snorkel
project.  In particular, it estimates the accuracy of these sources and then
uses these accuracies to compute a probability that each training point is
correct" (§2.2; Ratner et al. 2016, Varma et al. 2019).

Model: each item has a latent true label ``y ~ Categorical(prior)``.  Source
``j``, when it does not abstain, reports ``y`` with probability ``acc_j``
and otherwise a uniformly random wrong class:

    p(vote_j = v | y) = acc_j              if v == y
                        (1-acc_j)/(K-1)    otherwise

Sources abstain independently of ``y`` (missing-at-random), so abstains
contribute nothing to the posterior.  Parameters are fit by EM, which for
this one-coin Dawid-Skene model converges quickly and — with >= 3
conditionally independent sources — recovers the true accuracies (tested
against synthetic sources with known accuracies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SupervisionError
from repro.supervision.label_matrix import ABSTAIN, LabelMatrix
from repro.supervision.majority import majority_vote


@dataclass
class LabelModelResult:
    """Fitted parameters and posteriors."""

    probs: np.ndarray  # (n_items, cardinality) posterior over true labels
    accuracies: np.ndarray  # (n_sources,) prior-weighted mean accuracies
    prior: np.ndarray  # (cardinality,) class prior
    sources: list[str]
    iterations: int
    log_likelihood: float
    # (n_sources, cardinality) class-conditional accuracies:
    # p(vote == y | true == y) per source per true class.
    class_accuracies: np.ndarray | None = None

    def accuracy_of(self, source: str) -> float:
        return float(self.accuracies[self.sources.index(source)])


class LabelModel:
    """EM estimator for the one-coin Dawid-Skene generative model."""

    def __init__(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-6,
        accuracy_floor: float = 0.05,
        accuracy_ceiling: float = 0.995,
        shrinkage: float = 8.0,
        seed: int = 0,
    ) -> None:
        if max_iterations <= 0:
            raise SupervisionError("max_iterations must be positive")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        # Clamping keeps EM away from degenerate all-or-nothing solutions on
        # tiny datasets.  The ceiling must stay high: it is a floor on every
        # source's error rate, and an inflated false-positive rate
        # (Bayes-)correctly suppresses positive votes for any class rarer
        # than that rate — which silently erases rare bitvector classes.
        self.accuracy_floor = accuracy_floor
        self.accuracy_ceiling = accuracy_ceiling
        # Hierarchical shrinkage: per-class accuracy estimates pool toward
        # the source's overall accuracy with this pseudo-count strength.
        # Small per-class sample sizes then behave like the one-coin model
        # while large ones become fully class-conditional.
        self.shrinkage = shrinkage
        self.seed = seed

    def fit(self, matrix: LabelMatrix) -> LabelModelResult:
        votes = matrix.votes
        n, m = votes.shape
        k = matrix.cardinality
        if k < 2:
            raise SupervisionError(f"cardinality must be >= 2, got {k}")
        if n == 0:
            return LabelModelResult(
                probs=np.zeros((0, k)),
                accuracies=np.full(m, 0.7),
                prior=np.full(k, 1.0 / k),
                sources=list(matrix.sources),
                iterations=0,
                log_likelihood=0.0,
            )

        valid_mask = self._valid_mask(matrix)  # (n, k) bool
        # Initialize from majority vote so EM starts near a sensible basin.
        posterior = majority_vote(matrix)
        posterior = np.where(valid_mask, posterior, 0.0)
        posterior = self._renormalize(posterior, valid_mask)

        # The votes never change, so what each source said is indexed once:
        # the rows it voted on, whether each vote matches each class (the
        # E-step's acc/err choice), and per class the rows voting for it
        # (the M-step's hits).
        silent: list[int] = []
        spoken: list[tuple[int, np.ndarray, np.ndarray, list[np.ndarray]]] = []
        classes = np.arange(k)
        for j in range(m):
            idx = np.nonzero(votes[:, j] != ABSTAIN)[0]
            if not len(idx):
                silent.append(j)
                continue
            match = votes[idx, j][:, None] == classes[None, :]
            spoken.append((j, idx, match, [idx[match[:, y]] for y in range(k)]))

        # Class-conditional ("two-coin" for k=2) accuracies: acc[j, y] =
        # p(source j votes y | truth is y).  A single symmetric accuracy
        # systematically squashes minority-class votes under a skewed prior,
        # so the class-conditional form is the default.
        class_acc = np.full((m, k), 0.7)
        prior = np.full(k, 1.0 / k)
        log_likelihood = -np.inf
        iterations = 0

        # Every float reduction below keeps its exact form and order: the
        # results are pinned bit for bit (docs/performance.md).
        for iterations in range(1, self.max_iterations + 1):
            # M-step -------------------------------------------------------
            prior = posterior.mean(axis=0)
            prior = np.clip(prior, 1e-8, None)
            prior = prior / prior.sum()
            class_acc[silent] = 0.5
            for j, idx, _, voters in spoken:
                # expected count of truth y among the items j voted on
                mass_per_class = posterior[idx].sum(axis=0)
                hit = np.zeros(k)
                for y in range(k):
                    hit[y] = posterior[voters[y], y].sum()
                pooled = hit.sum() / max(mass_per_class.sum(), 1e-8)
                class_acc[j] = (hit + self.shrinkage * pooled) / (
                    mass_per_class + self.shrinkage
                )
            class_acc = np.clip(class_acc, self.accuracy_floor, self.accuracy_ceiling)

            # E-step -------------------------------------------------------
            log_post = np.broadcast_to(np.log(prior), (n, k)).copy()
            for j, idx, match, _ in spoken:
                log_acc = np.log(class_acc[j])  # (k,)
                log_err = np.log((1.0 - class_acc[j]) / (k - 1))  # (k,)
                # [i, y] = log p(vote v_i | truth y)
                log_post[idx] += np.where(match, log_acc, log_err)
            log_post = np.where(valid_mask, log_post, -np.inf)
            row_max = log_post.max(axis=1, keepdims=True)
            shifted = np.exp(log_post - row_max)
            norms = shifted.sum(axis=1, keepdims=True)
            posterior = shifted / norms
            new_ll = float((np.log(norms).squeeze(-1) + row_max.squeeze(-1)).sum())
            if abs(new_ll - log_likelihood) < self.tolerance:
                log_likelihood = new_ll
                break
            log_likelihood = new_ll

        mean_accuracies = (class_acc * prior[None, :]).sum(axis=1)
        return LabelModelResult(
            probs=posterior,
            accuracies=mean_accuracies,
            prior=prior.copy(),
            sources=list(matrix.sources),
            iterations=iterations,
            log_likelihood=log_likelihood,
            class_accuracies=class_acc.copy(),
        )

    @staticmethod
    def _valid_mask(matrix: LabelMatrix) -> np.ndarray:
        """(n, k) validity: select tasks restrict to real candidates."""
        n, k = matrix.n_items, matrix.cardinality
        if matrix.item_cardinality is None:
            return np.ones((n, k), dtype=bool)
        card = np.maximum(np.asarray(matrix.item_cardinality, dtype=np.int64), 1)
        return np.arange(k)[None, :] < card[:, None]

    @staticmethod
    def _renormalize(probs: np.ndarray, valid_mask: np.ndarray) -> np.ndarray:
        totals = probs.sum(axis=1, keepdims=True)
        fallback = valid_mask / np.maximum(
            valid_mask.sum(axis=1, keepdims=True), 1
        )
        safe = np.where(totals > 0, probs / np.maximum(totals, 1e-12), fallback)
        return safe


def model_confidence(result: LabelModelResult) -> np.ndarray:
    """Per-item training weight derived from posterior concentration.

    Maps the max posterior probability from [1/K, 1] to [0, 1]: an item the
    model is sure about trains at full weight; a uniform posterior (no
    information) contributes nothing.  This is the "probability that each
    training point is correct" folded into the loss (§2.2).
    """
    n, k = result.probs.shape
    if n == 0:
        return np.zeros(0)
    top = result.probs.max(axis=1)
    floor = 1.0 / k
    return np.clip((top - floor) / (1.0 - floor), 0.0, 1.0)
