"""Weak supervision: sources, labeling functions, label models, combination."""

from repro.supervision.source import (
    SOURCE_KINDS,
    WEAK_KINDS,
    LabelSource,
    SourceRegistry,
)
from repro.supervision.labeling import (
    ApplyReport,
    LabelingFunction,
    LFApplier,
    labeling_function,
)
from repro.supervision.label_matrix import (
    ABSTAIN,
    LabelMatrix,
    build_bitvector_matrices,
    build_label_matrix,
    observed_sources,
)
from repro.supervision.majority import majority_vote, vote_confidence
from repro.supervision.label_model import (
    LabelModel,
    LabelModelResult,
    model_confidence,
)
from repro.supervision.rebalance import class_weights_from_probs, effective_counts
from repro.supervision.combine import (
    METHODS,
    CombinedSupervision,
    combine_supervision,
)
from repro.supervision.augmentation import (
    AUGMENT_TAG,
    AugmentationPolicy,
    Augmenter,
    synonym_swap,
    token_dropout,
)
from repro.supervision.synthesis import SYNTHETIC_TAG, Template, TemplateGenerator
from repro.supervision.active import (
    AnnotationBatch,
    AnnotationCandidate,
    build_annotation_batch,
    simulate_annotation,
)
from repro.supervision.policy_search import (
    PolicySearchResult,
    PolicyTrial,
    apply_selected_policies,
    search_augmentation_policies,
)

__all__ = [
    "SOURCE_KINDS",
    "WEAK_KINDS",
    "LabelSource",
    "SourceRegistry",
    "ApplyReport",
    "LabelingFunction",
    "LFApplier",
    "labeling_function",
    "ABSTAIN",
    "LabelMatrix",
    "build_bitvector_matrices",
    "build_label_matrix",
    "observed_sources",
    "majority_vote",
    "vote_confidence",
    "LabelModel",
    "LabelModelResult",
    "model_confidence",
    "class_weights_from_probs",
    "effective_counts",
    "METHODS",
    "CombinedSupervision",
    "combine_supervision",
    "AUGMENT_TAG",
    "AugmentationPolicy",
    "Augmenter",
    "synonym_swap",
    "token_dropout",
    "SYNTHETIC_TAG",
    "Template",
    "TemplateGenerator",
    "PolicySearchResult",
    "PolicyTrial",
    "apply_selected_policies",
    "search_augmentation_policies",
    "AnnotationBatch",
    "AnnotationCandidate",
    "build_annotation_batch",
    "simulate_annotation",
]
