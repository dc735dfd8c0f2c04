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
from repro.supervision.rebalance import class_weights_from_probs
from repro.supervision.combine import (
    METHODS,
    CombinedSupervision,
    combine_supervision,
)
from repro.supervision.augmentation import (
    AUGMENT_TAG,
    AugmentationPolicy,
    Augmenter,
    token_dropout,
)
from repro.supervision.synthesis import SYNTHETIC_TAG, Template, TemplateGenerator

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
    "METHODS",
    "CombinedSupervision",
    "combine_supervision",
    "AUGMENT_TAG",
    "AugmentationPolicy",
    "Augmenter",
    "token_dropout",
    "SYNTHETIC_TAG",
    "Template",
    "TemplateGenerator",
]
