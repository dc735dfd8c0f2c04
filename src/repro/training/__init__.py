"""Training loop, metrics, evaluation, and quality reports."""

from repro.training.metrics import (
    PRF,
    accuracy,
    macro_f1,
    micro_f1_multilabel,
    per_class_prf,
)
from repro.training.evaluation import (
    TaskEvaluation,
    evaluate,
    mean_primary,
    predict_all,
)
from repro.training.trainer import EpochStats, Trainer, TrainHistory
from repro.training.reports import (
    QualityReport,
    ReportRow,
    quality_report,
)

__all__ = [
    "PRF",
    "accuracy",
    "macro_f1",
    "micro_f1_multilabel",
    "per_class_prf",
    "TaskEvaluation",
    "evaluate",
    "mean_primary",
    "predict_all",
    "EpochStats",
    "Trainer",
    "TrainHistory",
    "QualityReport",
    "ReportRow",
    "quality_report",
]
