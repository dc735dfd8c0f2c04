"""The :class:`Run`: one training outcome, owned end to end.

A run is what ``Application.fit`` / ``Application.tune`` return: the
trained model plus everything the rest of the lifecycle needs — training
history, supervision summary, the search log when tuning produced it, and
the quality report once one has been computed.  A run round-trips through
``run.save(dir)`` / ``Run.load(dir)`` as an artifact directory plus a
``run.json`` sidecar, so "retrain tonight, compare and ship tomorrow"
needs no live Python objects.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.tuning_spec import ModelConfig
from repro.data.dataset import Dataset
from repro.data.vocab import Vocab
from repro.deploy.artifact import ModelArtifact
from repro.errors import DeploymentError
from repro.model.multitask import MultitaskModel
from repro.supervision import CombinedSupervision
from repro.training import (
    EpochStats,
    QualityReport,
    ReportRow,
    TaskEvaluation,
    TrainHistory,
)
from repro.tuning import SearchResult, Trial

if TYPE_CHECKING:  # avoid a circular import with application.py
    from repro.api.application import Application, TrainingData
    from repro.api.endpoint import Endpoint
    from repro.deploy.store import ModelStore, StoredVersion

_RUN_META = "run.json"
_ARTIFACT_DIR = "artifact"


@dataclass
class TrainedModel:
    """A trained model plus everything needed to evaluate and deploy it."""

    model: MultitaskModel
    vocabs: dict[str, Vocab]
    history: TrainHistory
    config: ModelConfig
    train_fingerprint: str
    data: "TrainingData | None" = field(default=None, repr=False, compare=False)

    @property
    def supervision(self) -> dict[str, CombinedSupervision]:
        """What the model trained on; ``{}`` if loaded from disk (no ``data``)."""
        return self.data.supervision if self.data is not None else {}


@dataclass
class Run:
    """The result of one ``Application.fit`` / ``Application.tune`` call."""

    application: "Application"
    trained: TrainedModel
    search: SearchResult | None = None
    quality: QualityReport | None = None
    supervision_summary: dict[str, dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.supervision_summary:
            del self.supervision_summary  # derived on first read, if ever

    def __getattr__(self, name: str):  # only for attributes not set
        if name != "supervision_summary":
            raise AttributeError(f"'Run' object has no attribute {name!r}")
        self.supervision_summary = {
            task: dict(combined.source_accuracies)
            for task, combined in self.trained.supervision.items()
        }
        return self.supervision_summary

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def model(self) -> MultitaskModel:
        return self.trained.model

    @property
    def history(self) -> TrainHistory:
        return self.trained.history

    @property
    def config(self) -> ModelConfig:
        return self.trained.config

    @property
    def train_fingerprint(self) -> str:
        return self.trained.train_fingerprint

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------
    def evaluate(self, dataset: Dataset, tag: str = "test") -> dict[str, TaskEvaluation]:
        return self.application.evaluate(self.trained, dataset, tag=tag)

    def report(
        self, dataset: Dataset, tags: Sequence[str] | None = None
    ) -> QualityReport:
        """Compute (and remember) the per-tag quality report.

        One inference pass scores "overall" and every tag (default: all
        of them, slices included); per-slice quality is
        ``run.report(dataset, tags=[slice_tag(name)])``.
        """
        self.quality = self.application.report(self.trained, dataset, tags=tags)
        return self.quality

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def artifact(self, metrics: dict | None = None) -> ModelArtifact:
        return self.application.build_artifact(self.trained, metrics=metrics)

    def deploy(
        self, store: "ModelStore", name: str | None = None, metrics: dict | None = None
    ) -> "StoredVersion":
        return self.application.deploy(self.trained, store, name=name, metrics=metrics)

    def endpoint(self, constraints=None, micro_batch_size: int | None = 32) -> "Endpoint":
        """A serving session over this run's model."""
        from repro.api.endpoint import Endpoint

        return Endpoint(
            self.artifact(), constraints=constraints, micro_batch_size=micro_batch_size
        )

    # ------------------------------------------------------------------
    # Persistence: artifact directory + run.json sidecar
    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.artifact().save(directory / _ARTIFACT_DIR)
        (directory / _RUN_META).write_text(json.dumps(self._meta_dict(), indent=2))
        return directory

    @classmethod
    def load(cls, directory: str | Path) -> "Run":
        from repro.api.application import Application

        directory = Path(directory)
        meta_path = directory / _RUN_META
        if not meta_path.exists():
            raise DeploymentError(f"not a run directory (missing {_RUN_META}): {directory}")
        meta = json.loads(meta_path.read_text())
        artifact = ModelArtifact.load(directory / _ARTIFACT_DIR)
        application = Application.from_spec(meta["application"])
        trained = TrainedModel(
            model=artifact.build_model(),
            vocabs=dict(artifact.vocabs),
            history=_history_from_dict(meta.get("history", {})),
            config=artifact.config,  # no data: targets are not persisted
            train_fingerprint=meta.get("train_fingerprint", ""),
        )
        return cls(
            application=application,
            trained=trained,
            search=_search_from_dict(meta.get("search")),
            quality=_report_from_rows(meta.get("quality")),
            supervision_summary=meta.get("supervision", {}),
        )

    def _meta_dict(self) -> dict:
        return {
            "application": self.application.to_spec(),
            "train_fingerprint": self.trained.train_fingerprint,
            "history": _history_to_dict(self.trained.history),
            "supervision": self.supervision_summary,
            "search": _search_to_dict(self.search),
            "quality": _report_to_rows(self.quality),
        }


# ----------------------------------------------------------------------
# JSON codecs for the sidecar (±inf-safe)
# ----------------------------------------------------------------------
def _finite_or_none(value: float | None) -> float | None:
    if value is None or not math.isfinite(value):
        return None
    return float(value)


def _history_to_dict(history: TrainHistory) -> dict:
    return {
        "epochs": [
            {
                "epoch": e.epoch,
                "train_loss": _finite_or_none(e.train_loss),
                "dev_score": _finite_or_none(e.dev_score),
            }
            for e in history.epochs
        ],
        "best_epoch": history.best_epoch,
        "best_dev_score": _finite_or_none(history.best_dev_score),
        "stopped_early": history.stopped_early,
    }


def _history_from_dict(spec: dict) -> TrainHistory:
    epochs = [
        EpochStats(
            epoch=e["epoch"],
            train_loss=e["train_loss"] if e["train_loss"] is not None else float("nan"),
            dev_score=e["dev_score"],
        )
        for e in spec.get("epochs", [])
    ]
    best = spec.get("best_dev_score")
    return TrainHistory(
        epochs=epochs,
        best_epoch=spec.get("best_epoch", -1),
        best_dev_score=-np.inf if best is None else best,
        stopped_early=spec.get("stopped_early", False),
    )


def _search_to_dict(search: SearchResult | None) -> dict | None:
    if search is None:
        return None
    return {
        "best_config": search.best_config.to_dict(),
        "best_score": _finite_or_none(search.best_score),
        "trials": [
            {
                "config": t.config.to_dict(),
                "score": _finite_or_none(t.score),
                "rung": t.rung,
            }
            for t in search.trials
        ],
    }


def _search_from_dict(spec: dict | None) -> SearchResult | None:
    if spec is None:
        return None
    return SearchResult(
        best_config=ModelConfig.from_dict(spec["best_config"]),
        best_score=spec["best_score"] if spec["best_score"] is not None else -np.inf,
        trials=[
            Trial(
                config=ModelConfig.from_dict(t["config"]),
                score=t["score"] if t["score"] is not None else -np.inf,
                rung=t.get("rung", 0),
            )
            for t in spec.get("trials", [])
        ],
    )


def _report_to_rows(report: QualityReport | None) -> list | None:
    if report is None:
        return None
    return [
        {"tag": r.tag, "task": r.task, "n": r.n, "metrics": r.metrics}
        for r in report.rows
    ]


def _report_from_rows(rows: list | None) -> QualityReport | None:
    if rows is None:
        return None
    return QualityReport(
        rows=[
            ReportRow(tag=r["tag"], task=r["task"], n=r["n"], metrics=r["metrics"])
            for r in rows
        ]
    )
