"""The :class:`Application`: one product feature, declared in one place.

The paper's promise is that engineers drive the whole loop — combine
supervision, train/tune, deploy, monitor — from a declarative description
of the application (§1, Figure 1).  An application bundles exactly that
description: the schema, the slices the team monitors, the supervision
policy (which source is gold, how sources are combined), and the registry
of pretrained embedding products.  It is constructible from a single
``app.json``/dict spec, so the entry layer is validated once instead of
re-plumbed per workload::

    {
      "name": "factoid-qa",
      "schema": {...} | "schema.json",
      "slices": ["nutrition", {"name": "hard", "description": "..."}],
      "supervision": {"gold_source": "gold", "method": "label_model"},
      "seed": 0
    }

``app.fit(dataset)`` / ``app.tune(dataset, spec)`` return a
:class:`repro.api.run.Run`; serving goes through
:class:`repro.api.endpoint.Endpoint`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.api.run import Run, TrainedModel
from repro.core.schema_def import Schema
from repro.core.tuning_spec import ModelConfig, TuningSpec
from repro.data.dataset import Dataset
from repro.data.record import Record
from repro.deploy.artifact import ModelArtifact
from repro.errors import SchemaError, TrainingError
from repro.model.compiler import compile_model
from repro.model.embeddings_registry import EmbeddingProduct, EmbeddingRegistry
from repro.model.task_heads import TaskTargets
from repro.slicing import SliceSet, SliceSpec
from repro.supervision import (
    CombinedSupervision,
    class_weights_from_probs,
    combine_supervision,
    observed_sources,
)
from repro.training import (
    QualityReport,
    TaskEvaluation,
    Trainer,
    evaluate,
    mean_primary,
    quality_report,
)
from repro.tuning import grid_search, random_search, successive_halving

_SPEC_KEYS = ("name", "schema", "slices", "supervision", "embeddings", "seed")


@dataclass(frozen=True)
class SupervisionPolicy:
    """How an application turns raw sources into training targets."""

    gold_source: str = "gold"
    method: str = "label_model"
    rebalance: bool = True

    def to_dict(self) -> dict:
        return {
            "gold_source": self.gold_source,
            "method": self.method,
            "rebalance": self.rebalance,
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "SupervisionPolicy":
        unknown = set(spec) - {"gold_source", "method", "rebalance"}
        if unknown:
            raise SchemaError(
                f"unknown supervision policy keys {sorted(unknown)}; "
                f"expected gold_source, method, rebalance"
            )
        return cls(**spec)


@dataclass
class TrainingData:
    """What training derives from (dataset, method) before any config is known.

    Built once by :meth:`Application.prepare` and shared by every consumer
    of one search — each trial, the serial loop, the winner's refit or
    restore.  Supervision is combined on first read and kept: at most once
    per search, and only when something trains.  It holds no closure, so
    it pickles before and after that read.
    """

    train_records: list[Record]
    dev_records: list[Record]
    vocabs: dict
    train_fingerprint: str
    application: "Application" = field(repr=False)
    method: str | None = None

    @cached_property
    def combined(self) -> tuple[dict[str, TaskTargets], dict[str, CombinedSupervision]]:
        """``application.combine(train_records, method)``, run on first read."""
        return self.application.combine(self.train_records, method=self.method)

    @property
    def targets(self) -> dict[str, TaskTargets]:
        return self.combined[0]

    @property
    def supervision(self) -> dict[str, CombinedSupervision]:
        return self.combined[1]

    def trained(self, model, history, config: ModelConfig) -> TrainedModel:
        return TrainedModel(
            model=model,
            vocabs=self.vocabs,
            history=history,
            config=config,
            train_fingerprint=self.train_fingerprint,
            data=self,
        )


class Application:
    """One application = schema + slices + supervision policy + embeddings."""

    def __init__(
        self,
        schema: Schema,
        *,
        name: str = "application",
        slices: SliceSet | None = None,
        registry: EmbeddingRegistry | None = None,
        supervision: SupervisionPolicy | None = None,
        seed: int = 0,
    ) -> None:
        self.schema = schema
        self.name = name
        self.slices = slices if slices is not None else SliceSet()
        self.registry = registry if registry is not None else EmbeddingRegistry()
        self.supervision = supervision if supervision is not None else SupervisionPolicy()
        self.seed = seed

    # ------------------------------------------------------------------
    # The declarative spec (app.json)
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls, spec: dict | str | Path, base_dir: str | Path | None = None
    ) -> "Application":
        """Build an application from a dict or an ``app.json`` path.

        ``schema`` may be inline (a dict) or a file path, resolved relative
        to the spec file's directory.  Slices are names or
        ``{"name", "description"}`` objects (predicates are code, not spec).
        ``embeddings`` is an optional list of saved
        :class:`EmbeddingProduct` file paths.
        """
        if isinstance(spec, (str, Path)):
            path = Path(spec)
            if base_dir is None:
                base_dir = path.parent
            try:
                spec = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise SchemaError(f"cannot read application spec {path}: {exc}") from exc
        if not isinstance(spec, dict):
            raise SchemaError(f"application spec must be an object, got {type(spec).__name__}")
        unknown = set(spec) - set(_SPEC_KEYS)
        if unknown:
            raise SchemaError(
                f"unknown application spec keys {sorted(unknown)}; "
                f"expected a subset of {list(_SPEC_KEYS)}"
            )
        if "schema" not in spec:
            raise SchemaError("application spec needs a 'schema' (inline dict or file path)")
        base = Path(base_dir) if base_dir is not None else Path(".")
        schema_spec = spec["schema"]
        if isinstance(schema_spec, dict):
            schema = Schema.from_dict(schema_spec)
        elif isinstance(schema_spec, str):
            schema = Schema.from_file(base / schema_spec)
        else:
            raise SchemaError("'schema' must be an inline object or a file path")

        slices = SliceSet([_slice_from_spec(s) for s in spec.get("slices", [])])
        registry = EmbeddingRegistry(
            [EmbeddingProduct.load(base / p) for p in spec.get("embeddings", [])]
        )
        return cls(
            schema,
            name=spec.get("name", "application"),
            slices=slices,
            registry=registry,
            supervision=SupervisionPolicy.from_dict(spec.get("supervision", {})),
            seed=spec.get("seed", 0),
        )

    def to_spec(self) -> dict:
        """The declarative spec, with the schema inlined.

        Slice predicates and in-memory embedding products are code/runtime
        state and are not serialized; slices keep their names and
        descriptions, which is what re-materializes them from tagged data.
        """
        return {
            "name": self.name,
            "schema": self.schema.to_dict(),
            "slices": [
                {"name": s.name, "description": s.description} for s in self.slices
            ],
            "supervision": self.supervision.to_dict(),
            "seed": self.seed,
        }

    # ------------------------------------------------------------------
    # Supervision combination (Figure 1: "Combine Supervision")
    # ------------------------------------------------------------------
    def combine(
        self,
        records: Sequence[Record],
        method: str | None = None,
        rebalance: bool | None = None,
    ) -> tuple[dict[str, TaskTargets], dict[str, CombinedSupervision]]:
        """Build noise-aware training targets for every task.

        The gold source is always excluded from training supervision — it
        exists for validation only (§3: "validation is still done
        manually").
        """
        method = method if method is not None else self.supervision.method
        rebalance = rebalance if rebalance is not None else self.supervision.rebalance
        gold_source = self.supervision.gold_source
        membership = (
            self.slices.membership_matrix(records) if len(self.slices) else None
        )
        targets: dict[str, TaskTargets] = {}
        combined_all: dict[str, CombinedSupervision] = {}
        observed = observed_sources(records, [t.name for t in self.schema.tasks])
        for task in self.schema.tasks:
            sources = observed[task.name]
            if sources != [gold_source]:
                # Gold trains only when it is the sole supervision (e.g.
                # tiny demo datasets), rather than failing.
                sources = [s for s in sources if s != gold_source]
            combined = combine_supervision(
                records, self.schema, task.name, method=method, sources=sources
            )
            combined_all[task.name] = combined
            class_weights = None
            if rebalance and task.type == "multiclass":
                flat = combined.probs.reshape(-1, combined.probs.shape[-1])
                flat_weights = combined.weights.reshape(-1)
                class_weights = class_weights_from_probs(flat, flat_weights)
            elif rebalance and task.type == "bitvector":
                # Per-class positive weight for BCE: rare positive classes
                # would otherwise collapse to all-negative predictions.
                flat = combined.probs.reshape(-1, combined.probs.shape[-1])
                flat_weights = combined.weights.reshape(-1)
                labeled = flat[flat_weights > 0]
                if len(labeled):
                    pos_rate = labeled.mean(axis=0)
                    class_weights = np.clip(
                        (1.0 - pos_rate) / np.maximum(pos_rate, 1e-6), 1.0, 10.0
                    )
            targets[task.name] = TaskTargets(
                probs=combined.probs,
                weights=combined.weights,
                class_weights=class_weights,
                membership=membership,
            )
        return targets, combined_all

    # ------------------------------------------------------------------
    # Training (Figure 1: "Train & Tune Models")
    # ------------------------------------------------------------------
    def prepare(self, dataset: Dataset, method: str | None = None) -> TrainingData:
        """Everything ``fit`` needs that does not depend on the model config.

        Splits, slice materialisation, vocabularies, combined supervision
        and the train fingerprint are a pure function of (application,
        dataset, method): a search computes them once and every model it
        trains starts from the same object.  The supervision is combined on
        first read (:class:`TrainingData`).
        """
        return self._prepare(dataset, method, whole=False)[0]

    def _prepare(self, dataset: Dataset, method: str | None, whole: bool):
        """``(prepare(...), data_fingerprint(dataset.records if whole else
        train records))``, encoding each record once for both hashes."""
        from repro.deploy.sync import data_fingerprints

        train = dataset.split("train")
        dev = dataset.split("dev")
        if len(train) == 0:
            raise TrainingError("dataset has no records tagged 'train'")
        self.slices.materialize(dataset.records)
        vocabs = dataset.build_vocabs()
        hashed, train_fingerprint = data_fingerprints(
            dataset.records if whole else train.records, train.records
        )
        data = TrainingData(
            train_records=train.records,
            dev_records=dev.records,
            vocabs=vocabs,
            train_fingerprint=train_fingerprint,
            application=self,
            method=method,
        )
        return data, hashed

    def fit(
        self,
        dataset: Dataset,
        config: ModelConfig | None = None,
        method: str | None = None,
    ) -> Run:
        """Train one model on the dataset's train split; returns a Run."""
        return self.fit_prepared(self.prepare(dataset, method), config)

    def _compile(self, data: TrainingData, config: ModelConfig):
        return compile_model(
            self.schema,
            config,
            data.vocabs,
            slice_names=self.slices.names,
            registry=self.registry,
            seed=config.trainer.seed or self.seed,
        )

    def fit_prepared(
        self, data: TrainingData, config: ModelConfig | None = None
    ) -> Run:
        """``fit`` from an already prepared data plane: compile, then train."""
        config = config or ModelConfig()
        model = self._compile(data, config)
        history = Trainer(model, config.trainer).fit(
            data.train_records,
            data.vocabs,
            data.targets,
            dev_records=data.dev_records or None,
            gold_source=self.supervision.gold_source,
        )
        return Run(application=self, trained=data.trained(model, history, config))

    def restore(
        self, data: TrainingData, config: ModelConfig, state: dict, history
    ) -> TrainedModel:
        """The model ``fit_prepared(data, config)`` trained, from its state dict.

        Raises :class:`~repro.errors.DeploymentError` when ``state`` does
        not fit the model ``config`` compiles to.
        """
        model = self._compile(data, config)
        model.load_state_dict(state)
        model.eval()
        return data.trained(model, history, config)

    def dev_score(self, data: TrainingData, trained: TrainedModel) -> float:
        """Mean primary metric on the dev split: what a tuning trial scores."""
        evals = evaluate(
            trained.model,
            data.dev_records,
            self.schema,
            trained.vocabs,
            self.supervision.gold_source,
        )
        return mean_primary(evals)

    def tune(
        self,
        dataset: Dataset,
        spec: TuningSpec,
        strategy: str = "grid",
        num_trials: int = 8,
        method: str | None = None,
        workers: int = 1,
        cache_dir: str | Path | None = None,
        executor=None,
    ) -> Run:
        """Hyperparameter/architecture search, scored on the dev split.

        ``workers=1`` (the default, with no cache) runs the exact legacy
        serial loop: trials evaluate inline, in candidate order, and the
        best trial's already-trained model is retained.  With
        ``workers > 1``, ``cache_dir``, or an explicit ``executor``,
        candidates fan out through :mod:`repro.exec`: scores come back in
        the same order (training is deterministic, so they are the same
        scores), completed trials are skipped on resume when a cache
        directory is given, and the returned model is the winning config
        re-trained locally — also deterministic — or, when the cache
        already holds that model, restored from it
        (:func:`repro.exec.winning_model`).  Either way supervision is
        combined at most once per search, and only when something trains
        (:meth:`prepare`): a warm search never runs the label model.
        """
        dev = dataset.split("dev")
        if len(dev) == 0:
            raise TrainingError("tuning requires records tagged 'dev'")
        if workers < 1:
            raise TrainingError(f"workers must be >= 1, got {workers}")

        if executor is None and workers == 1 and cache_dir is None:
            return self._tune_serial(dataset, spec, strategy, num_trials, method)

        from repro.exec import TuneContext, winning_model

        owns_executor = executor is None
        if executor is None:
            executor = self.tuning_executor(
                dataset, workers=workers, cache_dir=cache_dir, method=method
            )
        else:
            if workers != 1 or cache_dir is not None:
                raise TrainingError(
                    "pass workers/cache_dir to tune(), or a pre-built executor "
                    "(from tuning_executor(...)), not both"
                )
            # The executor's workers score trials against the context it
            # was built with; the returned model must describe the same
            # (data, supervision) or run.trained would not be the model
            # the scores describe.
            context = executor.context
            if isinstance(context, TuneContext):
                if context.dataset is not dataset:
                    raise TrainingError(
                        "this executor was built for a different dataset; "
                        "rebuild it with tuning_executor(dataset, ...)"
                    )
                if context.application.schema.fingerprint() != self.schema.fingerprint():
                    raise TrainingError(
                        "this executor was built for an application with a "
                        "different schema; rebuild it with tuning_executor(...)"
                    )
                if (
                    context.application.supervision != self.supervision
                    or context.application.seed != self.seed
                    or context.application.registry.names() != self.registry.names()
                ):
                    raise TrainingError(
                        "this executor was built for an application with a "
                        "different supervision policy, seed, or embedding "
                        "registry; rebuild it with tuning_executor(...)"
                    )
                if method is not None and method != context.method:
                    raise TrainingError(
                        f"method={method!r} conflicts with the executor's "
                        f"context (method={context.method!r}); pass method to "
                        f"tuning_executor(...) instead"
                    )
                method = context.method
        try:
            if strategy == "grid":
                result = grid_search(spec, executor=executor)
            elif strategy == "random":
                result = random_search(
                    spec, num_trials=num_trials, seed=self.seed, executor=executor
                )
            elif strategy == "halving":
                result = successive_halving(spec, seed=self.seed, executor=executor)
            else:
                raise TrainingError(f"unknown tuning strategy {strategy!r}")
        finally:
            if owns_executor:
                executor.close()
        if isinstance(executor.context, TuneContext):
            trained = winning_model(executor, result.best_config, result.best_score)
        else:  # a hand-built executor carries no data plane to train from
            trained = self.fit(dataset, result.best_config, method=method).trained
        return Run(application=self, trained=trained, search=result)

    def _tune_serial(
        self,
        dataset: Dataset,
        spec: TuningSpec,
        strategy: str,
        num_trials: int,
        method: str | None,
    ) -> Run:
        """The legacy in-process search loop, byte-for-byte reproducible."""
        data = self.prepare(dataset, method)
        best_trained: TrainedModel | None = None
        best_score = -np.inf

        def trial(config: ModelConfig) -> float:
            nonlocal best_trained, best_score
            trained = self.fit_prepared(data, config).trained
            score = self.dev_score(data, trained)
            # First-strictly-greater matches the search strategies' own
            # best-trial selection, so best_trained tracks best_config.
            if best_trained is None or score > best_score:
                best_trained, best_score = trained, score
            return score

        if strategy == "grid":
            result = grid_search(spec, trial)
        elif strategy == "random":
            result = random_search(spec, trial, num_trials=num_trials, seed=self.seed)
        elif strategy == "halving":
            result = successive_halving(
                spec, lambda config, epochs: trial(config), seed=self.seed
            )
            # Halving's winner is the final rung's best, which is not
            # necessarily the globally best-scoring trial best_trained
            # tracked; re-train the recorded winner (deterministic) so
            # run.trained always matches run.search.best_config.
            trained = self.fit_prepared(data, result.best_config).trained
            return Run(application=self, trained=trained, search=result)
        else:
            raise TrainingError(f"unknown tuning strategy {strategy!r}")
        if best_trained is None:
            raise TrainingError("tuning produced no trials")
        return Run(application=self, trained=best_trained, search=result)

    def tuning_executor(
        self,
        dataset: Dataset,
        workers: int = 1,
        cache_dir: str | Path | None = None,
        method: str | None = None,
        retries: int = 0,
        retry_backoff_s: float = 0.05,
        on_error: str = "raise",
    ):
        """Build the :class:`repro.exec.TrialExecutor` ``tune`` would use.

        Exposed so callers can inspect executor stats (cache hits, work
        done) or reuse one executor across several searches; pass it back
        via ``tune(..., executor=...)``.  ``retries`` / ``retry_backoff_s``
        / ``on_error`` configure the executor's failure handling (see
        :meth:`repro.exec.TrialExecutor.evaluate`).
        """
        from repro.exec import (
            TrialCache,
            TrialExecutor,
            TuneContext,
            run_tuning_trial,
            tuning_namespace,
        )

        # Predicates run here, once (inside prepare): membership is written
        # onto the records as tags, so predicate-less worker clones see the
        # same slices and combine the same supervision, so the plane holds
        # the clone too.  Workers inherit the plane with the context.
        data, fingerprint = self._prepare(dataset, method, whole=True)
        clone = self._picklable_clone()
        data = replace(data, application=clone)
        context = TuneContext(application=clone, dataset=dataset, data=data, method=method)
        namespace = tuning_namespace(
            clone.to_spec(),
            fingerprint,
            method=method,
            embeddings=[
                (name, self.registry.get(name).dim, self.registry.get(name).version)
                for name in self.registry.names()
            ],
        )
        cache = TrialCache(cache_dir) if cache_dir is not None else None
        return TrialExecutor(
            run_tuning_trial,
            context=context,
            workers=workers,
            cache=cache,
            namespace=namespace,
            base_seed=self.seed,
            retries=retries,
            retry_backoff_s=retry_backoff_s,
            on_error=on_error,
        )

    def _picklable_clone(self) -> "Application":
        """This application, shippable to worker processes.

        Slice predicates are the one legitimately unpicklable part of an
        application (they are often lambdas); membership tags are already
        materialized before dispatch, so workers get tag-only slices with
        identical membership.
        """
        import pickle

        try:
            pickle.dumps(self)
            return self
        except Exception:
            pass
        stripped = Application(
            self.schema,
            name=self.name,
            slices=SliceSet(
                [SliceSpec(name=s.name, description=s.description) for s in self.slices]
            ),
            registry=self.registry,
            supervision=self.supervision,
            seed=self.seed,
        )
        try:
            pickle.dumps(stripped)
        except Exception as exc:
            raise TrainingError(
                f"application cannot be shipped to tuning workers even with "
                f"slice predicates stripped: {exc}"
            ) from exc
        return stripped

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------
    def evaluate(
        self, trained: TrainedModel, dataset: Dataset, tag: str = "test"
    ) -> dict[str, TaskEvaluation]:
        subset = dataset.with_tag(tag) if tag else dataset
        return evaluate(
            trained.model,
            subset.records,
            self.schema,
            trained.vocabs,
            self.supervision.gold_source,
        )

    def report(
        self,
        trained: TrainedModel,
        dataset: Dataset,
        tags: Sequence[str] | None = None,
        workers: int = 1,
    ) -> QualityReport:
        """Per-tag quality report; ``workers > 1`` fans tags out.

        The parallel path produces the same rows in the same order — each
        tag's evaluation is an independent inference pass.
        """
        if workers > 1:
            from repro.exec import parallel_quality_report

            return parallel_quality_report(
                trained.model,
                dataset.records,
                self.schema,
                trained.vocabs,
                self.supervision.gold_source,
                tags=tags,
                workers=workers,
            )
        return quality_report(
            trained.model,
            dataset.records,
            self.schema,
            trained.vocabs,
            self.supervision.gold_source,
            tags=tags,
        )

    # ------------------------------------------------------------------
    # Deployment (Figure 1: "Create Deployable Model")
    # ------------------------------------------------------------------
    def build_artifact(
        self, trained: TrainedModel, metrics: dict | None = None
    ) -> ModelArtifact:
        return ModelArtifact.from_model(
            trained.model,
            trained.vocabs,
            metrics=metrics,
            extra_metadata={"data_fingerprint": trained.train_fingerprint},
        )

    def deploy(
        self,
        trained: TrainedModel,
        store,
        name: str | None = None,
        metrics: dict | None = None,
    ):
        """Serialize and push the trained model to the store.

        ``name`` defaults to the application's own name.
        """
        return store.push(name or self.name, self.build_artifact(trained, metrics))

    def serve_pool(
        self,
        store,
        name: str | None = None,
        tiers: Sequence[str] | None = None,
        dtype: str | None = None,
        workers: int = 0,
        **kwargs,
    ):
        """A replica pool serving this application's stored model.

        The serving-side mirror of ``report(workers=N)``: a
        :class:`~repro.serve.ReplicaPool` that forwards in-process with
        ``workers=0`` and in N resident worker processes otherwise —
        identical predictions either way (``docs/serving.md``).  ``name``
        defaults to the application's own name; extra keyword arguments
        flow to the pool constructor.
        """
        from repro.serve import ReplicaPool

        return ReplicaPool.from_store(
            store,
            name or self.name,
            tiers=tiers,
            dtype=dtype,
            workers=workers,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Resuming from a stored artifact
    # ------------------------------------------------------------------
    def run_from_artifact(self, artifact: ModelArtifact) -> Run:
        """Wrap a stored artifact as a Run (no history or supervision)."""
        from repro.training import TrainHistory

        trained = TrainedModel(
            model=artifact.build_model(),
            vocabs=dict(artifact.vocabs),
            history=TrainHistory(),
            config=artifact.config,
            train_fingerprint=artifact.metadata.get("data_fingerprint", ""),
        )
        return Run(application=self, trained=trained)


def _slice_from_spec(spec) -> SliceSpec:
    if isinstance(spec, str):
        return SliceSpec(name=spec)
    if isinstance(spec, dict):
        unknown = set(spec) - {"name", "description"}
        if unknown:
            raise SchemaError(
                f"unknown slice spec keys {sorted(unknown)}; expected name, description"
            )
        if "name" not in spec:
            raise SchemaError("slice spec needs a 'name'")
        return SliceSpec(name=spec["name"], description=spec.get("description", ""))
    raise SchemaError(f"slice spec must be a name or an object, got {type(spec).__name__}")
