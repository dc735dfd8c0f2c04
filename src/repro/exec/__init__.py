"""repro.exec: the parallel experiment executor.

Tuning trials and evaluation fan-outs are independent experiments; this
package runs them across worker processes instead of one at a time:

- :class:`TrialExecutor` — dispatches picklable payloads to workers with
  deterministic per-trial seeds and gathers results in dispatch order
  (``workers=1`` runs inline, no processes).
- :class:`TrialCache` — a disk-backed record of finished trials keyed by
  a stable hash of (application spec, dataset fingerprint, config), so
  re-runs and resumed searches skip completed work — including, through
  :func:`winning_model`, the training of the model a search returns.
- :func:`coverage_report` — which blocks/values of a
  :class:`~repro.core.tuning_spec.TuningSpec` a search actually tried,
  and the best score per block.
- :func:`parallel_quality_report` — the per-tag quality report with tag
  evaluations fanned out across workers.
- :class:`WorkerProcess` / :class:`WorkerTeam` — *resident* duplex
  worker processes with lease/release dispatch and restart-on-crash,
  the one process pool under both :class:`TrialExecutor` and
  process-parallel serving (``repro.serve.ReplicaPool(..., workers=N)``).

The search strategies in :mod:`repro.tuning` accept an executor in place
of a trial function; ``Application.tune(..., workers=N)`` and the
``repro tune --workers N`` CLI build one automatically.
"""

from repro.exec.cache import CacheEntry, TrialCache, trial_key, tuning_namespace
from repro.exec.coverage import CoverageReport, OptionCoverage, coverage_report
from repro.exec.executor import (
    ExecutorStats,
    TrialExecutor,
    TrialOutcome,
    TrialTask,
    trial_seed,
)
from repro.exec.report import parallel_quality_report
from repro.exec.trial import TuneContext, run_tuning_trial, winning_model
from repro.exec.workers import (
    WorkerProcess,
    WorkerTeam,
    default_mp_context,
    serve_connection,
)

__all__ = [
    "CacheEntry",
    "CoverageReport",
    "ExecutorStats",
    "OptionCoverage",
    "TrialCache",
    "TrialExecutor",
    "TrialOutcome",
    "TrialTask",
    "TuneContext",
    "WorkerProcess",
    "WorkerTeam",
    "default_mp_context",
    "serve_connection",
    "coverage_report",
    "parallel_quality_report",
    "run_tuning_trial",
    "trial_key",
    "trial_seed",
    "tuning_namespace",
    "winning_model",
]
