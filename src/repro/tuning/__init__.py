"""Hyperparameter / coarse architecture search.

Strategies score candidates through a :class:`repro.exec.TrialExecutor`
(``executor=...``), inline or fanned out across worker processes; see
:mod:`repro.exec` and ``docs/tuning.md``.
"""

from repro.tuning.search import (
    SearchResult,
    Trial,
    grid_search,
    random_search,
    successive_halving,
)

__all__ = [
    "SearchResult",
    "Trial",
    "grid_search",
    "random_search",
    "successive_halving",
]
