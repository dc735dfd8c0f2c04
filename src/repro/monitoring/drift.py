"""Input-distribution drift detection.

The paper's opening problem: "a key task for supporting engineers is to
improve and maintain the quality in the face of changes to the input
distribution and new production features" (§1).  This module quantifies the
change between a reference window (what the deployed model trained on) and
a live window, over model-relevant views of the input: token distribution,
query length, and out-of-vocabulary rate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.data.vocab import Vocab


@dataclass(frozen=True)
class DriftReport:
    """Drift between a reference and a live window.

    The report carries the thresholds it was measured against
    (``js_threshold`` / ``oov_jump_threshold``) so policy code can configure
    them once, at detection time, and every downstream consumer of the
    report agrees on what "drifted" means.
    """

    token_js_divergence: float  # Jensen-Shannon divergence, in [0, ln 2]
    oov_rate_reference: float
    oov_rate_live: float
    mean_length_reference: float
    mean_length_live: float
    novel_token_fraction: float  # live tokens unseen in reference
    js_threshold: float = 0.1
    oov_jump_threshold: float = 0.05

    @property
    def oov_jump(self) -> float:
        """Live OOV rate minus reference OOV rate."""
        return self.oov_rate_live - self.oov_rate_reference

    def drifted(
        self,
        js_threshold: float | None = None,
        oov_threshold: float | None = None,
    ) -> bool:
        """Simple gate: distribution moved or OOV rate jumped.

        Explicit arguments override the thresholds stored on the report,
        preserving the older call-site-decides style.
        """
        js = self.js_threshold if js_threshold is None else js_threshold
        oov = self.oov_jump_threshold if oov_threshold is None else oov_threshold
        return self.token_js_divergence > js or self.oov_jump > oov

    def to_dict(self) -> dict:
        return {
            "token_js_divergence": self.token_js_divergence,
            "oov_rate_reference": self.oov_rate_reference,
            "oov_rate_live": self.oov_rate_live,
            "oov_jump": self.oov_jump,
            "mean_length_reference": self.mean_length_reference,
            "mean_length_live": self.mean_length_live,
            "novel_token_fraction": self.novel_token_fraction,
            "js_threshold": self.js_threshold,
            "oov_jump_threshold": self.oov_jump_threshold,
            "drifted": self.drifted(),
        }


def _token_counts(window: Sequence[Mapping[str, Any]], payload: str) -> Counter:
    counts: Counter = Counter()
    for values in window:
        counts.update(values.get(payload) or [])
    return counts


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence between two distributions."""
    p = p / max(p.sum(), 1e-12)
    q = q / max(q.sum(), 1e-12)
    m = 0.5 * (p + q)

    def kl(a: np.ndarray, b: np.ndarray) -> float:
        mask = a > 0
        return float((a[mask] * np.log(a[mask] / b[mask])).sum())

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def detect_drift(
    reference: Sequence[Mapping[str, Any]],
    live: Sequence[Mapping[str, Any]],
    vocab: Vocab,
    payload: str = "tokens",
    js_threshold: float = 0.1,
    oov_threshold: float = 0.05,
) -> DriftReport:
    """Compare a live window against the training-time reference.

    Both windows are payload mappings (name -> value): a record's
    ``payloads`` or a request as served.

    ``js_threshold`` / ``oov_threshold`` are recorded on the returned report
    and become the defaults for its :meth:`DriftReport.drifted` gate.
    """
    ref_counts = _token_counts(reference, payload)
    live_counts = _token_counts(live, payload)
    all_tokens = sorted(set(ref_counts) | set(live_counts))
    p = np.array([ref_counts.get(t, 0) for t in all_tokens], dtype=float)
    q = np.array([live_counts.get(t, 0) for t in all_tokens], dtype=float)
    divergence = js_divergence(p, q) if all_tokens else 0.0

    def oov_rate(counts: Counter) -> float:
        total = sum(counts.values())
        if total == 0:
            return 0.0
        unknown = sum(c for t, c in counts.items() if t not in vocab)
        return unknown / total

    def mean_length(window: Sequence[Mapping[str, Any]]) -> float:
        lengths = [len(values.get(payload) or []) for values in window]
        return float(np.mean(lengths)) if lengths else 0.0

    ref_total = sum(live_counts.values())
    novel = (
        sum(c for t, c in live_counts.items() if t not in ref_counts) / ref_total
        if ref_total
        else 0.0
    )
    return DriftReport(
        token_js_divergence=divergence,
        oov_rate_reference=oov_rate(ref_counts),
        oov_rate_live=oov_rate(live_counts),
        mean_length_reference=mean_length(reference),
        mean_length_live=mean_length(live),
        novel_token_fraction=novel,
        js_threshold=js_threshold,
        oov_jump_threshold=oov_threshold,
    )
