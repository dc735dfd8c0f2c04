"""Rollout control: which model version answers which request.

The store's ``latest`` pointer gives pin-or-follow serving; this module
adds the two safe paths *between* versions:

* **canary** — a deterministic fraction of live traffic is answered by the
  candidate version.  Routing hashes the request id, so the same request
  id always lands on the same side (stable retries stay stable) and the
  realized fraction concentrates tightly around the target.
* **shadow** — stable answers every request, and the candidate receives a
  mirrored copy whose response is only *compared*, never returned.
  Disagreements are counted and a bounded sample is retained for error
  analysis, which is exactly the evidence a promotion decision needs.

The controller is bookkeeping only: the gateway owns queues and replicas
and asks this object two questions — where does this request route, and
what happened when the shadow answered.
"""

from __future__ import annotations

import hashlib
import threading
from collections import deque
from dataclasses import dataclass, field

from repro.errors import ServeError


def responses_agree(a: dict, b: dict) -> bool:
    """Do two endpoint responses make the same hard predictions?

    Scores are allowed to differ (they always will across versions); the
    comparison is over the decision fields each task type exposes —
    ``label``, ``labels``, and ``index``.
    """
    if set(a) != set(b):
        return False
    for task, ra in a.items():
        rb = b[task]
        for key in ("label", "labels", "index"):
            if ra.get(key) != rb.get(key):
                return False
    return True


@dataclass(frozen=True)
class Disagreement:
    """One shadow comparison where the candidate answered differently."""

    request_id: str
    payload: dict
    stable: dict
    candidate: dict


@dataclass
class RolloutStatus:
    """Point-in-time rollout summary (what ``/healthz`` reports)."""

    canary_fraction: float
    shadow: bool
    stable_served: int
    canary_served: int
    shadow_served: int
    shadow_disagreements: int

    @property
    def disagreement_rate(self) -> float | None:
        if self.shadow_served == 0:
            return None
        return self.shadow_disagreements / self.shadow_served

    def to_dict(self) -> dict:
        return {
            "canary_fraction": self.canary_fraction,
            "shadow": self.shadow,
            "stable_served": self.stable_served,
            "canary_served": self.canary_served,
            "shadow_served": self.shadow_served,
            "shadow_disagreements": self.shadow_disagreements,
            "disagreement_rate": self.disagreement_rate,
        }


class RolloutController:
    """Deterministic canary routing plus shadow disagreement accounting."""

    def __init__(self, max_disagreement_examples: int = 16) -> None:
        self.canary_fraction = 0.0
        self.shadow = False
        self._lock = threading.Lock()
        self._stable_served = 0
        self._canary_served = 0
        self._shadow_served = 0
        self._disagreements = 0
        self._examples: deque[Disagreement] = deque(
            maxlen=max_disagreement_examples
        )

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def start_canary(self, fraction: float, shadow: bool = False) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ServeError(f"canary fraction must be in [0, 1], got {fraction}")
        with self._lock:
            self.canary_fraction = fraction
            self.shadow = shadow

    def start_shadow(self) -> None:
        """Mirror-only rollout: no canary traffic, every request shadowed."""
        self.start_canary(0.0, shadow=True)

    def stop(self) -> None:
        with self._lock:
            self.canary_fraction = 0.0
            self.shadow = False

    @property
    def active(self) -> bool:
        return self.canary_fraction > 0.0 or self.shadow

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, request_id: str) -> str:
        """``"canary"`` or ``"stable"``, stable per request id."""
        if self.canary_fraction <= 0.0:
            return "stable"
        if self.canary_fraction >= 1.0:
            return "canary"
        digest = hashlib.sha256(request_id.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "big") / 2**32
        return "canary" if bucket < self.canary_fraction else "stable"

    def note_served(self, role: str, n: int = 1) -> None:
        """Count ``n`` requests answered by ``role`` (one batch, one lock)."""
        with self._lock:
            if role == "canary":
                self._canary_served += n
            else:
                self._stable_served += n

    # ------------------------------------------------------------------
    # Shadow accounting
    # ------------------------------------------------------------------
    def record_shadow(
        self,
        request_id: str,
        payload: dict,
        stable_response: dict,
        candidate_response: dict,
    ) -> bool:
        """Compare one mirrored answer; returns True when they agree."""
        agree = responses_agree(stable_response, candidate_response)
        with self._lock:
            self._shadow_served += 1
            if not agree:
                self._disagreements += 1
                self._examples.append(
                    Disagreement(
                        request_id=request_id,
                        payload=payload,
                        stable=stable_response,
                        candidate=candidate_response,
                    )
                )
        return agree

    def disagreement_examples(self) -> list[Disagreement]:
        with self._lock:
            return list(self._examples)

    def status(self) -> RolloutStatus:
        with self._lock:
            return RolloutStatus(
                canary_fraction=self.canary_fraction,
                shadow=self.shadow,
                stable_served=self._stable_served,
                canary_served=self._canary_served,
                shadow_served=self._shadow_served,
                shadow_disagreements=self._disagreements,
            )
