"""Frozen, JSON-round-trippable specification of a synthetic workload.

The ROADMAP's "every scenario you can imagine" goal needs workloads that
are a *function* — (spec, seed) -> dataset — not frozen files.  A
:class:`WorkloadSpec` declares every generation knob (scale, vocabulary,
sequence length, supervision noise, weak-source conflict, slice skew and
rarity, entity ambiguity, concept drift over time) and round-trips
through JSON byte-for-byte, so a single small file reproduces an entire
evaluation dataset deterministically on any machine.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path

from repro.core.codec import Spec
from repro.errors import SchemaError

#: Weak-source families the generator knows how to attach.  Order matters:
#: each family draws from its own random substream keyed by position, so
#: enabling/disabling one family never perturbs another.
SOURCE_FAMILIES = (
    "weak_a",
    "weak_b",
    "crowd",
    "lf_keyword",
    "lf_tagger",
    "lf_types",
    "lf_pop",
    "lf_compat",
)

#: Slice names the generator can tag (matching ``slice:<name>`` tags).
RARE_SLICE = "rare_intent"
HARD_SLICE = "hard_arg"


@dataclass(frozen=True)
class DriftPhase(Spec, error=SchemaError):
    """One segment of a concept-drift schedule.

    ``start`` is the stream-position fraction (0..1) where the phase
    begins; it runs until the next phase starts (or the stream ends).
    ``oov_rate`` is the per-filler-token probability of being replaced by
    a novel token drawn from this phase's private drift vocabulary, and
    ``length_delta`` shifts the sampled sequence length (clamped to the
    schema bound).  A phase with ``oov_rate=0`` models a calm segment.
    """

    start: float
    oov_rate: float = 0.0
    length_delta: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.start <= 1.0:
            raise SchemaError(f"drift phase start must be in [0, 1], got {self.start}")
        if not 0.0 <= self.oov_rate <= 1.0:
            raise SchemaError(
                f"drift phase oov_rate must be in [0, 1], got {self.oov_rate}"
            )


@dataclass(frozen=True)
class WorkloadSpec(Spec, error=SchemaError):
    """Every knob of one synthetic workload, frozen and serializable.

    Difficulty knobs and what they control:

    - ``label_noise``: flip probability of the noisy weak sources (and,
      scaled down, of the heuristic labeling functions).
    - ``conflict_rate``: probability that ``weak_b`` *deliberately*
      contradicts ``weak_a`` — correlated disagreement the label model
      cannot average away.
    - ``slice_skew``: Zipf exponent over the common intents; higher skew
      starves tail classes of training data.
    - ``slice_rarity``: exact frequency of the designated rare intent
      (tagged ``slice:rare_intent``); 0 disables the slice.
    - ``ambiguity``: probability that an entity surface has two readings,
      which creates records where popularity heuristics pick the wrong
      one (tagged ``slice:hard_arg``).
    - ``keyword_dropout``: probability that a query carries *no* intent
      keyword, raising irreducible intent error.
    - ``vocab_size`` / ``min_length`` / ``max_length``: sparsity of the
      filler-token distribution and the sequence-length range.
    - ``drift``: ordered :class:`DriftPhase` schedule over the stream.

    ``seed`` drives record sampling; ``world_seed`` (defaulting to
    ``seed``) drives the derived world — vocabulary roles, entity
    readings, compatibility rules.  Keeping ``world_seed`` fixed while
    varying ``seed`` yields fresh traffic from the *same* universe,
    which is what a live stream is: new queries, same language.
    """

    name: str = "synth"
    n: int = 1000
    seed: int = 0
    world_seed: int | None = None
    # label spaces -----------------------------------------------------
    intents: int = 5
    entity_types: int = 5
    roles: int = 6
    intent_names: tuple[str, ...] | None = None
    role_names: tuple[str, ...] | None = None
    type_names: tuple[str, ...] | None = None
    # payload shape ----------------------------------------------------
    vocab_size: int = 120
    min_length: int = 4
    max_length: int = 10
    max_candidates: int = 4
    surfaces: int = 12
    keywords_per_intent: int = 2
    # difficulty knobs -------------------------------------------------
    label_noise: float = 0.1
    conflict_rate: float = 0.0
    slice_skew: float = 1.0
    slice_rarity: float = 0.05
    ambiguity: float = 0.5
    keyword_dropout: float = 0.1
    crowd_coverage: float = 0.3
    # supervision / splits ---------------------------------------------
    sources: tuple[str, ...] = SOURCE_FAMILIES
    train_fraction: float = 0.6
    dev_fraction: float = 0.2
    # concept drift ----------------------------------------------------
    drift: tuple[DriftPhase, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise SchemaError(f"spec n must be >= 0, got {self.n}")
        if self.intents < 2:
            raise SchemaError(f"spec needs >= 2 intents, got {self.intents}")
        if self.vocab_size < 1:
            raise SchemaError(f"spec vocab_size must be >= 1, got {self.vocab_size}")
        if not 1 <= self.min_length <= self.max_length:
            raise SchemaError(
                f"need 1 <= min_length <= max_length, got "
                f"[{self.min_length}, {self.max_length}]"
            )
        if self.surfaces < 2:
            raise SchemaError(f"spec needs >= 2 surfaces, got {self.surfaces}")
        for knob in (
            "label_noise",
            "conflict_rate",
            "slice_rarity",
            "ambiguity",
            "keyword_dropout",
            "crowd_coverage",
        ):
            value = getattr(self, knob)
            if not 0.0 <= value <= 1.0:
                raise SchemaError(f"spec {knob} must be in [0, 1], got {value}")
        if self.slice_skew < 0:
            raise SchemaError(f"spec slice_skew must be >= 0, got {self.slice_skew}")
        if not 0.0 < self.train_fraction < 1.0:
            raise SchemaError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )
        if self.train_fraction + self.dev_fraction >= 1.0:
            raise SchemaError("train_fraction + dev_fraction must leave a test split")
        unknown_sources = set(self.sources) - set(SOURCE_FAMILIES)
        if unknown_sources:
            raise SchemaError(
                f"unknown source families {sorted(unknown_sources)}; "
                f"expected a subset of {list(SOURCE_FAMILIES)}"
            )
        starts = [p.start for p in self.drift]
        if starts != sorted(starts):
            raise SchemaError(f"drift phases must be sorted by start, got {starts}")
        if self.slice_rarity > 0 and self.intents < 3:
            raise SchemaError("a rare-intent slice needs >= 3 intents")
        for names, count, what in (
            (self.intent_names, self.intents, "intent_names"),
            (self.role_names, self.roles, "role_names"),
            (self.type_names, self.entity_types, "type_names"),
        ):
            if names is not None and len(names) != count:
                raise SchemaError(
                    f"{what} has {len(names)} entries but the spec declares {count}"
                )

    # ------------------------------------------------------------------
    # Derived label spaces
    # ------------------------------------------------------------------
    def intent_classes(self) -> tuple[str, ...]:
        """Intent class names (explicit override or generated)."""
        if self.intent_names is not None:
            return tuple(self.intent_names)
        return tuple(f"intent_{i:02d}" for i in range(self.intents))

    def role_classes(self) -> tuple[str, ...]:
        """Token-role (POS-like) class names."""
        if self.role_names is not None:
            return tuple(self.role_names)
        return tuple(f"role_{i}" for i in range(self.roles))

    def type_classes(self) -> tuple[str, ...]:
        """Entity-type class names."""
        if self.type_names is not None:
            return tuple(self.type_names)
        return tuple(f"type_{i}" for i in range(self.entity_types))

    def rare_intent(self) -> str | None:
        """The intent reserved for the rare slice (last class), if any."""
        if self.slice_rarity <= 0:
            return None
        return self.intent_classes()[-1]

    def phase_at(self, fraction: float) -> DriftPhase | None:
        """The drift phase covering stream position ``fraction`` (0..1)."""
        active = None
        for phase in self.drift:
            if fraction >= phase.start:
                active = phase
            else:
                break
        return active

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the spec as JSON; returns the path."""
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    def fingerprint(self) -> str:
        """Content hash of the full spec (knobs + seed + scale)."""
        digest = hashlib.sha256(self.to_json(indent=None).encode("utf-8"))
        return digest.hexdigest()[:16]

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    def scaled(self, n: int) -> "WorkloadSpec":
        """The same workload at a different record count."""
        return dataclasses.replace(self, n=int(n))

    def reseeded(self, seed: int) -> "WorkloadSpec":
        """The same workload under a different sampling seed.

        The world seed is pinned first, so a reseeded spec keeps the
        exact vocabulary, entities, and labeling rules — reseeding
        changes *which* records get drawn, never what they mean.
        """
        pinned = self.world_seed if self.world_seed is not None else self.seed
        return dataclasses.replace(self, seed=int(seed), world_seed=pinned)

    def resolved_world_seed(self) -> int:
        """The seed the derived world is actually built from."""
        return self.world_seed if self.world_seed is not None else self.seed

    def without_drift(self) -> "WorkloadSpec":
        """The same workload with a calm (empty) drift schedule."""
        return dataclasses.replace(self, drift=())

    def replace(self, **changes) -> "WorkloadSpec":
        """`dataclasses.replace` with spec validation re-run."""
        return dataclasses.replace(self, **changes)
