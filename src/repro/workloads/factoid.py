"""The synthetic factoid-QA workload: the paper's running example, generated.

Substitution note (see DESIGN.md): the paper evaluates on proprietary
production query streams.  This generator produces the same *kind* of data —
factoid queries over an ambiguous entity gazetteer, with the exact Fig. 2a
schema — with controllable size, ambiguity, class skew, and rare slices, so
every experiment's shape can be exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.schema_def import Schema
from repro.data.dataset import Dataset
from repro.data.record import Record
from repro.data.tags import slice_tag
from repro.workloads.gazetteer import (
    ENTITY_TYPE_CLASSES,
    INTENT_CATEGORY,
    by_surface,
    compatible,
    is_ambiguous,
    surfaces_for_intent,
)

MAX_LENGTH = 10
MAX_MEMBERS = 4

INTENT_CLASSES = tuple(INTENT_CATEGORY)

POS_CLASSES = ("NOUN", "VERB", "ADJ", "ADV", "DET", "ADP", "NUM", "PRON")

# Per-intent templates: literal tokens with one {ent} slot; POS per token.
_TEMPLATES: dict[str, list[tuple[list[str], list[str]]]] = {
    "height": [
        (["how", "tall", "is", "{ent}"], ["ADV", "ADJ", "VERB", "NOUN"]),
        (["what", "is", "the", "height", "of", "{ent}"],
         ["PRON", "VERB", "DET", "NOUN", "ADP", "NOUN"]),
    ],
    "age": [
        (["how", "old", "is", "{ent}"], ["ADV", "ADJ", "VERB", "NOUN"]),
        (["what", "is", "the", "age", "of", "{ent}"],
         ["PRON", "VERB", "DET", "NOUN", "ADP", "NOUN"]),
    ],
    "population": [
        (["what", "is", "the", "population", "of", "{ent}"],
         ["PRON", "VERB", "DET", "NOUN", "ADP", "NOUN"]),
        (["how", "many", "people", "live", "in", "{ent}"],
         ["ADV", "ADJ", "NOUN", "VERB", "ADP", "NOUN"]),
    ],
    "capital": [
        (["what", "is", "the", "capital", "of", "{ent}"],
         ["PRON", "VERB", "DET", "NOUN", "ADP", "NOUN"]),
    ],
    "spouse": [
        (["who", "is", "the", "spouse", "of", "{ent}"],
         ["PRON", "VERB", "DET", "NOUN", "ADP", "NOUN"]),
        (["who", "is", "{ent}", "married", "to"],
         ["PRON", "VERB", "NOUN", "VERB", "ADP"]),
    ],
    "nutrition": [
        (["how", "many", "calories", "in", "{ent}"],
         ["ADV", "ADJ", "NOUN", "ADP", "NOUN"]),
        (["is", "{ent}", "healthy"], ["VERB", "NOUN", "ADJ"]),
    ],
}

HARD_DISAMBIGUATION_SLICE = "hard_disambiguation"
NUTRITION_SLICE = "nutrition"
SIZE_QUERY_SLICE = "size_queries"

# The "complex disambiguation" template: the keyword alone does not
# determine the intent — "how big is obama" asks height, "how big is
# france" asks population.  A model needs entity-conditioned reasoning
# (or slice capacity) to get these right.
_SIZE_TEMPLATE = (["how", "big", "is", "{ent}"], ["ADV", "ADJ", "VERB", "NOUN"])
_SIZE_INTENT_BY_CATEGORY = {
    "person": "height",
    "mountain": "height",
    "country": "population",
    "city": "population",
    "state": "population",
}


def factoid_schema() -> Schema:
    """The Fig. 2a schema instantiated for this workload."""
    return Schema.from_dict(
        {
            "payloads": {
                "tokens": {"type": "sequence", "max_length": MAX_LENGTH},
                "query": {"type": "singleton", "base": ["tokens"]},
                "entities": {
                    "type": "set",
                    "range": "tokens",
                    "max_members": MAX_MEMBERS,
                },
            },
            "tasks": {
                "POS": {
                    "payload": "tokens",
                    "type": "multiclass",
                    "classes": list(POS_CLASSES),
                },
                "EntityType": {
                    "payload": "tokens",
                    "type": "bitvector",
                    "classes": list(ENTITY_TYPE_CLASSES),
                },
                "Intent": {
                    "payload": "query",
                    "type": "multiclass",
                    "classes": list(INTENT_CLASSES),
                },
                "IntentArg": {"payload": "entities", "type": "select"},
            },
        }
    )


@dataclass
class WorkloadConfig:
    """Knobs for generating one product's traffic."""

    n: int = 1000
    seed: int = 0
    nutrition_rate: float = 0.03  # rare product-feature slice
    size_query_rate: float = 0.0  # rare keyword-ambiguous slice (see above)
    intent_skew: float = 0.0  # 0 = uniform; >0 concentrates on height/age
    hard_fraction: float | None = None  # force hard disambiguations; None = natural
    train: float = 0.7
    dev: float = 0.15


@dataclass
class GeneratedRecord:
    """One synthesized factoid record plus its generation ground truth."""

    record: Record
    intent: str
    hard: bool  # gold candidate is not the most popular reading
    size_query: bool = False  # keyword-ambiguous "how big is ..." query


class FactoidGenerator:
    """Seeded generator of gold-labeled factoid records."""

    def __init__(self, config: WorkloadConfig) -> None:
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.schema = factoid_schema()

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate(self) -> Dataset:
        """Produce a fully gold-labeled dataset with split + slice tags."""
        produced = [self._one() for _ in range(self.config.n)]
        rng = self._rng
        records = []
        for item in produced:
            r = item.record
            draw = rng.random()
            if draw < self.config.train:
                r.add_tag("train")
            elif draw < self.config.train + self.config.dev:
                r.add_tag("dev")
            else:
                r.add_tag("test")
            if item.hard:
                r.add_tag(slice_tag(HARD_DISAMBIGUATION_SLICE))
            if item.intent == "nutrition":
                r.add_tag(slice_tag(NUTRITION_SLICE))
            if item.size_query:
                r.add_tag(slice_tag(SIZE_QUERY_SLICE))
            records.append(r)
        return Dataset(self.schema, records)

    def _sample_intent(self) -> str:
        rng = self._rng
        if rng.random() < self.config.nutrition_rate:
            return "nutrition"
        intents = [i for i in INTENT_CLASSES if i != "nutrition"]
        if self.config.intent_skew > 0:
            weights = np.array(
                [
                    1.0 + self.config.intent_skew * (1.0 if i in ("height", "age") else 0.0)
                    for i in intents
                ]
            )
            weights = weights / weights.sum()
            return intents[int(rng.choice(len(intents), p=weights))]
        return intents[int(rng.integers(len(intents)))]

    def _one(self) -> GeneratedRecord:
        rng = self._rng
        if self.config.size_query_rate > 0 and rng.random() < self.config.size_query_rate:
            return self._one_size_query()
        intent = self._sample_intent()
        surfaces = surfaces_for_intent(intent)
        if self.config.hard_fraction is not None and rng.random() < self.config.hard_fraction:
            hard_surfaces = [
                s
                for s in surfaces
                if is_ambiguous(s) and not compatible(by_surface(s)[0], intent)
            ]
            if hard_surfaces:
                surfaces = hard_surfaces
        surface = surfaces[int(rng.integers(len(surfaces)))]

        template, pos = _TEMPLATES[intent][
            int(rng.integers(len(_TEMPLATES[intent])))
        ]
        slot = template.index("{ent}")
        tokens = list(template)
        tokens[slot] = surface
        tokens = tokens[:MAX_LENGTH]
        pos = list(pos)[: len(tokens)]

        readings = by_surface(surface)[:MAX_MEMBERS]
        order = rng.permutation(len(readings))
        candidates = [readings[i] for i in order]
        gold_idx = next(
            i for i, e in enumerate(candidates) if compatible(e, intent)
        )
        gold_entity = candidates[gold_idx]
        most_popular_idx = int(
            max(range(len(candidates)), key=lambda i: candidates[i].popularity)
        )
        hard = gold_idx != most_popular_idx

        entity_payload = [
            {"id": e.id, "range": [slot, slot + 1]} for e in candidates
        ]
        entity_types = [
            sorted(gold_entity.types) if t == slot else [] for t in range(len(tokens))
        ]
        record = Record.from_dict(
            {
                "payloads": {
                    "tokens": tokens,
                    "query": " ".join(tokens),
                    "entities": entity_payload,
                },
                "tasks": {
                    "POS": {"gold": pos},
                    "EntityType": {"gold": entity_types},
                    "Intent": {"gold": intent},
                    "IntentArg": {"gold": gold_idx},
                },
                "tags": [],
            }
        )
        return GeneratedRecord(record=record, intent=intent, hard=hard)


    def _one_size_query(self) -> GeneratedRecord:
        """A "how big is {ent}" query whose intent depends on the entity."""
        rng = self._rng
        from repro.workloads.gazetteer import GAZETTEER

        eligible = [e for e in GAZETTEER if e.category in _SIZE_INTENT_BY_CATEGORY]
        entity = eligible[int(rng.integers(len(eligible)))]
        intent = _SIZE_INTENT_BY_CATEGORY[entity.category]
        template, pos = _SIZE_TEMPLATE
        slot = template.index("{ent}")
        tokens = list(template)
        tokens[slot] = entity.surface
        pos = list(pos)

        readings = by_surface(entity.surface)[:MAX_MEMBERS]
        order = rng.permutation(len(readings))
        candidates = [readings[i] for i in order]
        gold_idx = candidates.index(entity)
        most_popular_idx = int(
            max(range(len(candidates)), key=lambda i: candidates[i].popularity)
        )
        record = Record.from_dict(
            {
                "payloads": {
                    "tokens": tokens,
                    "query": " ".join(tokens),
                    "entities": [
                        {"id": e.id, "range": [slot, slot + 1]} for e in candidates
                    ],
                },
                "tasks": {
                    "POS": {"gold": pos},
                    "EntityType": {
                        "gold": [
                            sorted(entity.types) if t == slot else []
                            for t in range(len(tokens))
                        ]
                    },
                    "Intent": {"gold": intent},
                    "IntentArg": {"gold": gold_idx},
                },
                "tags": [],
            }
        )
        return GeneratedRecord(
            record=record,
            intent=intent,
            hard=gold_idx != most_popular_idx,
            size_query=True,
        )


def factoid_constraints(weight: float = 5.0):
    """The application's natural constraint set (SRL future work, §5).

    Intent and IntentArg must be compatible: e.g. a ``capital`` intent
    cannot select a person candidate.  Context is the request's payload
    mapping; the gazetteer resolves candidate ids to categories.
    """
    from repro.core.constraints import ConstraintSet, intent_argument_compatibility
    from repro.workloads.gazetteer import GAZETTEER

    by_id = {e.id: e for e in GAZETTEER}

    def candidate_category(payload, index: int) -> str | None:
        members = payload.get("entities") or []
        if not 0 <= index < len(members):
            return None
        entity = by_id.get(members[index].get("id"))
        return entity.category if entity else None

    constraint = intent_argument_compatibility(
        intent_classes=list(INTENT_CLASSES),
        candidate_categories_of=candidate_category,
        intent_category=dict(INTENT_CATEGORY),
        weight=weight,
    )
    return ConstraintSet([constraint])
