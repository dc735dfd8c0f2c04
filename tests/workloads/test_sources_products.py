"""Tests for synthetic weak sources, pretrained embeddings, and products."""

import numpy as np

from repro.data.tags import slice_tag
from repro.supervision import build_label_matrix, LabelModel
from repro.workloads import (
    HARD_DISAMBIGUATION_SLICE,
    INTENT_CLASSES,
    PRODUCTS,
    apply_noisy_source,
    apply_standard_weak_supervision,
    build_pretrained_product,
    build_product,
    keyword_intent_source,
    popularity_intent_arg_source,
    ppmi_svd_embeddings,
)

from tests.fixtures import generate_dataset


def _product(name: str):
    return next(spec for spec in PRODUCTS if spec.name == name)


class TestNoisySources:
    def test_configured_accuracy_realized(self):
        ds = generate_dataset(n=600, seed=0)
        rng = np.random.default_rng(1)
        apply_noisy_source(
            ds.records, "Intent", "s80", 0.8, 1.0, INTENT_CLASSES, rng
        )
        correct = sum(
            1
            for r in ds.records
            if r.label_from("Intent", "s80") == r.label_from("Intent", "gold")
        )
        assert abs(correct / len(ds) - 0.8) < 0.05

    def test_coverage_respected(self):
        ds = generate_dataset(n=600, seed=1)
        rng = np.random.default_rng(2)
        apply_noisy_source(
            ds.records, "Intent", "half", 0.9, 0.5, INTENT_CLASSES, rng
        )
        covered = sum(1 for r in ds.records if r.label_from("Intent", "half"))
        assert abs(covered / len(ds) - 0.5) < 0.06

    def test_sequence_task_corruption(self):
        from repro.workloads import POS_CLASSES

        ds = generate_dataset(n=100, seed=2)
        rng = np.random.default_rng(3)
        apply_noisy_source(ds.records, "POS", "tagger", 0.7, 1.0, POS_CLASSES, rng)
        total, correct = 0, 0
        for r in ds.records:
            gold = r.label_from("POS", "gold")
            noisy = r.label_from("POS", "tagger")
            for g, n in zip(gold, noisy):
                total += 1
                correct += int(g == n)
        assert abs(correct / total - 0.7) < 0.05

    def test_label_model_recovers_source_accuracies(self):
        """End-to-end: synthetic sources -> label matrix -> EM estimates."""
        ds = generate_dataset(n=800, seed=3)
        rng = np.random.default_rng(4)
        for name, acc in (("good", 0.9), ("ok", 0.75), ("bad", 0.6)):
            apply_noisy_source(
                ds.records, "Intent", name, acc, 1.0, INTENT_CLASSES, rng
            )
        matrix = build_label_matrix(
            ds.records, ds.schema, "Intent", sources=["good", "ok", "bad"]
        )
        result = LabelModel().fit(matrix)
        assert abs(result.accuracy_of("good") - 0.9) < 0.06
        assert abs(result.accuracy_of("ok") - 0.75) < 0.06
        assert abs(result.accuracy_of("bad") - 0.6) < 0.06


class TestSystematicSources:
    def test_keyword_source_high_precision(self):
        ds = generate_dataset(n=300, seed=4)
        spec = keyword_intent_source(ds.records)
        labeled = [r for r in ds.records if r.label_from("Intent", spec.source.name)]
        assert len(labeled) > 200
        correct = sum(
            1
            for r in labeled
            if r.label_from("Intent", spec.source.name) == r.label_from("Intent", "gold")
        )
        assert correct / len(labeled) > 0.95

    def test_popularity_source_fails_on_hard_slice(self):
        ds = generate_dataset(n=600, seed=5)
        spec = popularity_intent_arg_source(ds.records)
        tag = slice_tag(HARD_DISAMBIGUATION_SLICE)
        hard = ds.with_tag(tag)
        assert len(hard) > 0
        hard_correct = sum(
            1
            for r in hard.records
            if r.label_from("IntentArg", spec.source.name)
            == r.label_from("IntentArg", "gold")
        )
        assert hard_correct == 0  # systematically wrong on the hard slice
        easy = [r for r in ds.records if not r.has_tag(tag)]
        easy_correct = sum(
            1
            for r in easy
            if r.label_from("IntentArg", spec.source.name)
            == r.label_from("IntentArg", "gold")
        )
        assert easy_correct / len(easy) > 0.95

    def test_standard_bundle_covers_all_tasks(self):
        ds = generate_dataset(n=100, seed=6)
        specs = apply_standard_weak_supervision(ds.records, seed=0)
        tasks = {s.task for s in specs}
        assert tasks == {"Intent", "POS", "EntityType", "IntentArg"}
        # Records validate after labeling.
        for r in ds.records[:10]:
            r.validate(ds.schema)


class TestPretrained:
    def test_ppmi_embeddings_capture_shared_contexts(self):
        # Distributional similarity: words appearing in the same contexts
        # ('a' and 'b' both follow 'x') get similar vectors; words from
        # disjoint contexts do not.
        corpus = (
            [["x", "a"], ["x", "b"]] * 5 + [["y", "c"], ["y", "d"]] * 5
        )
        vectors = ppmi_svd_embeddings(corpus, dim=4)

        def cos(x, y):
            return float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y) + 1e-9))

        assert cos(vectors["a"], vectors["b"]) > cos(vectors["a"], vectors["c"]) + 0.3

    def test_build_product(self):
        product = build_pretrained_product(dim=8, corpus_queries=300)
        assert product.dim == 8
        assert "washington" in product.vectors or "paris" in product.vectors
        # Vectors are unit-normalized (or zero).
        for vec in list(product.vectors.values())[:5]:
            assert np.linalg.norm(vec) < 1.01

    def test_empty_corpus(self):
        assert ppmi_svd_embeddings([], dim=4) == {}


class TestProducts:
    def test_four_products_defined(self):
        assert len(PRODUCTS) == 4
        assert [p.resourcing for p in PRODUCTS] == ["High", "Medium", "Medium", "Low"]

    def test_build_product_weak_fraction_band(self):
        # High-resource product: most labels weak but crowd share visible.
        built = build_product(_product("assistant-qa"), seed=0)
        frac = built.weak_supervision_fraction()
        assert 0.6 < frac < 1.0

    def test_low_resource_has_more_weak_share(self):
        high = build_product(_product("assistant-qa"), seed=0)
        low = build_product(_product("locale-expansion"), seed=0)
        assert low.weak_supervision_fraction() > high.weak_supervision_fraction()

    def test_registry_includes_gold(self):
        built = build_product(_product("locale-expansion"), seed=1)
        assert "gold" in built.registry()
