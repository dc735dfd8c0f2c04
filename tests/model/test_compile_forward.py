"""Tests: compile the Fig. 2a schema and run forward/loss end to end."""

import numpy as np
import pytest

from repro.core import ModelConfig, PayloadConfig, TrainerConfig
from repro.data import Dataset, encode_inputs
from repro.errors import CompilationError
from repro.model import (
    EmbeddingProduct,
    EmbeddingRegistry,
    MultitaskModel,
    TaskTargets,
    compile_model,
)
from repro.nn import Dropout, Module
from repro.supervision import combine_supervision

from tests.fixtures import compile_from_dataset, factoid_schema, sample_record


def submodules(module: Module) -> list[Module]:
    """``module`` and every module below it, depth first."""
    found = [module]
    for value in vars(module).values():
        items = value.values() if isinstance(value, dict) else (
            value if isinstance(value, (list, tuple)) else [value]
        )
        for item in items:
            if isinstance(item, Module):
                found += submodules(item)
    return found


def dataset(n=4) -> Dataset:
    return Dataset(factoid_schema(), [sample_record() for _ in range(n)])


def small_config(encoder="bow") -> ModelConfig:
    return ModelConfig(
        payloads={
            "tokens": PayloadConfig(encoder=encoder, size=8),
            "query": PayloadConfig(size=8, aggregation="mean"),
            "entities": PayloadConfig(size=8),
        },
        trainer=TrainerConfig(epochs=2, batch_size=4),
    )


class TestCompile:
    def test_compiles_fig2a_schema(self):
        model, vocabs = compile_from_dataset(dataset(), small_config())
        assert set(model.encoders) == {"tokens", "query", "entities"}
        assert set(model.heads) == {"POS", "EntityType", "Intent", "IntentArg"}
        assert model.num_parameters() > 0

    def test_unknown_payload_in_config(self):
        ds = dataset()
        config = ModelConfig(payloads={"ghost": PayloadConfig()})
        with pytest.raises(CompilationError, match="ghost"):
            compile_model(ds.schema, config, ds.build_vocabs())

    def test_missing_vocab(self):
        ds = dataset()
        with pytest.raises(CompilationError, match="vocab"):
            compile_model(ds.schema, small_config(), {})

    def test_unregistered_embedding_product(self):
        ds = dataset()
        config = small_config()
        config.payloads["tokens"] = PayloadConfig(embedding="BERT-Large", size=8)
        with pytest.raises(CompilationError, match="BERT-Large"):
            compile_model(ds.schema, config, ds.build_vocabs())

    def test_nonpositive_size(self):
        ds = dataset()
        config = small_config()
        config.payloads["tokens"] = PayloadConfig(size=0)
        with pytest.raises(CompilationError, match="size"):
            compile_model(ds.schema, config, ds.build_vocabs())

    def test_pretrained_embedding_used(self):
        ds = dataset()
        vocabs = ds.build_vocabs()
        product = EmbeddingProduct(
            name="corpus-8",
            dim=8,
            vectors={"how": np.ones(8), "tall": np.full(8, 2.0)},
        )
        registry = EmbeddingRegistry([product])
        config = small_config()
        config.payloads["tokens"] = PayloadConfig(embedding="corpus-8", size=8)
        model = compile_model(ds.schema, config, vocabs, registry=registry)
        table = model.encoders["tokens"].embedding.weight.data
        np.testing.assert_allclose(table[vocabs["tokens"].id("how")], np.ones(8))

    def test_seed_reproducible(self):
        ds = dataset()
        vocabs = ds.build_vocabs()
        m1 = compile_model(ds.schema, small_config(), vocabs, seed=42)
        m2 = compile_model(ds.schema, small_config(), vocabs, seed=42)
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            assert n1 == n2
            np.testing.assert_allclose(p1.data, p2.data)


class TestForward:
    @pytest.mark.parametrize("encoder", ["bow", "cnn", "lstm", "bilstm", "gru", "attention"])
    def test_all_encoders_forward(self, encoder):
        ds = dataset(3)
        model, vocabs = compile_from_dataset(ds, small_config(encoder))
        batch = encode_inputs(ds.records, ds.schema, vocabs)
        outputs = model(batch)
        assert outputs["Intent"].probs.shape == (3, 5)
        assert outputs["POS"].probs.shape == (3, 12, 8)
        assert outputs["EntityType"].probs.shape == (3, 12, 5)
        assert outputs["IntentArg"].probs.shape == (3, 4)

    def test_select_respects_candidate_mask(self):
        ds = dataset(2)
        model, vocabs = compile_from_dataset(ds, small_config())
        batch = encode_inputs(ds.records, ds.schema, vocabs)
        out = model(batch)["IntentArg"]
        # Only 2 candidates exist; slots 2,3 must carry ~zero probability.
        assert out.probs[:, 2:].sum() == pytest.approx(0.0, abs=1e-9)
        assert out.predictions.max() < 2

    def test_predict_switches_to_eval(self):
        ds = dataset(2)
        config = small_config()
        config.payloads["tokens"] = PayloadConfig(size=8, dropout=0.5)
        model, vocabs = compile_from_dataset(ds, config)
        batch = encode_inputs(ds.records, ds.schema, vocabs)
        model.train()
        p1 = model.predict(batch)["Intent"].probs
        p2 = model.predict(batch)["Intent"].probs
        np.testing.assert_allclose(p1, p2)  # dropout off during predict
        assert model.training  # restored

    def test_predict_in_train_mode_is_the_eval_forward_and_touches_no_mode(self):
        """``predict`` neither reads nor flips module modes: it returns the
        eval-mode bytes, leaves every ``training`` flag as it was and draws
        nothing from any dropout generator; a taped train-mode forward
        still draws."""
        ds = dataset(3)
        config = small_config()
        config.payloads["tokens"] = PayloadConfig(size=8, dropout=0.5)
        config.payloads["query"] = PayloadConfig(size=8, dropout=0.3)
        model, vocabs = compile_from_dataset(ds, config)
        batch = encode_inputs(ds.records, ds.schema, vocabs)
        dropouts = [m for m in submodules(model) if isinstance(m, Dropout) and m.rate]
        assert len(dropouts) == 2

        model.eval()
        expected = model.predict(batch)
        model.train()
        model.encoders["query"].eval()  # a mixed tree: nothing may overwrite it
        modes = [m.training for m in submodules(model)]
        states = [d._rng.bit_generator.state for d in dropouts]

        got = model.predict(batch)
        assert [m.training for m in submodules(model)] == modes
        assert [d._rng.bit_generator.state for d in dropouts] == states
        for task, out in expected.items():
            assert got[task].probs.tobytes() == out.probs.tobytes(), task
            assert got[task].predictions.tobytes() == out.predictions.tobytes(), task

        model(batch)  # taped, train mode: the tokens encoder's dropout draws
        drawn = [d._rng.bit_generator.state != s for d, s in zip(dropouts, states)]
        assert drawn == [d is model.encoders["tokens"].dropout for d in dropouts]

    def test_describe(self):
        model, _ = compile_from_dataset(dataset(), small_config())
        info = model.describe()
        assert info["tasks"] == ["POS", "EntityType", "Intent", "IntentArg"]
        assert info["num_parameters"] == model.num_parameters()


class TestLoss:
    def build_targets(self, ds: Dataset) -> dict:
        targets = {}
        for task in ("Intent", "POS", "EntityType", "IntentArg"):
            combined = combine_supervision(ds.records, ds.schema, task)
            targets[task] = TaskTargets(probs=combined.probs, weights=combined.weights)
        return targets

    def test_multitask_loss_backward(self):
        ds = dataset(3)
        model, vocabs = compile_from_dataset(ds, small_config())
        batch = encode_inputs(ds.records, ds.schema, vocabs)
        outputs = model(batch)
        loss = model.compute_loss(outputs, self.build_targets(ds))
        assert np.isfinite(loss.item())
        loss.backward()
        with_grad = sum(1 for p in model.parameters() if p.grad is not None)
        assert with_grad > 0.9 * len(model.parameters())

    def test_task_weights_scale(self):
        ds = dataset(2)
        model, vocabs = compile_from_dataset(ds, small_config())
        batch = encode_inputs(ds.records, ds.schema, vocabs)
        outputs = model(batch)
        targets = self.build_targets(ds)
        base = model.compute_loss(outputs, {"Intent": targets["Intent"]}).item()
        doubled = model.compute_loss(
            outputs, {"Intent": targets["Intent"]}, task_weights={"Intent": 2.0}
        ).item()
        assert doubled == pytest.approx(2 * base)

    def test_missing_output_rejected(self):
        from repro.errors import TrainingError

        ds = dataset(2)
        model, vocabs = compile_from_dataset(ds, small_config())
        targets = self.build_targets(ds)
        with pytest.raises(TrainingError):
            model.compute_loss({}, {"Intent": targets["Intent"]})

    def test_empty_targets_rejected(self):
        from repro.errors import TrainingError

        ds = dataset(2)
        model, vocabs = compile_from_dataset(ds, small_config())
        batch = encode_inputs(ds.records, ds.schema, vocabs)
        with pytest.raises(TrainingError):
            model.compute_loss(model(batch), {})

    def test_loss_with_slices_and_rebalance(self):
        ds = dataset(3)
        model, vocabs = compile_from_dataset(
            ds, small_config(), slice_names=["rare"]
        )
        batch = encode_inputs(ds.records, ds.schema, vocabs)
        outputs = model(batch)
        combined = combine_supervision(ds.records, ds.schema, "Intent")
        from repro.supervision import class_weights_from_probs

        targets = {
            "Intent": TaskTargets(
                probs=combined.probs,
                weights=combined.weights,
                class_weights=class_weights_from_probs(combined.probs),
                membership=np.array([[1.0], [0.0], [1.0]]),
            )
        }
        loss = model.compute_loss(outputs, targets)
        loss.backward()
        assert np.isfinite(loss.item())

    def test_state_dict_roundtrip(self):
        ds = dataset(2)
        model, vocabs = compile_from_dataset(ds, small_config(), seed=1)
        clone, _ = compile_from_dataset(ds, small_config(), seed=2)
        clone.load_state_dict(model.state_dict())
        batch = encode_inputs(ds.records, ds.schema, vocabs)
        np.testing.assert_allclose(
            model.predict(batch)["Intent"].probs,
            clone.predict(batch)["Intent"].probs,
        )
