"""Cross-dtype regression: float32 inference tracks float64 within tolerance.

Pins the contract the serving-precision trade rests on (and the satellite
requirements of the dtype-policy PR):

* ``no_grad()`` inference from a float32-compiled model matches the
  float64 twin within 1e-4 — and running it never mutates the caller's
  dtype policy;
* the compiled dtype round-trips through artifacts (config + metadata +
  restored model), and a float32 *training* run keeps every parameter and
  gradient in float32;
* float32 models run end to end through ``Trainer.fit`` with finite
  losses.
"""

import numpy as np

from repro.core import ModelConfig, PayloadConfig, TrainerConfig
from repro.data import EncodedDataset
from repro.deploy import ModelArtifact
from repro.model.multitask import MultitaskModel
from repro.tensor import default_dtype, no_grad
from repro.training import Trainer

from tests.fixtures import mini_dataset
from tests.training.test_fastpath_parity import build, gold_targets_for_training

F32 = np.dtype("float32")
F64 = np.dtype("float64")


def build_pair(encoder="lstm", n=40):
    """The same (schema, vocabs, seed) compiled in float64 and float32."""
    models = {}
    for dtype in ("float64", "float32"):
        dataset, schema, vocabs, config, model = build(encoder=encoder, n=n, dtype=dtype)
        models[dtype] = model
    return dataset, schema, vocabs, models


class TestInferenceDivergence:
    def test_no_grad_float32_matches_float64_within_tolerance(self):
        dataset, schema, vocabs, models = build_pair()
        encoded = EncodedDataset(dataset.records, schema, vocabs)
        batch = encoded.batch(np.arange(len(dataset.records)))
        outputs = {}
        for dtype, model in models.items():
            model.eval()
            with no_grad():
                outputs[dtype] = model.forward(batch)
        for name in outputs["float64"]:
            p64 = np.asarray(outputs["float64"][name].probs, dtype=F64)
            p32 = np.asarray(outputs["float32"][name].probs, dtype=F64)
            assert outputs["float32"][name].probs.dtype == F32, name
            np.testing.assert_allclose(p64, p32, atol=1e-4, rtol=0, err_msg=name)

    def test_inference_never_mutates_the_policy(self):
        dataset, schema, vocabs, models = build_pair(encoder="bow")
        encoded = EncodedDataset(dataset.records, schema, vocabs)
        batch = encoded.batch(np.arange(8))
        assert default_dtype() == F64
        models["float32"].predict(batch)
        assert default_dtype() == F64
        models["float32"].forward(batch)
        assert default_dtype() == F64


class TestDtypeRoundTrip:
    def test_artifact_preserves_compiled_dtype(self, tmp_path):
        dataset, schema, vocabs, config, model = build(dtype="float32")
        artifact = ModelArtifact.from_model(model, vocabs)
        assert artifact.config.dtype == "float32"
        assert artifact.metadata["dtype"] == "float32"
        path = artifact.save(tmp_path / "artifact")
        restored = ModelArtifact.load(path).build_model()
        assert restored.dtype == F32
        for _, p in restored.named_parameters():
            assert p.data.dtype == F32

    def test_float64_artifact_loads_into_float32_model(self, tmp_path):
        dataset, schema, vocabs, config, model64 = build(dtype="float64")
        state = model64.state_dict()
        _, _, _, _, model32 = build(dtype="float32")
        model32.load_state_dict(state)
        for name, p in model32.named_parameters():
            assert p.data.dtype == F32, name
            np.testing.assert_allclose(p.data, state[name].astype(F32))

    def test_to_dtype_moves_params_and_policy(self):
        dataset, schema, vocabs, config, model = build(dtype="float64")
        model.to_dtype("float32")
        assert model.dtype == F32
        assert all(p.data.dtype == F32 for p in model.parameters())
        encoded = EncodedDataset(dataset.records, schema, vocabs)
        out = model.predict(encoded.batch(np.arange(8)))
        for name in out:
            assert out[name].probs.dtype == F32

    def test_cast_model_builds_self_consistent_artifact(self, tmp_path):
        """An artifact from a cast model recompiles in the dtype it serves."""
        dataset, schema, vocabs, config, model = build(dtype="float64")
        model.to_dtype("float32")
        assert model.config.dtype == "float32"
        artifact = ModelArtifact.from_model(model, vocabs)
        assert artifact.config.dtype == "float32"
        restored = ModelArtifact.load(artifact.save(tmp_path / "cast")).build_model()
        assert restored.dtype == F32


class TestFloat32Training:
    def test_fit_keeps_float32_params_and_grads(self):
        dataset = mini_dataset(n=30)
        vocabs = dataset.build_vocabs()
        config = ModelConfig(
            payloads={
                "tokens": PayloadConfig(encoder="lstm", size=12),
                "query": PayloadConfig(size=12),
                "entities": PayloadConfig(size=12),
            },
            trainer=TrainerConfig(epochs=2, batch_size=16, lr=0.05),
            dtype="float32",
        )
        model = MultitaskModel(dataset.schema, config, vocabs, seed=7)
        targets = gold_targets_for_training(dataset, dataset.schema)
        trainer = Trainer(model, config.trainer)
        history = trainer.fit(dataset.records, vocabs, targets)
        assert all(np.isfinite(e.train_loss) for e in history.epochs)
        for name, p in model.named_parameters():
            assert p.data.dtype == F32, name
        # And the trainer never leaked the model's policy into this thread.
        assert default_dtype() == F64

    def test_optimizer_moments_realign_after_cast(self):
        """Casting a model with a live optimizer must not revert on step()."""
        from repro.nn import Linear
        from repro.optim import SGD, Adam
        from repro.tensor import Tensor

        for make in (lambda ps: Adam(ps, lr=0.01), lambda ps: SGD(ps, lr=0.01, momentum=0.9)):
            layer = Linear(4, 3, np.random.default_rng(0))
            optimizer = make(layer.parameters())  # moments born float64
            layer.to_dtype("float32")
            out = layer(Tensor(np.ones((2, 4), dtype=F32)))
            out.sum().backward()
            optimizer.step()
            for p in layer.parameters():
                assert p.data.dtype == F32

    def test_trainer_encodes_batches_in_the_model_dtype(self):
        """The batch cache is born float32 for a float32 model, not recast."""
        from repro.tensor import dtype_policy

        dataset = mini_dataset(n=20)
        vocabs = dataset.build_vocabs()
        with dtype_policy("float32"):
            encoded = EncodedDataset(dataset.records, dataset.schema, vocabs)
        batch = encoded.batch(np.arange(4))
        tokens = batch.payloads["tokens"]
        assert tokens.mask.dtype == F32
        assert tokens.ids.dtype == np.dtype("int64")  # ids stay integer
