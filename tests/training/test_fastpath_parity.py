"""Fast-path parity: every hot-path optimization is a pure elision.

The PR's fast paths — tape-free inference, encoded-batch caching, sparse
embedding gradients, vectorized span weights and recurrent masks — must be
numerically invisible: same seeds, same scores, same weights as the legacy
code paths.  This suite pins that contract (the ``workers=1`` parity
pattern from ``tests/exec``, applied to the compute stack).

The forward-parity, training-parity, and gradcheck suites run under **both
dtype policies** (``ModelConfig.dtype`` float64 and float32): each fast
path must be an elision *within* its precision, whatever the precision.
"""

import numpy as np
import pytest

import repro.nn.embedding as embedding_module
from repro.core import ModelConfig, PayloadConfig, TrainerConfig
from repro.data import EncodedDataset
from repro.model.multitask import MultitaskModel
from repro.nn import GRU, LSTM, Embedding, Linear, Module
from repro.optim import Adam, clip_grad_norm
from repro.tensor import Tensor, dtype_policy, no_grad
from repro.training import Trainer, evaluate
from tests.fixtures import mini_dataset
from tests.helpers import check_grad, cross_entropy


def build(encoder="bow", n=40, seed=0, epochs=3, dtype="float64"):
    dataset = mini_dataset(n=n, seed=seed)
    schema = dataset.schema
    vocabs = dataset.build_vocabs()
    config = ModelConfig(
        payloads={
            "tokens": PayloadConfig(encoder=encoder, size=12),
            "query": PayloadConfig(size=12),
            "entities": PayloadConfig(size=12),
        },
        trainer=TrainerConfig(epochs=epochs, batch_size=16, lr=0.05),
        dtype=dtype,
    )
    model = MultitaskModel(schema, config, vocabs, seed=7)
    return dataset, schema, vocabs, config, model


@pytest.fixture(params=["float64", "float32"])
def dtype(request):
    """Run the suite under both dtype policies."""
    return request.param


def gold_targets_for_training(dataset, schema):
    """Hard gold labels as probabilistic targets (enough for parity runs)."""
    from repro.data.batching import extract_targets
    from repro.model.task_heads import TaskTargets

    records = dataset.records
    targets = {}
    for task in schema.tasks:
        gold = extract_targets(records, schema, task.name, "gold")
        labels, valid = gold["labels"], np.asarray(gold["valid"], dtype=float)
        if task.type == "multiclass":
            probs = np.zeros(labels.shape + (task.num_classes,))
            np.put_along_axis(
                probs, np.maximum(labels, 0)[..., None], 1.0, axis=-1
            )
            targets[task.name] = TaskTargets(probs=probs, weights=valid)
        elif task.type == "bitvector":
            targets[task.name] = TaskTargets(probs=labels, weights=valid)
        else:  # select
            k = schema.payload(task.payload).max_members
            probs = np.zeros((len(records), k))
            np.put_along_axis(probs, np.maximum(labels, 0)[:, None], 1.0, axis=1)
            targets[task.name] = TaskTargets(probs=probs, weights=valid)
    return targets


class TestNoGradForwardParity:
    @pytest.mark.parametrize("encoder", ["bow", "lstm", "gru", "bilstm", "cnn"])
    def test_predictions_identical(self, encoder, dtype):
        dataset, schema, vocabs, _, model = build(encoder=encoder, dtype=dtype)
        model.eval()
        encoded = EncodedDataset(dataset.records, schema, vocabs)
        batch = encoded.batch(np.arange(len(dataset.records)))
        taped = model.forward(batch)
        with no_grad():
            free = model.forward(batch)
        for name in taped:
            np.testing.assert_array_equal(taped[name].probs, free[name].probs)
            np.testing.assert_array_equal(
                taped[name].predictions, free[name].predictions
            )


class TestEncodedTrainingParity:
    @pytest.mark.parametrize("encoder", ["bow", "lstm"])
    def test_fit_bit_identical_with_and_without_cache(self, encoder, dtype):
        results = {}
        for cached in (False, True):
            dataset, schema, vocabs, config, model = build(encoder=encoder, dtype=dtype)
            trainer = Trainer(model, config.trainer)
            train = dataset.split("train")
            dev = dataset.split("dev")
            targets = gold_targets_for_training(train, schema)
            history = trainer.fit(
                train.records,
                vocabs,
                targets,
                dev_records=dev.records,
                cache_batches=cached,
            )
            results[cached] = (
                [e.train_loss for e in history.epochs],
                [e.dev_score for e in history.epochs],
                model.state_dict(),
            )
        losses_a, scores_a, state_a = results[False]
        losses_b, scores_b, state_b = results[True]
        assert losses_a == losses_b
        assert scores_a == scores_b
        for name in state_a:
            np.testing.assert_array_equal(state_a[name], state_b[name])

    def test_evaluate_with_encoded_matches_fresh(self):
        dataset, schema, vocabs, _, model = build()
        model.eval()
        records = dataset.split("dev").records
        encoded = EncodedDataset(records, schema, vocabs)
        fresh = evaluate(model, records, schema, vocabs, "gold")
        cached = evaluate(model, records, schema, vocabs, "gold", encoded=encoded)
        assert {t: e.metrics for t, e in fresh.items()} == {
            t: e.metrics for t, e in cached.items()
        }


class _TinyClassifier(Module):
    """Embedding -> mean pool -> linear: the minimal large-vocab trainer."""

    def __init__(self, vocab: int, dim: int, classes: int, rng) -> None:
        super().__init__()
        self.emb = Embedding(vocab, dim, rng, padding_idx=0)
        self.out = Linear(dim, classes, rng)

    def forward(self, ids: np.ndarray) -> Tensor:
        return self.out(self.emb(ids).mean(axis=1))


class TestSparseTrainingParity:
    def test_sparse_and_dense_training_identical(self, monkeypatch):
        """Train twice on a large-vocab table: adaptive-sparse vs forced-dense."""
        from repro.tensor.ops import Tensor as OpsTensor

        def dense_gather(table, indices):
            idx = np.asarray(indices, dtype=np.int64)
            data = table.data[idx]

            def grad_fn(g):
                grad = np.zeros_like(table.data)
                np.add.at(grad, idx.reshape(-1), g.reshape(-1, table.shape[1]))
                return grad

            return OpsTensor._make(data, [(table, grad_fn)], "gather_rows")

        vocab, dim, classes, batch, length = 3000, 8, 4, 16, 6
        rng = np.random.default_rng(11)
        ids = rng.integers(1, vocab, size=(10, batch, length))
        labels = rng.integers(0, classes, size=(10, batch))

        states = {}
        for mode in ("sparse", "dense"):
            if mode == "dense":
                monkeypatch.setattr(embedding_module, "gather_rows", dense_gather)
            model = _TinyClassifier(vocab, dim, classes, np.random.default_rng(5))
            optimizer = Adam(model.parameters(), lr=0.01)
            for step in range(10):
                logits = model(ids[step])
                loss = cross_entropy(logits, labels[step])
                optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(model.parameters(), 1.0)
                optimizer.step()
            states[mode] = model.state_dict()
            monkeypatch.undo()

        for name in states["sparse"]:
            np.testing.assert_allclose(
                states["sparse"][name],
                states["dense"][name],
                rtol=1e-12,
                atol=1e-15,
                err_msg=name,
            )


class TestVectorizedGradchecks:
    """Gradcheck still green through the vectorized forward paths.

    Runs under both dtype policies: the layer is *built* under the policy
    (float32 parameters) and :func:`tests.helpers.check_grad` evaluates,
    differentiates, and compares in that precision.
    """

    def test_set_encoder_span_weights(self, dtype):
        from repro.core import PayloadSpec
        from repro.data import PayloadInputs
        from repro.model import EmbeddingRegistry
        from repro.model.payload_encoders import SetPayloadEncoder

        spec = PayloadSpec(name="entities", type="set", range="tokens", max_members=3)
        with dtype_policy(dtype):
            enc = SetPayloadEncoder(
                spec,
                PayloadConfig(size=6),
                range_size=6,
                vocab_size=10,
                rng=np.random.default_rng(4),
                registry=EmbeddingRegistry(),
            )
        enc.eval()
        inputs = PayloadInputs(
            member_ids=np.array([[2, 3, 0]]),
            # A multi-position span, an empty span, and a masked member.
            spans=np.array([[[0, 3], [2, 2], [0, 1]]]),
            member_mask=np.array([[1.0, 1.0, 0.0]]),
        )
        x = np.random.default_rng(6).normal(size=(1, 4, 6))
        check_grad(lambda t: enc(inputs, t).sum(), x, dtype=dtype)

    @pytest.mark.parametrize("cls", [LSTM, GRU])
    def test_recurrent_masked_gradcheck(self, cls, dtype):
        rng = np.random.default_rng(9)
        with dtype_policy(dtype):
            layer = cls(3, 4, rng)
        mask = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        x = rng.normal(size=(2, 4, 3))
        check_grad(lambda t: layer(t, mask).sum(), x, atol=1e-4, rtol=1e-3, dtype=dtype)
