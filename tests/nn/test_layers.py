"""Tests for concrete layers: shapes, masking semantics, gradient flow."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn import (
    AttentionPooling,
    BiLSTM,
    CNNEncoder,
    Conv1d,
    Dropout,
    Embedding,
    GRU,
    LayerNorm,
    Linear,
    LSTM,
    MaxPooling,
    MeanPooling,
    MultiHeadAttention,
    TransformerEncoder,
    make_pooling,
)
from repro.tensor import Tensor, no_grad


def rng():
    return np.random.default_rng(7)


class TestLinear:
    def test_shape(self):
        layer = Linear(4, 3, rng())
        assert layer(Tensor(np.ones((2, 4)))).shape == (2, 3)

    def test_no_bias(self):
        layer = Linear(4, 3, rng(), bias=False)
        assert layer.bias is None
        zero_out = layer(Tensor(np.zeros((1, 4))))
        np.testing.assert_allclose(zero_out.data, np.zeros((1, 3)))

    def test_activations(self):
        for act in ("relu", "tanh", "sigmoid"):
            layer = Linear(2, 2, rng(), activation=act)
            out = layer(Tensor(np.ones((1, 2))))
            assert out.shape == (1, 2)

    def test_relu_activation_nonnegative(self):
        layer = Linear(8, 8, rng(), activation="relu")
        out = layer(Tensor(np.random.default_rng(0).normal(size=(5, 8))))
        assert (out.data >= 0).all()

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            Linear(2, 2, rng(), activation="gelu")

    def test_gradient_reaches_weight(self):
        layer = Linear(3, 2, rng())
        layer(Tensor(np.ones((2, 3)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestEmbedding:
    def test_lookup_shape(self):
        emb = Embedding(10, 4, rng())
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_out_of_range_rejected(self):
        emb = Embedding(5, 2, rng())
        with pytest.raises(ShapeError):
            emb(np.array([5]))
        with pytest.raises(ShapeError):
            emb(np.array([-1]))

    def test_pretrained_used(self):
        table = np.arange(8.0).reshape(4, 2)
        emb = Embedding(4, 2, pretrained=table)
        np.testing.assert_allclose(emb(np.array([3])).data, [[6.0, 7.0]])

    def test_pretrained_shape_checked(self):
        with pytest.raises(ShapeError):
            Embedding(4, 2, pretrained=np.zeros((3, 2)))

    def test_pretrained_copied(self):
        table = np.ones((2, 2))
        emb = Embedding(2, 2, pretrained=table)
        table[:] = 0.0
        assert emb.weight.data.sum() == 4.0

    def test_frozen_has_no_grad_path(self):
        emb = Embedding(4, 2, rng(), trainable=False)
        out = emb(np.array([0, 1]))
        assert not out.requires_grad

    def test_trainable_grad_flows(self):
        emb = Embedding(4, 2, rng())
        emb(np.array([0, 0, 1])).sum().backward()
        assert emb.weight.grad is not None
        # Row 0 looked up twice -> gradient doubled.
        np.testing.assert_allclose(emb.weight.grad[0], 2 * np.ones(2))

    def test_padding_idx_zeroed(self):
        emb = Embedding(4, 3, rng(), padding_idx=0)
        np.testing.assert_allclose(emb(np.array([0])).data, np.zeros((1, 3)))
        emb.weight.data[0] = 1.0
        emb.apply_padding_mask()
        np.testing.assert_allclose(emb.weight.data[0], np.zeros(3))

    def test_requires_rng_without_pretrained(self):
        with pytest.raises(ValueError):
            Embedding(4, 2)


class TestRecurrent:
    def test_lstm_shape(self):
        lstm = LSTM(3, 5, rng())
        out = lstm(Tensor(np.random.default_rng(1).normal(size=(2, 4, 3))))
        assert out.shape == (2, 4, 5)

    def test_lstm_mask_freezes_state(self):
        lstm = LSTM(2, 3, rng())
        x = Tensor(np.random.default_rng(2).normal(size=(1, 4, 2)))
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        out = lstm(x, mask)
        # After the mask ends, the hidden state must stop changing.
        np.testing.assert_allclose(out.data[0, 1], out.data[0, 2])
        np.testing.assert_allclose(out.data[0, 2], out.data[0, 3])

    def test_lstm_gradient_flows_through_time(self):
        lstm = LSTM(2, 3, rng())
        x = Tensor(np.random.default_rng(3).normal(size=(1, 5, 2)), requires_grad=True)
        lstm(x).sum().backward()
        assert x.grad is not None
        assert np.abs(x.grad[0, 0]).sum() > 0  # first step influences output

    def test_gru_shape(self):
        gru = GRU(3, 5, rng())
        out = gru(Tensor(np.random.default_rng(4).normal(size=(2, 4, 3))))
        assert out.shape == (2, 4, 5)

    def test_gru_mask_freezes_state(self):
        gru = GRU(2, 3, rng())
        x = Tensor(np.random.default_rng(5).normal(size=(1, 3, 2)))
        mask = np.array([[1.0, 0.0, 0.0]])
        out = gru(x, mask)
        np.testing.assert_allclose(out.data[0, 0], out.data[0, 1])

    @pytest.mark.parametrize("cls", [LSTM, GRU, BiLSTM])
    def test_zero_length_sequence_is_empty_on_both_paths(self, cls):
        layer = cls(3, 4, rng())
        x = Tensor(np.zeros((2, 0, 3)), requires_grad=True)
        taped = layer(x)
        with no_grad():
            tape_free = layer(x)
        assert taped.shape == tape_free.shape == (2, 0, 4)
        taped.backward(np.zeros((2, 0, 4)))
        assert x.grad.shape == (2, 0, 3)
        for param in layer.parameters():
            assert param.grad.shape == param.shape and not param.grad.any()

    def test_bilstm_shape_and_parity(self):
        bi = BiLSTM(3, 6, rng())
        out = bi(Tensor(np.random.default_rng(6).normal(size=(2, 4, 3))))
        assert out.shape == (2, 4, 6)

    def test_bilstm_odd_hidden_rejected(self):
        with pytest.raises(ValueError):
            BiLSTM(3, 5, rng())

    def test_bilstm_backward_sees_future(self):
        # Perturbing the last timestep must change the first output position
        # (through the backward direction).
        bi = BiLSTM(2, 4, rng())
        x = np.random.default_rng(7).normal(size=(1, 4, 2))
        out1 = bi(Tensor(x)).data[0, 0].copy()
        x2 = x.copy()
        x2[0, -1] += 1.0
        out2 = bi(Tensor(x2)).data[0, 0]
        assert np.abs(out1 - out2).sum() > 1e-8


class TestConv:
    def test_conv_shape(self):
        conv = Conv1d(3, 5, 3, rng())
        out = conv(Tensor(np.random.default_rng(8).normal(size=(2, 6, 3))))
        assert out.shape == (2, 6, 5)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            Conv1d(3, 5, 4, rng())

    def test_encoder_stack(self):
        enc = CNNEncoder(3, 8, rng(), num_layers=2)
        out = enc(Tensor(np.random.default_rng(9).normal(size=(2, 5, 3))))
        assert out.shape == (2, 5, 8)

    def test_translation_locality(self):
        # A kernel of size 3 means output at position t only depends on
        # positions t-1..t+1.
        conv = Conv1d(2, 2, 3, rng())
        x = np.random.default_rng(10).normal(size=(1, 6, 2))
        base = conv(Tensor(x)).data[0, 0].copy()
        x2 = x.copy()
        x2[0, 4] += 10.0  # far from position 0
        perturbed = conv(Tensor(x2)).data[0, 0]
        np.testing.assert_allclose(base, perturbed)

    def test_mask_zeroes_padding_influence(self):
        conv = Conv1d(2, 2, 3, rng())
        x = np.random.default_rng(11).normal(size=(1, 4, 2))
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        out1 = conv(Tensor(x), mask).data[0, 0].copy()
        x2 = x.copy()
        x2[0, 2] += 5.0  # masked position adjacent to pos 1 but not pos 0... use pos 0 check
        out2 = conv(Tensor(x2), mask).data[0, 0]
        np.testing.assert_allclose(out1, out2)


class TestAttention:
    def test_self_attention_shape(self):
        att = MultiHeadAttention(8, 2, rng())
        out = att(Tensor(np.random.default_rng(12).normal(size=(2, 5, 8))))
        assert out.shape == (2, 5, 8)

    def test_cross_attention_shape(self):
        att = MultiHeadAttention(8, 2, rng())
        q = Tensor(np.random.default_rng(13).normal(size=(2, 3, 8)))
        k = Tensor(np.random.default_rng(14).normal(size=(2, 7, 8)))
        assert att(q, k).shape == (2, 3, 8)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ShapeError):
            MultiHeadAttention(7, 2, rng())

    def test_mask_excludes_positions(self):
        att = MultiHeadAttention(4, 1, rng())
        k = np.random.default_rng(15).normal(size=(1, 4, 4))
        q = Tensor(np.random.default_rng(16).normal(size=(1, 1, 4)))
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        out1 = att(q, Tensor(k), mask).data.copy()
        k2 = k.copy()
        k2[0, 3] += 100.0  # masked key changes nothing
        out2 = att(q, Tensor(k2), mask).data
        np.testing.assert_allclose(out1, out2)

    def test_attention_pooling_shape(self):
        pool = AttentionPooling(8, 2, rng())
        out = pool(Tensor(np.random.default_rng(17).normal(size=(3, 5, 8))))
        assert out.shape == (3, 8)

    def test_transformer_encoder_shape(self):
        enc = TransformerEncoder(3, 8, rng(), num_layers=2, num_heads=2)
        out = enc(Tensor(np.random.default_rng(18).normal(size=(2, 4, 3))))
        assert out.shape == (2, 4, 8)

    def test_gradients_flow(self):
        enc = TransformerEncoder(3, 8, rng(), num_layers=1, num_heads=2)
        enc(Tensor(np.random.default_rng(19).normal(size=(1, 3, 3)))).sum().backward()
        grads = [p.grad is not None for p in enc.parameters()]
        assert all(grads)


class TestNormalizationDropout:
    def test_layernorm_zero_mean_unit_var(self):
        ln = LayerNorm(16)
        out = ln(Tensor(np.random.default_rng(20).normal(size=(4, 16)) * 5 + 3))
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4), atol=1e-8)
        np.testing.assert_allclose(out.data.std(axis=-1), np.ones(4), atol=1e-2)

    def test_layernorm_grad(self):
        ln = LayerNorm(4)
        x = Tensor(np.random.default_rng(21).normal(size=(2, 4)), requires_grad=True)
        ln(x).sum().backward()
        assert x.grad is not None

    def test_dropout_off_in_eval(self):
        d = Dropout(0.9)
        d.eval()
        x = Tensor(np.ones((10, 10)))
        np.testing.assert_allclose(d(x).data, x.data)

    def test_dropout_active_in_train(self):
        d = Dropout(0.5, seed=1)
        out = d(Tensor(np.ones((100, 100))))
        assert (out.data == 0).any()
        # Inverted scaling preserves expectation.
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_dropout_rate_validated(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestPooling:
    def test_mean_pooling_masked(self):
        pool = MeanPooling()
        x = Tensor(np.array([[[2.0], [4.0], [100.0]]]))
        mask = np.array([[1.0, 1.0, 0.0]])
        np.testing.assert_allclose(pool(x, mask).data, [[3.0]])

    def test_mean_pooling_unmasked(self):
        pool = MeanPooling()
        x = Tensor(np.array([[[2.0], [4.0]]]))
        np.testing.assert_allclose(pool(x).data, [[3.0]])

    def test_mean_pooling_empty_mask_safe(self):
        pool = MeanPooling()
        out = pool(Tensor(np.ones((1, 3, 2))), np.zeros((1, 3)))
        np.testing.assert_allclose(out.data, np.zeros((1, 2)))

    def test_max_pooling_masked(self):
        pool = MaxPooling()
        x = Tensor(np.array([[[1.0], [5.0], [99.0]]]))
        mask = np.array([[1.0, 1.0, 0.0]])
        np.testing.assert_allclose(pool(x, mask).data, [[5.0]])

    def test_make_pooling_factory(self):
        assert isinstance(make_pooling("mean", 8, rng()), MeanPooling)
        assert isinstance(make_pooling("max", 8, rng()), MaxPooling)
        assert isinstance(make_pooling("attention", 8, rng()), AttentionPooling)
        with pytest.raises(ValueError):
            make_pooling("sum", 8, rng())

    def test_make_pooling_attention_odd_dim(self):
        pool = make_pooling("attention", 7, rng())
        out = pool(Tensor(np.random.default_rng(22).normal(size=(2, 3, 7))))
        assert out.shape == (2, 7)
