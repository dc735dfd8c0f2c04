"""The per-op taped recurrences ``repro.nn.recurrent`` replaced (PR 22).

These are the ``LSTM.forward`` / ``GRU.forward`` / ``BiLSTM.forward`` bodies
of the parent commit, unchanged except that the layer is an argument: one
``Tensor`` op — one tape node — per slice, matmul, add, activation, product
and ``where`` of every timestep.  They are the reference the fused
primitives must reproduce bit for bit (outputs and all four gradients), so
they live in the tests and are not to be "optimized".
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, concat, stack, where


def lstm_forward(layer, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    batch, time, _ = x.shape
    d = layer.hidden_dim
    h = Tensor(np.zeros((batch, d), dtype=layer.w_x.data.dtype))
    c = Tensor(np.zeros((batch, d), dtype=layer.w_x.data.dtype))
    step_masks = mask.astype(bool)[:, :, None] if mask is not None else None
    outputs: list[Tensor] = []
    for t in range(time):
        x_t = x[:, t, :]
        gates = x_t @ layer.w_x + h @ layer.w_h + layer.bias
        i = gates[:, 0:d].sigmoid()
        f = gates[:, d : 2 * d].sigmoid()
        g = gates[:, 2 * d : 3 * d].tanh()
        o = gates[:, 3 * d : 4 * d].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        if step_masks is not None:
            step_mask = step_masks[:, t]
            h = where(step_mask, h_new, h)
            c = where(step_mask, c_new, c)
        else:
            h, c = h_new, c_new
        outputs.append(h)
    return stack(outputs, axis=1)


def gru_forward(layer, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    batch, time, _ = x.shape
    d = layer.hidden_dim
    h = Tensor(np.zeros((batch, d), dtype=layer.w_x.data.dtype))
    step_masks = mask.astype(bool)[:, :, None] if mask is not None else None
    outputs: list[Tensor] = []
    for t in range(time):
        x_t = x[:, t, :]
        x_proj = x_t @ layer.w_x + layer.bias
        h_proj = h @ layer.w_h
        r = (x_proj[:, 0:d] + h_proj[:, 0:d]).sigmoid()
        z = (x_proj[:, d : 2 * d] + h_proj[:, d : 2 * d]).sigmoid()
        n = (x_proj[:, 2 * d : 3 * d] + r * h_proj[:, 2 * d : 3 * d]).tanh()
        h_new = (1.0 - z) * n + z * h
        if step_masks is not None:
            h = where(step_masks[:, t], h_new, h)
        else:
            h = h_new
        outputs.append(h)
    return stack(outputs, axis=1)


def bilstm_forward(layer, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    fwd = lstm_forward(layer.forward_lstm, x, mask)
    rev_idx = np.arange(x.shape[1])[::-1].copy()
    x_rev = x[:, rev_idx, :]
    mask_rev = mask[:, rev_idx] if mask is not None else None
    bwd = lstm_forward(layer.backward_lstm, x_rev, mask_rev)
    bwd = bwd[:, rev_idx, :]
    return concat([fwd, bwd], axis=-1)
