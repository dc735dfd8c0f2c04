"""Recurrent sequence encoders: LSTM and GRU.

These are two of the coarse "encoder blocks" Overton's architecture search
chooses between (Fig. 2a lists ``"encoder": ["LSTM", ...]``).  Inputs are
``(batch, time, dim)`` tensors plus a ``(batch, time)`` mask; masked steps
carry the previous hidden state forward so padding never corrupts state.

Each layer is **one tape node** (:meth:`repro.tensor.Tensor._make_joint`),
whatever the sequence length: ``forward`` is a single whole-sequence numpy
loop writing into a preallocated ``(batch, time, hidden)`` output, and
``_backward`` is the matching hand-written reverse loop (BPTT) that returns
the gradients of ``x``, ``w_x``, ``w_h`` and ``bias`` together.  The same
forward loop serves training and serving: it keeps the per-step gate
activations and previous states only while the tape is recording, so under
:func:`repro.tensor.no_grad` it allocates nothing beyond its arithmetic.

Both loops are pinned, bit for bit, to the per-op tape they replaced (kept
as the oracle in ``tests/nn/recurrent_oracle.py``):

* the forward performs that tape's numpy operations in its order — a
  per-step ``x[:, t] @ w_x + h @ w_h + bias`` (no hoisted input projection:
  at batch 1 a gemv and a gemm round differently), :func:`logistic`,
  ``np.where`` masks;
* the backward uses the tape's float association — ``(g * out) * (1 - out)``
  for a sigmoid, ``g * (1 - out**2)`` for a tanh, ``g * cond`` /
  ``g * ~cond`` for a mask, ``swapaxes`` views into the matmuls — sums a
  hidden state's gradient in the order the tape met its consumers (the
  layer output, a masked pass-through, the GRU's ``z * h``, then
  ``h @ w_h``), and accumulates parameter gradients from the last timestep
  to the first, starting from the first contribution.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import orthogonal, xavier_uniform, zeros
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, concat, is_grad_enabled
from repro.tensor.tensor import logistic


def _accumulate(totals: list | None, parts: tuple) -> list:
    """Add one timestep's parameter gradients; the first ones start the sum."""
    if totals is None:
        return list(parts)
    for total, part in zip(totals, parts):
        total += part
    return totals


class _RecurrentLayer(Module):
    """What the cells share: fused gate projections, one tape node per call.

    A cell names its ``gates`` count and supplies the two loops:
    ``_run(x, step_masks, saved)`` returns the ``(batch, time, hidden)``
    states, appending what BPTT needs to ``saved`` unless it is ``None``;
    ``_backward(grad, x, step_masks, saved)`` returns
    ``[dx, dw_x, dw_h, dbias]``.
    """

    gates: int

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.w_x = Parameter(xavier_uniform((input_dim, self.gates * hidden_dim), rng))
        self.w_h = Parameter(
            np.concatenate(
                [orthogonal((hidden_dim, hidden_dim), rng) for _ in range(self.gates)],
                axis=1,
            )
        )
        self.bias = Parameter(zeros((self.gates * hidden_dim,)))
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Encode ``x`` of shape ``(batch, time, input_dim)``.

        Returns all hidden states, shape ``(batch, time, hidden_dim)``.
        """
        data = x.data
        # All step masks in one pass: a (B, T, 1) boolean array whose time
        # slices broadcast against (B, d) states.
        step_masks = mask.astype(bool)[:, :, None] if mask is not None else None
        saved = [] if is_grad_enabled() else None
        out = self._run(data, step_masks, saved)
        op = type(self).__name__.lower()
        if saved is None:
            return Tensor._wrap(out, op)
        return Tensor._make_joint(
            out,
            (x, self.w_x, self.w_h, self.bias),
            lambda grad: self._backward(grad, data, step_masks, saved),
            op,
        )

    def _zero_param_grads(self) -> list:
        return [np.zeros_like(p.data) for p in (self.w_x, self.w_h, self.bias)]


class LSTM(_RecurrentLayer):
    """Single-layer unidirectional LSTM.

    Gates are computed with one fused input projection and one fused
    recurrent projection, ordered ``[input, forget, cell, output]``.
    The forget-gate bias starts at 1.0 (standard trick for gradient flow).
    """

    gates = 4

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__(input_dim, hidden_dim, rng)
        self.bias.data[hidden_dim : 2 * hidden_dim] = 1.0  # forget gate

    def _run(self, data, step_masks, saved) -> np.ndarray:
        w_x, w_h, bias = self.w_x.data, self.w_h.data, self.bias.data
        batch, time, _ = data.shape
        d = self.hidden_dim
        # Initial states adopt the weights' dtype so a float32-compiled model
        # never upcasts its whole unroll through a float64 zero state.
        h = np.zeros((batch, d), dtype=w_x.dtype)
        c = np.zeros((batch, d), dtype=w_x.dtype)
        out = np.empty((batch, time, d), dtype=np.result_type(data.dtype, w_x.dtype))
        for t in range(time):
            gates = data[:, t, :] @ w_x + h @ w_h + bias
            i = logistic(gates[:, 0:d])
            f = logistic(gates[:, d : 2 * d])
            g = np.tanh(gates[:, 2 * d : 3 * d])
            o = logistic(gates[:, 3 * d : 4 * d])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            if saved is not None:
                saved.append((i, f, g, o, tanh_c, h, c))
            if step_masks is not None:
                step_mask = step_masks[:, t]
                h = np.where(step_mask, h_new, h)
                c = np.where(step_mask, c_new, c)
            else:
                h, c = h_new, c_new
            out[:, t] = h
        return out

    def _backward(self, grad, x, step_masks, saved) -> list:
        """BPTT over the saved steps: ``[dx, dw_x, dw_h, dbias]``."""
        d = self.hidden_dim
        w_x_t = np.swapaxes(self.w_x.data, -1, -2)
        w_h_t = np.swapaxes(self.w_h.data, -1, -2)
        held_masks = ~step_masks if step_masks is not None else None
        dx = np.empty_like(x)
        dgates = np.empty((x.shape[0], 4 * d), dtype=grad.dtype)
        param_grads = None
        # What step t+1 sent back to h_t and c_t: through ``h @ w_h`` (rec),
        # through ``f * c`` (dc), and what a masked step held back for them.
        dh_held = dh_rec = dc = dc_held = None
        for t in reversed(range(len(saved))):
            i, f, g, o, tanh_c, h_prev, c_prev = saved[t]
            dh = grad[:, t]
            if dh_held is not None:
                dh = dh + dh_held
            if dh_rec is not None:
                dh = dh + dh_rec
            if step_masks is not None:
                keep, hold = step_masks[:, t], held_masks[:, t]
                dh_held, dh = dh * hold, dh * keep
                if dc is not None:
                    dc_held, dc = dc * hold, dc * keep
            dc_tanh = (dh * o) * (1.0 - tanh_c**2)
            dc_new = dc_tanh if dc is None else dc + dc_tanh
            # Left to right as the tape multiplied: a product's share, then
            # the activation's ``* out * (1 - out)`` or ``* (1 - out**2)``.
            dgates[:, 0:d] = dc_new * g * i * (1.0 - i)
            dgates[:, d : 2 * d] = dc_new * c_prev * f * (1.0 - f)
            dgates[:, 2 * d : 3 * d] = dc_new * i * (1.0 - g**2)
            dgates[:, 3 * d : 4 * d] = dh * tanh_c * o * (1.0 - o)
            dc = dc_new * f
            if dc_held is not None:
                dc = dc + dc_held
            dx[:, t] = dgates @ w_x_t
            dh_rec = dgates @ w_h_t if t else None
            param_grads = _accumulate(
                param_grads,
                (
                    np.swapaxes(x[:, t, :], -1, -2) @ dgates,
                    np.swapaxes(h_prev, -1, -2) @ dgates,
                    dgates.sum(axis=(0,)),
                ),
            )
        return [dx, *(param_grads or self._zero_param_grads())]


class GRU(_RecurrentLayer):
    """Single-layer unidirectional GRU, gates ordered ``[reset, update]``."""

    gates = 3

    def _run(self, data, step_masks, saved) -> np.ndarray:
        w_x, w_h, bias = self.w_x.data, self.w_h.data, self.bias.data
        batch, time, _ = data.shape
        d = self.hidden_dim
        h = np.zeros((batch, d), dtype=w_x.dtype)
        out = np.empty((batch, time, d), dtype=np.result_type(data.dtype, w_x.dtype))
        for t in range(time):
            x_proj = data[:, t, :] @ w_x + bias
            h_proj = h @ w_h
            r = logistic(x_proj[:, 0:d] + h_proj[:, 0:d])
            z = logistic(x_proj[:, d : 2 * d] + h_proj[:, d : 2 * d])
            h_cand = h_proj[:, 2 * d : 3 * d]
            n = np.tanh(x_proj[:, 2 * d : 3 * d] + r * h_cand)
            z_inv = 1.0 - z
            h_new = z_inv * n + z * h
            if saved is not None:
                saved.append((r, z, n, z_inv, h_cand, h))
            if step_masks is not None:
                h = np.where(step_masks[:, t], h_new, h)
            else:
                h = h_new
            out[:, t] = h
        return out

    def _backward(self, grad, x, step_masks, saved) -> list:
        """BPTT over the saved steps: ``[dx, dw_x, dw_h, dbias]``."""
        d = self.hidden_dim
        w_x_t = np.swapaxes(self.w_x.data, -1, -2)
        w_h_t = np.swapaxes(self.w_h.data, -1, -2)
        held_masks = ~step_masks if step_masks is not None else None
        dx = np.empty_like(x)
        # Gate gradients as the input projection and the recurrent projection
        # see them: equal for r and z, apart for the candidate.
        dx_gates = np.empty((x.shape[0], 3 * d), dtype=grad.dtype)
        dh_gates = np.empty((x.shape[0], 3 * d), dtype=grad.dtype)
        param_grads = None
        # What step t+1 sent back to h_t: a masked step's pass-through
        # (held), ``z * h`` (gate) and ``h @ w_h`` (rec) — the tape's order.
        dh_held = dh_gate = dh_rec = None
        for t in reversed(range(len(saved))):
            r, z, n, z_inv, h_cand, h_prev = saved[t]
            dh = grad[:, t]
            if dh_held is not None:
                dh = dh + dh_held
            if dh_gate is not None:
                dh = dh + dh_gate + dh_rec
            if step_masks is not None:
                dh_held, dh = dh * held_masks[:, t], dh * step_masks[:, t]
            dz = -(dh * n) + dh * h_prev
            dn_pre = dh * z_inv * (1.0 - n**2)
            dx_gates[:, 0:d] = dn_pre * h_cand * r * (1.0 - r)
            dx_gates[:, d : 2 * d] = dz * z * (1.0 - z)
            dx_gates[:, 2 * d : 3 * d] = dn_pre
            dh_gates[:, 0 : 2 * d] = dx_gates[:, 0 : 2 * d]
            dh_gates[:, 2 * d : 3 * d] = dn_pre * r
            dx[:, t] = dx_gates @ w_x_t
            dh_gate = dh * z if t else None
            dh_rec = dh_gates @ w_h_t if t else None
            param_grads = _accumulate(
                param_grads,
                (
                    np.swapaxes(x[:, t, :], -1, -2) @ dx_gates,
                    np.swapaxes(h_prev, -1, -2) @ dh_gates,
                    dx_gates.sum(axis=(0,)),
                ),
            )
        return [dx, *(param_grads or self._zero_param_grads())]


class BiLSTM(Module):
    """Bidirectional LSTM: concatenation of forward and backward passes."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        if hidden_dim % 2 != 0:
            raise ValueError(f"BiLSTM hidden_dim must be even, got {hidden_dim}")
        half = hidden_dim // 2
        self.forward_lstm = LSTM(input_dim, half, rng)
        self.backward_lstm = LSTM(input_dim, half, rng)
        self.hidden_dim = hidden_dim

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        fwd = self.forward_lstm(x, mask)
        rev_idx = np.arange(x.shape[1])[::-1].copy()
        x_rev = x[:, rev_idx, :]
        mask_rev = mask[:, rev_idx] if mask is not None else None
        bwd = self.backward_lstm(x_rev, mask_rev)
        bwd = bwd[:, rev_idx, :]
        return concat([fwd, bwd], axis=-1)
