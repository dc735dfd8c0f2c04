"""Dense layers."""

from __future__ import annotations

import numpy as np

from repro.nn.init import kaiming_uniform, xavier_uniform, zeros
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, is_grad_enabled


class Linear(Module):
    """Affine map ``y = x W + b`` applied to the last axis.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    rng:
        Generator used for reproducible initialization.
    bias:
        Include a bias term (default True).
    activation:
        One of ``None``, ``"relu"``, ``"tanh"``, ``"sigmoid"`` applied after
        the affine map; choosing it here also selects the matching init.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
        activation: str | None = None,
    ) -> None:
        super().__init__()
        if activation not in (None, "relu", "tanh", "sigmoid"):
            raise ValueError(f"unknown activation {activation!r}")
        init = kaiming_uniform if activation == "relu" else xavier_uniform
        self.weight = Parameter(init((in_features, out_features), rng))
        self.bias = Parameter(zeros((out_features,))) if bias else None
        self.in_features = in_features
        self.out_features = out_features
        self._activation = activation

    def forward(self, x: Tensor) -> Tensor:
        if is_grad_enabled():
            out = x @ self.weight
            if self.bias is not None:
                out = out + self.bias
        else:  # the same two numpy ops, without a Tensor per op
            out = x.data @ self.weight.data
            if self.bias is not None:
                out = out + self.bias.data
            out = Tensor._wrap(out, "linear")
        if self._activation == "relu":
            out = out.relu()
        elif self._activation == "tanh":
            out = out.tanh()
        elif self._activation == "sigmoid":
            out = out.sigmoid()
        return out


class MLP(Module):
    """A small multi-layer perceptron with ReLU hidden layers."""

    def __init__(
        self,
        in_features: int,
        hidden_sizes: list[int],
        out_features: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        sizes = [in_features] + list(hidden_sizes)
        self.hidden = [
            Linear(sizes[i], sizes[i + 1], rng, activation="relu")
            for i in range(len(sizes) - 1)
        ]
        self.out = Linear(sizes[-1], out_features, rng)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.hidden:
            x = layer(x)
        return self.out(x)
