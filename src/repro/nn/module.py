"""Module and Parameter base classes for the NN substrate.

Mirrors the ``torch.nn.Module`` contract the paper's compiled models rely on:
recursive parameter discovery, train/eval mode, and state-dict export/import
for deployment artifacts.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import DeploymentError
from repro.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor: always requires grad."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for neural-net components.

    Subclasses assign :class:`Parameter` and ``Module`` instances as
    attributes; they are discovered recursively for optimization and
    serialization.
    """

    def __init__(self) -> None:
        self._training = True

    def __init_subclass__(cls, **kwargs) -> None:
        # ``module(x)`` is ``module.forward(x)``: bind the call straight to
        # the class's own forward, so a call costs one Python frame, not two.
        super().__init_subclass__(**kwargs)
        if "forward" in vars(cls):
            cls.__call__ = cls.forward

    # ------------------------------------------------------------------
    # Parameter discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth first."""
        for name, value in vars(self).items():
            if name.startswith("_") and name != "_modules":
                continue
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Parameter):
                        yield f"{full}.{key}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{key}.")

    def parameters(self) -> list[Parameter]:
        """All trainable parameters, depth first."""
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for p in self.parameters():
            p.zero_grad()

    def to_dtype(self, dtype) -> "Module":
        """Cast every parameter to ``dtype`` in place; returns ``self``.

        Same-dtype casts are free; live gradients and parked gradient
        buffers are dropped so a stale-dtype buffer can never be revived
        by the next backward pass.  (An optimizer sees the rebound data on
        its next ``step()`` and adopts the parameters again, its state cast
        to the new dtype.)
        """
        from repro.tensor.backend import resolve_dtype

        resolved = resolve_dtype(dtype)
        for p in self.parameters():
            if p.data.dtype != resolved:
                p.data = p.data.astype(resolved)
                p.grad = None
                p._grad_buffer = None
        return self

    # ------------------------------------------------------------------
    # Train / eval mode
    # ------------------------------------------------------------------
    @property
    def training(self) -> bool:
        return self._training

    def train(self) -> "Module":
        """Enable training mode (dropout active in taped forwards) recursively."""
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        """Enable inference mode (dropout off) recursively."""
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self._training = training
        for value in vars(self).values():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)
            elif isinstance(value, dict):
                for item in value.values():
                    if isinstance(item, Module):
                        item._set_mode(training)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters in-place; names and shapes must match exactly.

        Stored values are cast to each parameter's *current* dtype, so a
        float32-compiled model loads a float64 artifact (and vice versa)
        without the state dict dictating precision.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise DeploymentError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, p in own.items():
            value = np.asarray(state[name], dtype=p.data.dtype)
            if value.shape != p.data.shape:
                raise DeploymentError(
                    f"shape mismatch for {name}: artifact {value.shape} vs "
                    f"model {p.data.shape}"
                )
            p.data = value.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class ModuleDict(Module):
    """A dict of named submodules (used for per-task and per-slice heads)."""

    def __init__(self, modules: dict[str, Module] | None = None) -> None:
        super().__init__()
        self.items_ = dict(modules or {})

    def __getitem__(self, key: str) -> Module:
        return self.items_[key]

    def __setitem__(self, key: str, module: Module) -> None:
        self.items_[key] = module

    def __contains__(self, key: str) -> bool:
        return key in self.items_

    def keys(self):
        return self.items_.keys()

    def values(self):
        return self.items_.values()

    def items(self):
        return self.items_.items()

    def forward(self, *args, **kwargs):
        raise NotImplementedError("ModuleDict is a container; call its members")
