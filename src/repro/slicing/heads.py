"""Slice-aware model heads: residual experts + learned indicators.

Implements the slice-based-learning architecture the paper adopts from Chen
et al. (NeurIPS 2019), §2.2:

* a **base head** makes the backbone prediction;
* per slice, an **indicator head** learns "am I in this slice?" — this is
  what lets a heuristic slice generalize to unseen examples;
* per slice, an **expert feature transform + expert head** adds the "slightly
  increased representation capacity";
* at inference there is still *one* prediction per task: expert features are
  recombined into the backbone representation by **membership-and-confidence
  weighted attention**, and a final head predicts from the residual sum.

The module is granularity-agnostic: it operates on ``(n_items, d)``
representations (callers flatten sequence reps to items).

With slices the head is one numpy routine, taped or not, and on the tape
one forward node and one :func:`slice_loss` node for any slice count, both
differentiated by :meth:`SliceAwareHead._backward`.  They are pinned bit for
bit to the per-op tape they replaced (``tests/slicing/slice_head_oracle.py``):
its operations in its order and float association, each gradient summed in
the order the tape met its consumers — an indicator's BCE terms as relu,
x·t, |x|; the reconstruct layer's slices 0…S−1; ``rep``'s parts as below —
and an expert logit's gradient with the ``+ 0.0`` of the tape's scatter.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn import Linear, Module
from repro.tensor import Tensor, dtype_policy, is_grad_enabled
from repro.tensor.functional import CrossEntropy
from repro.tensor.tensor import _as_array, _unbroadcast

_ALL_LOGITS = frozenset({"final", "base", "indicator", "expert"})

# The orders the per-op tape met rep's consumers in: it explored the loss
# terms last to first, so it met them first to last, each consumer under the
# last term reaching it — the final path (residual chain, and the expert
# transforms unless an expert term reaches them later) under the final
# cross-entropy, or under the class-weighted one, which comes last.
_FINAL_PATH_FIRST = ("residual", "transforms", "base", "indicators")
_EXPERTS_LAST = ("residual", "base", "indicators", "transforms")
_CLASS_WEIGHTED = ("base", "indicators", "residual", "transforms")


def _unpack(flat: np.ndarray, blocks: dict, name: str) -> np.ndarray:
    """The named block of a packed array, as a view."""
    span, shape = blocks[name]
    return flat[span].reshape(shape)


class SliceForward:
    """Everything a slice-aware head produces in one pass.

    Without slices ``logits`` is the plain ``(n, k)`` linear output, final
    and base logits at once.  With slices it packs the final ``(n, k)``,
    base ``(n, k)``, indicator ``(n, s)`` and expert ``(n, s, k)`` logits
    as laid out in ``blocks``; the four named tensors are differentiable
    views of it, each recorded on first access; a view that passes a
    gradient back names its block in ``reached``.  ``attention`` holds the
    detached ``(n, s)`` slice weights, for monitoring; ``head`` and
    ``saved`` (``rep``, then per slice the expert features, their relu
    masks and attention columns, then the final head's input) are what
    :func:`slice_loss` differentiates, when the forward was recorded.
    """

    def __init__(
        self, logits, attention=None, blocks=None, head=None, saved=None, reached=None
    ) -> None:
        self.logits = logits
        self.attention = attention
        self.blocks = blocks
        self.head = head
        self.saved = saved
        self.reached = reached
        self.views: dict[str, Tensor] = {}

    def block(self, name: str) -> np.ndarray:
        """The named logits as a plain array, off the tape."""
        return self.logits.data if self.blocks is None else _unpack(self.logits.data, self.blocks, name)

    def _view(self, name: str) -> Tensor | None:
        if self.blocks is None:
            return self.logits if name in ("final", "base") else None
        packed = self.logits
        if name in self.views:
            return self.views[name]
        if not (packed.requires_grad and is_grad_enabled()):
            self.views[name] = Tensor._wrap(self.block(name), name)
            return self.views[name]

        # The closure holds no reference to self: a cycle through the
        # tape would keep every step's graph alive until a full collection.
        blocks, reached = self.blocks, self.reached

        def grad_fn(g: np.ndarray) -> np.ndarray:
            reached.add(name)
            grad = np.zeros_like(packed.data)
            _unpack(grad, blocks, name)[...] = g
            return grad

        # Perhaps taken outside the forward's dtype policy: keep its dtype.
        with dtype_policy(packed.data.dtype):
            self.views[name] = Tensor._make(self.block(name), [(packed, grad_fn)], name)
        return self.views[name]

    final_logits = property(lambda self: self._view("final"))
    base_logits = property(lambda self: self._view("base"))
    indicator_logits = property(lambda self: self._view("indicator"))
    expert_logits = property(lambda self: self._view("expert"))


def _affine(x: np.ndarray, layer: Linear) -> np.ndarray:
    """``x @ W + b`` as ``Linear`` computes it."""
    return x @ layer.weight.data + layer.bias.data


def _linear_vjp(x: np.ndarray, layer: Linear, g: np.ndarray) -> tuple:
    """``x @ W + b``'s ``(dW, db, dx)`` as the tape's matmul and add give them."""
    return (
        np.swapaxes(x, -1, -2) @ g,
        _unbroadcast(g, layer.bias.shape),
        g @ np.swapaxes(layer.weight.data, -1, -2),
    )


def _fold(parts: list[np.ndarray]) -> np.ndarray:
    """Sum gradient contributions left to right, as the tape meets them."""
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


class SliceAwareHead(Module):
    """Task head with optional slice experts.

    With ``slice_names`` empty this degrades exactly to a plain linear head
    (the ablation baseline in ``benchmarks/bench_slice_ablation.py``).
    """

    def __init__(
        self,
        rep_dim: int,
        num_classes: int,
        slice_names: list[str],
        rng: np.random.Generator,
        expert_dim: int | None = None,
    ) -> None:
        super().__init__()
        self.rep_dim = rep_dim
        self.num_classes = num_classes
        self.slice_names = list(slice_names)
        # Experts ADD capacity on top of the backbone (that is the point of
        # slicing, §2.2), so their width must not shrink with a bottlenecked
        # backbone representation.
        self.expert_dim = expert_dim or max(2 * rep_dim, 16)

        self.base_head = Linear(rep_dim, num_classes, rng)
        self.indicator_heads = [
            Linear(rep_dim, 1, rng) for _ in self.slice_names
        ]
        self.expert_transforms = [
            Linear(rep_dim, self.expert_dim, rng, activation="relu")
            for _ in self.slice_names
        ]
        self.expert_heads = [
            Linear(self.expert_dim, num_classes, rng) for _ in self.slice_names
        ]
        self.reconstruct = (
            Linear(self.expert_dim, rep_dim, rng) if self.slice_names else None
        )
        # Without slices the base head *is* the final head; creating a
        # second head would leave dead parameters.
        self.final_head = (
            Linear(rep_dim, num_classes, rng) if self.slice_names else None
        )

    @property
    def num_slices(self) -> int:
        return len(self.slice_names)

    def _layers(self, live) -> list[Linear]:
        """The layers a gradient on the ``live`` logits reaches, in input order."""
        return [
            *([self.base_head] if "base" in live else []),
            *(self.indicator_heads if "indicator" in live else []),
            *(self.expert_transforms if live & {"final", "expert"} else []),
            *(self.expert_heads if "expert" in live else []),
            *([self.reconstruct, self.final_head] if "final" in live else []),
        ]

    def _inputs(self, rep: Tensor, live) -> list[Tensor]:
        return [rep] + [p for layer in self._layers(live) for p in (layer.weight, layer.bias)]

    def forward(self, rep: Tensor) -> SliceForward:
        if not self.slice_names:
            return SliceForward(self.base_head(rep))
        packed, blocks, attention, saved = self._run(rep)
        if not is_grad_enabled():
            return SliceForward(Tensor._wrap(packed, "slice_head"), attention, blocks)
        reached: set[str] = set()

        def vjp(grad: np.ndarray) -> list:  # from the views that passed one
            d = {name: _unpack(grad, blocks, name) for name in reached}
            reached.clear()
            return self._backward(saved, d, _FINAL_PATH_FIRST, _ALL_LOGITS)

        logits = Tensor._make_joint(packed, self._inputs(rep, _ALL_LOGITS), vjp, "slice_head")
        return SliceForward(logits, attention, blocks, self, saved, reached)

    def _run(self, rep: Tensor) -> tuple:
        """The whole head in numpy: packed logits, their layout, attention
        and what the backward needs."""
        x, taped = rep.data, is_grad_enabled()
        n, k, s = x.shape[0], self.num_classes, len(self.slice_names)
        blocks, offset = {}, 0
        for name, shape in (
            ("final", (n, k)), ("base", (n, k)), ("indicator", (n, s)), ("expert", (n, s, k))
        ):
            size = math.prod(shape)
            blocks[name] = (slice(offset, offset + size), shape)
            offset += size
        base = _affine(x, self.base_head)
        packed = np.empty(offset, dtype=base.dtype)
        _unpack(packed, blocks, "base")[...] = base
        indicator = _unpack(packed, blocks, "indicator")
        expert = _unpack(packed, blocks, "expert")
        feats, masks = [], []
        for i in range(s):
            indicator[:, i] = _affine(x, self.indicator_heads[i])[:, 0]
            pre = _affine(x, self.expert_transforms[i])
            mask = pre > 0
            feats.append(pre * mask)  # (n, e)
            del pre  # freed before the next op, as the per-op relu freed it
            if taped:
                masks.append(mask)
            expert[:, i] = _affine(feats[i], self.expert_heads[i])  # (n, k)

        # Expert confidence: max log-probability (high when the expert is
        # decisive), every slice at once — each is a reduction over its own
        # k logits, so the whole (n, s, k) block gives the per-slice bits.
        # Detached — attention should not push experts toward overconfidence.
        shifted = expert - _as_array(expert.max(axis=-1, keepdims=True))
        log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        confidence = (shifted - log_norm).max(axis=-1)  # (n, s)

        # Attention over slices: membership likelihood + expert confidence.
        raw = indicator + confidence  # (n, s)
        # Stable softmax over slices with an implicit "no slice" option of
        # score 0, so examples in no slice keep the backbone representation.
        padded = np.concatenate([np.zeros((n, 1), dtype=raw.dtype), raw], axis=1)
        shifted = padded - padded.max(axis=1, keepdims=True)
        weights = np.exp(shifted)
        weights = weights / weights.sum(axis=1, keepdims=True)
        attention = weights[:, 1:]  # (n, s)

        scales = _as_array(attention)
        columns = [scales[:, i : i + 1] for i in range(s)]
        combined = x
        for i in range(s):
            combined = combined + _affine(feats[i], self.reconstruct) * columns[i]
        _unpack(packed, blocks, "final")[...] = _affine(combined, self.final_head)
        return packed, blocks, attention, (rep, feats, masks, columns, combined)

    def _backward(self, saved: tuple, d: dict, order: tuple, live) -> list:
        """Gradients of ``rep`` and of the ``live`` layers' parameters (None
        where none arrives) from those ``d`` of the named logits; ``rep``
        sums its parts in ``order``."""
        rep, feats, masks, columns, combined = saved
        x, s = rep.data, self.num_slices
        grads: dict[Linear, tuple] = {}
        d_feats: list = [None] * s
        parts: dict[str, list] = {name: [] for name in order}
        if "final" in d:
            *grads[self.final_head], d_combined = _linear_vjp(
                combined, self.final_head, d["final"]
            )
            # The residual chain hands d_combined unchanged to rep and to
            # every slice's attention-weighted reconstruction.
            parts["residual"].append(d_combined)
            recon = [
                _linear_vjp(feats[i], self.reconstruct, d_combined * columns[i])
                for i in range(s)
            ]
            d_feats = [r[2] for r in recon]
            grads[self.reconstruct] = (_fold([r[0] for r in recon]), _fold([r[1] for r in recon]))
        for i, layer in enumerate(self.expert_heads if "expert" in d else []):
            *grads[layer], d_feat = _linear_vjp(feats[i], layer, np.take(d["expert"], i, axis=1))
            d_feats[i] = d_feat if d_feats[i] is None else d_feats[i] + d_feat
        transforms = self.expert_transforms if "final" in d or "expert" in d else []
        for i, layer in enumerate(transforms):
            *grads[layer], d_x = _linear_vjp(x, layer, d_feats[i] * masks[i])
            parts["transforms"].append(d_x)
        if "base" in d:
            *grads[self.base_head], d_x = _linear_vjp(x, self.base_head, d["base"])
            parts["base"].append(d_x)
        for i, layer in enumerate(self.indicator_heads if "indicator" in d else []):
            column = (
                np.expand_dims(np.take(d["indicator"], i, axis=1), 1)
                if s > 1
                else d["indicator"].reshape(x.shape[0], 1)
            )
            *grads[layer], d_x = _linear_vjp(x, layer, column)
            parts["indicators"].append(d_x)
        d_rep = _fold([part for name in order for part in parts[name]])
        return [d_rep] + [g for layer in self._layers(live) for g in grads.get(layer, (None, None))]


class _IndicatorBCE:
    """The indicators' mean :func:`~repro.tensor.binary_cross_entropy_with_logits`,
    ``relu(x) - x*t + log(1 + exp(-|x|))``, as arrays: value and vjp."""

    def __init__(self, logits: np.ndarray, membership: np.ndarray) -> None:
        self.targets = _as_array(np.asarray(membership, dtype=logits.dtype))
        self.mask = logits > 0
        self.sign = np.sign(logits)
        self.exp = np.exp(-np.abs(logits))
        self.denom = self.exp + _as_array(1.0)
        self.scale = _as_array(1.0 / logits.size)
        per_element = (logits * self.mask - logits * self.targets) + np.log(self.denom)
        self.value = np.asarray(per_element.sum()) * self.scale

    def vjp(self, g) -> np.ndarray:
        grad = np.broadcast_to(g * self.scale, self.exp.shape)
        relu_and_xt = grad * self.mask + (-grad) * self.targets
        return relu_and_xt + (-((grad / self.denom) * self.exp)) * self.sign


def slice_loss(
    forward: SliceForward,
    target_probs: np.ndarray,
    sample_weights: np.ndarray,
    membership: np.ndarray | None,
    slice_weight: float = 0.5,
    class_weights: np.ndarray | None = None,
) -> Tensor:
    """Total loss for a slice-aware multiclass head, as one tape node.

    ``target_probs`` is ``(n, k)`` soft labels, ``sample_weights`` ``(n,)``,
    ``membership`` ``(n, s)`` heuristic slice indicators (None when the head
    has no slices).  The final-head cross-entropy always applies, plus a
    class-weighted one given ``class_weights``; with membership, the base
    head's and, scaled by ``slice_weight``, the indicators' and each
    expert's over its slice members.  The node lists only the inputs the
    terms reach, so a parameter no term reaches keeps no grad.
    """
    weight = _as_array(slice_weight)
    final = forward.block("final")
    terms = [CrossEntropy(final, target_probs, sample_weights)]
    if class_weights is not None:
        terms.append(CrossEntropy(final, target_probs, sample_weights, class_weights))
    live = {"final"}
    value = terms[0].value
    active: dict[int, CrossEntropy] = {}
    if membership is not None and forward.blocks is not None:
        live |= {"base", "indicator"}
        # With slices active, also supervise the backbone prediction
        # directly so the shared representation does not rely solely on
        # expert routing; indicator heads learn heuristic membership.
        base = CrossEntropy(forward.block("base"), target_probs, sample_weights)
        bce = _IndicatorBCE(forward.block("indicator"), membership)
        value = value + base.value + bce.value * weight
        # Expert heads train only on their slice members.
        experts = forward.block("expert")
        for i in range(experts.shape[1]):
            member_weights = sample_weights * membership[:, i]
            if member_weights.sum() <= 0:
                continue
            active[i] = CrossEntropy(experts[:, i, :], target_probs, member_weights)
            value = value + active[i].value * weight
            live.add("expert")
    if class_weights is not None:
        value = value + terms[1].value

    def vjp(g) -> list:
        d = {"final": _fold([term.vjp(g) for term in terms])}
        if forward.blocks is None:
            return [d["final"]]
        if "base" in live:
            d["base"] = base.vjp(g)
            d["indicator"] = bce.vjp(g * weight)
        if active:
            d["expert"] = np.zeros_like(experts)
            for i, term in active.items():
                d["expert"][:, i, :] += term.vjp(g * weight)
        order = (
            _CLASS_WEIGHTED if class_weights is not None
            else _EXPERTS_LAST if active
            else _FINAL_PATH_FIRST
        )
        return forward.head._backward(forward.saved, d, order, live)

    if forward.blocks is None:
        inputs = [forward.logits]
    elif forward.saved is not None:
        inputs = forward.head._inputs(forward.saved[0], live)
    else:  # the forward ran off the tape: nothing to differentiate
        inputs = []
    return Tensor._make_joint(value, inputs, vjp, "slice_loss")


def predicted_membership(forward: SliceForward) -> np.ndarray | None:
    """Learned membership probabilities (n, s), or None without slices."""
    if forward.blocks is None:
        return None
    x = forward.block("indicator")
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -60), 60)))
