"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

Eager tape: every op computes its forward value immediately and registers
a backward closure. Just enough surface for a small decoder-only
transformer whose attention masks are boolean visibility matrices.
"""
from __future__ import annotations

import numpy as np

from .errors import EmptyRow, ShapeMismatch

__all__ = [
    "Tensor", "tensor", "matmul", "add", "mul", "scale", "transpose",
    "concat", "slice_cols", "gather_rows", "relu", "sigmoid",
    "masked_softmax", "layer_norm", "bce_loss", "cross_entropy_rows",
    "sum_all", "add_scalars", "backward", "AdamW", "clip_grad_norm",
]

BCE_CLAMP = 1e-7


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data: np.ndarray, requires_grad: bool = False,
                 parents: tuple = (), backward=None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def item(self) -> float:
        return float(self.data)


def tensor(data, requires_grad: bool = False, dtype=np.float32) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=requires_grad)


def _op(data: np.ndarray, parents: tuple, backward) -> Tensor:
    if any(p.requires_grad for p in parents):
        return Tensor(data, parents=parents, backward=backward)
    return Tensor(data)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ g)

    return _op(out_data, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; b may be a row vector broadcast over a's rows."""
    if a.shape != b.shape and not (a.data.ndim == 2 and b.data.shape == (a.data.shape[1],)):
        raise ShapeMismatch(f"add {a.shape} + {b.shape}")
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g.sum(axis=0) if b.shape != a.shape else g)

    return _op(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"mul {a.shape} * {b.shape}")
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * b.data)
        if b.requires_grad:
            b.accumulate(g * a.data)

    return _op(out_data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate(g * s)

    return _op(a.data * s, (a,), backward)


def transpose(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate(g.T)

    return _op(a.data.T, (a,), backward)


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    sizes = [t.data.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    bounds = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t.accumulate(g[tuple(idx)])

    return _op(out_data, tuple(tensors), backward)


def slice_cols(a: Tensor, lo: int, hi: int) -> Tensor:
    out_data = a.data[:, lo:hi]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[:, lo:hi] = g
            a.accumulate(full)

    return _op(out_data, (a,), backward)


def gather_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup (embedding gather)."""
    indices = np.asarray(indices, dtype=np.int64)
    out_data = a.data[indices]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, indices, g)
            a.accumulate(full)

    return _op(out_data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * (a.data > 0))

    return _op(out_data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * out_data * (1.0 - out_data))

    return _op(out_data, (a,), backward)


def masked_softmax(scores: Tensor, visible: np.ndarray) -> Tensor:
    """Row-stochastic over visible entries; invisible entries exactly 0.

    Stabilized by row-max subtraction over the visible set.
    """
    if scores.shape != visible.shape:
        raise ShapeMismatch(f"scores {scores.shape} vs mask {visible.shape}")
    if not visible.any(axis=1).all():
        raise EmptyRow("attention mask has a row with no visible entries")
    neg = np.where(visible, scores.data, -np.inf)
    row_max = neg.max(axis=1, keepdims=True)
    ex = np.exp(neg - row_max)
    ex = np.where(visible, ex, 0.0)
    out_data = ex / ex.sum(axis=1, keepdims=True)

    def backward(g):
        if scores.requires_grad:
            # d softmax: p * (g - sum(g * p))
            dot = (g * out_data).sum(axis=1, keepdims=True)
            scores.accumulate(out_data * (g - dot))

    return _op(out_data.astype(scores.data.dtype), (scores,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            gain.accumulate((g * xhat).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate(g.sum(axis=0))
        if x.requires_grad:
            gx = g * gain.data
            dx = inv * (gx - gx.mean(axis=-1, keepdims=True)
                        - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
            x.accumulate(dx)

    return _op(out_data, (x, gain, bias), backward)


def bce_loss(p: Tensor, y: np.ndarray) -> Tensor:
    """Mean binary cross-entropy; probabilities clamped away from {0, 1}."""
    y = np.asarray(y, dtype=p.data.dtype)
    pc = np.clip(p.data, BCE_CLAMP, 1.0 - BCE_CLAMP)
    losses = -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))
    out_data = np.asarray(losses.mean(), dtype=p.data.dtype)
    inside = (p.data > BCE_CLAMP) & (p.data < 1.0 - BCE_CLAMP)

    def backward(g):
        if p.requires_grad:
            dp = (pc - y) / (pc * (1.0 - pc)) / losses.size
            p.accumulate(g * dp * inside)

    return _op(out_data, (p,), backward)


def cross_entropy_rows(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-softmax over rows of a k x V logit matrix."""
    targets = np.asarray(targets, dtype=np.int64)
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
    picked = z[np.arange(len(targets)), targets]
    out_data = np.asarray((lse[:, 0] - picked).mean(), dtype=z.dtype)
    probs = np.exp(z - lse)

    def backward(g):
        if logits.requires_grad:
            d = probs.copy()
            d[np.arange(len(targets)), targets] -= 1.0
            logits.accumulate(g * d / len(targets))

    return _op(out_data, (logits,), backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate(np.full_like(a.data, g))

    return _op(np.asarray(a.data.sum(), dtype=a.data.dtype), (a,), backward)


def add_scalars(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g)

    return _op(a.data + b.data, (a, b), backward)


def backward(loss: Tensor):
    """Reverse-topological backprop from a scalar loss."""
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ShapeMismatch("backward requires a scalar loss")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


class AdamW:
    """Plain 32/64-bit AdamW with decoupled weight decay."""

    def __init__(self, params: list[Tensor], lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            p.data -= self.lr * (mhat / (np.sqrt(vhat) + self.eps)
                                 + self.weight_decay * p.data)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad ** 2).sum())
    norm = total ** 0.5
    if norm > max_norm and norm > 0:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm
