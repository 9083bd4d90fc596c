"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

Eager tape: every op computes its forward value immediately and registers
a backward closure. Just enough surface for a small decoder-only
transformer. Multi-head attention is one op, `attention`, over
(heads, n, dh) arrays under one additive 0/-inf mask bias, with a
hand-written backward; per head, `slice_cols`, `transpose`,
`masked_softmax` and `concat` compose its slow reference.

The hot kernels make as few array passes as keep their results bit for
bit: attention adds the mask bias into the score array its own product
allocated and runs the softmax in that array, and builds its score
gradient in place; layer norm sums instead of calling `mean`/`var`; AdamW
updates in place through two scratch buffers shared by all tensors; and a
first gradient an op built for one tensor is kept without a copy.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .masks import additive_bias

__all__ = [
    "Tensor", "tensor", "matmul", "add", "mul", "scale", "transpose",
    "concat", "slice_cols", "gather_rows", "relu", "sigmoid",
    "masked_softmax", "attention", "layer_norm", "bce_loss", "cross_entropy_rows",
    "sum_all", "add_scalars", "backward", "AdamW", "clip_grad_norm",
]

BCE_CLAMP = 1e-7


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data: np.ndarray, requires_grad: bool = False,
                 parents: tuple = (), backward=None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        if not requires_grad and parents:
            requires_grad = any(p.requires_grad for p in parents)
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, g: np.ndarray, shared: bool = False):
        """Add `g` into this tensor's gradient. A first gradient is kept as
        it is, in the tensor's dtype, when the op built `g` for this tensor
        alone; a `shared` one (the op's incoming gradient or a view of it,
        which other tensors may receive too) is copied, since gradients are
        later added to and scaled in place."""
        if self.grad is None:
            self.grad = (np.array if shared else np.asarray)(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def item(self) -> float:
        return float(self.data)


def tensor(data, requires_grad: bool = False, dtype=np.float32) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=requires_grad)


def _op(data: np.ndarray, parents: tuple, backward) -> Tensor:
    for p in parents:
        if p.requires_grad:
            return Tensor(data, True, parents, backward)
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
            a.accumulate(g, shared=True)
        if b.requires_grad:
            if b.shape != a.shape:
                b.accumulate(g.sum(axis=0))
            else:
                b.accumulate(g, shared=True)

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
            a.accumulate(g.T, shared=True)

    return _op(a.data.T, (a,), backward)


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(g):
        hi = 0
        for t in tensors:
            lo, hi = hi, hi + t.data.shape[axis]
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t.accumulate(g[tuple(idx)], shared=True)

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
    """Row lookup (embedding gather). The backward of a contiguous range
    (the position table) is a slice add; any other index list, with
    repeats, goes through `np.add.at`."""
    indices = np.asarray(indices, dtype=np.int64)
    out_data = a.data[indices]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            lo = int(indices[0]) if len(indices) else -1
            if lo >= 0 and (np.diff(indices) == 1).all():
                full[lo:lo + len(indices)] += g
            else:
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


def _softmax_in_place(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, computed in `x`: the row max is
    subtracted, `exp` taken and the rows normalized in place. Entries at
    -inf, where a 0/-inf mask bias hid them, come out exactly 0."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def masked_softmax(scores: Tensor, visible: np.ndarray) -> Tensor:
    """Row-stochastic over visible entries; invisible entries exactly 0.
    A row with nothing visible raises EmptyRow (`masks.additive_bias`)."""
    if scores.shape != visible.shape:
        raise ShapeMismatch(f"scores {scores.shape} vs mask {visible.shape}")
    out_data = _softmax_in_place(scores.data + additive_bias(visible, scores.data.dtype))

    def backward(g):
        if scores.requires_grad:
            # d softmax: p * (g - sum(g * p))
            dot = (g * out_data).sum(axis=1, keepdims=True)
            scores.accumulate(out_data * (g - dot))

    return _op(out_data, (scores,), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray,
              heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one op.

    q is n x d, k and v are m x d; `bias` is the n x m additive mask of
    `masks.AttentionMask.bias`, 0 where visible and -inf where hidden, and
    holds for every head. Every row must see something; the mask checks
    that when it builds the bias. Head h owns columns h*dh..(h+1)*dh
    (dh = d / heads), and all heads run as one batched product over
    (heads, rows, dh) views. The n x d output equals, per head,
    softmax(q_h k_h^T / sqrt(dh)) over the visible entries times v_h, with
    the heads concatenated.

    The bias is added into the score array the product allocated, and the
    row max is subtracted, `exp` taken and the rows normalized in that same
    array, so the forward allocates one heads x n x m array. Backward, per
    head, from the saved probabilities p: dV = p^T g,
    dS = p * (g V^T - rowsum(g V^T * p)) / sqrt(dh), dQ = dS K, dK = (Q^T dS)^T.
    """
    n, d = q.shape
    m = k.shape[0]
    if (k.shape != (m, d) or v.shape != (m, d) or d % heads
            or bias.shape != (n, m)):
        raise ShapeMismatch(f"attention q {q.shape}, k {k.shape}, v {v.shape}, "
                            f"bias {bias.shape}, {heads} heads")
    dh = d // heads
    s = 1.0 / float(np.sqrt(dh))

    def split(a):  # rows x d -> heads x rows x dh
        return a.reshape(len(a), heads, dh).transpose(1, 0, 2)

    def merge(a):  # heads x rows x dh -> rows x d
        return a.transpose(1, 0, 2).reshape(a.shape[1], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    probs = qh @ kh.transpose(0, 2, 1)
    probs *= s
    probs += bias
    _softmax_in_place(probs)

    def backward(g):
        gh = split(g)
        if v.requires_grad:
            v.accumulate(merge(probs.transpose(0, 2, 1) @ gh))
        if q.requires_grad or k.requires_grad:
            ds = gh @ vh.transpose(0, 2, 1)
            ds -= (ds * probs).sum(axis=-1, keepdims=True)
            ds *= probs
            ds *= s
            if q.requires_grad:
                q.accumulate(merge(ds @ kh))
            if k.requires_grad:
                k.accumulate(merge((qh.transpose(0, 2, 1) @ ds).transpose(0, 2, 1)))

    return _op(merge(probs @ vh), (q, k, v), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise layer norm. Means are sums divided by the width, which is
    what `np.mean` and `np.var` compute, without their wrapper cost."""
    d = x.data.shape[-1]
    xc = x.data - x.data.sum(axis=-1, keepdims=True) / d
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            gain.accumulate((g * xhat).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate(g.sum(axis=0))
        if x.requires_grad:
            gx = g * gain.data
            dx = inv * (gx - gx.sum(axis=-1, keepdims=True) / d
                        - xhat * ((gx * xhat).sum(axis=-1, keepdims=True) / d))
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
            a.accumulate(g, shared=True)
        if b.requires_grad:
            b.accumulate(g, shared=True)

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
    """Plain 32/64-bit AdamW with decoupled weight decay. Each tensor's
    update runs in the textbook order, in place, through two scratch arrays
    of its shape, so a step allocates no temporaries."""

    def __init__(self, params: list[Tensor], lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        # The scratch pairs view the front of two buffers per dtype, as long
        # as the largest tensor: tensors are updated one at a time, so they
        # share warm memory. In a desk training loop a separate pair per
        # tensor was no faster than allocating temporaries.
        size = max((p.data.size for p in params), default=0)
        buffers: dict = {}
        self._scratch = []
        for p in params:
            if p.data.dtype not in buffers:
                buffers[p.data.dtype] = [np.empty(size, p.data.dtype) for _ in range(2)]
            self._scratch.append(tuple(buf[:p.data.size].reshape(p.data.shape)
                                       for buf in buffers[p.data.dtype]))

    def step(self):
        """p -= lr * (mhat / (sqrt(vhat) + eps) + wd * p), with
        m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and bias-corrected
        mhat, vhat; a missing gradient counts as zeros."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for p, m, v, (a, b) in zip(self.params, self.m, self.v, self._scratch):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            np.multiply(g, 1 - b1, out=a)
            m *= b1
            m += a
            np.multiply(g, 1 - b2, out=a)
            a *= g
            v *= b2
            v += a
            np.divide(m, c1, out=a)  # mhat
            np.divide(v, c2, out=b)  # vhat
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            np.multiply(p.data, self.weight_decay, out=b)
            a += b
            a *= self.lr
            p.data -= a

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
