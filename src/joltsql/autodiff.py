"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

Eager tape: every op computes its forward value immediately and registers
a backward closure. `backward` consumes the graph as it walks it: each op
output drops its gradient, closure and parents once its closure has run,
so the arrays saved for the backward are freed as it goes and a training
step holds one graph at a time. Leaves (parameters, and any tensor without
parents) keep their gradients; a second backward through a consumed graph
raises GraphConsumed. Just enough surface for a small decoder-only
transformer, whose layer is one tape op in `model`.

That layer's kernels are plain-array pairs, a forward and its backward:
`layer_norm_values`/`layer_norm_grads`, and multi-head attention over
(heads, n, dh) views under one additive 0/-inf mask bias,
`attention_values`/`attention_grads`. Inference calls the forwards with no
tape, and the tape ops (`layer_norm`, `model`'s layer op) call both, so
each kernel exists once. The forwards take leading batch dimensions, which
decoding uses to stack B sequences' one-token rows as (B, 1, d): numpy's
stacked product runs each (1, d) item alone, so every row is rounded as a
one-row product, while flattening the stack to (B, d) would round it as a
block. Per head, `slice_cols`, `transpose`, `masked_softmax` and `concat`
compose attention's slow reference.

The hot kernels make as few array passes as keep their results bit for
bit: attention adds the mask bias into the score array its own product
allocated and runs the softmax in that array, and builds its score
gradient in place; layer norm sums instead of calling `mean`/`var`; AdamW
updates in place through two scratch buffers shared by all tensors; and a
first gradient an op built for one tensor is kept without a copy.
"""
from __future__ import annotations

import numpy as np

from .errors import EmptyRow, GraphConsumed, ShapeMismatch

__all__ = [
    "Tensor", "tensor", "matmul", "add", "mul", "scale", "transpose",
    "concat", "slice_cols", "gather_rows", "relu", "sigmoid", "additive_bias",
    "masked_softmax", "attention_values", "attention_grads", "layer_norm",
    "layer_norm_values", "layer_norm_grads", "bce_loss", "cross_entropy_rows",
    "sum_all", "add_scalars", "backward", "AdamW", "clip_grad_norm",
]

BCE_CLAMP = 1e-7


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data: np.ndarray, requires_grad: bool = False,
                 parents: tuple = (), backward=None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
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
    """Elementwise add; b may have the shape of a's trailing axes, such as a
    row vector, and is then broadcast over a's leading axes."""
    lead = a.data.ndim - b.data.ndim
    if a.shape != b.shape and not (lead > 0 and a.shape[lead:] == b.shape):
        raise ShapeMismatch(f"add {a.shape} + {b.shape}")
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g, shared=True)
        if b.requires_grad:
            if b.shape != a.shape:
                b.accumulate(g.sum(axis=tuple(range(lead))))
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
    """Row lookup (embedding gather); an index array of any shape gives
    that shape's rows. The backward of a contiguous range (the position
    table) is a slice add; any other index array, with repeats, goes
    through `np.add.at`."""
    indices = np.asarray(indices, dtype=np.int64)
    out_data = a.data[indices]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            lo = int(indices[0]) if indices.ndim == 1 and len(indices) else -1
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


def additive_bias(visible: np.ndarray, dtype) -> np.ndarray:
    """0 where `visible`, -inf elsewhere, in `dtype`; exp(-inf) makes a
    hidden entry's attention weight exactly 0. Raises EmptyRow when a row
    has no visible entry, whose softmax would be 0/0."""
    if not visible.any(axis=1).all():
        raise EmptyRow("attention mask has a row with no visible entries")
    bias = np.zeros(visible.shape, dtype=dtype)
    bias[~visible] = -np.inf
    return bias


def masked_softmax(scores: Tensor, visible: np.ndarray) -> Tensor:
    """Row-stochastic over visible entries; invisible entries exactly 0.
    A row with nothing visible raises EmptyRow (`additive_bias`)."""
    if scores.shape != visible.shape:
        raise ShapeMismatch(f"scores {scores.shape} vs mask {visible.shape}")
    out_data = _softmax_in_place(scores.data + additive_bias(visible, scores.data.dtype))

    def backward(g):
        if scores.requires_grad:
            # d softmax: p * (g - sum(g * p))
            dot = (g * out_data).sum(axis=1, keepdims=True)
            scores.accumulate(out_data * (g - dot))

    return _op(out_data, (scores,), backward)


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """... x rows x d -> ... x heads x rows x dh, a view."""
    return a.reshape(*a.shape[:-1], heads, a.shape[-1] // heads).swapaxes(-3, -2)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """... x heads x rows x dh -> ... x rows x d."""
    return a.swapaxes(-3, -2).reshape(*a.shape[:-3], a.shape[-2], -1)


def attention_values(q: np.ndarray, k: np.ndarray, v: np.ndarray, bias: np.ndarray,
                     heads: int) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head scaled dot-product attention: the output, and the
    (..., heads, n, m) probabilities `attention_grads` reads.

    q is n x d, k and v are m x d, and `bias` is the n x m additive mask of
    `additive_bias`, shared by every head. Head h owns columns
    h*dh..(h+1)*dh (dh = d / heads); all heads run as one batched product
    over (heads, rows, dh) views, so the output equals, per head,
    softmax(q_h k_h^T / sqrt(dh) + bias) v_h. The bias and the softmax go
    into the score array the product allocated. Leading batch dimensions,
    shared by q, k, v and the bias, run each item as that product alone."""
    *lead, n, d = q.shape
    m = k.shape[-2]
    if (k.shape != (*lead, m, d) or v.shape != k.shape or d % heads
            or bias.shape != (*lead, n, m)):
        raise ShapeMismatch(f"attention q {q.shape}, k {k.shape}, v {v.shape}, "
                            f"bias {bias.shape}, {heads} heads")
    probs = _split_heads(q, heads) @ _split_heads(k, heads).swapaxes(-1, -2)
    probs *= 1.0 / float(np.sqrt(d // heads))
    probs += bias[..., None, :, :]
    _softmax_in_place(probs)
    return _merge_heads(probs @ _split_heads(v, heads)), probs


def attention_grads(g: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                    probs: np.ndarray, heads: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The backward of `attention_values`, from the output's gradient g
    and its probabilities p: per head dV = p^T g, dQ = dS K and
    dK = (Q^T dS)^T, where dS = p * (g V^T - rowsum(g V^T * p)) / sqrt(dh)
    is built in place."""
    gh = _split_heads(g, heads)
    dv = _merge_heads(probs.swapaxes(-1, -2) @ gh)
    ds = gh @ _split_heads(v, heads).swapaxes(-1, -2)
    ds -= (ds * probs).sum(axis=-1, keepdims=True)
    ds *= probs
    ds *= 1.0 / float(np.sqrt(q.shape[-1] // heads))
    dq = _merge_heads(ds @ _split_heads(k, heads))
    dk = _merge_heads((_split_heads(q, heads).swapaxes(-1, -2) @ ds).swapaxes(-1, -2))
    return dq, dk, dv


def layer_norm_values(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                      eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forward of `layer_norm` on plain arrays: its output, and the
    normalized rows and inverse deviations its backward reads."""
    d = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / d
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def layer_norm_grads(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                     gain: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The backward of `layer_norm_values`: the input's, gain's and bias's
    gradients from the output's gradient `g` and the saved xhat and inv."""
    d, lead = g.shape[-1], tuple(range(g.ndim - 1))
    gx = g * gain
    dx = inv * (gx - gx.sum(axis=-1, keepdims=True) / d
                - xhat * ((gx * xhat).sum(axis=-1, keepdims=True) / d))
    return dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise layer norm. Means are sums divided by the width, which is
    what `np.mean` and `np.var` compute, without their wrapper cost."""
    out_data, xhat, inv = layer_norm_values(x.data, gain.data, bias.data, eps)

    def backward(g):
        for t, grad in zip((x, gain, bias), layer_norm_grads(g, xhat, inv, gain.data)):
            if t.requires_grad:
                t.accumulate(grad)

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


def _released(g):
    raise GraphConsumed("backward already ran through this graph")


def backward(loss: Tensor):
    """Reverse-topological backprop from a scalar loss, consuming the graph.

    Nodes are popped off the topological order; once an op output's closure
    has run, its gradient, closure and parents are dropped, so each saved
    array is freed as soon as its last reader is done, and the graph is gone
    when backward returns. Leaves (parameters, and any tensor without
    parents) keep their gradients. A second backward through a consumed
    node raises GraphConsumed."""
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
    while order:
        node = order.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if node._parents:
            node.grad, node._backward, node._parents = None, _released, ()


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
