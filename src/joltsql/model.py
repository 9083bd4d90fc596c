"""Toy decoder-only transformer: pluggable attention masks, one layer body
on plain arrays (halves `_attend` and `_ffn`), a marker-probability linking
head, and the linking / next-token / joint losses.

Training's `forward` runs each layer as one tape op over that body,
`_block`. Inference never touches the tape: one layer loop,
`forward_values`, runs the prompt pass (`prompt_pass`) and every decode
step of `greedy_generate` over one K/V cache."""
from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import EmptyQuery, MalformedInput, NoMarkers, ShapeMismatch


# what numpy raises on a file that is not an intact `.npz` archive: pickled
# or unreadable bytes, a truncated array, a damaged zip member
_CORRUPT = (ValueError, EOFError, zipfile.BadZipFile)

# ModelConfig.max_len's default. A corpus may hold longer examples;
# `pipeline.check_max_len` refuses them against the configured max_len.
MAX_LEN = 512


@dataclass
class ModelConfig:
    vocab_size: int
    dim: int = 64
    layers: int = 2
    heads: int = 4
    ffn_mult: int = 4
    max_len: int = MAX_LEN
    dtype: str = "float32"

    def __post_init__(self):
        for name in ("dim", "layers", "heads", "ffn_mult", "max_len"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be float32 or float64")
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


def _sinusoid_table(max_len: int, dim: int) -> np.ndarray:
    """Sin/cos position table used to initialize the learned position
    embedding; relative-offset attention is then expressible from step one
    instead of having to emerge from random vectors."""
    pos = np.arange(max_len)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape by name, in `ModelParams.named_params` order."""
    d, f = config.dim, config.dim * config.ffn_mult
    layer = {"ln1_g": (d,), "ln1_b": (d,), "wq": (d, d), "wk": (d, d), "wv": (d, d),
             "wo": (d, d), "ln2_g": (d,), "ln2_b": (d,), "w1": (d, f), "b1": (f,),
             "w2": (f, d), "b2": (d,)}
    shapes = {"emb": (config.vocab_size, d), "pos": (config.max_len, d)}
    for i in range(config.layers):
        shapes.update({f"layer{i}.{k}": shape for k, shape in layer.items()})
    return {**shapes, "lnf_g": (d,), "lnf_b": (d,), "link_w": (d, 1), "link_b": (1,)}


class ModelParams:
    """Named parameter tensors. The LM head is tied to the token embedding;
    the linking head bias starts at -2.0 so initial probabilities sit near
    0.12 instead of a saturated 0.5."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)

        def initial(name: str, shape: tuple[int, ...]) -> np.ndarray:
            key = name.rpartition(".")[2]
            if key == "pos":
                return _sinusoid_table(config.max_len, config.dim) * 0.1
            if key in ("emb", "wq", "wk", "wv", "wo", "w1", "w2", "link_w"):
                return rng.normal(0, 0.02, shape)  # drawn in `param_shapes` order
            # layer-norm gains start at 1, the linking bias at -2, other biases at 0
            return np.full(shape, -2.0 if key == "link_b" else float(key.endswith("_g")))
        # each draw is cast as it is made, so one float64 temporary is alive at a time
        self._adopt(config, {name: np.asarray(initial(name, shape), dtype=config.np_dtype)
                             for name, shape in param_shapes(config).items()})

    def _adopt(self, config: ModelConfig, arrays: dict[str, np.ndarray]):
        """Hold `arrays`, by `param_shapes` name, as the parameters in the
        config's dtype; an array already in that dtype is held, not copied."""
        self.config = config
        self._named = t = {k: ad.tensor(v, requires_grad=True, dtype=config.np_dtype)
                           for k, v in arrays.items()}
        self.emb, self.pos = t["emb"], t["pos"]
        self.layers = [{k.partition(".")[2]: v for k, v in t.items()
                        if k.startswith(f"layer{i}.")} for i in range(config.layers)]
        self.lnf_g, self.lnf_b, self.link_w, self.link_b = (
            t["lnf_g"], t["lnf_b"], t["link_w"], t["link_b"])

    def named_params(self) -> dict[str, Tensor]:
        """Every parameter by name, in the order AdamW and gradient
        clipping walk them: `param_shapes` order."""
        return dict(self._named)

    def all_params(self) -> list[Tensor]:
        return list(self.named_params().values())

    def save(self, path: str):
        arrays = {k: v.data for k, v in self.named_params().items()}
        np.savez(path, __config__=json.dumps(asdict(self.config)), **arrays)

    @staticmethod
    def load(path: str) -> "ModelParams":
        """Read a checkpoint written by `save`. Every array must be present
        with the shape (`param_shapes`) and dtype its stored config gives
        it; each is held as `np.load` reads it, and no initialisation is
        drawn. Raises MalformedInput naming the file when it is not an
        intact `.npz` archive (naming the array that cannot be read, where
        one is known) or the stored config is not one ModelConfig takes."""
        try:
            z = np.load(path, allow_pickle=False)
        except _CORRUPT:
            raise MalformedInput(f"{path}: not a checkpoint archive") from None
        if not isinstance(z, np.lib.npyio.NpzFile):
            raise MalformedInput(f"{path}: a single array, not a checkpoint archive")

        def read(key: str) -> np.ndarray:
            try:
                return z[key]
            except _CORRUPT as e:
                raise MalformedInput(f"{path}: array {key!r}: {e}") from None
        with z:
            try:
                config = ModelConfig(**json.loads(str(read("__config__"))))
            except (KeyError, TypeError, ValueError) as e:
                raise MalformedInput(f"{path}: stored config: {e}") from None
            dtype = np.dtype(config.np_dtype)
            arrays = {}
            for k, shape in param_shapes(config).items():
                if k not in z:
                    raise ShapeMismatch(f"{path}: missing array {k!r}")
                stored = arrays[k] = read(k)
                if stored.shape != shape:
                    raise ShapeMismatch(f"{path}: {k!r} has shape {stored.shape}, "
                                        f"config gives {shape}")
                if stored.dtype != dtype:
                    raise ShapeMismatch(f"{path}: {k!r} has dtype {stored.dtype}, "
                                        f"config gives {dtype}")
        params = object.__new__(ModelParams)
        params._adopt(config, arrays)
        return params


@dataclass
class ForwardOutput:
    # row i of each field is position i
    lm_logits: Tensor    # n x V
    marker_probs: Tensor  # n x 1, meaningful at marker positions


def _attend(w: dict[str, np.ndarray], x: np.ndarray, bias: np.ndarray, kv,
            heads: int, rows: list[int] | None = None):
    """A layer's attention half: r rows `x` at positions m-r..m-1 under
    `bias`, their additive mask over positions 0..m-1. Writes the rows' K/V
    into `kv` at m-r..m-1; with `rows`, the rest runs on `rows` alone.
    Returns the rows after the residual and what `_block`'s backward reads."""
    m = bias.shape[-1]
    h, xhat1, inv1 = ad.layer_norm_values(x, w["ln1_g"], w["ln1_b"])
    kv[0][..., m - x.shape[-2]:m, :] = h @ w["wk"]
    kv[1][..., m - x.shape[-2]:m, :] = h @ w["wv"]
    if rows is not None:
        x, h, bias = x[rows], h[rows], bias[rows]
    q = h @ w["wq"]
    a, probs = ad.attention_values(q, kv[0][..., :m, :], kv[1][..., :m, :], bias, heads)
    return x + a @ w["wo"], (xhat1, inv1, h, q, probs, a)


def _ffn(w: dict[str, np.ndarray], x: np.ndarray):
    """A layer's FFN half: the output rows and what the backward reads."""
    h2, xhat2, inv2 = ad.layer_norm_values(x, w["ln2_g"], w["ln2_b"])
    r = h2 @ w["w1"]  # one wide array: the bias and ReLU go in place
    np.maximum(np.add(r, w["b1"], out=r), 0, out=r)
    return x + (r @ w["w2"] + w["b2"]), (xhat2, inv2, h2, r)


def _block(x: Tensor, layer: dict[str, Tensor], bias: np.ndarray, heads: int) -> Tensor:
    """One layer of training's tape as one op: `_attend` over a fresh K/V
    buffer, then `_ffn`, and their backward, whose every gradient is byte
    for byte what the layer's separate tape ops gave."""
    w = {name: t.data for name, t in layer.items()}
    kv = np.empty((2, *x.shape), dtype=x.data.dtype)
    x1, (xhat1, inv1, h, q, probs, a) = _attend(w, x.data, bias, kv, heads)
    out, (xhat2, inv2, h2, r) = _ffn(w, x1)

    def backward(g):
        gz = (g @ w["w2"].T) * (r > 0)
        gx, dg2, db2 = ad.layer_norm_grads(gz @ w["w1"].T, xhat2, inv2, w["ln2_g"])
        gx += g
        dq, dk, dv = ad.attention_grads(gx @ w["wo"].T, q, kv[0], kv[1], probs, heads)
        gh = dq @ w["wq"].T + dk @ w["wk"].T + dv @ w["wv"].T  # the tape's order
        dx, dg1, db1 = ad.layer_norm_grads(gh, xhat1, inv1, w["ln1_g"])
        grads = {"ln1_g": dg1, "ln1_b": db1, "wq": h.T @ dq, "wk": h.T @ dk, "wv": h.T @ dv,
                 "wo": a.T @ gx, "ln2_g": dg2, "ln2_b": db2, "w1": h2.T @ gz,
                 "b1": gz.sum(axis=0), "w2": r.T @ g, "b2": g.sum(axis=0)}
        for t, grad in ((x, dx + gx), *((t, grads[k]) for k, t in layer.items())):
            if t.requires_grad:
                t.accumulate(grad)

    return ad._op(out, (x, *layer.values()), backward)


def forward(params: ModelParams, ids: list[int], visible: np.ndarray) -> ForwardOutput:
    """Training's tape forward: the sequence `ids` at positions 0..n-1
    through the transformer under the n x n boolean mask `visible`.

    The mask's additive bias is built once (`autodiff.additive_bias`) and
    every layer, one `_block` op, adds that same array in its attention.
    """
    cfg = params.config
    n = len(ids)
    if visible.shape != (n, n):
        raise ShapeMismatch(f"mask shape {visible.shape} for {n} rows")
    if n > cfg.max_len:
        raise ShapeMismatch(f"sequence length {n} exceeds max_len {cfg.max_len}")
    bias = ad.additive_bias(visible, cfg.np_dtype)
    x = ad.add(ad.gather_rows(params.emb, np.asarray(ids)),
               ad.gather_rows(params.pos, np.arange(n)))
    for layer in params.layers:
        x = _block(x, layer, bias, cfg.heads)
    hidden = ad.layer_norm(x, params.lnf_g, params.lnf_b)
    lm_logits = ad.matmul(hidden, ad.transpose(params.emb))
    marker_probs = ad.sigmoid(ad.add(ad.matmul(hidden, params.link_w), params.link_b))
    return ForwardOutput(lm_logits, marker_probs)


def forward_values(params: ModelParams, tokens: np.ndarray, bias: np.ndarray,
                   past: np.ndarray, rows: list[int] | None = None) -> np.ndarray:
    """The inference pass: `forward`'s layer body, `_attend` then `_ffn`,
    on plain arrays with no tape. Runs r new rows `tokens` at positions
    m-r..m-1, m being `bias`'s last axis, and returns their final-norm
    hidden rows; callers apply the heads.

    `bias` is the rows' additive mask over positions 0..m-1. `past` holds
    per layer a K and a V buffer (layers x 2 x ...) whose first m-r
    positions hold the earlier positions' K/V; the pass writes the new
    rows' K/V at m-r..m-1 in place. With `rows`, the last layer still writes every row's K/V but
    runs Q, attention, the residual, the FFN and the final norm only on
    `rows`, in that order: what a caller reads, such as a prompt's marker
    rows and its last row. Their values equal the full pass's to rounding.

    The prompt pass runs 2-D rows: `tokens` (r,), `bias` r x m, buffers
    positions x d. A decode step runs B sequences, one included, as a
    B x 1 x d stack (`tokens` B x 1, `bias` B x 1 x m, buffers
    B x positions x d), so each keeps the one-row products it would get
    alone; a stack of one rounds as the 2-D row does.
    """
    cfg = params.config
    r, m = tokens.shape[-1], bias.shape[-1]
    held = past[0][0].shape
    if (bias.shape != (*tokens.shape, m) or held[:-2] != tokens.shape[:-1]
            or held[-2] < m or r > m):
        raise ShapeMismatch(f"array pass: tokens {tokens.shape}, bias {bias.shape}, "
                            f"K/V buffers {held}")
    if m > cfg.max_len:
        raise ShapeMismatch(f"position {m - 1} is past max_len {cfg.max_len}")
    x = params.emb.data[tokens] + params.pos.data[m - r:m]
    last = len(params.layers) - 1
    for li, (layer, kv) in enumerate(zip(params.layers, past)):
        w = {name: t.data for name, t in layer.items()}
        # the attention probabilities go before the FFN runs, which reuses their memory
        x = _ffn(w, _attend(w, x, bias, kv, cfg.heads, rows if li == last else None)[0])[0]
    return ad.layer_norm_values(x, params.lnf_g.data, params.lnf_b.data)[0]


@dataclass
class PromptEncoding:
    # Row i of both heads is the i-th row the prompt pass returned: all n,
    # or the `rows` it was given, in their order.
    kv: np.ndarray            # layers x 2 x n x d: each layer's K and V of every position
    lm_logits: np.ndarray     # rows x V
    marker_probs: np.ndarray  # rows x 1


def prompt_pass(params: ModelParams, ids: list[int], visible: np.ndarray,
                rows: list[int] | None = None) -> PromptEncoding:
    """`forward_values` over the prompt `ids` at positions 0..n-1 under the
    n x n boolean mask `visible`, into per-layer n x d K/V buffers, with
    both heads applied to the whole block of rows it returns, so each row
    rounds as the tape `forward`'s heads round it."""
    cfg = params.config
    kv = np.empty((cfg.layers, 2, len(ids), cfg.dim), dtype=cfg.np_dtype)
    bias = ad.additive_bias(visible, cfg.np_dtype)
    hidden = forward_values(params, np.asarray(ids, dtype=np.int64), bias, kv, rows)
    marker_logits = hidden @ params.link_w.data + params.link_b.data
    return PromptEncoding(kv, hidden @ params.emb.data.T, 1.0 / (1.0 + np.exp(-marker_logits)))


def schema_linking_loss(marker_probs: Tensor, labels: list[int],
                        marker_positions: list[int]) -> Tensor:
    """Mean BCE over marker positions only."""
    if not marker_positions:
        raise NoMarkers("no marker positions to score")
    if len(labels) != len(marker_positions):
        raise ShapeMismatch("labels must align with marker positions")
    probs_at_markers = ad.gather_rows(marker_probs, np.asarray(marker_positions))
    y = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    return ad.bce_loss(probs_at_markers, y)


def ntp_loss(lm_logits: Tensor, ids: list[int], query_positions: list[int]) -> Tensor:
    """Mean cross-entropy over query tokens, each predicted from the
    previous position's logits."""
    if not query_positions:
        raise EmptyQuery("query range is empty")
    positions = sorted(query_positions)
    if positions[0] == 0:
        raise EmptyQuery("query token cannot be at position 0")
    prev = np.asarray([i - 1 for i in positions])
    targets = np.asarray([ids[i] for i in positions])
    rows = ad.gather_rows(lm_logits, prev)
    return ad.cross_entropy_rows(rows, targets)


def joint_loss(l_sl: Tensor, l_ntp: Tensor) -> Tensor:
    """Unweighted sum of the two loss terms."""
    return ad.add_scalars(l_sl, l_ntp)


def greedy_generate(params: ModelParams, prompt: list[int], max_new: int,
                    stop_id: int, encoded: PromptEncoding,
                    attends: np.ndarray) -> list[list[int]]:
    """Argmax decoding from a cached prompt encoding, one sequence per row
    of `attends`, all B of them in one stacked pass; ties break toward the
    lowest token id. Deterministic. Returns, per row, that sequence's new
    tokens, the stop id included when it was generated.

    `encoded` is a `prompt_pass` of `prompt` whose rows never attend past
    the prompt (the pipeline passes its linking pass, made under the joint
    mask). Its last row gives every sequence's first token. Each later step
    is one `forward_values` of a B x 1 x d stack at the next position, whose
    hidden rows times the tied embedding are its logits: sequence b's row
    sees the prompt positions flagged in `attends[b]`, its tokens generated
    before and itself, which is the query row of the joint mask. Pruning is
    thus a mask over the full prompt, never an edit of its text. A stack
    keeps each sequence's products one-row products, one sequence included,
    so its tokens are those it would get decoded alone. A sequence whose
    last token is the stop id stays in the stack until all have stopped,
    and its further tokens are dropped. No token is placed at position
    max_len or beyond.

    m = min(n + max_new, max_len) is the number of positions a decode can
    reach. One B x m mask has its bias built once; the step that places
    position p reads its first p columns. Per-layer B x m x d K/V buffers
    take the prompt's K/V from `encoded` in one assignment, and each step
    writes its rows into them in place. `encoded` itself is never written,
    so one encoding serves any number of decodes.
    """
    if not prompt:
        raise ValueError("prompt must be non-empty")
    cfg = params.config
    n = len(prompt)
    m = min(n + max_new, cfg.max_len)
    visible = np.ones((len(attends), m), dtype=bool)
    visible[:, :n] = attends
    bias = ad.additive_bias(visible, cfg.np_dtype)[:, None]
    past = np.empty((cfg.layers, 2, len(attends), m, cfg.dim), dtype=cfg.np_dtype)
    past[..., :n, :] = encoded.kv[:, :, None]
    new: list[list[int]] = [[] for _ in attends]
    nxt = [np.argmax(encoded.lm_logits[-1])] * len(new)
    for p in range(n, m):  # place each sequence's token at position p
        if p > n:  # from its previous token, at p - 1, as one new row
            tokens = np.array([seq[-1] for seq in new])[:, None]
            logits = forward_values(params, tokens, bias[..., :p], past) @ params.emb.data.T
            nxt = np.argmax(logits[:, 0], axis=-1)
        for seq, token in zip(new, nxt):
            if not seq or seq[-1] != stop_id:
                seq.append(int(token))
        if all(seq[-1] == stop_id for seq in new):
            break
    return new
