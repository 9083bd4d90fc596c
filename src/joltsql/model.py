"""Toy decoder-only transformer with pluggable attention masks, a
marker-probability linking head, and the linking / next-token / joint losses."""
from __future__ import annotations

import contextlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import EmptyQuery, NoMarkers, ShapeMismatch
from .masks import AttentionMask


@dataclass
class ModelConfig:
    vocab_size: int
    dim: int = 64
    layers: int = 2
    heads: int = 4
    ffn_mult: int = 4
    max_len: int = 512
    dtype: str = "float32"

    def __post_init__(self):
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


class ModelParams:
    """Named parameter tensors. The LM head is tied to the token embedding;
    the linking head bias starts at -2.0 so initial probabilities sit near
    0.12 instead of a saturated 0.5."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        d, V = config.dim, config.vocab_size
        dt = config.np_dtype

        def p(*shape, std=0.02):
            return ad.tensor(rng.normal(0, std, shape), requires_grad=True, dtype=dt)

        self.emb = p(V, d)
        self.pos = ad.tensor(_sinusoid_table(config.max_len, d) * 0.1,
                             requires_grad=True, dtype=dt)
        self.layers = []
        for _ in range(config.layers):
            layer = {
                "ln1_g": ad.tensor(np.ones(d), requires_grad=True, dtype=dt),
                "ln1_b": ad.tensor(np.zeros(d), requires_grad=True, dtype=dt),
                "wq": p(d, d), "wk": p(d, d), "wv": p(d, d), "wo": p(d, d),
                "ln2_g": ad.tensor(np.ones(d), requires_grad=True, dtype=dt),
                "ln2_b": ad.tensor(np.zeros(d), requires_grad=True, dtype=dt),
                "w1": p(d, d * config.ffn_mult),
                "b1": ad.tensor(np.zeros(d * config.ffn_mult), requires_grad=True, dtype=dt),
                "w2": p(d * config.ffn_mult, d),
                "b2": ad.tensor(np.zeros(d), requires_grad=True, dtype=dt),
            }
            self.layers.append(layer)
        self.lnf_g = ad.tensor(np.ones(d), requires_grad=True, dtype=dt)
        self.lnf_b = ad.tensor(np.zeros(d), requires_grad=True, dtype=dt)
        self.link_w = p(d, 1)
        self.link_b = ad.tensor(np.full(1, -2.0), requires_grad=True, dtype=dt)

    def all_params(self) -> list[Tensor]:
        out = [self.emb, self.pos]
        for layer in self.layers:
            out.extend(layer.values())
        out.extend([self.lnf_g, self.lnf_b, self.link_w, self.link_b])
        return out

    def named_params(self) -> dict[str, Tensor]:
        out = {"emb": self.emb, "pos": self.pos,
               "lnf_g": self.lnf_g, "lnf_b": self.lnf_b,
               "link_w": self.link_w, "link_b": self.link_b}
        for i, layer in enumerate(self.layers):
            for k, v in layer.items():
                out[f"layer{i}.{k}"] = v
        return out

    def save(self, path: str):
        arrays = {k: v.data for k, v in self.named_params().items()}
        np.savez(path, __config__=json.dumps(asdict(self.config)), **arrays)

    @staticmethod
    def load(path: str) -> "ModelParams":
        """Read a checkpoint written by `save`. Every array must be present
        with the shape its stored config gives it."""
        with np.load(path, allow_pickle=False) as z:
            config = ModelConfig(**json.loads(str(z["__config__"])))
            params = ModelParams(config)
            for k, v in params.named_params().items():
                if k not in z:
                    raise ShapeMismatch(f"{path}: missing array {k!r}")
                stored = z[k]
                if stored.shape != v.data.shape:
                    raise ShapeMismatch(f"{path}: {k!r} has shape {stored.shape}, "
                                        f"config gives {v.data.shape}")
                v.data = stored.copy()
        return params


@dataclass
class ForwardOutput:
    hidden: Tensor       # n x d
    lm_logits: Tensor    # n x V
    marker_probs: Tensor  # n x 1, meaningful at marker positions
    # per layer, (K, V) over the cached rows and these rows: (p + n) x d each
    kv: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)


def forward(params: ModelParams, ids: list[int], mask: AttentionMask,
            past: list[tuple[np.ndarray, np.ndarray]] | None = None) -> ForwardOutput:
    """Run `ids`, at positions p..p+n-1, through the transformer under `mask`.

    Without `past`, p is 0 and the mask is n x n. With `past`, the per-layer
    K/V of p earlier rows (a previous output's `kv`), the mask is n x (p + n):
    the new rows attend over the cached rows and themselves. That is exact
    whenever the cached rows never attend to the new ones, as prefix and
    schema rows never attend to query rows under the joint mask, so decoding
    reuses the prompt's K/V instead of re-encoding it.
    """
    cfg = params.config
    n = len(ids)
    p = len(past[0][0]) if past else 0
    if p + n > cfg.max_len:
        raise ShapeMismatch(f"sequence length {p + n} exceeds max_len {cfg.max_len}")
    if mask.visible.shape != (n, p + n):
        raise ShapeMismatch(f"mask shape {mask.visible.shape} != ({n}, {p + n})")
    dh = cfg.dim // cfg.heads
    inv_sqrt_dh = 1.0 / float(np.sqrt(dh))

    x = ad.add(ad.gather_rows(params.emb, np.asarray(ids)),
               ad.gather_rows(params.pos, np.arange(p, p + n)))
    kv = []
    for li, layer in enumerate(params.layers):
        h = ad.layer_norm(x, layer["ln1_g"], layer["ln1_b"])
        q = ad.matmul(h, layer["wq"])
        k = ad.matmul(h, layer["wk"])
        v = ad.matmul(h, layer["wv"])
        if past:
            k = ad.concat([Tensor(past[li][0]), k], axis=0)
            v = ad.concat([Tensor(past[li][1]), v], axis=0)
        kv.append((k.data, v.data))
        heads = []
        for hidx in range(cfg.heads):
            lo, hi = hidx * dh, (hidx + 1) * dh
            qh = ad.slice_cols(q, lo, hi)
            kh = ad.slice_cols(k, lo, hi)
            vh = ad.slice_cols(v, lo, hi)
            scores = ad.scale(ad.matmul(qh, ad.transpose(kh)), inv_sqrt_dh)
            probs = ad.masked_softmax(scores, mask.visible)
            heads.append(ad.matmul(probs, vh))
        attn = ad.matmul(ad.concat(heads, axis=1), layer["wo"])
        x = ad.add(x, attn)
        h2 = ad.layer_norm(x, layer["ln2_g"], layer["ln2_b"])
        ffn = ad.matmul(ad.relu(ad.add(ad.matmul(h2, layer["w1"]), layer["b1"])), layer["w2"])
        ffn = ad.add(ffn, layer["b2"])
        x = ad.add(x, ffn)
    hidden = ad.layer_norm(x, params.lnf_g, params.lnf_b)
    lm_logits = ad.matmul(hidden, ad.transpose(params.emb))
    marker_logits = ad.add(ad.matmul(hidden, params.link_w), params.link_b)
    marker_probs = ad.sigmoid(marker_logits)
    return ForwardOutput(hidden, lm_logits, marker_probs, kv)


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
                    stop_id: int, encoded: ForwardOutput,
                    attend: np.ndarray) -> list[int]:
    """Argmax decoding from a cached prompt encoding; ties break toward the
    lowest token id. Deterministic. Returns the prompt followed by the new
    tokens, the stop id included when it was generated.

    `encoded` is a forward of `prompt` at positions 0..len-1 whose rows
    never attend past the prompt (the pipeline passes its linking pass,
    made under the joint mask). Its last row gives the first token. Each
    later token is one row through `forward` against the cached K/V, at the
    next position; it sees the prompt positions flagged in `attend`, the
    tokens generated before it and itself, which is the query row of the
    joint mask. Pruning is thus a mask over the full prompt, never an edit
    of its text. No token is placed at position max_len or beyond.
    """
    if not prompt:
        raise ValueError("prompt must be non-empty")
    n = len(prompt)
    visible = np.ones(n + max_new, dtype=bool)
    visible[:n] = attend
    ids = list(prompt)
    out = encoded
    with no_grad(params):
        for _ in range(max_new):
            if len(ids) >= params.config.max_len:
                break
            if len(ids) > n:  # feed the previous token as one new row
                row = AttentionMask(visible[None, :len(ids)])
                out = forward(params, ids[-1:], row, past=out.kv)
            nxt = int(np.argmax(out.lm_logits.data[-1]))
            ids.append(nxt)
            if nxt == stop_id:
                break
    return ids


@contextlib.contextmanager
def no_grad(params: ModelParams):
    """Switch gradient tracking off for every parameter inside the block."""
    plist = params.all_params()
    saved = [p.requires_grad for p in plist]
    for p in plist:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, s in zip(plist, saved):
            p.requires_grad = s
