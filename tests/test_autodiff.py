import math
import tracemalloc

import numpy as np
import pytest

from joltsql import autodiff as ad
from joltsql.errors import EmptyRow, ShapeMismatch
from joltsql.masks import AttentionMask, additive_bias

REL_TOL = 1e-4
H = 1e-5


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom))


def traced_peak(fn) -> int:
    """Bytes allocated at the peak of `fn()` beyond what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def finite_diff(make_loss, x: np.ndarray) -> np.ndarray:
    """Central differences of the scalar loss with respect to x (f64)."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + H
        up = make_loss(x)
        flat[i] = orig - H
        down = make_loss(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * H)
    return grad


def autodiff_grad(build, x: np.ndarray) -> np.ndarray:
    t = ad.tensor(x, requires_grad=True, dtype=np.float64)
    loss = build(t)
    ad.backward(loss)
    return t.grad


def check_op(build, shape, rng, instances=10):
    """Gradient-check a Tensor -> scalar construction on random inputs."""
    for _ in range(instances):
        x = rng.normal(0, 1, shape).astype(np.float64)
        got = autodiff_grad(build, x.copy())

        def numeric_loss(arr):
            return float(build(ad.tensor(arr, dtype=np.float64)).data)

        want = finite_diff(numeric_loss, x.copy())
        assert rel_err(got, want) < REL_TOL


class TestGradientChecks:
    """Every op versus central finite differences at float64."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def test_matmul(self):
        b = ad.tensor(self.rng.normal(0, 1, (4, 3)), dtype=np.float64)
        check_op(lambda t: ad.sum_all(ad.matmul(t, b)), (5, 4), self.rng)

    def test_matmul_right_operand(self):
        a = ad.tensor(self.rng.normal(0, 1, (5, 4)), dtype=np.float64)
        check_op(lambda t: ad.sum_all(ad.matmul(a, t)), (4, 3), self.rng)

    def test_add(self):
        b = ad.tensor(self.rng.normal(0, 1, (4, 3)), dtype=np.float64)
        check_op(lambda t: ad.sum_all(ad.mul(ad.add(t, b), ad.add(t, b))), (4, 3), self.rng)

    def test_add_row_broadcast(self):
        a = ad.tensor(self.rng.normal(0, 1, (4, 3)), dtype=np.float64)
        check_op(lambda t: ad.sum_all(ad.mul(ad.add(a, t), ad.add(a, t))), (3,), self.rng)

    def test_mul(self):
        b = ad.tensor(self.rng.normal(0, 1, (4, 3)), dtype=np.float64)
        check_op(lambda t: ad.sum_all(ad.mul(t, ad.mul(t, b))), (4, 3), self.rng)

    def test_scale(self):
        check_op(lambda t: ad.sum_all(ad.scale(ad.mul(t, t), 2.5)), (3, 3), self.rng)

    def test_transpose(self):
        b = ad.tensor(self.rng.normal(0, 1, (2, 5)), dtype=np.float64)
        check_op(lambda t: ad.sum_all(ad.matmul(b, ad.transpose(t))), (3, 5), self.rng)

    def test_concat(self):
        def build(t):
            left = ad.slice_cols(t, 0, 2)
            right = ad.slice_cols(t, 2, 4)
            joined = ad.concat([left, right, left], axis=1)
            return ad.sum_all(ad.mul(joined, joined))
        check_op(build, (3, 4), self.rng)

    def test_slice_cols(self):
        check_op(lambda t: ad.sum_all(ad.mul(ad.slice_cols(t, 1, 3),
                                             ad.slice_cols(t, 1, 3))), (4, 5), self.rng)

    def test_gather_rows(self):
        idx = np.array([0, 2, 2, 1])
        check_op(lambda t: ad.sum_all(ad.mul(ad.gather_rows(t, idx),
                                             ad.gather_rows(t, idx))), (3, 4), self.rng)

    def test_relu(self):
        # keep inputs away from the kink so finite differences are valid
        for _ in range(10):
            x = self.rng.normal(0, 1, (4, 4))
            x[np.abs(x) < 0.05] = 0.1
            got = autodiff_grad(lambda t: ad.sum_all(ad.mul(ad.relu(t), ad.relu(t))), x.copy())
            want = finite_diff(
                lambda arr: float(ad.sum_all(ad.mul(ad.relu(ad.tensor(arr, dtype=np.float64)),
                                                    ad.relu(ad.tensor(arr, dtype=np.float64)))).data),
                x.copy())
            assert rel_err(got, want) < REL_TOL

    def test_sigmoid(self):
        check_op(lambda t: ad.sum_all(ad.sigmoid(t)), (4, 2), self.rng)

    def test_masked_softmax(self):
        visible = np.array([[True, True, False, True],
                            [True, True, True, True],
                            [False, True, True, False],
                            [True, False, False, True]])
        w = ad.tensor(self.rng.normal(0, 1, (4, 4)), dtype=np.float64)
        check_op(lambda t: ad.sum_all(ad.mul(ad.masked_softmax(t, visible), w)),
                 (4, 4), self.rng)

    def test_layer_norm_input(self):
        g = ad.tensor(self.rng.normal(1, 0.2, 5), dtype=np.float64)
        b = ad.tensor(self.rng.normal(0, 0.2, 5), dtype=np.float64)
        check_op(lambda t: ad.sum_all(ad.mul(ad.layer_norm(t, g, b),
                                             ad.layer_norm(t, g, b))), (3, 5), self.rng)

    def test_layer_norm_gain_bias(self):
        x = ad.tensor(self.rng.normal(0, 1, (3, 5)), dtype=np.float64)
        bias = ad.tensor(np.zeros(5), dtype=np.float64)
        check_op(lambda t: ad.sum_all(ad.mul(ad.layer_norm(x, t, bias),
                                             ad.layer_norm(x, t, bias))), (5,), self.rng)

    def test_bce_loss(self):
        y = np.array([[1.0], [0.0], [1.0], [0.0]])
        for _ in range(10):
            x = self.rng.uniform(0.05, 0.95, (4, 1))
            got = autodiff_grad(lambda t: ad.bce_loss(t, y), x.copy())
            want = finite_diff(
                lambda arr: float(ad.bce_loss(ad.tensor(arr, dtype=np.float64), y).data),
                x.copy())
            assert rel_err(got, want) < REL_TOL

    def test_cross_entropy_rows(self):
        targets = np.array([1, 0, 3])
        check_op(lambda t: ad.cross_entropy_rows(t, targets), (3, 5), self.rng)

    def test_chain_matmul_softmax(self):
        visible = np.ones((3, 3), dtype=bool)
        w = ad.tensor(self.rng.normal(0, 1, (3, 3)), dtype=np.float64)

        def build(t):
            scores = ad.matmul(t, w)
            probs = ad.masked_softmax(scores, visible)
            return ad.sum_all(ad.mul(probs, ad.matmul(t, w)))
        check_op(build, (3, 3), self.rng)

    def test_joint_loss_of_model(self):
        """Full joint loss (linking + next-token) through a real forward."""
        from joltsql.masks import build_joint_mask
        from joltsql.model import (ModelConfig, ModelParams, forward,
                                   joint_loss, ntp_loss, schema_linking_loss)
        from joltsql.tokenizer import SegmentMap

        cfg = ModelConfig(vocab_size=12, dim=8, heads=2, layers=1,
                          max_len=16, dtype="float64")
        params = ModelParams(cfg, seed=3)
        seg = SegmentMap(n=9, prefix={0, 1}, schema={2, 3, 4, 5}, query={6, 7, 8},
                         markers={3, 5}, table_elements={}, marker_columns=[],
                         gt_schema={2}, noisy_schema={4})
        ids = [1, 5, 6, 3, 7, 3, 8, 9, 2]
        mask = build_joint_mask(seg)
        labels = [1, 0]
        markers = [3, 5]

        def loss_value():
            out = forward(params, ids, mask)
            l_sl = schema_linking_loss(out.marker_probs, labels, markers)
            l_ntp = ntp_loss(out.lm_logits, ids, sorted(seg.query))
            return joint_loss(l_sl, l_ntp)

        loss = loss_value()
        ad.backward(loss)
        for name, p in params.named_params().items():
            if p.grad is None:
                continue
            got = p.grad.copy()
            want = finite_diff(lambda arr: float(loss_value().data), p.data)
            assert rel_err(got, want) < REL_TOL, name


def unfused_attention(q, k, v, bias, heads):
    """The per-head composition `ad.attention` replaces: the slow reference.
    It reads the mask bias as the boolean mask it encodes."""
    visible = bias == 0
    dh = q.shape[1] // heads
    outs = []
    for h in range(heads):
        lo, hi = h * dh, (h + 1) * dh
        qh, kh, vh = (ad.slice_cols(t, lo, hi) for t in (q, k, v))
        scores = ad.scale(ad.matmul(qh, ad.transpose(kh)), 1.0 / float(np.sqrt(dh)))
        outs.append(ad.matmul(ad.masked_softmax(scores, visible), vh))
    return ad.concat(outs, axis=1)


def attention_masks():
    """A square mask whose rows are partly hidden, and a rectangular
    n x (p + n) one: two new rows over three cached rows and themselves."""
    square = np.array([[True, False, True, False],
                       [True, True, False, False],
                       [False, True, True, True],
                       [True, False, False, True]])
    past = np.array([[True, False, True, True, False],
                     [False, True, True, True, True]])
    return {"square": square, "past": past}


class TestFusedAttention:
    D = 4

    @pytest.mark.parametrize("wrt", ["q", "k", "v"])
    @pytest.mark.parametrize("shape", ["square", "past"])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_gradient(self, wrt, shape, heads):
        rng = np.random.default_rng(7)
        visible = attention_masks()[shape]
        n, m = visible.shape
        rows = {"q": n, "k": m, "v": m}
        fixed = {name: ad.tensor(rng.normal(0, 1, (r, self.D)), dtype=np.float64)
                 for name, r in rows.items()}
        w = ad.tensor(rng.normal(0, 1, (n, self.D)), dtype=np.float64)

        def build(t):
            args = dict(fixed, **{wrt: t})
            out = ad.attention(args["q"], args["k"], args["v"],
                               additive_bias(visible, np.float64), heads)
            return ad.sum_all(ad.mul(out, w))
        check_op(build, (rows[wrt], self.D), rng)

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_unfused_composition(self, dtype, tol, heads):
        rng = np.random.default_rng(heads)
        d = 8
        causal = np.tri(7, dtype=bool)
        past = np.concatenate([rng.random((3, 6)) > 0.5, np.tri(3, dtype=bool)], axis=1)
        for visible in (causal, past):
            n, m = visible.shape
            data = [rng.normal(0, 1, (r, d)) for r in (n, m, m)]
            w = rng.normal(0, 1, (n, d))
            results = []
            for op in (ad.attention, unfused_attention):
                q, k, v = (ad.tensor(x, requires_grad=True, dtype=dtype) for x in data)
                out = op(q, k, v, additive_bias(visible, dtype), heads)
                ad.backward(ad.sum_all(ad.mul(out, ad.tensor(w, dtype=dtype))))
                results.append([out.data, q.grad, k.grad, v.grad])
            for got, want in zip(*results):
                assert got.dtype == want.dtype == dtype
                np.testing.assert_allclose(got, want, rtol=0, atol=tol)

    def test_hidden_entries_get_no_weight(self):
        rng = np.random.default_rng(3)
        visible = attention_masks()["past"].copy()
        visible[:, 0] = False  # no query row may see cached row 0
        q = ad.tensor(rng.normal(0, 1, (2, 4)), dtype=np.float64)
        k = ad.tensor(rng.normal(0, 1, (5, 4)), dtype=np.float64)
        v = ad.tensor(rng.normal(0, 1, (5, 4)), dtype=np.float64)
        bias = additive_bias(visible, np.float64)
        base = ad.attention(q, k, v, bias, 2).data
        k.data[0] += 100.0
        v.data[0] -= 100.0
        assert np.array_equal(ad.attention(q, k, v, bias, 2).data, base)

    def test_empty_row_rejected(self):
        # rejected where the mask builds its bias, before any attention
        mask = AttentionMask(np.array([[True, True], [False, False]]))
        with pytest.raises(EmptyRow):
            mask.bias(np.float64)

    def test_no_grad_peak_is_one_score_array(self):
        """Without gradients, attention allocates its heads x n x m score
        array and the heads x n x dh products; the mask bias is added into
        the scores in place, not into a second array."""
        rng = np.random.default_rng(0)
        n, d, heads = 192, 80, 4
        bias = additive_bias(np.tri(n, dtype=bool), np.float32)
        q, k, v = (ad.tensor(rng.normal(0, 1, (n, d)), dtype=np.float32) for _ in range(3))
        peak = traced_peak(lambda: ad.attention(q, k, v, bias, heads))
        scores = heads * n * n * 4
        assert peak <= 1.25 * scores, peak / scores

    def test_shape_mismatch_rejected(self):
        q = ad.tensor(np.zeros((2, 4)))
        kv = ad.tensor(np.zeros((3, 4)))
        with pytest.raises(ShapeMismatch):  # mask not n x m
            ad.attention(q, kv, kv, np.zeros((2, 2), dtype=np.float32), 2)
        with pytest.raises(ShapeMismatch):  # k and v differ
            ad.attention(q, kv, ad.tensor(np.zeros((2, 4))), np.zeros((2, 3), dtype=np.float32), 2)
        with pytest.raises(ShapeMismatch):  # width not divisible by heads
            ad.attention(q, kv, kv, np.zeros((2, 3), dtype=np.float32), 3)


class TestWorkedValues:
    def test_bce_half(self):
        p = ad.tensor([[0.5]], dtype=np.float64)
        assert ad.bce_loss(p, np.array([[1.0]])).item() == pytest.approx(math.log(2), rel=1e-9)

    def test_bce_near_one(self):
        p = ad.tensor([[1.0 - 1e-7]], dtype=np.float64)
        assert ad.bce_loss(p, np.array([[1.0]])).item() == pytest.approx(1e-7, rel=1e-2)

    def test_bce_batch_mean(self):
        p = ad.tensor([[0.5], [0.5]], dtype=np.float64)
        y = np.array([[1.0], [0.0]])
        assert ad.bce_loss(p, y).item() == pytest.approx(math.log(2), rel=1e-9)

    def test_cross_entropy_uniform(self):
        logits = ad.tensor(np.zeros((1, 10)), dtype=np.float64)
        assert ad.cross_entropy_rows(logits, [4]).item() == pytest.approx(math.log(10),
                                                                           rel=1e-9)

    def test_cross_entropy_peaked(self):
        z = np.full((1, 10), -50.0)
        z[0, 3] = 50.0
        assert ad.cross_entropy_rows(ad.tensor(z, dtype=np.float64), [3]).item() < 1e-9

    def test_square_derivative(self):
        x = ad.tensor(np.array([[3.0]]), requires_grad=True, dtype=np.float64)
        ad.backward(ad.sum_all(ad.mul(x, x)))
        assert x.grad[0, 0] == pytest.approx(6.0)

    def test_adamw_single_step_closed_form(self):
        p = ad.tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
        opt = ad.AdamW([p], lr=0.1, weight_decay=0.01)
        p.grad = np.array([0.5])
        opt.step()
        # bias-corrected m-hat = g, v-hat = g^2; update = lr*(g/(|g|+eps) + wd*w)
        expected = 2.0 - 0.1 * (0.5 / (0.5 + 1e-8) + 0.01 * 2.0)
        assert p.data[0] == pytest.approx(expected, rel=1e-9)


class TestMaskedSoftmaxProperties:
    def test_invisible_exactly_zero(self):
        rng = np.random.default_rng(0)
        visible = rng.random((6, 6)) > 0.4
        visible[np.arange(6), np.arange(6)] = True
        out = ad.masked_softmax(ad.tensor(rng.normal(0, 5, (6, 6))), visible)
        assert np.all(out.data[~visible] == 0.0)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_uniform_row(self):
        visible = np.ones((1, 4), dtype=bool)
        out = ad.masked_softmax(ad.tensor(np.zeros((1, 4))), visible)
        assert np.allclose(out.data, 0.25)

    def test_single_visible(self):
        visible = np.array([[False, True, False]])
        out = ad.masked_softmax(ad.tensor(np.array([[5.0, -3.0, 2.0]])), visible)
        assert out.data.tolist() == [[0.0, 1.0, 0.0]]

    def test_empty_row_rejected(self):
        visible = np.array([[True, True], [False, False]])
        with pytest.raises(EmptyRow):
            ad.masked_softmax(ad.tensor(np.zeros((2, 2))), visible)

    def test_extreme_scores_stable(self):
        visible = np.ones((1, 3), dtype=bool)
        out = ad.masked_softmax(ad.tensor(np.array([[1e4, 1e4 - 1, 0.0]])), visible)
        assert np.isfinite(out.data).all()


class TestGraphMechanics:
    def test_disconnected_grad_untouched(self):
        x = ad.tensor(np.ones((2, 2)), requires_grad=True, dtype=np.float64)
        y = ad.tensor(np.ones((2, 2)), requires_grad=True, dtype=np.float64)
        ad.backward(ad.sum_all(ad.mul(x, x)))
        assert y.grad is None

    def test_first_gradient_is_a_private_copy(self):
        # add hands the same array to both parents; each must own its grad
        a = ad.tensor(np.ones((2, 2)), requires_grad=True, dtype=np.float64)
        b = ad.tensor(np.ones((2, 2)), requires_grad=True, dtype=np.float64)
        ad.backward(ad.sum_all(ad.mul(ad.add(a, b), ad.add(a, a))))
        assert a.grad is not b.grad
        np.testing.assert_array_equal(b.grad, np.full((2, 2), 2.0))
        np.testing.assert_array_equal(a.grad, np.full((2, 2), 6.0))

    def test_first_gradient_takes_the_tensor_dtype(self):
        p = ad.tensor(np.ones((2, 2)), requires_grad=True, dtype=np.float32)
        c = ad.tensor(np.full((2, 2), 0.1), dtype=np.float64)
        ad.backward(ad.sum_all(ad.mul(p, c)))  # p's gradient arrives as float64
        assert p.grad.dtype == np.float32

    def test_shared_node_accumulates(self):
        x = ad.tensor(np.array([[2.0]]), requires_grad=True, dtype=np.float64)
        y = ad.mul(x, x)
        ad.backward(ad.add_scalars(ad.sum_all(y), ad.sum_all(y)))
        assert x.grad[0, 0] == pytest.approx(8.0)

    def test_non_scalar_backward_rejected(self):
        x = ad.tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeMismatch):
            ad.backward(ad.mul(x, x))

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 3))))

    def test_clip_grad_norm(self):
        p = ad.tensor(np.zeros(4), requires_grad=True, dtype=np.float64)
        p.grad = np.full(4, 3.0)
        norm = ad.clip_grad_norm([p], 1.0)
        assert norm == pytest.approx(6.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_matmul_transpose_identity(self):
        rng = np.random.default_rng(1)
        a = ad.tensor(rng.normal(0, 1, (3, 4)), dtype=np.float64)
        b = ad.tensor(rng.normal(0, 1, (4, 2)), dtype=np.float64)
        left = ad.transpose(ad.matmul(a, b)).data
        right = ad.matmul(ad.transpose(b), ad.transpose(a)).data
        assert np.allclose(left, right)


# ------------------------------------------------------------------ slow references
# The kernels as they were before they were rewritten to make fewer array
# passes. The rewrites must agree with them bit for bit, not within a
# tolerance: training logs, checkpoints and decoded SQL repeat byte for byte.

def reference_softmax(scores, visible):
    neg = np.where(visible, scores, -np.inf)
    ex = np.exp(neg - neg.max(axis=-1, keepdims=True))
    ex = np.where(visible, ex, 0.0)
    return ex / ex.sum(axis=-1, keepdims=True)


def reference_attention(q, k, v, visible, heads, g):
    """Output and (dQ, dK, dV) for upstream gradient g, all n x d / m x d."""
    d = q.shape[1]
    dh = d // heads
    s = 1.0 / float(np.sqrt(dh))
    split = lambda a: a.reshape(len(a), heads, dh).transpose(1, 0, 2)  # noqa: E731
    merge = lambda a: a.transpose(1, 0, 2).reshape(a.shape[1], d)  # noqa: E731
    qh, kh, vh, gh = split(q), split(k), split(v), split(g)
    probs = reference_softmax((qh @ kh.transpose(0, 2, 1)) * s, visible)
    gp = gh @ vh.transpose(0, 2, 1)
    ds = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True)) * s
    return (merge(probs @ vh), merge(ds @ kh),
            merge((qh.transpose(0, 2, 1) @ ds).transpose(0, 2, 1)),
            merge(probs.transpose(0, 2, 1) @ gh))


def prechange_softmax_visible(scores, visible):
    """The softmax kernel attention and masked_softmax used while they took
    the boolean mask: a 0/-inf bias and a second score array built on every
    call, then the max subtraction, `exp` and normalization in place."""
    bias = np.zeros(visible.shape, dtype=scores.dtype)
    bias[~visible] = -np.inf
    ex = scores + bias
    ex -= ex.max(axis=-1, keepdims=True)
    np.exp(ex, out=ex)
    ex /= ex.sum(axis=-1, keepdims=True)
    return ex


def prechange_attention(q, k, v, visible, heads, g):
    """The attention op as it was while it took the boolean mask: scores
    scaled in place, then `prechange_softmax_visible`. Output and
    (dQ, dK, dV)."""
    d = q.shape[1]
    dh = d // heads
    s = 1.0 / float(np.sqrt(dh))
    split = lambda a: a.reshape(len(a), heads, dh).transpose(1, 0, 2)  # noqa: E731
    merge = lambda a: a.transpose(1, 0, 2).reshape(a.shape[1], d)  # noqa: E731
    qh, kh, vh, gh = split(q), split(k), split(v), split(g)
    scores = qh @ kh.transpose(0, 2, 1)
    scores *= s
    probs = prechange_softmax_visible(scores, visible)
    ds = gh @ vh.transpose(0, 2, 1)
    ds -= (ds * probs).sum(axis=-1, keepdims=True)
    ds *= probs
    ds *= s
    return (merge(probs @ vh), merge(ds @ kh),
            merge((qh.transpose(0, 2, 1) @ ds).transpose(0, 2, 1)),
            merge(probs.transpose(0, 2, 1) @ gh))


def reference_layer_norm(x, gain, bias, g, eps=1e-5):
    """Output and (dx, dgain, dbias) for upstream gradient g."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    gx = g * gain
    dx = inv * (gx - gx.mean(axis=-1, keepdims=True)
                - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
    return xhat * gain + bias, dx, (g * xhat).sum(axis=0), g.sum(axis=0)


def reference_gather_grad(table, indices, g):
    full = np.zeros_like(table)
    np.add.at(full, indices, g)
    return full


class ReferenceAdamW:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
        self.params, self.lr = params, lr
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


def same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def kernel_masks(rng):
    """Partly hidden square masks (every row keeps its diagonal) and
    rectangular n x (p + n) masks: new rows over cached rows and a causal
    block of themselves."""
    out = []
    for n, p in ((7, 0), (12, 0), (3, 6), (1, 9), (5, 20)):
        cached = rng.random((n, p)) > 0.4
        own = np.tri(n, dtype=bool) & (rng.random((n, n)) > 0.3)
        own[np.arange(n), np.arange(n)] = True
        out.append(np.concatenate([cached, own], axis=1))
    return out


DTYPES = [np.float32, np.float64]


class TestKernelsMatchSlowReferences:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_softmax(self, dtype):
        rng = np.random.default_rng(11)
        for visible in kernel_masks(rng):
            for shape in (visible.shape, (4,) + visible.shape):
                # the in-place kernel over scores plus the mask bias, as
                # attention runs it over all heads at once
                scores = rng.normal(0, 3, shape).astype(dtype)
                biased = scores + additive_bias(visible, dtype)
                same_bytes(ad._softmax_in_place(biased), reference_softmax(scores, visible))
                same_bytes(biased, prechange_softmax_visible(scores, visible))
            got = ad.masked_softmax(ad.tensor(scores[0], dtype=dtype), visible).data
            same_bytes(got, reference_softmax(scores[0], visible))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_attention_forward_and_backward(self, dtype, heads):
        rng = np.random.default_rng(heads)
        d = 8
        for visible in kernel_masks(rng):
            n, m = visible.shape
            data = [rng.normal(0, 1, (r, d)).astype(dtype) for r in (n, m, m)]
            g = rng.normal(0, 1, (n, d)).astype(dtype)
            q, k, v = (ad.tensor(x, requires_grad=True, dtype=dtype) for x in data)
            out = ad.attention(q, k, v, additive_bias(visible, dtype), heads)
            ad.backward(ad.sum_all(ad.mul(out, ad.tensor(g, dtype=dtype))))
            for reference in (reference_attention, prechange_attention):
                want = reference(*data, visible, heads, g)
                for got, ref in zip((out.data, q.grad, k.grad, v.grad), want):
                    same_bytes(got, ref)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_layer_norm(self, dtype):
        rng = np.random.default_rng(5)
        for rows, d in ((1, 80), (7, 5), (204, 80), (3, 320)):
            x = rng.normal(0.5, 2, (rows, d)).astype(dtype)
            gain = rng.normal(1, 0.2, d).astype(dtype)
            bias = rng.normal(0, 0.2, d).astype(dtype)
            g = rng.normal(0, 1, (rows, d)).astype(dtype)
            xt, gt, bt = (ad.tensor(a, requires_grad=True, dtype=dtype)
                          for a in (x, gain, bias))
            out = ad.layer_norm(xt, gt, bt)
            ad.backward(ad.sum_all(ad.mul(out, ad.tensor(g, dtype=dtype))))
            want = reference_layer_norm(x, gain, bias, g)
            for got, ref in zip((out.data, xt.grad, gt.grad, bt.grad), want):
                same_bytes(got, ref)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_gather_rows_backward(self, dtype):
        rng = np.random.default_rng(9)
        table = rng.normal(0, 1, (30, 6)).astype(dtype)
        cases = [np.arange(0, 12), np.arange(7, 19),  # position ranges
                 np.arange(29, 30),
                 np.array([3, 1, 3, 3, 0, 29]),  # token rows, with repeats
                 np.array([4, 5, 6, 6, 7]),  # nearly a range
                 np.array([-2, -1, 0])]  # negative indices
        for idx in cases:
            g = rng.normal(0, 1, (len(idx), 6)).astype(dtype)
            g[0, :3] = -0.0  # add.at stores 0 + (-0.0) = +0.0
            t = ad.tensor(table, requires_grad=True, dtype=dtype)
            out = ad.gather_rows(t, idx)
            same_bytes(out.data, table[idx])
            ad.backward(ad.sum_all(ad.mul(out, ad.tensor(g, dtype=dtype))))
            same_bytes(t.grad, reference_gather_grad(table, idx, g))
            if (idx == idx[0]).sum() == 1:
                assert not np.signbit(t.grad[idx[0], :3]).any()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_adamw_thirty_steps(self, dtype):
        rng = np.random.default_rng(21)
        shapes = [(5, 3), (4,), (2, 2), (1,)]
        init = [rng.normal(0, 1, s).astype(dtype) for s in shapes]
        fast = [ad.tensor(a.copy(), requires_grad=True, dtype=dtype) for a in init]
        slow = [ad.tensor(a.copy(), requires_grad=True, dtype=dtype) for a in init]
        opts = (ad.AdamW(fast, lr=3e-2, weight_decay=1e-2),
                ReferenceAdamW(slow, lr=3e-2, weight_decay=1e-2))
        for step in range(30):
            for i, s in enumerate(shapes):
                # the third tensor never has a gradient; the last one skips odd steps
                skip = i == 2 or (i == 3 and step % 2)
                g = None if skip else rng.normal(0, 1, s).astype(dtype)
                fast[i].grad = None if g is None else g.copy()
                slow[i].grad = None if g is None else g.copy()
            for opt in opts:
                opt.step()
            for a, b in zip(fast, slow):
                same_bytes(a.data, b.data)
        for m_fast, m_slow in zip(opts[0].m + opts[0].v, opts[1].m + opts[1].v):
            same_bytes(m_fast, m_slow)
