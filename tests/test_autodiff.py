import math

import numpy as np
import pytest

from joltsql import autodiff as ad
from joltsql.errors import EmptyRow, ShapeMismatch

REL_TOL = 1e-4
H = 1e-5


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom))


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
