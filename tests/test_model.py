import json
import math

import numpy as np
import pytest

from joltsql import autodiff as ad
from joltsql import model
from joltsql.errors import EmptyQuery, EmptyRow, MalformedInput, NoMarkers, ShapeMismatch
from joltsql.masks import build_causal_mask, build_joint_mask
from joltsql.model import (ModelConfig, ModelParams, forward, forward_values,
                           greedy_generate, joint_loss, ntp_loss, prompt_pass,
                           schema_linking_loss)
from joltsql.tokenizer import SegmentMap
from test_autodiff import tape_attention, traced_peak, unfused_attention


def tiny_config(**kw):
    defaults = dict(vocab_size=16, dim=8, heads=2, layers=2, max_len=32)
    defaults.update(kw)
    return ModelConfig(**defaults)


TINY_ATTENDED = {3, 5}  # tiny_segment's gold {3} and noisy {5} schema tokens


def tiny_segment():
    return SegmentMap(n=10, schema_start=3, query_start=7,
                      markers={4, 6}, table_elements={}, marker_columns=[])


def kv_buffers(kv, rows, lead=()):
    """`forward_values`'s `past`: per layer, K and V buffers of shape
    lead x `rows` x d, each sequence's first rows copies of `kv`; no
    `lead` is the prompt pass's 2-D layout."""
    past = []
    for k, v in kv:
        buf = np.zeros((2, *lead, rows, k.shape[1]), dtype=k.dtype)
        buf[0, ..., :len(k), :], buf[1, ..., :len(v), :] = k, v
        past.append((buf[0], buf[1]))
    return past


def tape_forward(params, ids, visible, attention=tape_attention):
    """Training's forward as it ran before each layer became one tape op:
    the layer as separate autodiff ops, with `attention` as its attention
    op. Kept as the slow reference for `forward`'s layer op. Returns the
    `ForwardOutput` and each layer's K and V (layers x 2 x n x d)."""
    cfg = params.config
    n = len(ids)
    bias = ad.additive_bias(visible, cfg.np_dtype)
    x = ad.add(ad.gather_rows(params.emb, np.asarray(ids)),
               ad.gather_rows(params.pos, np.arange(n)))
    kv = []
    for layer in params.layers:
        h = ad.layer_norm(x, layer["ln1_g"], layer["ln1_b"])
        k = ad.matmul(h, layer["wk"])
        v = ad.matmul(h, layer["wv"])
        q = ad.matmul(h, layer["wq"])
        kv.append([k.data, v.data])
        attn = ad.matmul(attention(q, k, v, bias, cfg.heads), layer["wo"])
        x = ad.add(x, attn)
        h2 = ad.layer_norm(x, layer["ln2_g"], layer["ln2_b"])
        ffn = ad.matmul(ad.relu(ad.add(ad.matmul(h2, layer["w1"]), layer["b1"])), layer["w2"])
        ffn = ad.add(ffn, layer["b2"])
        x = ad.add(x, ffn)
    hidden = ad.layer_norm(x, params.lnf_g, params.lnf_b)
    lm_logits = ad.matmul(hidden, ad.transpose(params.emb))
    marker_probs = ad.sigmoid(ad.add(ad.matmul(hidden, params.link_w), params.link_b))
    return model.ForwardOutput(lm_logits, marker_probs), np.array(kv)


def tape_decode_step(params, ids, visible, past):
    """The decode step as `forward(..., past=)` ran it before decoding left
    the tape, kept as the slow reference for a `forward_values` step: one
    new token per sequence at position p, through autodiff ops on a
    B x 1 x d stack, under the B x (p + 1) boolean mask `visible`, writing
    K/V into the B x rows x d buffers of `past` in place. Returns the
    B x 1 x V logits."""
    cfg = params.config
    p = visible.shape[1] - 1
    tokens, bias = np.asarray(ids)[:, None], ad.additive_bias(visible, cfg.np_dtype)[:, None]
    x = ad.add(ad.gather_rows(params.emb, tokens),
               ad.gather_rows(params.pos, np.arange(p, p + 1)))
    for layer, (k_buf, v_buf) in zip(params.layers, past):
        h = ad.layer_norm(x, layer["ln1_g"], layer["ln1_b"])
        q = ad.matmul(h, layer["wq"])
        k = ad.matmul(h, layer["wk"])
        v = ad.matmul(h, layer["wv"])
        k_buf[:, p:p + 1] = k.data
        v_buf[:, p:p + 1] = v.data
        k, v = ad.Tensor(k_buf[:, :p + 1]), ad.Tensor(v_buf[:, :p + 1])
        attn = ad.matmul(tape_attention(q, k, v, bias, cfg.heads), layer["wo"])
        x = ad.add(x, attn)
        h2 = ad.layer_norm(x, layer["ln2_g"], layer["ln2_b"])
        ffn = ad.matmul(ad.relu(ad.add(ad.matmul(h2, layer["w1"]), layer["b1"])), layer["w2"])
        ffn = ad.add(ffn, layer["b2"])
        x = ad.add(x, ffn)
    hidden = ad.layer_norm(x, params.lnf_g, params.lnf_b)
    return ad.matmul(hidden, ad.transpose(params.emb)).data


def tape_spy(monkeypatch) -> list[str]:
    """A list that gets "op" for every autodiff op that runs and "tensor"
    for every Tensor made, from now until the test ends."""
    made = []
    op, init = ad._op, ad.Tensor.__init__

    def spy_op(*args):
        made.append("op")
        return op(*args)

    def spy_init(self, *args, **kwargs):
        made.append("tensor")
        init(self, *args, **kwargs)

    monkeypatch.setattr(ad, "_op", spy_op)
    monkeypatch.setattr(ad.Tensor, "__init__", spy_init)
    return made


def unfused_values(q, k, v, bias, heads):
    """`unfused_attention` in place of `autodiff.attention_values`, run on
    each item of a decode step's B x 1 x d stack (no gradient)."""
    if q.ndim == 2:
        return unfused_attention(*map(ad.Tensor, (q, k, v)), bias, heads).data, None
    return np.stack([unfused_values(q[b], k[b], v[b], bias[b], heads)[0]
                     for b in range(len(q))]), None


class TestForward:
    def test_output_shapes(self):
        cfg = tiny_config()
        params = ModelParams(cfg, seed=0)
        ids = [1, 2, 3, 4, 5]
        out = forward(params, ids, build_causal_mask(5))
        assert out.lm_logits.shape == (5, cfg.vocab_size)
        assert out.marker_probs.shape == (5, 1)
        assert np.all((out.marker_probs.data > 0) & (out.marker_probs.data < 1))

    def test_deterministic(self):
        params = ModelParams(tiny_config(), seed=0)
        ids = [1, 2, 3]
        a = forward(params, ids, build_causal_mask(3)).lm_logits.data
        b = forward(params, ids, build_causal_mask(3)).lm_logits.data
        assert np.array_equal(a, b)

    def test_seeded_init_reproducible(self):
        a = ModelParams(tiny_config(), seed=5)
        b = ModelParams(tiny_config(), seed=5)
        for (ka, pa), (kb, pb) in zip(sorted(a.named_params().items()),
                                      sorted(b.named_params().items())):
            assert ka == kb and np.array_equal(pa.data, pb.data)

    def test_all_params_is_named_params_in_order(self):
        """One parameter list: AdamW and gradient clipping walk the same
        tensors, in the same order, as checkpoints name them."""
        params = ModelParams(tiny_config(), seed=0)
        named = params.named_params()
        flat = params.all_params()
        assert len(flat) == len(named) == len({id(t) for t in flat})
        assert all(a is b for a, b in zip(flat, named.values()))
        names = list(named)
        assert names[:3] == ["emb", "pos", "layer0.ln1_g"]
        assert names[-4:] == ["lnf_g", "lnf_b", "link_w", "link_b"]

    def test_too_long_rejected(self):
        params = ModelParams(tiny_config(max_len=4), seed=0)
        with pytest.raises(ShapeMismatch):
            forward(params, [1] * 5, build_causal_mask(5))

    def test_mask_size_mismatch_rejected(self):
        params = ModelParams(tiny_config(), seed=0)
        with pytest.raises(ShapeMismatch):
            forward(params, [1, 2, 3], build_causal_mask(4))

    def test_mask_row_with_nothing_visible_rejected(self):
        params = ModelParams(tiny_config(), seed=0)
        visible = np.tri(3, dtype=bool)
        visible[1] = False
        with pytest.raises(EmptyRow):
            forward(params, [1, 2, 3], visible)
        with pytest.raises(EmptyRow):
            prompt_pass(params, [1, 2, 3], visible)

    def test_masked_influence(self):
        """Changing a token invisible to position i leaves row i of both
        heads bit-identical."""
        params = ModelParams(tiny_config(), seed=1)
        seg = tiny_segment()
        mask = build_joint_mask(seg, TINY_ATTENDED)
        ids = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        base = forward(params, ids, mask)
        # query token 8 is invisible to every prefix/schema row and to query row 7
        changed = list(ids)
        changed[8] = 15
        pert = forward(params, changed, mask)
        for i in sorted(set(seg.prefix) | set(seg.schema) | {7}):
            assert np.array_equal(base.lm_logits.data[i], pert.lm_logits.data[i]), i
            assert np.array_equal(base.marker_probs.data[i], pert.marker_probs.data[i]), i
        # marker rows (4, 6) are invisible to non-marker rows
        changed2 = list(ids)
        # cannot change the marker token itself (it is structural); instead
        # change a schema token invisible to the prefix rows: schema is not
        # visible to prefix rows at all
        changed2[5] = 14
        pert2 = forward(params, changed2, mask)
        for i in sorted(seg.prefix):
            assert np.array_equal(base.lm_logits.data[i], pert2.lm_logits.data[i]), i
            assert np.array_equal(base.marker_probs.data[i], pert2.marker_probs.data[i]), i

    def test_schema_permutation_invariance(self):
        """Swapping two non-marker schema tokens together with their position
        embeddings leaves marker probabilities unchanged (order-free schema
        rows)."""
        params = ModelParams(tiny_config(), seed=2)
        seg = tiny_segment()
        mask = build_joint_mask(seg, TINY_ATTENDED)
        ids = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        base = forward(params, ids, mask)
        # swap schema positions 3 and 5 (both non-marker): the ids, and the
        # position table's rows, so each token keeps its position vector
        ids2 = list(ids)
        ids2[3], ids2[5] = ids2[5], ids2[3]
        params.pos.data[[3, 5]] = params.pos.data[[5, 3]]
        # the mask is unchanged: rows 3 and 5 have identical visibility rows,
        # and columns 3/5 are identically visible to every row... except query
        # rows, where gt/noisy membership is positional; swap those too
        seg2 = SegmentMap(n=10, schema_start=3, query_start=7,
                          markers={4, 6}, table_elements={},
                          marker_columns=[])
        pert = forward(params, ids2, build_joint_mask(seg2, {5} | {3}))
        np.testing.assert_allclose(pert.marker_probs.data[[4, 6]],
                                   base.marker_probs.data[[4, 6]],
                                   rtol=0, atol=1e-6)


def training_loss(params, run=forward):
    seg = tiny_segment()
    ids = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    out = run(params, ids, build_joint_mask(seg, TINY_ATTENDED))
    l_sl = schema_linking_loss(out.marker_probs, [1, 0], [4, 6])
    l_ntp = ntp_loss(out.lm_logits, ids, sorted(seg.query))
    return joint_loss(l_sl, l_ntp)


def tape_nodes(loss) -> int:
    """Op nodes (tensors with a backward closure) in the loss graph."""
    found, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) not in found:
            found[id(t)] = t
            stack.extend(t._parents)
    return sum(t._backward is not None for t in found.values())


def retaining_backward(loss):
    """Backprop that keeps every node's gradient, closure and parents: the
    reference for the leaf gradients of the consuming `ad.backward`."""
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if id(p) not in seen and p.requires_grad)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


class TestAttentionOp:
    def test_tape_size_independent_of_heads(self):
        counts = {heads: tape_nodes(training_loss(ModelParams(tiny_config(heads=heads), seed=0)))
                  for heads in (1, 2, 4)}
        assert len(set(counts.values())) == 1, counts

    @pytest.mark.parametrize("dtype,tol", [("float32", 1e-5), ("float64", 1e-12)])
    def test_training_gradients_match_unfused(self, dtype, tol):
        """`forward`'s layer op against the layer as separate tape ops with
        the per-head composition for attention."""
        def grads(run):
            params = ModelParams(tiny_config(dtype=dtype), seed=4)
            ad.backward(training_loss(params, run))
            return {k: p.grad for k, p in params.named_params().items()}
        fused = grads(forward)
        reference = grads(lambda *args: tape_forward(*args, attention=unfused_attention)[0])
        for k in reference:
            np.testing.assert_allclose(fused[k], reference[k], rtol=0, atol=tol, err_msg=k)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_consuming_backward_gives_byte_equal_leaf_gradients(self, dtype):
        """Two accumulated steps: consuming the graph frees arrays but
        changes no arithmetic."""
        grads = []
        for run in (ad.backward, retaining_backward):
            params = ModelParams(tiny_config(dtype=dtype), seed=4)
            for _ in range(2):
                run(training_loss(params))
            grads.append({k: p.grad.tobytes() for k, p in params.named_params().items()})
        assert grads[0] == grads[1]

    @pytest.mark.parametrize("dtype,tol", [("float32", 1e-5), ("float64", 1e-12)])
    def test_decode_rows_with_past_match_unfused(self, monkeypatch, dtype, tol):
        """The prompt pass, then one row per token against the cached K/V,
        give the logits of the per-head composition."""
        params = ModelParams(tiny_config(dtype=dtype, heads=4), seed=2)
        ids = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        visible = build_joint_mask(tiny_segment(), TINY_ATTENDED)
        bias = ad.additive_bias(visible, params.config.np_dtype)
        n_prompt = 7  # prefix and schema; rows 7..9 are query rows

        def logits():
            out = prompt_pass(params, ids[:n_prompt], visible[:n_prompt, :n_prompt])
            rows = [out.lm_logits]
            past = kv_buffers(out.kv, len(ids))
            for i in range(n_prompt, len(ids)):
                hidden = forward_values(params, np.array(ids[i:i + 1]),
                                        bias[i:i + 1, :i + 1], past)
                rows.append(hidden @ params.emb.data.T)
            return rows
        fused = logits()
        monkeypatch.setattr(ad, "attention_values", unfused_values)
        reference = logits()
        assert len(fused) == 4
        for got, want in zip(fused, reference):
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)


class TestLayerOp:
    """Each layer of `forward` is one tape op over the layer body inference
    runs; its outputs and gradients are byte for byte those of the layer
    as separate tape ops (`tape_forward`)."""

    SEG = SegmentMap(n=30, schema_start=6, query_start=20, markers={8, 12, 16},
                     table_elements={}, marker_columns=[])

    def step_loss(self, run, params, step):
        """One training step's joint loss, each step its own tokens and
        attended schema tokens; the forward's output too."""
        rng = np.random.default_rng(step)
        ids = [int(t) for t in rng.integers(0, params.config.vocab_size, self.SEG.n)]
        attended = {int(i) for i in rng.choice([7, 9, 10, 11, 13, 14, 17, 18], 4)}
        out = run(params, ids, build_joint_mask(self.SEG, attended))
        l_sl = schema_linking_loss(out.marker_probs, [1, 0, 1], sorted(self.SEG.markers))
        return joint_loss(l_sl, ntp_loss(out.lm_logits, ids, list(self.SEG.query))), out

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_outputs_and_two_accumulated_steps_byte_equal_to_the_tape(self, dtype):
        runs = []
        for run in (forward, lambda *args: tape_forward(*args)[0]):
            params = TestDecodeStep.lively_params(dtype)
            outputs = []
            for step in range(2):
                loss, out = self.step_loss(run, params, step)
                outputs += [out.lm_logits.data.tobytes(), out.marker_probs.data.tobytes()]
                ad.backward(loss)
            runs.append((outputs, {k: p.grad.tobytes()
                                   for k, p in params.named_params().items()}))
        (got, got_grads), (want, want_grads) = runs
        assert got == want
        assert got_grads.keys() == want_grads.keys()
        for k in want_grads:
            assert got_grads[k] == want_grads[k], k

    def test_inference_runs_the_same_layer_body(self, monkeypatch):
        """`forward` and `forward_values` call `_attend` then `_ffn` once
        per layer."""
        params = ModelParams(tiny_config(layers=3), seed=0)
        calls = []
        for name in ("_attend", "_ffn"):
            half = getattr(model, name)
            monkeypatch.setattr(model, name, lambda *args, name=name, half=half:
                                calls.append(name) or half(*args))
        forward(params, [1, 2, 3], build_causal_mask(3))
        prompt_pass(params, [1, 2, 3], build_causal_mask(3))
        assert calls == ["_attend", "_ffn"] * 6


class TestLosses:
    def setup_method(self):
        self.params = ModelParams(tiny_config(), seed=3)
        self.seg = tiny_segment()
        self.ids = [1, 2, 3, 4, 5, 6, 7, 8, 9, 2]
        self.mask = build_joint_mask(self.seg, TINY_ATTENDED)

    def test_ntp_masking_bit_exact(self):
        out = forward(self.params, self.ids, self.mask)
        qpos = sorted(self.seg.query)
        base = ntp_loss(out.lm_logits, self.ids, qpos).data.copy()
        # perturb logits at rows that never feed a query prediction
        perturbed = ad.tensor(out.lm_logits.data.copy())
        feeding = {i - 1 for i in qpos}
        for row in range(len(self.ids)):
            if row not in feeding:
                perturbed.data[row] += 1234.5
        again = ntp_loss(perturbed, self.ids, qpos).data
        assert base.tobytes() == again.tobytes()

    def test_sl_masking_bit_exact(self):
        out = forward(self.params, self.ids, self.mask)
        markers = sorted(self.seg.markers)
        labels = [1, 0]
        base = schema_linking_loss(out.marker_probs, labels, markers).data.copy()
        perturbed = ad.tensor(out.marker_probs.data.copy())
        for row in range(len(self.ids)):
            if row not in self.seg.markers:
                perturbed.data[row] = 0.987
        again = schema_linking_loss(perturbed, labels, markers).data
        assert base.tobytes() == again.tobytes()

    def test_ntp_uniform_logits_value(self):
        V = 2000
        logits = ad.tensor(np.zeros((3, V)), dtype=np.float64)
        loss = ntp_loss(logits, [0, 5, 7], [1, 2])
        assert loss.item() == pytest.approx(math.log(V), rel=1e-6)

    def test_ntp_oracle_logits_near_zero(self):
        V = 16
        ids = [3, 9]
        z = np.full((2, V), -30.0)
        z[0, ids[1]] = 30.0  # position 0 predicts the single query token
        loss = ntp_loss(ad.tensor(z, dtype=np.float64), ids, [1])
        assert loss.item() < 1e-9

    def test_ntp_empty_query_rejected(self):
        logits = ad.tensor(np.zeros((3, 4)))
        with pytest.raises(EmptyQuery):
            ntp_loss(logits, [1, 2, 3], [])

    def test_ntp_query_at_zero_rejected(self):
        logits = ad.tensor(np.zeros((3, 4)))
        with pytest.raises(EmptyQuery):
            ntp_loss(logits, [1, 2, 3], [0, 1])

    def test_sl_no_markers_rejected(self):
        probs = ad.tensor(np.full((3, 1), 0.5))
        with pytest.raises(NoMarkers):
            schema_linking_loss(probs, [], [])

    def test_sl_label_mismatch_rejected(self):
        probs = ad.tensor(np.full((3, 1), 0.5))
        with pytest.raises(ShapeMismatch):
            schema_linking_loss(probs, [1], [0, 2])

    def test_sl_worked_value(self):
        probs = ad.tensor(np.array([[0.5], [0.5], [0.9]]), dtype=np.float64)
        loss = schema_linking_loss(probs, [1, 0], [0, 1])
        assert loss.item() == pytest.approx(math.log(2), rel=1e-9)

    def test_joint_is_sum(self):
        a = ad.tensor(np.asarray(0.25), dtype=np.float64)
        b = ad.tensor(np.asarray(0.5), dtype=np.float64)
        assert joint_loss(a, b).item() == pytest.approx(0.75)


def drawn_inline(config, seed):
    """The initial parameters by name, drawn as `ModelParams` drew them
    when each was written out inline: weights from one normal(0, 0.02)
    stream in name order, the positions from the sinusoid table, gains 1,
    biases 0 and the linking bias -2, each cast to the config's dtype."""
    rng = np.random.default_rng(seed)
    d, f, dt = config.dim, config.dim * config.ffn_mult, config.np_dtype

    def drawn(*shape):
        return np.asarray(rng.normal(0, 0.02, shape), dtype=dt)

    def const(a):
        return np.asarray(a, dtype=dt)
    out = {"emb": drawn(config.vocab_size, d),
           "pos": const(model._sinusoid_table(config.max_len, d) * 0.1)}
    for i in range(config.layers):
        layer = {"ln1_g": const(np.ones(d)), "ln1_b": const(np.zeros(d)),
                 "wq": drawn(d, d), "wk": drawn(d, d), "wv": drawn(d, d), "wo": drawn(d, d),
                 "ln2_g": const(np.ones(d)), "ln2_b": const(np.zeros(d)),
                 "w1": drawn(d, f), "b1": const(np.zeros(f)),
                 "w2": drawn(f, d), "b2": const(np.zeros(d))}
        out.update({f"layer{i}.{k}": v for k, v in layer.items()})
    out.update({"lnf_g": const(np.ones(d)), "lnf_b": const(np.zeros(d)),
                "link_w": drawn(d, 1), "link_b": const(np.full(1, -2.0))})
    return out


def array_bytes(arrays: dict) -> list:
    return [(k, a.dtype.str, a.shape, a.tobytes()) for k, a in arrays.items()]


class TestCheckpoint:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("kw", [{}, {"layers": 3, "ffn_mult": 2, "max_len": 40}])
    def test_seeded_params_equal_the_inline_draw(self, dtype, kw):
        """`param_shapes` orders the draws, so seeded parameters are byte
        for byte those the inline initialisation drew, in the same order."""
        for seed in (0, 7):
            params = ModelParams(tiny_config(dtype=dtype, **kw), seed=seed)
            named = {k: t.data for k, t in params.named_params().items()}
            assert array_bytes(named) == array_bytes(drawn_inline(params.config, seed))
            assert list(named) == list(model.param_shapes(params.config))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_round_trip_is_byte_equal_per_array(self, tmp_path, dtype):
        params = ModelParams(tiny_config(dtype=dtype), seed=5)
        p = tmp_path / "params.npz"
        params.save(str(p))
        loaded = ModelParams.load(str(p))
        assert loaded.config == params.config
        assert (array_bytes({k: t.data for k, t in loaded.named_params().items()})
                == array_bytes({k: t.data for k, t in params.named_params().items()}))
        assert all(t.requires_grad and t.grad is None for t in loaded.all_params())

    def test_loaded_arrays_are_writeable_and_share_no_memory(self, tmp_path):
        """Training updates parameters in place, so each loaded array is
        its own writeable buffer."""
        p = tmp_path / "params.npz"
        ModelParams(tiny_config(), seed=5).save(str(p))
        arrays = [t.data for t in ModelParams.load(str(p)).all_params()]
        assert all(a.flags.writeable for a in arrays)
        for i, a in enumerate(arrays):
            assert not any(np.may_share_memory(a, b) for b in arrays[i + 1:])

    def test_save_load_round_trip(self, tmp_path):
        params = ModelParams(tiny_config(), seed=7)
        p = tmp_path / "params.npz"
        params.save(str(p))
        loaded = ModelParams.load(str(p))
        assert loaded.config == params.config
        for k, v in params.named_params().items():
            assert np.array_equal(v.data, loaded.named_params()[k].data), k

    def test_loaded_model_same_forward(self, tmp_path):
        params = ModelParams(tiny_config(), seed=8)
        p = tmp_path / "params.npz"
        params.save(str(p))
        loaded = ModelParams.load(str(p))
        ids = [1, 2, 3, 4]
        a = forward(params, ids, build_causal_mask(4)).lm_logits.data
        b = forward(loaded, ids, build_causal_mask(4)).lm_logits.data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("tamper", ["reshape", "drop"])
    def test_load_rejects_tampered_arrays(self, tmp_path, tamper):
        params = ModelParams(tiny_config(), seed=9)
        p = tmp_path / "params.npz"
        params.save(str(p))
        with np.load(str(p)) as z:
            arrays = {k: z[k] for k in z.files}
        if tamper == "reshape":
            arrays["layer1.wq"] = arrays["layer1.wq"][:, :-1]
        else:
            del arrays["layer1.wq"]
        np.savez(str(p), **arrays)
        with pytest.raises(ShapeMismatch, match="layer1.wq"):
            ModelParams.load(str(p))

    def test_load_rejects_arrays_of_another_dtype(self, tmp_path):
        p = tmp_path / "params.npz"
        ModelParams(tiny_config(dtype="float32"), seed=9).save(str(p))
        with np.load(str(p)) as z:
            arrays = {k: z[k] for k in z.files}
        arrays["layer1.wq"] = arrays["layer1.wq"].astype(np.float64)
        np.savez(str(p), **arrays)
        with pytest.raises(ShapeMismatch, match=r"params\.npz: 'layer1\.wq' has dtype float64"):
            ModelParams.load(str(p))

    @pytest.mark.parametrize("stored", [
        {"heads": 3},           # dim 8 is not divisible by 3
        {"width": 16},          # unknown key
        {"vocab_size": None},   # missing key
    ])
    def test_load_rejects_config_modelconfig_rejects(self, tmp_path, stored):
        p = tmp_path / "params.npz"
        ModelParams(tiny_config(), seed=9).save(str(p))
        with np.load(str(p)) as z:
            arrays = {k: z[k] for k in z.files}
        config = {**json.loads(str(arrays["__config__"])), **stored}
        arrays["__config__"] = json.dumps({k: v for k, v in config.items() if v is not None})
        np.savez(str(p), **arrays)
        with pytest.raises(MalformedInput, match="params.npz"):
            ModelParams.load(str(p))


def generate(params, prompt, max_new, stop_id):
    """Greedy decoding of a causally encoded prompt, every prompt token
    visible to the decode rows: the new tokens."""
    encoded = prompt_pass(params, prompt, build_causal_mask(len(prompt)))
    [ids] = greedy_generate(params, prompt, max_new, stop_id, encoded=encoded,
                            attends=np.ones((1, len(prompt)), dtype=bool))
    return ids


class TestGreedyGenerate:
    def test_stops_at_stop_id(self):
        params = ModelParams(tiny_config(), seed=0)
        out = generate(params, [1, 2], max_new=20, stop_id=-1)
        assert len(out) == 20
        # the first token is the stop id: it is kept, and decoding ends
        assert generate(params, [1, 2], max_new=20, stop_id=out[0]) == out[:1]

    def test_deterministic(self):
        params = ModelParams(tiny_config(), seed=0)
        a = generate(params, [1, 2, 3], max_new=5, stop_id=0)
        b = generate(params, [1, 2, 3], max_new=5, stop_id=0)
        assert a == b

    def test_max_len_respected(self):
        params = ModelParams(tiny_config(max_len=6), seed=0)
        out = generate(params, [1, 2, 3], max_new=50, stop_id=-1)
        assert len(out) == 3  # positions 3, 4 and 5
        assert generate(params, [1, 2, 3, 4, 5, 6], max_new=50, stop_id=-1) == []

    def test_no_budget_gives_no_tokens(self):
        params = ModelParams(tiny_config(), seed=0)
        encoded = prompt_pass(params, [1, 2, 3], build_causal_mask(3))
        views = np.ones((2, 3), dtype=bool)
        assert greedy_generate(params, [1, 2, 3], max_new=0, stop_id=-1, encoded=encoded,
                               attends=views) == [[], []]

    def test_empty_prompt_rejected(self):
        params = ModelParams(tiny_config(), seed=0)
        encoded = prompt_pass(params, [1], build_causal_mask(1))
        with pytest.raises(ValueError):
            greedy_generate(params, [], max_new=5, stop_id=0, encoded=encoded,
                            attends=np.ones((1, 0), dtype=bool))


class TestDecodeCache:
    """Decoding builds one mask bias per generate and writes each decode
    row's K/V into buffers in place."""

    PROMPT = [1, 2, 3, 4]

    def encoded(self, params):
        return prompt_pass(params, self.PROMPT, build_causal_mask(len(self.PROMPT)))

    def decode(self, params, encoded, max_new=6):
        [ids] = greedy_generate(params, self.PROMPT, max_new, stop_id=-1, encoded=encoded,
                                attends=np.ones((1, len(self.PROMPT)), dtype=bool))
        return ids

    def test_one_bias_build_per_forward_and_per_generate(self, monkeypatch):
        params = ModelParams(tiny_config(layers=2), seed=0)
        builds = []
        build = ad.additive_bias

        def spy(visible, dtype):
            builds.append(visible.shape)
            return build(visible, dtype)

        monkeypatch.setattr(ad, "additive_bias", spy)
        forward(params, self.PROMPT, build_causal_mask(len(self.PROMPT)))
        assert builds == [(4, 4)]  # the tape forward: one bias for both layers
        builds.clear()
        encoded = self.encoded(params)
        assert builds == [(4, 4)]  # the prompt pass: one bias for both layers
        builds.clear()
        assert len(self.decode(params, encoded)) == 6
        assert builds == [(1, 10)]  # one row over prompt and max_new, for 5 decode rows

    def test_a_budget_past_max_len_sizes_the_buffers_to_max_len(self, monkeypatch):
        """A decode budget beyond max_len gives the tokens the reachable
        budget gives, and builds its bias and K/V buffers no larger: the
        traced peak stays that of the reachable budget (a 10,000-token
        budget would otherwise hold about 5 MB of K/V)."""
        params = ModelParams(tiny_config(dim=32, max_len=64), seed=0)
        encoded = self.encoded(params)
        reachable = 64 - len(self.PROMPT)
        want = self.decode(params, encoded, reachable)
        assert len(want) == reachable
        builds = []
        build = ad.additive_bias
        monkeypatch.setattr(ad, "additive_bias",
                            lambda visible, dtype: builds.append(visible.shape)
                            or build(visible, dtype))
        assert self.decode(params, encoded, 10_000) == want
        assert builds == [(1, 64)]
        peaks = {max_new: traced_peak(lambda: self.decode(params, encoded, max_new))
                 for max_new in (reachable, 10_000)}
        assert peaks[10_000] <= peaks[reachable] + 4096, peaks

    def test_decode_rows_run_no_concat_and_no_linking_head(self, monkeypatch):
        params = ModelParams(tiny_config(), seed=0)
        encoded = self.encoded(params)
        calls = []

        def spy(name, op):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return op(*args, **kwargs)
            return wrapped

        for name in ("concat", "sigmoid"):
            monkeypatch.setattr(ad, name, spy(name, getattr(ad, name)))
        assert len(self.decode(params, encoded)) == 6
        assert calls == []

    def test_decode_step_contract_checked(self):
        params = ModelParams(tiny_config(), seed=0)
        encoded = self.encoded(params)
        bias = np.zeros((1, 5), dtype=params.config.np_dtype)
        for encode in (forward, prompt_pass):
            with pytest.raises(ShapeMismatch):  # a prompt pass takes no cached columns
                encode(params, [5], np.ones((1, 5), dtype=bool))
        with pytest.raises(ShapeMismatch):  # buffers without a row for the new token
            forward_values(params, np.array([5]), bias, kv_buffers(encoded.kv, 4))
        with pytest.raises(ShapeMismatch):  # buffers of two sequences, one row
            forward_values(params, np.array([5]), bias, kv_buffers(encoded.kv, 5, lead=(2,)))
        with pytest.raises(ShapeMismatch):  # one row each for two sequences
            forward_values(params, np.array([[5], [6]]), bias,
                           kv_buffers(encoded.kv, 5, lead=(2,)))
        with pytest.raises(ShapeMismatch):  # more new rows than positions
            forward_values(params, np.array([5, 6]), bias[:, :1].repeat(2, axis=0),
                           kv_buffers(encoded.kv, 5))
        short = ModelParams(tiny_config(max_len=4), seed=0)
        with pytest.raises(ShapeMismatch):  # a position at max_len
            forward_values(short, np.array([5]), bias, kv_buffers(encoded.kv, 5))

    def test_decode_step_memory_does_not_grow_with_the_past(self):
        """One decode step's traced peak, a stack of one sequence, grows
        with the prompt length by about the heads x 1 x m score row, far
        less than one copy of a layer's past K would add (concatenating the
        past made two per layer)."""
        cfg = tiny_config(dim=32, heads=2, max_len=128)
        params = ModelParams(cfg, seed=0)
        peaks = {}
        for n in (8, 72):
            prompt = list(range(1, 15)) * 6
            encoded = prompt_pass(params, prompt[:n], build_causal_mask(n))
            past = kv_buffers(encoded.kv, n + 2, lead=(1,))
            bias = np.zeros((1, 1, n + 2), dtype=cfg.np_dtype)
            forward_values(params, np.array([[5]]), bias[..., :n + 1], past)  # warm-up
            peaks[n] = traced_peak(
                lambda: forward_values(params, np.array([[6]]), bias[..., :n + 2], past))
        one_k_copy = (72 - 8) * cfg.dim * 4
        assert peaks[72] - peaks[8] < one_k_copy / 4, peaks


class TestDecodeStep:
    """A decode step of `forward_values` runs on plain arrays, byte for
    byte what the tape-based step (`tape_decode_step`) gave, and a stack of
    one sequence rounds as the 2-D rows of the prompt pass's layout."""

    PROMPT = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]

    @staticmethod
    def lively_params(dtype):
        """Desk-width params drawn around N(0, 0.3), so that the products
        and softmaxes round as a trained model's do."""
        params = ModelParams(ModelConfig(vocab_size=64, dim=80, heads=4, layers=2,
                                         max_len=64, dtype=dtype), seed=0)
        rng = np.random.default_rng(5)
        for p in params.all_params():
            p.data = rng.normal(0, 0.3, p.data.shape).astype(p.data.dtype)
        return params

    def views(self, sequences, steps):
        """B random views of the prompt, each then seeing every decode
        position, and `steps` tokens per sequence."""
        n = len(self.PROMPT)
        rng = np.random.default_rng(sequences)
        visible = np.ones((sequences, n + steps), dtype=bool)
        visible[:, :n] = rng.random((sequences, n)) > 0.4
        visible[:, 0] = True
        return visible, rng.integers(0, 64, (steps, sequences))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("sequences", [1, 4])
    def test_logits_and_kv_byte_equal_to_the_tape_step(self, dtype, sequences):
        params = self.lively_params(dtype)
        n, steps = len(self.PROMPT), 6
        encoded = prompt_pass(params, self.PROMPT, build_causal_mask(n))
        visible, tokens = self.views(sequences, steps)
        bias = ad.additive_bias(visible, params.config.np_dtype)[:, None]
        past = kv_buffers(encoded.kv, n + steps, (sequences,))
        reference = kv_buffers(encoded.kv, n + steps, (sequences,))
        for t in range(steps):
            m = n + t + 1
            got = forward_values(params, tokens[t][:, None], bias[..., :m],
                                 past) @ params.emb.data.T
            want = tape_decode_step(params, tokens[t], visible[:, :m], reference)
            assert got.shape == (sequences, 1, 64)
            assert got.tobytes() == want.tobytes()
        for (k, v), (k_ref, v_ref) in zip(past, reference):
            assert k.tobytes() == k_ref.tobytes() and v.tobytes() == v_ref.tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_a_stack_of_one_rounds_as_the_2d_rows(self, dtype):
        """One sequence decoded as a 1 x 1 x d stack gives, step after step,
        the hidden row and K/V a 2-D step over buffers of the same contents
        gives, byte for byte: one decode layout serves B = 1."""
        params = self.lively_params(dtype)
        n, steps = len(self.PROMPT), 6
        encoded = prompt_pass(params, self.PROMPT, build_causal_mask(n))
        visible, tokens = self.views(1, steps)
        bias = ad.additive_bias(visible, params.config.np_dtype)
        flat = kv_buffers(encoded.kv, n + steps)
        stacked = kv_buffers(encoded.kv, n + steps, (1,))
        for t in range(steps):
            m = n + t + 1
            want = forward_values(params, tokens[t], bias[:, :m], flat)
            got = forward_values(params, tokens[t][:, None], bias[:, None, :m], stacked)
            assert want.shape == (1, 80) and got.shape == (1, 1, 80)
            assert got.tobytes() == want.tobytes()
        for (k, v), (k_flat, v_flat) in zip(stacked, flat):
            assert k.tobytes() == k_flat.tobytes() and v.tobytes() == v_flat.tobytes()

    @pytest.mark.parametrize("sequences", [1, 3])
    def test_no_tape_op_runs_while_decoding(self, monkeypatch, sequences):
        """No autodiff op runs and no Tensor is made by the prompt pass or
        the decode steps: inference computes on arrays alone."""
        params = self.lively_params("float32")
        made = tape_spy(monkeypatch)
        encoded = prompt_pass(params, self.PROMPT, build_causal_mask(len(self.PROMPT)))
        views = np.ones((sequences, len(self.PROMPT)), dtype=bool)
        seqs = greedy_generate(params, self.PROMPT, 8, -1, encoded=encoded, attends=views)
        assert [len(seq) for seq in seqs] == [8] * sequences
        assert made == []
        forward(params, self.PROMPT, build_causal_mask(len(self.PROMPT)))
        assert "op" in made and "tensor" in made  # the spies see the tape forward


class TestStackedDecode:
    """One greedy_generate decodes B views of one prompt as a B x 1 x d
    stack; each sequence's tokens and decode-row logits are byte for byte
    those of its own single-view decode."""

    PROMPT = [3, 1, 4, 1, 5, 9, 2, 6]

    def views(self):
        rng = np.random.default_rng(1)
        views = rng.random((4, len(self.PROMPT))) > 0.5
        views[-1] = True  # the all-columns fallback view
        return views

    def decode(self, params, views, stop_id, max_new, monkeypatch):
        """Each sequence's ids, and each decode step's logits."""
        steps = []
        step = model.forward_values

        def spy(*args):
            hidden = step(*args)
            steps.append(hidden @ params.emb.data.T)
            return hidden

        encoded = prompt_pass(params, self.PROMPT, build_causal_mask(len(self.PROMPT)))
        with monkeypatch.context() as patch:  # only the decode steps
            patch.setattr(model, "forward_values", spy)
            return greedy_generate(params, self.PROMPT, max_new, stop_id, encoded=encoded,
                                   attends=views), steps

    @staticmethod
    def lively_params(**kw):
        """Tiny params drawn from N(0, 1), so that what a decode row sees
        changes what it decodes."""
        params = ModelParams(tiny_config(vocab_size=40, dim=16, **kw), seed=0)
        rng = np.random.default_rng(0)
        for p in params.all_params():
            p.data = rng.normal(0, 1, p.data.shape).astype(p.data.dtype)
        return params

    def stacked_equals_single(self, params, stop_id, max_new, monkeypatch):
        views = self.views()
        stacked, steps = self.decode(params, views, stop_id, max_new, monkeypatch)
        assert len(stacked) == len(views)
        for b, view in enumerate(views):
            [alone], alone_steps = self.decode(params, view[None], stop_id, max_new,
                                               monkeypatch)
            assert stacked[b] == alone
            assert len(steps) >= len(alone_steps)
            for step, alone_step in zip(steps, alone_steps):
                assert step.shape == (len(views), 1, params.config.vocab_size)
                assert alone_step.shape == (1, 1, params.config.vocab_size)
                assert step[b].tobytes() == alone_step[0].tobytes()
        return stacked

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_sequences_stopping_at_different_steps(self, monkeypatch, dtype):
        params = self.lively_params(dtype=dtype)
        endless = self.stacked_equals_single(params, -1, 12, monkeypatch)
        assert [len(seq) for seq in endless] == [12] * 4
        assert len({tuple(seq) for seq in endless}) > 1  # the views decode differently

        def stopped_length(seq, stop):
            return seq.index(stop) + 1 if stop in seq else len(seq)

        # a stop id that ends the sequences at different steps
        stop = next(t for t in sorted({t for seq in endless for t in seq})
                    if len({stopped_length(seq, t) for seq in endless}) > 1)
        stopped = self.stacked_equals_single(params, stop, 12, monkeypatch)
        assert [len(seq) for seq in stopped] == [stopped_length(seq, stop)
                                                 for seq in endless]

    def test_max_len_cuts_every_sequence(self, monkeypatch):
        params = self.lively_params(max_len=len(self.PROMPT) + 3)
        stacked = self.stacked_equals_single(params, -1, 10, monkeypatch)
        assert [len(seq) for seq in stacked] == [3] * 4

    @pytest.mark.parametrize("d,k,transposed", [(80, 80, False), (80, 320, False),
                                                (320, 80, False), (80, 185, True)])
    def test_only_a_stack_keeps_one_row_products(self, d, k, transposed):
        """The reason decode rows run as B x 1 x d: numpy's stacked product
        runs each (1, d) item alone, rounding it as the one-row product a
        single decode makes, while the same rows flattened to B x d are
        rounded as one block and differ (seen with OpenBLAS). The shapes are
        DESK_MODEL's projections and FFN, and its tied embedding, read
        transposed."""
        rng = np.random.default_rng(d + k)
        w = rng.normal(0, 0.1, (k, d) if transposed else (d, k)).astype(np.float32)
        w = w.T if transposed else w
        flat_differs = 0
        for trial in range(20):
            rows = rng.normal(0, 1, (2 + trial % 5, 1, d)).astype(np.float32)
            alone = np.stack([row @ w for row in rows])
            assert (rows @ w).tobytes() == alone.tobytes()
            flat_differs += (rows[:, 0] @ w)[:, None].tobytes() != alone.tobytes()
        assert flat_differs > 0
