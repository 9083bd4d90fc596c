import math

import numpy as np
import pytest

from joltsql import autodiff as ad
from joltsql.errors import EmptyQuery, NoMarkers, ShapeMismatch
from joltsql.masks import build_causal_mask, build_joint_mask
from joltsql.model import (ModelConfig, ModelParams, forward, greedy_generate,
                           joint_loss, ntp_loss, schema_linking_loss)
from joltsql.tokenizer import SegmentMap


def tiny_config(**kw):
    defaults = dict(vocab_size=16, dim=8, heads=2, layers=2, max_len=32)
    defaults.update(kw)
    return ModelConfig(**defaults)


def tiny_segment():
    return SegmentMap(n=10, prefix={0, 1, 2}, schema={3, 4, 5, 6}, query={7, 8, 9},
                      markers={4, 6}, table_elements={}, marker_columns=[],
                      gt_schema={3}, noisy_schema={5})


class TestForward:
    def test_output_shapes(self):
        cfg = tiny_config()
        params = ModelParams(cfg, seed=0)
        ids = [1, 2, 3, 4, 5]
        out = forward(params, ids, build_causal_mask(5))
        assert out.hidden.shape == (5, cfg.dim)
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

    def test_too_long_rejected(self):
        params = ModelParams(tiny_config(max_len=4), seed=0)
        with pytest.raises(ShapeMismatch):
            forward(params, [1] * 5, build_causal_mask(5))

    def test_mask_size_mismatch_rejected(self):
        params = ModelParams(tiny_config(), seed=0)
        with pytest.raises(ShapeMismatch):
            forward(params, [1, 2, 3], build_causal_mask(4))

    def test_masked_influence(self):
        """Changing a token invisible to position i leaves H[i] bit-identical."""
        params = ModelParams(tiny_config(), seed=1)
        seg = tiny_segment()
        mask = build_joint_mask(seg)
        ids = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        base = forward(params, ids, mask)
        # query token 8 is invisible to every prefix/schema row and to query row 7
        changed = list(ids)
        changed[8] = 15
        pert = forward(params, changed, mask)
        for i in sorted(seg.prefix | seg.schema | {7}):
            assert np.array_equal(base.hidden.data[i], pert.hidden.data[i]), i
        # marker rows (4, 6) are invisible to non-marker rows
        changed2 = list(ids)
        # cannot change the marker token itself (it is structural); instead
        # change a schema token invisible to the prefix rows: schema is not
        # visible to prefix rows at all
        changed2[5] = 14
        pert2 = forward(params, changed2, mask)
        for i in sorted(seg.prefix):
            assert np.array_equal(base.hidden.data[i], pert2.hidden.data[i]), i

    def test_schema_permutation_invariance(self):
        """Swapping two non-marker schema tokens together with their position
        ids leaves marker probabilities unchanged (order-free schema rows)."""
        params = ModelParams(tiny_config(), seed=2)
        seg = tiny_segment()
        mask = build_joint_mask(seg)
        ids = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        positions = list(range(10))
        base = forward(params, ids, mask, positions=positions)
        # swap schema positions 3 and 5 (both non-marker) along with ids
        ids2, pos2 = list(ids), list(positions)
        ids2[3], ids2[5] = ids2[5], ids2[3]
        pos2[3], pos2[5] = pos2[5], pos2[3]
        # the mask is unchanged: rows 3 and 5 have identical visibility rows,
        # and columns 3/5 are identically visible to every row... except query
        # rows, where gt/noisy membership is positional; swap those too
        seg2 = SegmentMap(n=10, prefix={0, 1, 2}, schema={3, 4, 5, 6},
                          query={7, 8, 9}, markers={4, 6}, table_elements={},
                          marker_columns=[], gt_schema={5}, noisy_schema={3})
        pert = forward(params, ids2, build_joint_mask(seg2), positions=pos2)
        np.testing.assert_allclose(pert.marker_probs.data[[4, 6]],
                                   base.marker_probs.data[[4, 6]],
                                   rtol=0, atol=1e-6)

    def test_custom_positions_change_output(self):
        params = ModelParams(tiny_config(), seed=0)
        ids = [1, 2, 3]
        a = forward(params, ids, build_causal_mask(3)).lm_logits.data
        b = forward(params, ids, build_causal_mask(3), positions=[5, 6, 7]).lm_logits.data
        assert not np.array_equal(a, b)


class TestLosses:
    def setup_method(self):
        self.params = ModelParams(tiny_config(), seed=3)
        self.seg = tiny_segment()
        self.ids = [1, 2, 3, 4, 5, 6, 7, 8, 9, 2]
        self.mask = build_joint_mask(self.seg)

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


class TestCheckpoint:
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


class TestGreedyGenerate:
    def test_stops_at_stop_id(self):
        params = ModelParams(tiny_config(), seed=0)
        out = greedy_generate(params, [1, 2], max_new=20, stop_id=-1)
        assert len(out) <= 22
        out2 = greedy_generate(params, [1, 2], max_new=20, stop_id=out[2])
        assert out2[2] == out[2] and len(out2) == 3

    def test_deterministic(self):
        params = ModelParams(tiny_config(), seed=0)
        a = greedy_generate(params, [1, 2, 3], max_new=5, stop_id=0)
        b = greedy_generate(params, [1, 2, 3], max_new=5, stop_id=0)
        assert a == b

    def test_max_len_respected(self):
        params = ModelParams(tiny_config(max_len=6), seed=0)
        out = greedy_generate(params, [1, 2, 3], max_new=50, stop_id=-1)
        assert len(out) <= 6

    def test_empty_prompt_rejected(self):
        params = ModelParams(tiny_config(), seed=0)
        with pytest.raises(ValueError):
            greedy_generate(params, [], max_new=5, stop_id=0)

    def test_position_continuation(self):
        """Generation with original position ids matches generation over the
        same layout laid out contiguously."""
        params = ModelParams(tiny_config(max_len=32), seed=4)
        prompt = [1, 2, 3]
        plain = greedy_generate(params, prompt, max_new=4, stop_id=-1)
        explicit = greedy_generate(params, prompt, max_new=4, stop_id=-1,
                                   positions=[0, 1, 2], first_new_position=3)
        assert plain == explicit
