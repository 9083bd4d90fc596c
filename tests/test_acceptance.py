"""Acceptance suite: one test per shipping criterion, each printing a single
PASS/FAIL line, and a check that the benchmark's desk workloads run
criterion 10's recipe. Criteria 9 and 10 train real models and dominate
runtime."""
import importlib
import json
import math
import os
import time

import numpy as np
import pytest

from joltsql import autodiff as ad
from joltsql.autodiff import additive_bias
from joltsql.evaluation import evaluate, sweep_csv, threshold_sweep
from joltsql.masks import build_joint_mask
from joltsql.metrics import pr_auc, roc_auc
from joltsql.model import (ModelConfig, ModelParams, _block, forward, ntp_loss,
                           schema_linking_loss)
from joltsql.pipeline import TrainConfig, train
from joltsql.sampling import draw_noise_count, sample_noisy
from joltsql.sqlscope import extract_ground_truth
from joltsql.tokenizer import SegmentMap

# training configuration for the generalization run (criterion 10); epochs
# and corpus size are fixed by the criterion, the rest is recipe
DESK_TRAIN = dict(epochs=3, learning_rate=1e-3, grad_accum=1, seed=0)
DESK_MODEL = dict(dim=80, layers=2, heads=4)
DESK_THRESHOLD = 0.05

# training configuration for the overfit run (criterion 9): 8 examples,
# d=64 L=2, ~300 steps at batch 1; noise injection off since the goal is
# memorization, not generalization
OVERFIT_MODEL = dict(dim=64, layers=2, heads=4)
OVERFIT_EPOCHS = 38  # 8 examples x 38 epochs = 304 steps
OVERFIT_TRAIN = dict(learning_rate=2e-3, grad_accum=1, seed=0,
                     noise_mode="none")


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")


def random_segment(rng, n_max=64):
    n = int(rng.integers(3, n_max + 1))
    cut1 = int(rng.integers(1, n - 1))
    cut2 = int(rng.integers(cut1 + 1, n))
    schema = set(range(cut1, cut2))
    markers = set(int(i) for i in rng.choice(
        sorted(schema), size=int(rng.integers(0, len(schema) + 1)), replace=False))
    non_marker = sorted(schema - markers)
    gt = set(int(i) for i in rng.choice(
        non_marker, size=int(rng.integers(0, len(non_marker) + 1)),
        replace=False)) if non_marker else set()
    rest = sorted(set(non_marker) - gt)
    noisy = set(int(i) for i in rng.choice(
        rest, size=int(rng.integers(0, len(rest) + 1)),
        replace=False)) if rest else set()
    seg = SegmentMap(n=n, schema_start=cut1, query_start=cut2,
                     markers=markers, table_elements={}, marker_columns=[])
    return seg, gt | noisy


def oracle_visible(seg, attended):
    n = seg.n
    out = np.zeros((n, n), dtype=bool)
    for i in range(n):
        if i in seg.prefix:
            allowed = {j for j in seg.prefix if j <= i}
        elif i in seg.markers:
            allowed = set(seg.prefix) | set(seg.schema)
        elif i in seg.schema:
            allowed = (set(seg.prefix) | set(seg.schema)) - seg.markers
        else:
            allowed = ((set(seg.prefix) | attended | {j for j in seg.query if j <= i})
                       - seg.markers)
        allowed.add(i)
        out[i, sorted(allowed)] = True
    return out


# ------------------------------------------------------------------ criteria

def test_criterion_01_mask_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.time()
    mismatches = 0
    for _ in range(100):
        seg, attended = random_segment(rng)
        if not np.array_equal(build_joint_mask(seg, attended),
                              oracle_visible(seg, attended)):
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 5.0
    report(1, "mask-oracle equivalence", ok,
           f"{mismatches} mismatches over 100 segmentations in {elapsed:.2f}s")
    assert ok


def test_criterion_02_marker_rule_suite():
    rng = np.random.default_rng(1002)
    failures = 0
    for _ in range(1000):
        seg, attended = random_segment(rng, n_max=24)
        vis = build_joint_mask(seg, attended)
        non_marker = set(range(seg.n)) - seg.markers
        sch = sorted(set(seg.schema) - seg.markers)
        ok = (
            all(not vis[i, m] for m in seg.markers for i in non_marker if i != m)
            and all(vis[a, b] for a in seg.markers for b in seg.markers)
            and all(vis[a, b] and vis[b, a] for a in sch for b in sch)
            and all(not vis[i, j] for i in seg.query for j in seg.query if j > i)
        )
        if not ok:
            failures += 1
    report(2, "marker-rule suite", failures == 0,
           f"{failures} failures over 1000 randomized cases")
    assert failures == 0


def test_criterion_03_gradient_checks():
    h = 1e-5
    rng = np.random.default_rng(1003)

    def fd(loss_fn, x):
        g = np.zeros_like(x)
        flat, gflat = x.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        return g

    def check(build, shape, n=10):
        worst = 0.0
        for _ in range(n):
            x = rng.normal(0, 1, shape)
            t = ad.tensor(x, requires_grad=True, dtype=np.float64)
            loss = build(t)
            ad.backward(loss)
            want = fd(lambda: float(build(ad.tensor(t.data, dtype=np.float64)).data),
                      t.data)
            denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(want)), 1.0)
            worst = max(worst, float(np.max(np.abs(t.grad - want) / denom)))
        return worst

    t0 = time.time()
    visible = np.ones((3, 3), dtype=bool)
    causal_bias = additive_bias(np.tri(3, dtype=bool), np.float64)
    w = ad.tensor(rng.normal(0, 1, (3, 3)), dtype=np.float64)
    b = ad.tensor(rng.normal(0, 1, (4, 3)), dtype=np.float64)
    gain = ad.tensor(rng.normal(1, 0.2, 4), dtype=np.float64)
    bias = ad.tensor(np.zeros(4), dtype=np.float64)
    y = np.array([[1.0], [0.0], [1.0]])
    idx = np.array([0, 2, 1])
    # one transformer layer as its tape op, under a causal mask, with every
    # parameter drawn at random so that gains, biases and the ReLU all vary
    block_cfg = ModelConfig(vocab_size=4, dim=4, heads=2, layers=1, max_len=4, dtype="float64")
    layer = {k: ad.tensor(rng.normal(1.0 if k.endswith("_g") else 0.0, 0.5, p.shape),
                          requires_grad=True, dtype=np.float64)
             for k, p in ModelParams(block_cfg).layers[0].items()}

    def block_value(t):
        return ad.sum_all(ad.mul(_block(t, layer, causal_bias, 2), ad.transpose(b)))

    ops = {
        "matmul": (lambda t: ad.sum_all(ad.matmul(t, b)), (5, 4)),
        "add": (lambda t: ad.sum_all(ad.mul(ad.add(t, b), ad.add(t, b))), (4, 3)),
        "mul": (lambda t: ad.sum_all(ad.mul(t, ad.mul(t, b))), (4, 3)),
        "scale": (lambda t: ad.sum_all(ad.scale(ad.mul(t, t), 1.7)), (3, 3)),
        "transpose": (lambda t: ad.sum_all(ad.matmul(ad.transpose(t), b)), (4, 5)),
        "concat": (lambda t: ad.sum_all(ad.mul(
            ad.concat([ad.slice_cols(t, 0, 1), ad.slice_cols(t, 1, 3)], axis=1),
            ad.concat([ad.slice_cols(t, 0, 1), ad.slice_cols(t, 1, 3)], axis=1))), (3, 3)),
        "slice_cols": (lambda t: ad.sum_all(ad.mul(ad.slice_cols(t, 1, 3),
                                                   ad.slice_cols(t, 1, 3))), (4, 4)),
        "gather_rows": (lambda t: ad.sum_all(ad.mul(ad.gather_rows(t, idx),
                                                    ad.gather_rows(t, idx))), (3, 4)),
        "sigmoid": (lambda t: ad.sum_all(ad.sigmoid(t)), (4, 2)),
        "masked_softmax": (lambda t: ad.sum_all(
            ad.mul(ad.masked_softmax(t, visible), w)), (3, 3)),
        "layer_norm": (lambda t: ad.sum_all(ad.mul(ad.layer_norm(t, gain, bias),
                                                   ad.layer_norm(t, gain, bias))), (3, 4)),
        "cross_entropy_rows": (lambda t: ad.cross_entropy_rows(t, idx), (3, 5)),
        "relu": (lambda t: ad.sum_all(ad.mul(ad.relu(t), ad.relu(t))), (4, 3)),
        "block": (block_value, (3, 4)),
    }
    worst_overall, worst_name = 0.0, ""
    for name, (build, shape) in ops.items():
        worst = check(build, shape)
        if worst > worst_overall:
            worst_overall, worst_name = worst, name

    # the block's parameters, at one random input
    x = ad.tensor(rng.normal(0, 1, (3, 4)), dtype=np.float64)
    for p in layer.values():
        p.grad = None
    ad.backward(block_value(x))
    for name, p in layer.items():
        want = fd(lambda: float(block_value(x).data), p.data)
        denom = np.maximum(np.maximum(np.abs(p.grad), np.abs(want)), 1.0)
        err = float(np.max(np.abs(p.grad - want) / denom))
        if err > worst_overall:
            worst_overall, worst_name = err, f"block:{name}"

    # bce on probabilities, away from the clamp
    def bce_build(t):
        return ad.bce_loss(t, y)
    for _ in range(10):
        x = rng.uniform(0.05, 0.95, (3, 1))
        t = ad.tensor(x, requires_grad=True, dtype=np.float64)
        ad.backward(bce_build(t))
        want = fd(lambda: float(bce_build(ad.tensor(t.data, dtype=np.float64)).data), t.data)
        denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(want)), 1.0)
        err = float(np.max(np.abs(t.grad - want) / denom))
        if err > worst_overall:
            worst_overall, worst_name = err, "bce_loss"

    # full joint loss through a 1-layer model
    cfg = ModelConfig(vocab_size=12, dim=8, heads=2, layers=1, max_len=16,
                      dtype="float64")
    params = ModelParams(cfg, seed=3)
    seg = SegmentMap(n=9, schema_start=2, query_start=6,
                     markers={3, 5}, table_elements={}, marker_columns=[])
    ids = [1, 5, 6, 3, 7, 3, 8, 9, 2]
    mask = build_joint_mask(seg, {2, 4})

    def joint_value():
        out = forward(params, ids, mask)
        l_sl = schema_linking_loss(out.marker_probs, [1, 0], [3, 5])
        l_ntp = ntp_loss(out.lm_logits, ids, [6, 7, 8])
        return ad.add_scalars(l_sl, l_ntp)

    loss = joint_value()
    ad.backward(loss)
    for name, p in params.named_params().items():
        if p.grad is None:
            continue
        want = fd(lambda: float(joint_value().data), p.data)
        denom = np.maximum(np.maximum(np.abs(p.grad), np.abs(want)), 1.0)
        err = float(np.max(np.abs(p.grad - want) / denom))
        if err > worst_overall:
            worst_overall, worst_name = err, f"joint:{name}"
    elapsed = time.time() - t0
    ok = worst_overall < 1e-4 and elapsed < 60.0
    report(3, "gradient checks", ok,
           f"max rel err {worst_overall:.2e} ({worst_name}) in {elapsed:.1f}s")
    assert ok


def test_criterion_04_loss_masking_bit_exact():
    cfg = ModelConfig(vocab_size=16, dim=8, heads=2, layers=2, max_len=32)
    params = ModelParams(cfg, seed=3)
    seg = SegmentMap(n=10, schema_start=3, query_start=7,
                     markers={4, 6}, table_elements={}, marker_columns=[])
    ids = [1, 2, 3, 4, 5, 6, 7, 8, 9, 2]
    out = forward(params, ids, build_joint_mask(seg, {3, 5}))
    qpos = sorted(seg.query)
    ntp_base = ntp_loss(out.lm_logits, ids, qpos).data
    pert = ad.tensor(out.lm_logits.data.copy())
    feeding = {i - 1 for i in qpos}
    for row in range(10):
        if row not in feeding:
            pert.data[row] += 777.0
    ntp_again = ntp_loss(pert, ids, qpos).data
    sl_base = schema_linking_loss(out.marker_probs, [1, 0], [4, 6]).data
    pert2 = ad.tensor(out.marker_probs.data.copy())
    for row in range(10):
        if row not in seg.markers:
            pert2.data[row] = 0.31
    sl_again = schema_linking_loss(pert2, [1, 0], [4, 6]).data
    ok = (ntp_base.tobytes() == ntp_again.tobytes()
          and sl_base.tobytes() == sl_again.tobytes())
    report(4, "loss-masking bit-exactness", ok,
           "non-query logits and non-marker probabilities are inert")
    assert ok


def test_criterion_05_sampler_statistics():
    rng = np.random.default_rng(1005)
    # bounds
    bounds_ok = all(
        0 <= draw_noise_count(n, beta, rng) <= math.floor(beta * n)
        for _ in range(5000)
        for n, beta in [(int(rng.integers(1, 40)), float(rng.uniform(0.05, 0.95)))]
    )
    # exclusion: 100k draws from a pool can only yield pool members
    pool = [3, 8, 11]
    seen = set()
    for _ in range(100_000):
        seen |= sample_noisy(pool, [1.0, 1.0, 1.0], 1, rng)
    exclusion_ok = seen <= set(pool)
    # rank correlation with well-separated weights, k=1, 10k draws
    weights = [1.0, 2.0, 4.0, 8.0, 16.0]
    counts = np.zeros(5)
    for _ in range(10_000):
        (x,) = sample_noisy([0, 1, 2, 3, 4], weights, 1, rng)
        counts[x] += 1
    corr = float(np.corrcoef(np.argsort(np.argsort(counts)),
                             np.argsort(np.argsort(weights)))[0, 1])
    # uniform k frequencies within 2%
    bound = math.floor(0.5 * 10)
    kc = np.zeros(bound + 1)
    for _ in range(30_000):
        kc[draw_noise_count(10, 0.5, rng)] += 1
    max_dev = float(np.max(np.abs(kc / 30_000 - 1 / (bound + 1))))
    ok = bounds_ok and exclusion_ok and corr > 0.99 and max_dev < 0.02
    report(5, "sampler statistics", ok,
           f"bounds={bounds_ok}, exclusion={exclusion_ok}, "
           f"rank corr={corr:.4f}, max k dev={max_dev:.4f}")
    assert ok


def test_criterion_06_weight_cache_contract(desk_corpus, tmp_path):
    _, vocab, train_set, _ = desk_corpus()
    subset = train_set[:20]
    mc = ModelConfig(vocab_size=len(vocab), dim=16, heads=2, layers=1)
    tc = dict(learning_rate=1e-3, grad_accum=1, seed=0)
    one = train(subset, mc, TrainConfig(epochs=1, **tc))
    three = train(subset, mc, TrainConfig(epochs=3, **tc))
    one.cache.save(str(tmp_path / "one.json"))
    three.cache.save(str(tmp_path / "three.json"))
    captures_ok = (one.cache.capture_count == len(subset)
                   and three.cache.capture_count == len(subset))
    stable_ok = ((tmp_path / "one.json").read_bytes()
                 == (tmp_path / "three.json").read_bytes())
    ok = captures_ok and stable_ok
    report(6, "weight-cache contract", ok,
           f"captures 1-epoch={one.cache.capture_count}/{len(subset)}, "
           f"3-epoch={three.cache.capture_count}/{len(subset)} "
           f"(no recaptures after epoch 1), epoch-1 snapshot byte-stable "
           f"across 3 epochs={stable_ok}")
    assert ok


def test_criterion_07_extractor_fixtures(concert_schema):
    from test_sqlscope import HAND_LABELED, as_pairs
    total = len(HAND_LABELED)
    correct = sum(
        1 for sql, expected in HAND_LABELED
        if extract_ground_truth(sql, concert_schema) == as_pairs(expected))
    ok = total >= 25 and correct == total
    report(7, "extractor fixtures", ok, f"{correct}/{total} hand-labeled queries")
    assert ok


def test_criterion_08_metric_oracles():
    rng = np.random.default_rng(1008)

    def oracle_roc(scores, labels):
        pairs = [(p, q) for p, yp in zip(scores, labels) if yp == 1
                 for q, yq in zip(scores, labels) if yq == 0]
        return sum(1.0 if p > q else 0.5 if p == q else 0.0
                   for p, q in pairs) / len(pairs)

    def oracle_ap(scores, labels):
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        n_pos, ap, tp = sum(labels), 0.0, 0
        for rank, i in enumerate(order, start=1):
            if labels[i]:
                tp += 1
                ap += (tp / rank) / n_pos
        return ap

    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        scores = [float(s) for s in rng.integers(0, 10, n) / 10.0]
        labels = [int(x) for x in rng.integers(0, 2, n)]
        if sum(labels) == 0:
            labels[0] = 1
        if sum(labels) == n:
            labels[-1] = 0
        if roc_auc(scores, labels) != oracle_roc(scores, labels):
            mismatches += 1
        if abs(pr_auc(scores, labels) - oracle_ap(scores, labels)) > 1e-12:
            mismatches += 1
    worked_ok = (roc_auc([0.9, 0.8, 0.1], [1, 0, 1]) == 0.5
                 and abs(pr_auc([0.9, 0.8, 0.1], [1, 0, 1]) - 5 / 6) < 1e-12)
    ok = mismatches == 0 and worked_ok
    report(8, "metric oracles", ok,
           f"{mismatches} oracle mismatches over 200 instances; "
           f"worked values 0.5 and 5/6 {'reproduced' if worked_ok else 'WRONG'}")
    assert ok


def test_criterion_09_overfit_smoke(desk_corpus):
    generated, vocab, train_set, _ = desk_corpus()
    subset = train_set[:8]
    t0 = time.time()
    res = train(subset, ModelConfig(vocab_size=len(vocab), **OVERFIT_MODEL),
                TrainConfig(epochs=OVERFIT_EPOCHS, **OVERFIT_TRAIN))
    ev = evaluate(res.params, subset, vocab, generated.db_paths, threshold=0.05)
    elapsed = time.time() - t0
    tail = res.log[-8:]
    l_sl = float(np.mean([e["l_sl"] for e in tail]))
    l_ntp = float(np.mean([e["l_ntp"] for e in tail]))
    reproduced = sum(1 for pe, ex in zip(ev.per_example, subset) if pe["sql"] == ex.gold_sql)
    ok = (l_sl < 0.05 and l_ntp < 0.1 and ev.recall == 1.0 and ev.ex == 1.0
          and reproduced == 8 and elapsed < 300.0)
    report(9, "overfit smoke", ok,
           f"L_SL={l_sl:.4f} (<0.05), L_NTP={l_ntp:.4f} (<0.1), "
           f"recall={ev.recall:.2f}, EX={ev.ex:.2f}, "
           f"reproduced {reproduced}/8 gold SQLs in {elapsed:.0f}s")
    assert ok


def test_criterion_10_desk_scale_generalization(desk_corpus):
    generated, vocab, train_set, dev_set = desk_corpus()
    t0 = time.time()
    results = {}
    for mode in ("confusion", "random", "none"):
        res = train(train_set, ModelConfig(vocab_size=len(vocab), **DESK_MODEL),
                    TrainConfig(noise_mode=mode, **DESK_TRAIN))
        results[mode] = evaluate(res.params, dev_set, vocab, generated.db_paths,
                                 threshold=DESK_THRESHOLD)
    elapsed = time.time() - t0
    full = results["confusion"]
    ordering_ok = (results["confusion"].ex >= results["random"].ex
                   >= results["none"].ex)
    ok = (full.roc_auc >= 0.90 and full.ex >= 0.50 and ordering_ok
          and elapsed < 1800.0)
    report(10, "desk-scale generalization", ok,
           f"ROC={full.roc_auc:.3f} (>=0.90), EX={full.ex:.2f} (>=0.50), "
           f"ablation EX full={results['confusion'].ex:.2f} >= "
           f"random={results['random'].ex:.2f} >= "
           f"none={results['none'].ex:.2f}: {ordering_ok}, {elapsed:.0f}s")
    assert ok


def test_criterion_10_recipe_is_the_benchmarks(monkeypatch):
    """`perfbench/workloads.py` holds its own copy of the recipe, which
    `tools/digest.py` reads too; it must be criterion 10's full model."""
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
    monkeypatch.syspath_prepend(bench)
    workloads = importlib.import_module("workloads")
    assert workloads.DESK_MODEL == DESK_MODEL
    assert workloads.DESK_TRAIN == DESK_TRAIN
    assert workloads.THRESHOLD == DESK_THRESHOLD
    assert workloads.NOISE_MODE == "confusion"


def test_criterion_11_threshold_sweep_monotonicity(desk_corpus):
    generated, vocab, train_set, dev_set = desk_corpus()
    subset_train, subset_dev = train_set[:30], dev_set[:15]
    res = train(subset_train, ModelConfig(vocab_size=len(vocab), dim=16,
                                          heads=2, layers=1),
                TrainConfig(epochs=1, learning_rate=1e-3, grad_accum=1, seed=0))
    rows = threshold_sweep(res.params, subset_dev, vocab, generated.db_paths,
                           max_new=16)
    recalls = [row["recall"] for row in rows]  # thresholds descend
    monotone = all(a <= b for a, b in zip(recalls, recalls[1:]))
    again = threshold_sweep(res.params, subset_dev, vocab, generated.db_paths,
                            max_new=16)
    deterministic = sweep_csv(rows) == sweep_csv(again)
    ok = monotone and deterministic
    report(11, "threshold-sweep monotonicity", ok,
           f"recall non-increasing in threshold: {monotone}; "
           f"CSV deterministic: {deterministic}")
    assert ok


def test_criterion_12_end_to_end_reproducibility(tmp_path):
    from joltsql.cli import main
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "corpus": {"num_databases": 2, "tables_per_db": [2, 2],
                   "columns_per_table": [4, 4], "rows_per_table": [5, 8],
                   "examples_per_db": 8, "split": 0.75, "seed": 17},
        "train": {"epochs": 1, "learning_rate": 1e-3, "grad_accum": 1, "seed": 0},
        "model": {"dim": 16, "heads": 2, "layers": 1, "max_len": 256},
    }))
    corpus_dir = tmp_path / "corpus"
    assert main(["gen-corpus", "--config", str(cfg_path),
                 "--out", str(corpus_dir)]) == 0
    metrics = []
    for run in ("a", "b"):
        ckpt = tmp_path / f"ckpt_{run}"
        out = tmp_path / f"eval_{run}"
        assert main(["train", "--corpus", str(corpus_dir / "train.jsonl"),
                     "--config", str(cfg_path), "--out", str(ckpt)]) == 0
        assert main(["eval", "--ckpt", str(ckpt),
                     "--dev", str(corpus_dir / "dev.jsonl"),
                     "--dbs", str(corpus_dir / "dbs"),
                     "--out", str(out), "--max-new", "16"]) == 0
        metrics.append((out / "metrics.json").read_bytes())
    ok = metrics[0] == metrics[1]
    report(12, "end-to-end reproducibility", ok,
           f"metrics JSON byte-identical across two seeded runs: {ok}")
    assert ok
