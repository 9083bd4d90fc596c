"""The desk workloads: set-up, the closed measured loop, and output checks.

Every workload draws its inputs from `corpus.generate_corpus` with
`CorpusConfig(seed=<workload seed>)`, the desk corpus (500 train / 100 dev
questions over four sqlite databases), written into a fresh directory under
the benchmark's work directory. One caller runs one operation at a time and
waits for its result.
"""
from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import shutil
import sqlite3
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from joltsql import corpus, evaluation, metrics, model, pipeline, sampling, tokenizer
from stats import median, tail

# The criterion-10 desk recipe (tests/test_acceptance.py).
DESK_MODEL = dict(dim=80, layers=2, heads=4)
DESK_TRAIN = dict(epochs=3, learning_rate=1e-3, grad_accum=1, seed=0)
NOISE_MODE = "confusion"
THRESHOLD = 0.05
MAX_NEW = 64
# Everything the set-up checkpoint depends on besides the program sources.
RECIPE_KEY = json.dumps([DESK_MODEL, DESK_TRAIN, NOISE_MODE, THRESHOLD])
# Criterion 10's floor for the set-up checkpoint, and the corpus seed it is
# stated for.
FLOOR_ROC, FLOOR_EX = 0.90, 0.50
FLOOR_SEED = corpus.CorpusConfig().seed
# train-desk trains the desk recipe on consecutive chunks of the train split,
# so each call has the recipe's mix: one epoch with weight captures, then two
# without.
TRAIN_CHUNK = 20


@dataclass
class Op:
    """One measured operation: a training step, an inference request or a
    threshold sweep. `tokens` is its work size in token positions."""
    ms: float
    ok: bool
    digest: str
    tokens: float = 0.0
    extra: dict = field(default_factory=dict)


@dataclass
class Desk:
    out_dir: str
    generated: corpus.GeneratedCorpus
    vocab: tokenizer.Vocab
    examples: list
    params: model.ModelParams | None = None

    def db_hashes(self) -> dict[str, str]:
        out = {}
        for path in sorted(glob.glob(os.path.join(self.generated.db_dir, "*.sqlite"))):
            with open(path, "rb") as f:
                out[os.path.basename(path)] = hashlib.sha256(f.read()).hexdigest()
        return out


def _raised(t0: float, exc: Exception) -> Op:
    return Op(ms=(time.perf_counter() - t0) * 1000.0, ok=False, digest="raised",
              extra={"problems": [f"{type(exc).__name__}: {exc}"]})


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _prompt_tokens(example) -> int:
    return len(example.seg.prefix) + len(example.seg.schema)


def _new_tokens(result) -> int:
    """Tokens greedy decoding produced: the SQL words, plus the EOS token
    unless decoding stopped at MAX_NEW."""
    words = len(result.sql.split())
    return words + (1 if words < MAX_NEW else 0)


def _request_positions(example, n_predicted: int, new_tokens: int) -> float:
    """Work size of one inference request: the prompt once for linking, then
    for each generated token the linked prompt and the tokens before it. The
    linked prompt is the prefix plus the predicted columns' share of the
    schema (all of it when nothing is predicted). Request time is close to
    proportional to this size, so its per-size figures vary little between
    corpus seeds whose schemas and linking differ."""
    prefix = len(example.seg.prefix)
    share = n_predicted / len(example.seg.marker_columns) if n_predicted else 1.0
    linked = prefix + len(example.seg.schema) * share
    return _prompt_tokens(example) + new_tokens * linked + new_tokens * (new_tokens - 1) / 2


def set_up(work_dir: str, seed: int, split: str, ckpt_path: str | None) -> Desk:
    out_dir = tempfile.mkdtemp(prefix="corpus-", dir=work_dir)
    generated = corpus.generate_corpus(corpus.CorpusConfig(seed=seed), out_dir)
    vocab = tokenizer.Vocab.load(generated.vocab_path)
    path = generated.train_path if split == "train" else generated.dev_path
    examples = pipeline.load_corpus(path, vocab, generated.schemas)
    params = model.ModelParams.load(ckpt_path) if ckpt_path else None
    return Desk(out_dir, generated, vocab, examples, params)


def tear_down(desk: Desk):
    shutil.rmtree(desk.out_dir, ignore_errors=True)


# ------------------------------------------------------------------ checkpoint

def prepare_checkpoint(work_dir: str, seed: int, ckpt_path: str, floor_path: str):
    """Train the desk recipe on the full train split, score it on dev as
    criterion 10 does, and store both. Runs in its own process so its memory
    peak stays out of the measured process."""
    desk = set_up(work_dir, seed, "train", None)
    try:
        vocab = desk.vocab
        dev = pipeline.load_corpus(desk.generated.dev_path, vocab, desk.generated.schemas)
        t0 = time.perf_counter()
        result = pipeline.train(
            desk.examples, model.ModelConfig(vocab_size=len(vocab), **DESK_MODEL),
            pipeline.TrainConfig(noise_mode=NOISE_MODE, **DESK_TRAIN))
        t1 = time.perf_counter()
        ev = evaluation.evaluate(result.params, dev, vocab, desk.generated.db_paths,
                                 threshold=THRESHOLD)
        t2 = time.perf_counter()
    finally:
        tear_down(desk)
    tmp = ckpt_path + ".partial.npz"
    result.params.save(tmp)
    os.replace(tmp, ckpt_path)
    with open(floor_path + ".partial", "w") as f:
        json.dump({"roc_auc": ev.roc_auc, "ex": ev.ex, "train_s": t1 - t0,
                   "eval_s": t2 - t1}, f)
    os.replace(floor_path + ".partial", floor_path)


def ensure_checkpoint(run_py: str, work_dir: str, seed: int, ckpt_path: str,
                      floor_path: str) -> dict:
    if not (os.path.exists(ckpt_path) and os.path.exists(floor_path)):
        subprocess.run([sys.executable, run_py, "--prepare-checkpoint",
                        "--seed", str(seed)], check=True, stdout=subprocess.DEVNULL)
    with open(floor_path) as f:
        return json.load(f)


# ------------------------------------------------------------------ loops

def _nothing():
    pass


def run_train(desk: Desk, stop, tracer=None, between=_nothing) -> list[Op]:
    """pipeline.train calls on consecutive TRAIN_CHUNK-example chunks; each
    step is one operation, timed between log_fn callbacks. A call is started
    only while `stop(ops so far)` is false and always runs to its end.
    `between` runs after each operation, outside its timed span."""
    ops: list[Op] = []
    by_id = {ex.example_id: ex for ex in desk.examples}
    n_chunks = len(desk.examples) // TRAIN_CHUNK
    config = model.ModelConfig(vocab_size=len(desk.vocab), **DESK_MODEL)
    chunk_index = 0
    while not stop(len(ops)):
        lo = (chunk_index % n_chunks) * TRAIN_CHUNK
        chunk = desk.examples[lo: lo + TRAIN_CHUNK]
        chunk_index += 1
        steps: list[tuple[float, dict]] = []
        last = [time.perf_counter()]

        def on_step(_kind, entry):
            now = time.perf_counter()
            steps.append((now - last[0], entry))
            between()
            if tracer is not None:
                tracer.request = len(ops) + len(steps)
            last[0] = time.perf_counter()

        if tracer is not None:
            tracer.request = len(ops)
        cache = sampling.WeightCache()
        problems = []
        try:
            result = pipeline.train(chunk, config,
                                    pipeline.TrainConfig(noise_mode=NOISE_MODE, **DESK_TRAIN),
                                    log_fn=on_step, cache=cache)
        except Exception as exc:  # a step raised: count it and move on
            result = None
            failure = _raised(last[0], exc)
            problems.extend(failure.extra["problems"])
        if result is not None:
            expected = len(chunk) * DESK_TRAIN["epochs"]
            if len(result.log) != expected or len(steps) != expected:
                problems.append(f"log has {len(result.log)} entries for {len(steps)} "
                                f"steps, expected {expected}")
            if cache.capture_count != len(chunk):
                problems.append(f"{cache.capture_count} weight captures for "
                                f"{len(chunk)} epoch-1 examples")
        for seconds, entry in steps:
            finite = math.isfinite(entry["l_sl"]) and math.isfinite(entry["l_ntp"])
            ops.append(Op(
                ms=seconds * 1000.0, ok=finite and not problems,
                digest=_digest([entry["example_id"], entry["l_sl"], entry["l_ntp"],
                                entry["k_noisy"]]),
                tokens=len(by_id[entry["example_id"]].tokens.ids),
                extra={"loss": entry["l_sl"] + entry["l_ntp"], "epoch": entry["epoch"],
                       "problems": problems}))
        if result is None:
            ops.append(failure)
    return ops


def run_infer(desk: Desk, stop, tracer=None, between=_nothing) -> list[Op]:
    """Each dev question once through pipeline.infer; EX is scored against
    the corpus database after the request's timed span."""
    ops: list[Op] = []
    connections: dict[str, sqlite3.Connection] = {}
    try:
        for ex in desk.examples:
            if stop(len(ops)):
                break
            if tracer is not None:
                tracer.request = ex.example_id
            t0 = time.perf_counter()
            try:
                result = pipeline.infer(desk.params, ex, desk.vocab, threshold=THRESHOLD,
                                        max_new=MAX_NEW)
            except Exception as exc:
                ops.append(_raised(t0, exc))
                continue
            ms = (time.perf_counter() - t0) * 1000.0
            if tracer is not None:
                tracer.request = None
            between()
            if ex.db_id not in connections:
                connections[ex.db_id] = sqlite3.connect(desk.generated.db_paths[ex.db_id])
            verdict = metrics.execution_accuracy(result.sql, ex.gold_sql,
                                                 connections[ex.db_id])
            predicted = sorted((t, c) for t, c, _ in result.predicted_columns)
            new_tokens = _new_tokens(result)
            ops.append(Op(
                ms=ms, ok=True, digest=_digest([result.sql, predicted]),
                tokens=_request_positions(ex, len(predicted), new_tokens),
                extra={"verdict": verdict,
                       "link_ms": result.timings_ms["linking"],
                       "gen_ms_per_token": result.timings_ms["generation"] / new_tokens,
                       "new_tokens": new_tokens,
                       "hits": len(set(predicted) & ex.link), "gold": len(ex.link)}))
    finally:
        for conn in connections.values():
            conn.close()
    return ops


def run_sweep(desk: Desk, stop, tracer=None, between=_nothing) -> list[Op]:
    """evaluation.threshold_sweep over one dev example at a time, against
    the corpus databases opened read-write by the program itself.

    The work size of a sweep depends on how long decoding runs at each
    threshold, which threshold_sweep does not return. After the timed call,
    untimed, the example is linked once and inferred once per distinct
    predicted column set (infer's output depends on the threshold only
    through that set); the sweep's size is then the request size at every
    threshold plus the prompt of each extra linking pass."""
    thresholds = evaluation.SWEEP_THRESHOLDS
    ops: list[Op] = []
    for ex in desk.examples:
        if stop(len(ops)):
            break
        if tracer is not None:
            tracer.request = ex.example_id
        t0 = time.perf_counter()
        try:
            rows = evaluation.threshold_sweep(desk.params, [ex], desk.vocab,
                                              desk.generated.db_paths, max_new=MAX_NEW)
        except Exception as exc:
            ops.append(_raised(t0, exc))
            continue
        ms = (time.perf_counter() - t0) * 1000.0
        if tracer is not None:
            tracer.request = None
        between()
        size = (1 + len(thresholds)) * _prompt_tokens(ex)
        scores = pipeline.link_schema(desk.params, ex)
        by_set: dict = {}
        outputs = []
        for threshold in thresholds:
            predicted = tuple(sorted(f"{t}.{c}" for t, c, s in scores if s > threshold))
            if predicted not in by_set:
                by_set[predicted] = pipeline.infer(desk.params, ex, desk.vocab,
                                                   threshold=threshold, max_new=MAX_NEW)
            result = by_set[predicted]
            outputs.append([result.sql, list(predicted)])
            size += _request_positions(ex, len(predicted), _new_tokens(result))
        ordered = sorted(rows, key=lambda r: r["threshold"])
        recalls = [r["recall"] for r in ordered]
        monotone = all(a >= b for a, b in zip(recalls, recalls[1:]))
        ops.append(Op(ms=ms, ok=monotone, digest=_digest([rows, outputs]), tokens=size,
                      extra={} if monotone else
                      {"problems": ["recall increases with threshold"]}))
    return ops


@dataclass
class Workload:
    name: str
    split: str
    needs_checkpoint: bool
    run: object
    trace_ops: int  # fixed operation count of the traced run and its untraced twin


WORKLOADS = {
    "train-desk": Workload("train-desk", "train", False, run_train,
                           trace_ops=2 * TRAIN_CHUNK * DESK_TRAIN["epochs"]),
    "infer-desk": Workload("infer-desk", "dev", True, run_infer, trace_ops=40),
    "sweep-desk": Workload("sweep-desk", "dev", True, run_sweep, trace_ops=8),
}


# ------------------------------------------------------------------ reports

def workload_report(workload: str, ops: list[Op]) -> dict:
    """The named end-to-end figures of one workload, from its untraced ops."""
    done = [op for op in ops if op.digest != "raised"]
    ms = [op.ms for op in done]
    out: dict = {}
    if workload == "train-desk":
        t = tail(ms)
        out["train_step_ms_p50"] = (median(ms), "ms")
        out["train_step_ms_tail"] = (t["value"], "ms")
        out["train_step_ms_tail_percentile"] = (t["percentile"], "%")
        out["train_step_samples"] = (t["samples"], "count")
        out["train_tokens_per_s"] = (sum(op.tokens for op in done) / (sum(ms) / 1000.0), "1/s")
        final = [op.extra["loss"] for op in done if op.extra["epoch"] == DESK_TRAIN["epochs"]]
        out["train_loss_end"] = (sum(final) / len(final) if final else float("nan"), "nats")
    elif workload == "infer-desk":
        t = tail(ms)
        out["infer_ms_p50"] = (median(ms), "ms")
        out["infer_ms_tail"] = (t["value"], "ms")
        out["infer_ms_tail_percentile"] = (t["percentile"], "%")
        out["infer_samples"] = (t["samples"], "count")
        out["link_ms_p50"] = (median([op.extra["link_ms"] for op in done]), "ms")
        out["gen_ms_per_token_p50"] = (median([op.extra["gen_ms_per_token"] for op in done]), "ms")
        scored = [op.extra["verdict"] for op in done if op.extra["verdict"] != "gold_error"]
        out["ex"] = (sum(v == "match" for v in scored) / len(scored) if scored else 0.0, "share")
        out["link_recall"] = (sum(op.extra["hits"] for op in done)
                              / max(1, sum(op.extra["gold"] for op in done)), "share")
    else:
        t = tail(ms)
        out["sweep_s"] = (median(ms) / 1000.0, "s")
        out["sweep_s_tail"] = (t["value"] / 1000.0, "s")
        out["sweep_s_tail_percentile"] = (t["percentile"], "%")
        out["sweep_samples"] = (t["samples"], "count")
    return out
