"""Evaluation: one prompt encoding per example, one decode per distinct
predicted column set, and results equal to per-threshold inference."""
import hashlib
import shutil
import sqlite3

import pytest

from joltsql import evaluation, model, pipeline
from joltsql.corpus import CorpusConfig, generate_corpus
from joltsql.errors import DbUnavailable
from joltsql.evaluation import SWEEP_THRESHOLDS, evaluate, threshold_sweep
from joltsql.metrics import (ExReport, execution_accuracy, pr_auc,
                             precision_recall, roc_auc)
from joltsql.model import ModelConfig
from joltsql.pipeline import TrainConfig, infer, link_schema, load_corpus, train
from joltsql.tokenizer import Vocab

MAX_NEW = 12


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """Six desk dev examples and a seeded model trained briefly on the train
    split; at 0.5 it predicts nothing for at least one of them."""
    generated = generate_corpus(CorpusConfig(), str(tmp_path_factory.mktemp("desk")))
    vocab = Vocab.load(generated.vocab_path)
    train_set = load_corpus(generated.train_path, vocab, generated.schemas)
    dev_set = load_corpus(generated.dev_path, vocab, generated.schemas)
    params = train(train_set[:40], ModelConfig(vocab_size=len(vocab), dim=16, heads=2, layers=1),
                   TrainConfig(epochs=2, learning_rate=3e-3, grad_accum=1, seed=0)).params
    examples = dev_set[:6]
    assert any(not predicted_set(params, ex, 0.5) for ex in examples)
    return params, examples, vocab, generated


def predicted_set(params, example, threshold):
    return frozenset((t, c) for t, c, s in link_schema(params, example) if s > threshold)


def reference_evaluate(params, examples, vocab, db_paths, threshold, average="micro"):
    """Evaluation done per threshold: a linking pass per example for the
    pooled metrics (and another for macro averaging), then `infer`."""
    scores, labels = [], []
    for ex in examples:
        for t, c, s in link_schema(params, ex):
            scores.append(s)
            labels.append(1 if (t, c) in ex.link else 0)
    if average == "macro":
        ps, rs = [], []
        for ex in examples:
            s = [sc for _, _, sc in link_schema(params, ex)]
            l = [1 if (t, c) in ex.link else 0 for t, c, _ in ex.seg.marker_columns]
            ep, er = precision_recall(s, l, threshold)
            ps.append(ep)
            rs.append(er)
        p, r = sum(ps) / len(ps), sum(rs) / len(rs)
    else:
        p, r = precision_recall(scores, labels, threshold)
    report = ExReport()
    results = []
    for ex in examples:
        result = infer(params, ex, vocab, threshold=threshold, max_new=MAX_NEW)
        conn = sqlite3.connect(db_paths[ex.db_id])
        try:
            report.add(execution_accuracy(result.sql, ex.gold_sql, conn))
        finally:
            conn.close()
        results.append(result)
    metrics = {"threshold": threshold, "precision": p, "recall": r,
               "roc_auc": roc_auc(scores, labels), "pr_auc": pr_auc(scores, labels),
               "ex": report.accuracy, "ex_counts": report.counts()}
    return metrics, report, results


def test_sweep_rows_equal_per_threshold_evaluation(desk):
    params, examples, vocab, generated = desk
    rows = threshold_sweep(params, examples, vocab, generated.db_paths, max_new=MAX_NEW)
    scores, labels = [], []
    for ex in examples:
        for t, c, s in link_schema(params, ex):
            scores.append(s)
            labels.append(1 if (t, c) in ex.link else 0)
    expected = []
    for t in SWEEP_THRESHOLDS:
        p, r = precision_recall(scores, labels, t)
        ex = reference_evaluate(params, examples, vocab, generated.db_paths, t)[0]["ex"]
        assert evaluate(params, examples, vocab, generated.db_paths, threshold=t,
                        max_new=MAX_NEW).ex == ex
        expected.append({"threshold": t, "precision": p, "recall": r, "ex": ex})
    assert rows == expected


@pytest.mark.parametrize("average", ["micro", "macro"])
@pytest.mark.parametrize("threshold", [0.5, 0.3, 0.05])
def test_evaluate_equals_reference(desk, average, threshold):
    params, examples, vocab, generated = desk
    got = evaluate(params, examples, vocab, generated.db_paths, threshold=threshold,
                   max_new=MAX_NEW, average=average)
    metrics, report, results = reference_evaluate(
        params, examples, vocab, generated.db_paths, threshold, average)
    assert got.to_json() == metrics
    assert [pe["verdict"] for pe in got.per_example] == report.verdicts
    for pe, ex, result in zip(got.per_example, examples, results):
        assert pe["example_id"] == ex.example_id
        assert pe["gold_sql"] == ex.gold_sql
        assert pe["pred_sql"] == result.sql
        assert pe["predicted_columns"] == result.predicted_columns
        assert pe["used_fallback"] == result.used_fallback
        assert pe["timings_ms"].keys() == result.timings_ms.keys()
    if threshold == 0.5:
        assert any(pe["used_fallback"] for pe in got.per_example)


@pytest.mark.parametrize("run", ["sweep", "micro", "macro"])
def test_one_prompt_encoding_and_one_decode_per_distinct_set(desk, monkeypatch, run):
    params, examples, vocab, generated = desk
    thresholds = SWEEP_THRESHOLDS if run == "sweep" else [0.05]
    distinct = sum(len({predicted_set(params, ex, t) for t in thresholds})
                   for ex in examples)
    if run == "sweep":
        assert len(examples) < distinct < len(examples) * len(thresholds)
    prompts, decodes, executions = [], [], []
    forward = model.forward
    generate = pipeline.greedy_generate
    execute = evaluation.execution_accuracy

    def spy_forward(params, ids, mask, past=None):
        if past is None:
            prompts.append(list(ids))
        return forward(params, ids, mask, past=past)

    def spy_generate(*args, **kwargs):
        decodes.append(1)
        return generate(*args, **kwargs)

    def spy_execute(*args):
        executions.append(1)
        return execute(*args)

    monkeypatch.setattr(model, "forward", spy_forward)
    monkeypatch.setattr(pipeline, "forward", spy_forward)
    monkeypatch.setattr(pipeline, "greedy_generate", spy_generate)
    monkeypatch.setattr(evaluation, "execution_accuracy", spy_execute)
    if run == "sweep":
        threshold_sweep(params, examples, vocab, generated.db_paths, max_new=MAX_NEW)
    else:
        evaluate(params, examples, vocab, generated.db_paths, threshold=0.05,
                 max_new=MAX_NEW, average=run)
    assert prompts == [ex.tokens.ids[:len(ex.seg.prefix | ex.seg.schema)]
                       for ex in examples]
    assert len(decodes) == distinct
    assert len(executions) == distinct


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.mark.parametrize("write", ["DROP TABLE {table}", "DELETE FROM {table}",
                                   "CREATE TABLE extra (a INTEGER)"])
def test_predicted_writes_fail_and_leave_databases_unchanged(desk, monkeypatch, tmp_path,
                                                             write):
    params, examples, vocab, generated = desk
    db_paths = {}
    for db_id, path in generated.db_paths.items():
        db_paths[db_id] = str(tmp_path / f"{db_id}.sqlite")
        shutil.copyfile(path, db_paths[db_id])
    before = {db_id: sha256(path) for db_id, path in db_paths.items()}

    def writing_sql(params, example, encoded, predicted, vocab, max_new):
        return write.format(table=example.schema_doc.tables[0].name), [], False

    monkeypatch.setattr(evaluation, "generate_sql", writing_sql)
    result = evaluate(params, examples, vocab, db_paths, max_new=MAX_NEW)
    assert [pe["verdict"] for pe in result.per_example] == ["pred_error"] * len(examples)
    assert {db_id: sha256(path) for db_id, path in db_paths.items()} == before


def test_missing_database_is_not_created(desk, tmp_path):
    params, examples, vocab, _ = desk
    missing = tmp_path / "missing.sqlite"
    with pytest.raises(DbUnavailable):
        evaluate(params, examples[:1], vocab, {examples[0].db_id: str(missing)},
                 max_new=MAX_NEW)
    assert not missing.exists()
