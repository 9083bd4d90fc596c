"""Evaluation: one prompt encoding, one stacked decode and one gold
execution per example, one decoded sequence and one execution per distinct
predicted column set, and results equal to per-threshold inference."""
import hashlib
import itertools
import shutil
import sqlite3

import pytest

from joltsql import evaluation, metrics, pipeline
from joltsql.errors import DbUnavailable, LengthMismatch
from joltsql.evaluation import SWEEP_THRESHOLDS, evaluate, threshold_sweep
from joltsql.metrics import execution_accuracy, pr_auc, precision_recall, roc_auc
from joltsql.model import ModelConfig
from joltsql.pipeline import TrainConfig, infer, infer_thresholds, link_schema, train

MAX_NEW = 12


@pytest.fixture(scope="module")
def desk(desk_corpus):
    """Six desk dev examples and a seeded model trained briefly on the train
    split; at 0.5 it predicts nothing for at least one of them."""
    generated, vocab, train_set, dev_set = desk_corpus()
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
    verdicts, results = [], []
    for ex in examples:
        result = infer(params, ex, vocab, threshold=threshold, max_new=MAX_NEW)
        conn = sqlite3.connect(db_paths[ex.db_id])
        try:
            verdicts.append(execution_accuracy(result.sql, ex.gold_sql, conn))
        finally:
            conn.close()
        results.append(result)
    scored = [v for v in verdicts if v != "gold_error"]
    counts = {}
    for v in verdicts:
        counts[v] = counts.get(v, 0) + 1
    metrics = {"threshold": threshold, "precision": p, "recall": r,
               "roc_auc": roc_auc(scores, labels), "pr_auc": pr_auc(scores, labels),
               "ex": scored.count("match") / len(scored) if scored else 0.0,
               "ex_counts": counts}
    return metrics, verdicts, results


@pytest.mark.parametrize("index", range(6))
def test_infer_is_infer_thresholds_at_each_threshold(desk, index):
    params, examples, vocab, _ = desk
    ex = examples[index]
    scored, results = infer_thresholds(params, ex, vocab, SWEEP_THRESHOLDS, MAX_NEW)
    assert scored == link_schema(params, ex)
    assert len(results) == len(SWEEP_THRESHOLDS)
    for threshold, result in zip(SWEEP_THRESHOLDS, results):
        alone = infer(params, ex, vocab, threshold=threshold, max_new=MAX_NEW)
        assert alone.sql == result.sql
        assert alone.predicted_columns == result.predicted_columns
        assert alone.used_fallback == result.used_fallback


def test_infer_thresholds_encodes_once_and_decodes_each_distinct_set_once(desk,
                                                                          monkeypatch):
    """One prompt encoding and one stacked decode with a row per distinct
    set; thresholds with the same set share its result, and every result
    of a call shares one timings dict."""
    params, examples, vocab, _ = desk
    sets = [[predicted_set(params, ex, t) for t in SWEEP_THRESHOLDS] for ex in examples]
    assert any(len(set(s)) < len(s) for s in sets)
    prompts, decodes = [], []
    encode = pipeline.prompt_pass
    generate = pipeline.greedy_generate

    def spy_encode(params, ids, *args, **kwargs):
        prompts.append(list(ids))
        return encode(params, ids, *args, **kwargs)

    def spy_generate(*args, **kwargs):
        decodes.append(len(kwargs["attends"]))
        return generate(*args, **kwargs)

    monkeypatch.setattr(pipeline, "prompt_pass", spy_encode)
    monkeypatch.setattr(pipeline, "greedy_generate", spy_generate)
    for ex, ex_sets in zip(examples, sets):
        prompts.clear()
        decodes.clear()
        _, results = infer_thresholds(params, ex, vocab, SWEEP_THRESHOLDS, MAX_NEW)
        assert prompts == [ex.tokens.ids[:ex.seg.query_start]]
        assert decodes == [len(set(ex_sets))]
        for (a, result_a), (b, result_b) in itertools.combinations(zip(ex_sets, results), 2):
            assert (result_a is result_b) == (a == b)
        assert len({id(result.timings_ms) for result in results}) == 1


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
    metrics, verdicts, results = reference_evaluate(
        params, examples, vocab, generated.db_paths, threshold, average)
    assert got.to_json() == metrics
    assert [pe["verdict"] for pe in got.per_example] == verdicts
    for pe, ex, result in zip(got.per_example, examples, results):
        # the example id, what `jolt infer` prints, the verdict and error
        want = result.to_json()
        assert list(pe) == ["example_id", *want, "verdict", "sqlite_error"]
        assert pe["example_id"] == ex.example_id
        for key in ("sql", "predicted_columns", "used_fallback"):
            assert pe[key] == want[key]
        assert pe["timings_ms"].keys() == want["timings_ms"].keys()
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
    encode = pipeline.prompt_pass
    generate = pipeline.greedy_generate
    execute = evaluation.execution_verdicts

    def spy_encode(params, ids, *args, **kwargs):
        prompts.append(list(ids))
        return encode(params, ids, *args, **kwargs)

    def spy_generate(*args, **kwargs):
        decodes.append(len(kwargs["attends"]))
        return generate(*args, **kwargs)

    def spy_execute(pred_sqls, *args):
        executions.extend(pred_sqls)
        return execute(pred_sqls, *args)

    monkeypatch.setattr(pipeline, "prompt_pass", spy_encode)
    monkeypatch.setattr(pipeline, "greedy_generate", spy_generate)
    monkeypatch.setattr(evaluation, "execution_verdicts", spy_execute)
    if run == "sweep":
        threshold_sweep(params, examples, vocab, generated.db_paths, max_new=MAX_NEW)
    else:
        evaluate(params, examples, vocab, generated.db_paths, threshold=0.05,
                 max_new=MAX_NEW, average=run)
    assert prompts == [ex.tokens.ids[:ex.seg.query_start]
                       for ex in examples]
    assert len(decodes) == len(examples)  # one stacked decode per example...
    assert sum(decodes) == distinct  # ...with one sequence per distinct set
    assert len(executions) == distinct


@pytest.mark.parametrize("run", ["sweep", "micro"])
def test_gold_sql_runs_once_per_example(desk, monkeypatch, run):
    """Every distinct prediction of an example is compared against one
    execution of its gold SQL."""
    params, examples, vocab, generated = desk
    executed = []
    execute = metrics._execute

    def spy(db, sql):
        executed.append(sql)
        return execute(db, sql)

    monkeypatch.setattr(metrics, "_execute", spy)
    if run == "sweep":
        threshold_sweep(params, examples, vocab, generated.db_paths, max_new=MAX_NEW)
        thresholds = SWEEP_THRESHOLDS
    else:
        evaluate(params, examples, vocab, generated.db_paths, max_new=MAX_NEW)
        thresholds = [0.05]
    golds = [sql for sql in executed if sql in {ex.gold_sql for ex in examples}]
    assert golds == [ex.gold_sql for ex in examples]
    distinct = sum(len({predicted_set(params, ex, t) for t in thresholds}) for ex in examples)
    assert len(executed) == len(examples) + distinct


@pytest.mark.parametrize("sql,error", [
    ("DROP TABLE {table}", "not authorized"),
    ("SELEC name FROM {table}", 'near "SELEC": syntax error'),
    ("WITH RECURSIVE r(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM r) "
     "SELECT count(*) FROM r", "interrupted"),
    ("SELECT 'no such row' FROM {table}", None),
], ids=["refused-write", "syntax-error", "step-budget", "no-error"])
def test_pred_error_records_keep_sqlites_error_text(desk, monkeypatch, sql, error):
    """A refused write, a syntax error and a step-budget interrupt are all
    pred_error; the record tells them apart by SQLite's error text, and
    carries None for a query that ran."""
    params, examples, vocab, generated = desk
    monkeypatch.setattr(metrics, "QUERY_STEP_BUDGET", 100_000)  # a quick interrupt

    def hand_made(params, example, encoded, predicted_sets, vocab, max_new):
        return [sql.format(table=example.schema_doc.tables[0].name) for _ in predicted_sets]

    monkeypatch.setattr(pipeline, "generate_sql", hand_made)
    result = evaluate(params, examples[:2], vocab, generated.db_paths, max_new=MAX_NEW)
    verdicts = ["pred_error"] * 2 if error else ["mismatch"] * 2
    assert [(pe["verdict"], pe["sqlite_error"]) for pe in result.per_example] == \
        list(zip(verdicts, [error] * 2))


def test_records_of_an_example_share_its_one_decode_time(desk):
    params, examples, vocab, generated = desk
    _, records = evaluation._run(params, examples, vocab, generated.db_paths,
                                 SWEEP_THRESHOLDS, MAX_NEW)
    for i in range(len(examples)):
        timings = {tuple(per_threshold[i]["timings_ms"].items()) for per_threshold in records}
        assert len(timings) == 1


def test_gold_error_examples_are_out_of_the_ex_denominator(desk, monkeypatch):
    """EX and its counts are read off the records: an example whose gold
    query fails counts as gold_error and is not scored."""
    params, examples, vocab, generated = desk
    execute = evaluation.execution_verdicts
    broken = examples[1].gold_sql

    def one_gold_fails(pred_sqls, gold_sql, db):
        if gold_sql == broken:
            return [("gold_error", None)] * len(pred_sqls)
        return execute(pred_sqls, gold_sql, db)

    monkeypatch.setattr(evaluation, "execution_verdicts", one_gold_fails)
    result = evaluate(params, examples, vocab, generated.db_paths, threshold=0.05,
                      max_new=MAX_NEW)
    verdicts = [pe["verdict"] for pe in result.per_example]
    assert verdicts.count("gold_error") == sum(ex.gold_sql == broken for ex in examples) >= 1
    scored = [v for v in verdicts if v != "gold_error"]
    assert result.ex == scored.count("match") / len(scored)
    assert list(result.ex_counts.items()) == [(v, verdicts.count(v))
                                              for v in dict.fromkeys(verdicts)]


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

    def writing_sql(params, example, encoded, predicted_sets, vocab, max_new):
        return [write.format(table=example.schema_doc.tables[0].name)
                for _ in predicted_sets]

    monkeypatch.setattr(pipeline, "generate_sql", writing_sql)
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


@pytest.mark.parametrize("run", ["sweep", "micro", "macro"])
def test_no_examples_raise_before_any_work(desk, monkeypatch, run):
    """Neither average can score an empty list, so every run rejects it
    alike, before any encoding runs."""
    params, _, vocab, generated = desk
    monkeypatch.setattr(pipeline, "encode_prompt", None)  # any call fails
    with pytest.raises(LengthMismatch, match="empty inputs"):
        if run == "sweep":
            threshold_sweep(params, [], vocab, generated.db_paths, max_new=MAX_NEW)
        else:
            evaluate(params, [], vocab, generated.db_paths, max_new=MAX_NEW, average=run)
