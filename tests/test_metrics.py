import itertools
import sqlite3
import threading

import numpy as np
import pytest

from joltsql import metrics
from joltsql.errors import DbUnavailable, DegenerateLabels, LengthMismatch
from joltsql.metrics import (ExReport, _has_top_level_order_by,
                             execution_accuracy, pr_auc, precision_recall,
                             roc_auc)


def oracle_roc(scores, labels):
    """Full pair enumeration, written independently of the implementation."""
    pairs = [(p, q) for p, yp in zip(scores, labels) if yp == 1
             for q, yq in zip(scores, labels) if yq == 0]
    total = 0.0
    for p, q in pairs:
        total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / len(pairs)


def oracle_ap(scores, labels):
    """Average precision by full cut enumeration over the ranked list,
    descending score with ties broken by original index."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    n_pos = sum(labels)
    ap = 0.0
    tp = 0
    for rank, i in enumerate(order, start=1):
        if labels[i]:
            tp += 1
            ap += (tp / rank) / n_pos
    return ap


class TestRankingOracles:
    def test_200_random_instances_exact(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            # quantized scores so ties actually occur
            scores = [float(s) for s in rng.integers(0, 10, n) / 10.0]
            labels = [int(x) for x in rng.integers(0, 2, n)]
            if sum(labels) == 0:
                labels[int(rng.integers(0, n))] = 1
            if sum(labels) == n:
                labels[int(rng.integers(0, n))] = 0
            assert roc_auc(scores, labels) == oracle_roc(scores, labels)
            assert pr_auc(scores, labels) == pytest.approx(
                oracle_ap(scores, labels), abs=1e-12)


class TestWorkedValues:
    def test_roc_perfect(self):
        assert roc_auc([0.9, 0.1], [1, 0]) == 1.0

    def test_roc_half_from_enumeration(self):
        # two pairs: (0.9 vs 0.8) win, (0.1 vs 0.8) loss
        assert roc_auc([0.9, 0.8, 0.1], [1, 0, 1]) == 0.5

    def test_roc_all_ties(self):
        assert roc_auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5

    def test_ap_perfect(self):
        assert pr_auc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_ap_five_sixths(self):
        # cuts: rank1 positive (P=1), rank3 positive (P=2/3)
        assert pr_auc([0.9, 0.8, 0.1], [1, 0, 1]) == pytest.approx(5 / 6)

    def test_ap_single_positive_ranked_last(self):
        assert pr_auc([0.9, 0.8, 0.1], [0, 0, 1]) == pytest.approx(1 / 3)


class TestPrecisionRecall:
    def test_worked_confusion_matrix(self):
        p, r = precision_recall([0.9, 0.8, 0.1], [1, 0, 1], 0.5)
        assert (p, r) == (0.5, 0.5)

    def test_perfect(self):
        assert precision_recall([0.9, 0.1], [1, 0], 0.5) == (1.0, 1.0)

    def test_low_threshold_full_recall(self):
        _, r = precision_recall([0.06, 0.07, 0.9], [1, 1, 1], 0.05)
        assert r == 1.0

    def test_threshold_one_zero_recall(self):
        _, r = precision_recall([0.9, 0.8], [1, 1], 1.0)
        assert r == 0.0

    def test_nothing_predicted_precision_one(self):
        p, _ = precision_recall([0.1, 0.2], [1, 0], 0.5)
        assert p == 1.0

    def test_no_positives_recall_one(self):
        _, r = precision_recall([0.9], [0], 0.5)
        assert r == 1.0

    def test_recall_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        scores = [float(s) for s in rng.uniform(0, 1, 30)]
        labels = [int(x) for x in rng.integers(0, 2, 30)]
        recalls = [precision_recall(scores, labels, t)[1]
                   for t in [0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.01]]
        assert recalls == sorted(recalls)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            precision_recall([0.5], [1, 0], 0.5)
        with pytest.raises(LengthMismatch):
            precision_recall([], [], 0.5)


class TestDegenerate:
    def test_roc_single_class(self):
        with pytest.raises(DegenerateLabels):
            roc_auc([0.5, 0.6], [1, 1])

    def test_ap_no_positive(self):
        with pytest.raises(DegenerateLabels):
            pr_auc([0.5], [0])

    def test_roc_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            roc_auc([0.5], [1, 0])


@pytest.fixture
def two_row_db():
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    conn.executemany("INSERT INTO t VALUES (?, ?)", [(1, "x"), (2, "y")])
    yield conn
    conn.close()


@pytest.fixture
def people_db():
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (name TEXT, age INTEGER)")
    conn.executemany("INSERT INTO t VALUES (?, ?)", [("ann", 30), ("bob", 20), ("cy", 40)])
    yield conn
    conn.close()


class TestExecutionAccuracy:
    def test_identical_trivial(self, two_row_db):
        assert execution_accuracy("SELECT 1", "SELECT 1", two_row_db) == "match"

    def test_column_order_mismatch(self, two_row_db):
        assert execution_accuracy("SELECT b, a FROM t", "SELECT a, b FROM t",
                                  two_row_db) == "mismatch"

    def test_pred_syntax_error(self, two_row_db):
        assert execution_accuracy("SELEC nonsense", "SELECT 1",
                                  two_row_db) == "pred_error"

    def test_gold_error_detected(self, two_row_db):
        assert execution_accuracy("SELECT 1", "SELECT zzz FROM missing",
                                  two_row_db) == "gold_error"

    def test_multiset_row_order_irrelevant_without_order_by(self, two_row_db):
        assert execution_accuracy("SELECT a FROM t ORDER BY a DESC",
                                  "SELECT a FROM t", two_row_db) == "match"

    def test_order_by_makes_comparison_ordered(self, two_row_db):
        assert execution_accuracy("SELECT a FROM t ORDER BY a ASC",
                                  "SELECT a FROM t ORDER BY a DESC",
                                  two_row_db) == "mismatch"

    def test_whitespace_and_case_invariant(self, two_row_db):
        assert execution_accuracy("select   A , B from T",
                                  "SELECT a, b FROM t", two_row_db) == "match"

    def test_duplicate_rows_multiset(self, two_row_db):
        two_row_db.execute("INSERT INTO t VALUES (1, 'x')")
        assert execution_accuracy("SELECT a FROM t WHERE a = 1 LIMIT 1",
                                  "SELECT a FROM t WHERE a = 1",
                                  two_row_db) == "mismatch"

    def test_parenthesis_in_literal_keeps_order_by(self, people_db):
        gold = "SELECT name FROM t WHERE name != '(' ORDER BY age"
        assert execution_accuracy(gold + " DESC", gold, people_db) == "mismatch"
        assert execution_accuracy(gold, gold, people_db) == "match"

    def test_order_by_in_literal_is_not_ordering(self, people_db):
        gold = "SELECT name FROM t WHERE name != 'order by'"
        assert execution_accuracy(gold + " ORDER BY age DESC", gold, people_db) == "match"

    def test_numeric_tolerance(self, two_row_db):
        assert execution_accuracy("SELECT 1.0000000001", "SELECT 1.0",
                                  two_row_db) == "match"

    def test_no_db_rejected(self):
        with pytest.raises(DbUnavailable):
            execution_accuracy("SELECT 1", "SELECT 1", None)


RUNAWAY = ("WITH RECURSIVE r(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM r) "
           "SELECT count(*) FROM r")


class TestStepBudget:
    """A query that never ends is stopped by sqlite's VM step budget, with
    no watchdog thread."""

    @pytest.fixture(autouse=True)
    def no_threads(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("query execution started a thread")
        monkeypatch.setattr(threading, "Timer", refuse)

    def test_runaway_prediction_is_pred_error(self, two_row_db):
        assert execution_accuracy(RUNAWAY, "SELECT a FROM t", two_row_db) == "pred_error"

    def test_runaway_gold_is_gold_error_and_budget_cleared(self, two_row_db, monkeypatch):
        # a smaller budget keeps this one quick; the rule is the same
        monkeypatch.setattr(metrics, "QUERY_STEP_BUDGET", 100_000)
        assert execution_accuracy("SELECT a FROM t", RUNAWAY, two_row_db) == "gold_error"
        # a connection reused afterwards runs past the budget uninterrupted
        long = ("WITH RECURSIVE r(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM r "
                "LIMIT 100000) SELECT count(*) FROM r")
        assert two_row_db.execute(long).fetchall() == [(100000,)]


class TestTopLevelOrderBy:
    def test_plain(self):
        assert _has_top_level_order_by("SELECT a FROM t ORDER BY a")

    def test_absent(self):
        assert not _has_top_level_order_by("SELECT a FROM t")

    def test_only_in_subquery(self):
        sql = "SELECT a FROM t WHERE a = (SELECT b FROM u ORDER BY b LIMIT 1)"
        assert not _has_top_level_order_by(sql)

    def test_case_insensitive(self):
        assert _has_top_level_order_by("select a from t order   by a")

    def test_literals_skipped(self):
        assert _has_top_level_order_by("SELECT a FROM t WHERE b != '(' ORDER BY a")
        assert _has_top_level_order_by("SELECT a FROM t WHERE b = 'it''s (' ORDER BY a")
        assert _has_top_level_order_by("SELECT a FROM t WHERE b = 'x'ORDER BY a")
        assert not _has_top_level_order_by("SELECT a FROM t WHERE b != 'order by'")
        assert not _has_top_level_order_by("SELECT a FROM t WHERE b = ')'' order by'")


class TestExReport:
    def test_accuracy_counts(self):
        r = ExReport()
        for v in ["match", "mismatch", "match", "pred_error"]:
            r.add(v)
        assert r.accuracy == 0.5
        assert r.counts() == {"match": 2, "mismatch": 1, "pred_error": 1}

    def test_gold_error_excluded_from_denominator(self):
        r = ExReport()
        for v in ["match", "gold_error", "gold_error"]:
            r.add(v)
        assert r.accuracy == 1.0

    def test_empty(self):
        assert ExReport().accuracy == 0.0
