import hashlib
import itertools
import sqlite3
import threading

import numpy as np
import pytest

from joltsql import metrics
from joltsql.errors import DbUnavailable, DegenerateLabels, LengthMismatch
from joltsql.metrics import (_has_top_level_order_by, ex_summary, execution_accuracy,
                             execution_verdicts, pr_auc, precision_recall, roc_auc)


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

    @pytest.mark.parametrize("pred,gold,verdict", [
        ("SELECT 0.99999949", "SELECT 1.0", "mismatch"),
        ("SELECT 123456.6", "SELECT 123457.4", "match"),
    ])
    def test_numbers_compared_at_six_significant_digits(self, two_row_db, pred, gold,
                                                        verdict):
        assert execution_accuracy(pred, gold, two_row_db) == verdict

    def test_no_db_rejected(self):
        with pytest.raises(DbUnavailable):
            execution_accuracy("SELECT 1", "SELECT 1", None)

    def test_order_by_after_a_parenthesis_in_a_comment_keeps_order(self, people_db):
        gold = "SELECT name FROM t /* ( */ ORDER BY age"
        assert execution_accuracy("SELECT name FROM t ORDER BY age DESC", gold,
                                  people_db) == "mismatch"
        assert execution_accuracy("SELECT name FROM t ORDER BY age", gold,
                                  people_db) == "match"


class TestNoStatement:
    """Text that holds no statement (blank, or only comments and
    semicolons) runs nothing: it is not the zero rows of an empty result."""

    NO_STATEMENT = ["", "   ", "-- nothing", "/* c */", ";"]
    EMPTY_GOLD = "SELECT name FROM t WHERE age > 1000"

    def test_prediction_is_pred_error_against_an_empty_gold_result(self, people_db):
        verdicts = execution_verdicts(self.NO_STATEMENT, self.EMPTY_GOLD, people_db)
        assert verdicts == [("pred_error", "the SQL holds no statement")] * 5

    @pytest.mark.parametrize("gold", NO_STATEMENT)
    def test_gold_is_gold_error(self, people_db, gold):
        assert execution_accuracy(self.EMPTY_GOLD, gold, people_db) == "gold_error"

    def test_a_statement_with_a_comment_still_matches(self, people_db):
        assert execution_accuracy(self.EMPTY_GOLD + " -- none; ", self.EMPTY_GOLD,
                                  people_db) == "match"


class TestWriteGuard:
    """Statements run read-only whatever connection the caller opened."""

    @pytest.mark.parametrize("write", ["CREATE TABLE u (x)", "DELETE FROM t",
                                       "UPDATE t SET age = 0", "DROP TABLE t"])
    def test_writes_are_pred_error_and_change_nothing(self, tmp_path, write):
        path = tmp_path / "people.sqlite"
        with sqlite3.connect(path) as setup:
            setup.execute("CREATE TABLE t (name TEXT, age INTEGER)")
            setup.executemany("INSERT INTO t VALUES (?, ?)",
                              [("ann", 30), ("bob", 20), ("cy", 40)])
        setup.close()
        before = hashlib.sha256(path.read_bytes()).hexdigest()
        # each prediction spells its gold's rows out as constants
        pairs = [("SELECT 'ann' UNION ALL SELECT 'cy'", "SELECT name FROM t WHERE age > 25"),
                 ("SELECT 3", "SELECT count(*) FROM t"),
                 ("VALUES ('bob'), ('ann'), ('cy')", "SELECT name FROM t ORDER BY age")]
        conn = sqlite3.connect(path)  # read-write
        try:
            assert [execution_accuracy(p, g, conn) for p, g in pairs] == ["match"] * 3
            assert execution_accuracy(write, pairs[0][1], conn) == "pred_error"
            assert [execution_accuracy(p, g, conn) for p, g in pairs] == ["match"] * 3
        finally:
            conn.close()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == before


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

    def test_budget_counts_one_execution_not_a_cached_statements_total(
            self, people_db, monkeypatch):
        """sqlite's step count runs on across executions of one cached
        statement; a query far under the budget stays so however often it
        runs on one connection."""
        monkeypatch.setattr(metrics, "QUERY_STEP_BUDGET", 2_000)
        people_db.executemany("INSERT INTO t VALUES (?, ?)",
                              [(f"p{i}", i % 7) for i in range(40)])
        gold = "SELECT age, count(*) FROM t GROUP BY age"
        assert all(execution_accuracy(gold, gold, people_db) == "match"
                   for _ in range(100))


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

    @pytest.mark.parametrize("sql", [
        'SELECT "order by" FROM t',
        "SELECT `order by` FROM t",
        "SELECT [order by] FROM t",
        "SELECT a FROM t -- order by a",
        "SELECT a FROM t /* order by a */",
        "SELECT a FROM t /* order by a",
    ])
    def test_identifiers_and_comments_are_not_ordering(self, sql):
        assert not _has_top_level_order_by(sql)

    @pytest.mark.parametrize("sql", [
        "SELECT a FROM t /* ( */ ORDER BY a",
        "SELECT a FROM t -- (\nORDER BY a",
        'SELECT "(" FROM t ORDER BY 1',
        "SELECT `(` FROM t ORDER BY 1",
        "SELECT [(] FROM t ORDER BY 1",
        "SELECT a FROM t ORDER/**/BY a",
    ])
    def test_parentheses_in_identifiers_and_comments_do_not_hide_ordering(self, sql):
        assert _has_top_level_order_by(sql)


class TestExSummary:
    def test_accuracy_counts(self):
        assert ex_summary(["match", "mismatch", "match", "pred_error"]) == \
            (0.5, {"match": 2, "mismatch": 1, "pred_error": 1})

    def test_counts_keep_first_seen_order(self):
        _, counts = ex_summary(["pred_error", "match", "mismatch", "match"])
        assert list(counts) == ["pred_error", "match", "mismatch"]

    def test_gold_error_excluded_from_denominator(self):
        assert ex_summary(["match", "gold_error", "gold_error"]) == \
            (1.0, {"match": 1, "gold_error": 2})

    def test_only_gold_errors_score_zero(self):
        assert ex_summary(["gold_error"]) == (0.0, {"gold_error": 1})

    def test_empty(self):
        assert ex_summary([]) == (0.0, {})
