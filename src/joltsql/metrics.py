"""Schema-linking metrics and execution accuracy.

ROC-AUC is the Mann-Whitney pairwise win rate (ties count 0.5); PR-AUC is
average precision with step interpolation and deterministic tie order by
index. Execution accuracy compares result multisets (or ordered lists when
the gold query has a top-level ORDER BY) with position-wise value equality.
Numbers are equal when they print alike rounded to 6 significant digits
(`%.6g`): 1 equals 1.0 and 123456.6 equals 123457.4, but 0.99999949 (which
rounds to 0.999999) differs from 1.0. This is not a relative tolerance.
"""
from __future__ import annotations

import re
import sqlite3
from collections import Counter
from collections.abc import Iterable

from .errors import DbUnavailable, DegenerateLabels, LengthMismatch
from .sqlscope import read_only

# sqlite VM steps one execution of a statement may take before it is
# interrupted: a few seconds of work, far above any desk gold query (under
# 900 steps). A step budget starts no thread and stops a runaway query at
# the same point on every run.
QUERY_STEP_BUDGET = 100_000_000

# steps between calls of the budget's progress handler
_STEPS_PER_CHECK = 1_000


def precision_recall(scores: list[float], labels: list[int],
                     threshold: float) -> tuple[float, float]:
    """Micro-averaged precision and recall at a decision threshold.

    Precision is 1 when nothing is predicted; recall is 1 when there are
    no positives.
    """
    if len(scores) != len(labels):
        raise LengthMismatch(f"{len(scores)} scores vs {len(labels)} labels")
    if not scores:
        raise LengthMismatch("empty inputs")
    tp = sum(1 for s, y in zip(scores, labels) if s > threshold and y == 1)
    fp = sum(1 for s, y in zip(scores, labels) if s > threshold and y == 0)
    fn = sum(1 for s, y in zip(scores, labels) if s <= threshold and y == 1)
    precision = tp / (tp + fp) if tp + fp > 0 else 1.0
    recall = tp / (tp + fn) if tp + fn > 0 else 1.0
    return precision, recall


def roc_auc(scores: list[float], labels: list[int]) -> float:
    """Fraction of (positive, negative) pairs ranked correctly; ties 0.5."""
    if len(scores) != len(labels):
        raise LengthMismatch(f"{len(scores)} scores vs {len(labels)} labels")
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        raise DegenerateLabels("need at least one positive and one negative")
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def pr_auc(scores: list[float], labels: list[int]) -> float:
    """Average precision: sum over positives (in descending score order,
    ties broken by index) of delta-recall times precision at that cut."""
    if len(scores) != len(labels):
        raise LengthMismatch(f"{len(scores)} scores vs {len(labels)} labels")
    n_pos = sum(labels)
    if n_pos == 0:
        raise DegenerateLabels("need at least one positive")
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    ap = 0.0
    tp = 0
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            tp += 1
            ap += (1.0 / n_pos) * (tp / rank)
    return ap


def ex_summary(verdicts: Iterable[str]) -> tuple[float, dict[str, int]]:
    """Execution accuracy over match / mismatch / pred_error / gold_error
    verdicts, and each verdict's count in first-seen order. gold_error is
    out of the denominator; EX is 0.0 when nothing was scored."""
    counts = Counter(verdicts)
    scored = sum(counts.values()) - counts["gold_error"]
    return (counts["match"] / scored if scored else 0.0), dict(counts)


def _canonical_value(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, float)):
        return f"{float(v):.6g}" if v != 0 else "0"
    return v


def _canonical_rows(rows) -> list[tuple]:
    return [tuple(_canonical_value(v) for v in row) for row in rows]


def _execute(db: sqlite3.Connection, sql: str) -> list[tuple]:
    """All rows of one read-only statement, whatever the connection allows:
    a write or any other statement but a SELECT fails to prepare, text that
    holds no statement (blank, or only comments and semicolons) runs
    nothing, and an execution that takes more than `QUERY_STEP_BUDGET`
    steps is interrupted, each with a sqlite3.Error. The budget counts this
    execution's own steps: sqlite's step count runs on across the
    executions of one cached statement, so a handler called at the budget
    itself would stop a cheap query that was run often enough. The caller's
    progress handler and authorizer are cleared afterwards."""
    steps = 0

    def over_budget() -> bool:  # a true return interrupts the statement
        nonlocal steps
        steps += _STEPS_PER_CHECK
        return steps > QUERY_STEP_BUDGET

    db.set_progress_handler(over_budget, _STEPS_PER_CHECK)
    db.set_authorizer(read_only)
    try:
        cursor = db.execute(sql)
        if cursor.description is None:  # no statement ran, not zero rows
            raise sqlite3.ProgrammingError("the SQL holds no statement")
        return cursor.fetchall()
    finally:
        db.set_authorizer(None)
        db.set_progress_handler(None, 0)


# string literals, quoted identifiers and comments, whose text may hold
# anything, each through its end (or the statement's end when unclosed)
_OPAQUE_RE = re.compile(r"""'[^']*'?|"[^"]*"?|`[^`]*`?|\[[^\]]*\]?|--[^\n]*|/\*.*?(?:\*/|\Z)""",
                        re.S)
_ORDER_BY_RE = re.compile(r"\border\s+by\b", re.IGNORECASE)


def _has_top_level_order_by(sql: str) -> bool:
    # blank literals, identifiers and comments, drop parenthesized
    # subexpressions, then look for ORDER BY
    depth = 0
    flat = []
    for ch in _OPAQUE_RE.sub(" ", sql):  # the space keeps the words around apart
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif depth == 0:
            flat.append(ch)
    return bool(_ORDER_BY_RE.search("".join(flat)))


def execution_verdicts(pred_sqls: list[str], gold_sql: str,
                       db: sqlite3.Connection) -> list[tuple[str, str | None]]:
    """Each prediction's verdict against one gold query, which runs once:
    (match / mismatch / pred_error / gold_error, SQLite's error text for a
    pred_error and None otherwise). A refused write, a syntax error, text
    with no statement and a step-budget interrupt are all pred_error, told
    apart by their text; a gold query that fails any of them is gold_error."""
    if db is None:
        raise DbUnavailable("no database connection")
    try:
        gold_c = _canonical_rows(_execute(db, gold_sql))
    except sqlite3.Error:
        return [("gold_error", None)] * len(pred_sqls)
    ordered = _has_top_level_order_by(gold_sql)
    gold_key = gold_c if ordered else Counter(gold_c)
    out = []
    for pred_sql in pred_sqls:
        try:
            pred_c = _canonical_rows(_execute(db, pred_sql))
        except sqlite3.Error as e:
            out.append(("pred_error", str(e)))
            continue
        same = gold_key == (pred_c if ordered else Counter(pred_c))
        out.append(("match" if same else "mismatch", None))
    return out


def execution_accuracy(pred_sql: str, gold_sql: str, db: sqlite3.Connection) -> str:
    """Single-example verdict: match / mismatch / pred_error / gold_error."""
    return execution_verdicts([pred_sql], gold_sql, db)[0][0]
