"""Schema-linking metrics and execution accuracy.

ROC-AUC is the Mann-Whitney pairwise win rate (ties count 0.5); PR-AUC is
average precision with step interpolation and deterministic tie order by
index. Execution accuracy compares result multisets (or ordered lists when
the gold query has a top-level ORDER BY) with position-wise value equality
and relative numeric tolerance 1e-6.
"""
from __future__ import annotations

import re
import sqlite3
from collections import Counter
from dataclasses import dataclass, field

from .errors import DbUnavailable, DegenerateLabels, LengthMismatch

NUMERIC_REL_TOL = 1e-6
# sqlite VM steps one statement may take before it is interrupted: a few
# seconds of work, far above any desk gold query (under 900 steps). A step
# budget starts no thread and stops a runaway query at the same point on
# every run.
QUERY_STEP_BUDGET = 100_000_000


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


@dataclass
class ExReport:
    verdicts: list[str] = field(default_factory=list)  # match/mismatch/pred_error/gold_error

    def add(self, verdict: str):
        self.verdicts.append(verdict)

    @property
    def accuracy(self) -> float:
        scored = [v for v in self.verdicts if v != "gold_error"]
        if not scored:
            return 0.0
        return sum(1 for v in scored if v == "match") / len(scored)

    def counts(self) -> dict[str, int]:
        return dict(Counter(self.verdicts))


def _canonical_value(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, float)):
        return f"{float(v):.6g}" if v != 0 else "0"
    return v


def _canonical_rows(rows) -> list[tuple]:
    return [tuple(_canonical_value(v) for v in row) for row in rows]


def _execute(db: sqlite3.Connection, sql: str) -> list[tuple]:
    # the handler first runs once the statement has taken the whole budget;
    # returning nonzero interrupts it with an OperationalError
    db.set_progress_handler(lambda: 1, QUERY_STEP_BUDGET)
    try:
        return db.execute(sql).fetchall()
    finally:
        db.set_progress_handler(None, 0)


_ORDER_BY_RE = re.compile(r"\border\s+by\b", re.IGNORECASE)


def _has_top_level_order_by(sql: str) -> bool:
    # strip string literals and parenthesized subexpressions, then look for ORDER BY
    depth = 0
    quoted = False
    flat = []
    for ch in sql:
        if ch == "'":
            quoted = not quoted  # an escaped '' closes the literal and reopens it
            flat.append(" ")  # keeps the words around a literal apart
        elif quoted:
            continue
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif depth == 0:
            flat.append(ch)
    return bool(_ORDER_BY_RE.search("".join(flat)))


def execution_accuracy(pred_sql: str, gold_sql: str, db: sqlite3.Connection) -> str:
    """Single-example verdict: match / mismatch / pred_error / gold_error."""
    if db is None:
        raise DbUnavailable("no database connection")
    try:
        gold_rows = _execute(db, gold_sql)
    except sqlite3.Error:
        return "gold_error"
    try:
        pred_rows = _execute(db, pred_sql)
    except sqlite3.Error:
        return "pred_error"
    gold_c = _canonical_rows(gold_rows)
    pred_c = _canonical_rows(pred_rows)
    if _has_top_level_order_by(gold_sql):
        return "match" if gold_c == pred_c else "mismatch"
    return "match" if Counter(gold_c) == Counter(pred_c) else "mismatch"
