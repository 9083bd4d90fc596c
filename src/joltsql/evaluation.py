"""Dev-set evaluation: linking metrics, execution accuracy, threshold sweep.

`evaluate` and `threshold_sweep` share one loop over examples. Inference
is `pipeline.infer_thresholds`, once per example at every threshold scored:
one prompt encoding, and one stacked decode of the distinct predicted
sets. This module only executes SQL and aggregates: an example's gold SQL
runs once and each distinct result's SQL once against its rows. A record
is the example id, the result's `InferenceResult.to_json` (what `jolt
infer` prints), the verdict and, for a pred_error, SQLite's error text;
every record of an example carries that call's one timings dict. EX and
its counts are read off those records' verdicts. Corpus databases are
opened read-only, so SQL the model writes cannot change them.
"""
from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DbUnavailable, LengthMismatch
from .metrics import ex_summary, execution_verdicts, pr_auc, precision_recall, roc_auc
from .model import ModelParams
from .pipeline import (DEFAULT_MAX_NEW, DEFAULT_THRESHOLD, TrainingExample, check_max_len,
                       infer_thresholds)
from .tokenizer import Vocab

SWEEP_THRESHOLDS = [0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.01]


@dataclass
class EvalResult:
    threshold: float
    precision: float
    recall: float
    roc_auc: float
    pr_auc: float
    ex: float
    ex_counts: dict[str, int]
    per_example: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        """Every field but the per-example records, in field order."""
        return {k: v for k, v in vars(self).items() if k != "per_example"}


def connect_readonly(path: str) -> sqlite3.Connection:
    """Open an existing database file read-only; DbUnavailable naming the
    path when it cannot be opened or read, or holds no table, and no file
    is created."""
    try:
        conn = sqlite3.connect(Path(path).resolve().as_uri() + "?mode=ro", uri=True)
    except sqlite3.OperationalError as e:
        raise DbUnavailable(f"cannot open {path} read-only: {e}") from e
    try:
        if conn.execute("SELECT count(*) FROM sqlite_master WHERE type = 'table'").fetchone()[0]:
            return conn
        problem = "it holds no tables"
    except sqlite3.DatabaseError as e:
        problem = str(e)
    conn.close()
    raise DbUnavailable(f"cannot read {path}: {problem}")


def _run(params: ModelParams, examples: list[TrainingExample], vocab: Vocab,
         db_paths: dict[str, str], thresholds: list[float],
         max_new: int) -> tuple[list[list[float]], list[list[dict]]]:
    """The loop evaluate and threshold_sweep share: per example, its marker
    scores in column order, and per threshold, one record per example.
    Examples run one at a time, so only one prompt encoding's K/V is alive
    at once. Raises before any work LengthMismatch when there are no
    examples, which neither average could score, and ShapeMismatch naming
    an example whose prompt is longer than the model's max_len."""
    if not examples:
        raise LengthMismatch("empty inputs")
    check_max_len(examples, params.config.max_len, prompts=True)
    scores: list[list[float]] = []
    records: list[list[dict]] = [[] for _ in thresholds]
    connections: dict[str, sqlite3.Connection] = {}
    try:
        for ex in examples:
            if ex.db_id not in connections:
                connections[ex.db_id] = connect_readonly(db_paths[ex.db_id])
            scored, results = infer_thresholds(params, ex, vocab, thresholds, max_new)
            scores.append([s for _, _, s in scored])
            distinct = list({id(result): result for result in results}.values())
            verdicts = execution_verdicts([result.sql for result in distinct], ex.gold_sql,
                                          connections[ex.db_id])
            shared = {id(result): {  # one per distinct result, executed once
                "example_id": ex.example_id, **result.to_json(),
                "verdict": verdict, "sqlite_error": error,
            } for result, (verdict, error) in zip(distinct, verdicts)}
            for per_threshold, result in zip(records, results):
                per_threshold.append(shared[id(result)])
    finally:
        for conn in connections.values():
            conn.close()
    return scores, records


def _pooled(scores: list[list[float]],
            examples: list[TrainingExample]) -> tuple[list[float], list[int]]:
    """Micro-averaging pools: every example's scores and gold labels."""
    return [s for per in scores for s in per], [y for ex in examples for y in ex.label]


def evaluate(params: ModelParams, examples: list[TrainingExample], vocab: Vocab,
             db_paths: dict[str, str], threshold: float = DEFAULT_THRESHOLD,
             max_new: int = DEFAULT_MAX_NEW, average: str = "micro") -> EvalResult:
    if average not in ("micro", "macro"):
        raise ValueError("average must be micro or macro")
    scores, records = _run(params, examples, vocab, db_paths, [threshold], max_new)
    pooled = _pooled(scores, examples)
    if average == "macro":
        # per-example precision/recall, then mean; AUCs stay pooled because
        # single-example pools can be single-class
        per = [precision_recall(s, ex.label, threshold) for s, ex in zip(scores, examples)]
        p, r = (sum(column) / len(per) for column in zip(*per))
    else:
        p, r = precision_recall(*pooled, threshold)
    accuracy, counts = ex_summary(record["verdict"] for record in records[0])
    return EvalResult(threshold, p, r, roc_auc(*pooled), pr_auc(*pooled), accuracy, counts,
                      records[0])


def threshold_sweep(params: ModelParams, examples: list[TrainingExample],
                    vocab: Vocab, db_paths: dict[str, str],
                    max_new: int = DEFAULT_MAX_NEW) -> list[dict]:
    """(threshold -> precision, recall, EX) rows, one per `SWEEP_THRESHOLDS`
    entry in its order. Precision and recall are micro-averaged over the
    pooled marker scores; EX at each threshold decodes from the predicted
    set at that threshold. One `infer_thresholds` call per example serves
    every threshold, and each distinct predicted set's SQL is executed once."""
    scores, records = _run(params, examples, vocab, db_paths, SWEEP_THRESHOLDS, max_new)
    pooled = _pooled(scores, examples)
    rows = []
    for t, per_threshold in zip(SWEEP_THRESHOLDS, records):
        p, r = precision_recall(*pooled, t)
        rows.append({"threshold": t, "precision": p, "recall": r,
                     "ex": ex_summary(record["verdict"] for record in per_threshold)[0]})
    return rows


def sweep_csv(rows: list[dict]) -> str:
    lines = ["threshold,precision,recall,ex"]
    for row in rows:
        lines.append(f"{row['threshold']:.6g},{row['precision']:.6f},"
                     f"{row['recall']:.6f},{row['ex']:.6f}")
    return "\n".join(lines) + "\n"


def sweep_svg(rows: list[dict], width: int = 480, height: int = 320) -> str:
    """Deterministic line plot of precision/recall/EX against threshold."""
    pad = 40
    xs = [row["threshold"] for row in rows]
    xmin, xmax = min(xs), max(xs)
    span = (xmax - xmin) or 1.0

    def px(x: float) -> float:
        return pad + (x - xmin) / span * (width - 2 * pad)

    def py(y: float) -> float:
        return height - pad - y * (height - 2 * pad)

    series = [("precision", "#1f77b4"), ("recall", "#2ca02c"), ("ex", "#d62728")]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
    ]
    for key, color in series:
        pts = " ".join(f"{px(row['threshold']):.1f},{py(row[key]):.1f}" for row in rows)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
    for i, (key, color) in enumerate(series):
        y = pad + 14 * i
        parts.append(f'<text x="{width - pad - 70}" y="{y}" fill="{color}" font-size="12">{key}</text>')
    parts.append("</svg>")
    return "".join(parts)
