"""End-to-end training and inference.

The examples over a database share its one serialized and tokenized
schema (`tokenized_schema`), so an example tokenizes and looks up only its
prefix and query, and its gold links are compiled once per distinct gold
SQL (`sqlscope.extract_ground_truth`).

Training follows the joint recipe: in epoch 1 the linking pass fills the
weight cache with linking probabilities; every step draws a noisy column
subset, builds the joint mask over the example's fixed layout with the gold
and noisy columns' schema tokens as its query rows' view, and optimizes the
summed linking + next-token loss.

Inference decodes under that same joint mask, off the autodiff tape: the
tape is training's alone, and one layer loop on plain arrays
(`model.forward_values`) runs the prompt pass and every decode step. The
prompt pass over the full prefix+schema (positions 0..n-1) writes every
layer's K/V into n x d buffers, and its last layer runs only the rows read
after it: the marker rows (the linking scores) and the last prompt row
(the first SQL token's logits). No other prompt row's logits exist.
Generated tokens take positions n, n+1, ... as query tokens do in
training. Pruning is a boolean mask over the full prompt (`prune_prompt`),
not an edit of its text: decode rows take the `query_view` a training
query row takes, with the predicted columns (every column when nothing is
predicted) in place of the gold and noisy ones. Prompt rows never see
query rows, so each decode step is one row per sequence against the
cached K/V. Re-encoding a pruned prompt under a causal mask would instead
change the schema rows' K/V and the row that predicts the first token, a
layout training never showed the model.

`infer_thresholds` is the one inference step: one prompt encoding, then
one stacked `generate_sql` over the distinct sets the thresholds predict.
Each decode step runs one row per set, stacked B x 1 x d (one set
included), so every set gets the SQL it would get decoded alone. `infer`
is that step at one threshold; evaluation runs it at every threshold it
scores.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from . import autodiff as ad
from .errors import (DegenerateExample, EmptyPrediction, InvalidSchema, JoltError,
                     MalformedInput, NonFiniteLoss, ShapeMismatch)
from .jsonfile import count_jsonl, iter_jsonl
from .masks import build_joint_mask, query_view
from .model import (ModelConfig, ModelParams, PromptEncoding, forward, greedy_generate,
                    joint_loss, ntp_loss, prompt_pass, schema_linking_loss)
from .sampling import WeightCache, draw_noise_count, example_rng, sample_noisy
from .schema import SchemaDocument, serialize_schema
from .sqlscope import extract_ground_truth
from .tokenizer import (EOS, SchemaTokens, SegmentMap, TokenSequence, Vocab, count_words,
                        decode, encode, tokenize_schema)

PREFIX_TEMPLATE = "translate the question to sql . question : {question}"

# the linking threshold and the decode budget of `infer`, evaluation and the CLI
DEFAULT_THRESHOLD = 0.05
DEFAULT_MAX_NEW = 64


@dataclass
class TrainConfig:
    epochs: int = 3
    # from-scratch toy default; fine-tuning-scale runs would use 1.8e-5
    learning_rate: float = 3e-4
    weight_decay: float = 1e-4
    grad_accum: int = 6
    max_grad_norm: float = 1.0
    beta: float = 0.2
    seed: int = 0
    noise_mode: str = "confusion"  # confusion | random | none

    def __post_init__(self):
        for name in ("epochs", "grad_accum"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not self.max_grad_norm > 0:
            raise ValueError("max_grad_norm must be positive")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError("weight_decay must be non-negative and finite")
        if not 0 < self.beta < 1:
            raise ValueError("beta must be in (0, 1)")
        if self.noise_mode not in ("confusion", "random", "none"):
            raise ValueError("noise_mode must be confusion, random, or none")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass
class TrainingExample:
    example_id: str
    db_id: str
    question: str
    gold_sql: str
    link: set[tuple[str, str]]
    label: list[int]
    tokens: TokenSequence
    seg: SegmentMap
    schema_doc: SchemaDocument

    @property
    def marker_positions(self) -> list[int]:
        return [pos for _, _, pos in self.seg.marker_columns]

    def non_gt_columns(self) -> list[tuple[str, str]]:
        """(table, column) not in the link set, serialization order."""
        return [(t, c) for t, c, _ in self.seg.marker_columns if (t, c) not in self.link]


def tokenized_schema(schema_doc: SchemaDocument) -> SchemaTokens:
    """The document's serialized and tokenized schema, made once per
    document (`SchemaDocument.memo`). `Vocab.schema_ids` keys its word ids
    on its `words`, so its examples share those too."""
    return schema_doc.memo("tokens", lambda doc: tokenize_schema(*serialize_schema(doc)))


def _build_example(question: str, schema_doc: SchemaDocument, gold_sql: str,
                   links: set[tuple[str, str]], vocab: Vocab, example_id: str,
                   db_id: str) -> TrainingExample:
    """The one example constructor: prefix, marked schema, `gold_sql`;
    `links` label it, one entry per marker in the order the loss reads."""
    tokens, seg = encode(PREFIX_TEMPLATE.format(question=question),
                         tokenized_schema(schema_doc), gold_sql, vocab)
    label = [int((t, c) in links) for t, c, _ in seg.marker_columns]
    return TrainingExample(example_id, db_id, question, gold_sql, links,
                           label, tokens, seg, schema_doc)


def gold_links(gold_sql: str, schema_doc: SchemaDocument) -> set[tuple[str, str]]:
    """`extract_ground_truth`'s links; raises DegenerateExample when there are none."""
    links = extract_ground_truth(gold_sql, schema_doc)
    if not links:
        raise DegenerateExample(f"gold SQL references no columns: {gold_sql!r}")
    return links


def build_training_example(question: str, schema_doc: SchemaDocument, gold_sql: str,
                           vocab: Vocab, example_id: str, db_id: str = "") -> TrainingExample:
    links = gold_links(gold_sql, schema_doc)
    ex = _build_example(question, schema_doc, gold_sql, links, vocab, example_id, db_id)
    # terminate the query with EOS so generation learns to stop
    ex.tokens = TokenSequence(ex.tokens.ids + [EOS])
    ex.seg = replace(ex.seg, n=ex.seg.n + 1)
    return ex


def example_length(question: str, schema_doc: SchemaDocument, gold_sql: str) -> int:
    """`len(build_training_example(...).tokens.ids)` without building it:
    prefix, schema and query words, then EOS."""
    return (count_words(PREFIX_TEMPLATE.format(question=question))
            + len(tokenized_schema(schema_doc).words) + count_words(gold_sql) + 1)


def assemble_segments(example: TrainingExample,
                      noisy_columns: set[tuple[str, str]]) -> set[int]:
    """The schema tokens one step's query rows attend to: those of the gold
    and the noisy columns, by `SegmentMap.schema_tokens`, so a noisy column
    whose table has no gold column drags in that table's header/pk/fk/footer
    tokens and the attended text stays well-formed DDL. The example's
    layout is only read."""
    return example.seg.schema_tokens(example.link | noisy_columns)


def capture_sampling_weights(params: ModelParams, example: TrainingExample) -> list[float]:
    """Non-GT scores of the linking pass, in marker order: the confusion
    signal for later sampling. Marker rows never see query rows, so a
    training forward's marker probabilities are these, to rounding."""
    gt = example.link
    return [s for t, c, s in link_schema(params, example) if (t, c) not in gt]


@dataclass
class TrainResult:
    params: ModelParams
    cache: WeightCache
    log: list[dict] = field(default_factory=list)


def _check_ids(examples: list[TrainingExample]):
    """Raises MalformedInput naming the first example id seen twice: the id
    keys the weight cache and the noise stream."""
    seen: set[str] = set()
    for ex in examples:
        if ex.example_id in seen:
            raise MalformedInput(f"example id {ex.example_id!r} is repeated")
        seen.add(ex.example_id)


def check_max_len(examples: list[TrainingExample], max_len: int, prompts: bool = False):
    """Raises ShapeMismatch naming the first example whose tokens, or with
    `prompts` whose prompt (the prefix and schema inference runs), take
    more than `max_len` positions. Run before any work, so a refused run
    has trained or scored nothing."""
    for ex in examples:
        n = ex.seg.query_start if prompts else len(ex.tokens.ids)
        if n > max_len:
            raise ShapeMismatch(f"example {ex.example_id!r}: {'prompt' if prompts else 'sequence'}"
                                f" of {n} tokens is longer than max_len {max_len}")


def train(examples: list[TrainingExample], model_config: ModelConfig,
          config: TrainConfig, log_fn=None, cache: WeightCache | None = None) -> TrainResult:
    """Train from the initial parameters. Confusion sampling's epoch 1
    fills `cache` (a fresh one when None); a filled cache is refused."""
    _check_ids(examples)
    check_max_len(examples, model_config.max_len)
    cache = cache if cache is not None else WeightCache()
    if cache.capture_count:
        raise ValueError("train fills its own weight cache; it was given a filled one")
    params = ModelParams(model_config, seed=config.seed)
    opt = ad.AdamW(params.all_params(), lr=config.learning_rate,
                   weight_decay=config.weight_decay)
    log: list[dict] = []
    step = 0
    last_step = config.epochs * len(examples) - 1
    for epoch in range(1, config.epochs + 1):
        order_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 7919, epoch]))
        order = order_rng.permutation(len(examples))
        for idx in order:
            ex = examples[int(idx)]
            if config.noise_mode == "confusion" and epoch == 1:
                weights = capture_sampling_weights(params, ex)
                if not np.isfinite(weights).all():
                    raise NonFiniteLoss(f"step {step}: example {ex.example_id!r}: "
                                        "captured sampling weights are not finite")
                cache.record(ex.example_id, weights)

            rng = example_rng(config.seed, ex.example_id, epoch, step)
            pool = ex.non_gt_columns()
            if config.noise_mode == "none":
                noisy_cols: set[tuple[str, str]] = set()
            else:
                k = draw_noise_count(len(ex.seg.marker_columns), config.beta, rng)
                weights = (cache.lookup(ex.example_id) if config.noise_mode == "confusion"
                           else [1.0] * len(pool))
                noisy_cols = sample_noisy(pool, weights, k, rng)

            mask = build_joint_mask(ex.seg, assemble_segments(ex, noisy_cols))
            out = forward(params, ex.tokens.ids, mask)
            l_sl = schema_linking_loss(out.marker_probs, ex.label,
                                       ex.marker_positions)
            l_ntp = ntp_loss(out.lm_logits, ex.tokens.ids, ex.seg.query)
            loss = joint_loss(l_sl, l_ntp)
            if not np.isfinite(loss.data):
                raise NonFiniteLoss(
                    f"step {step}: L_SL={l_sl.item()}, L_NTP={l_ntp.item()}")
            ad.backward(ad.scale(loss, 1.0 / config.grad_accum))
            entry = {"step": step, "epoch": epoch, "example_id": ex.example_id,
                     "l_sl": l_sl.item(), "l_ntp": l_ntp.item(),
                     "k_noisy": len(noisy_cols)}
            if (step + 1) % config.grad_accum == 0 or step == last_step:
                # norm of the accumulated gradient, before clipping
                entry["grad_norm"] = ad.clip_grad_norm(params.all_params(),
                                                       config.max_grad_norm)
                opt.step()
                opt.zero_grad()
            log.append(entry)
            if log_fn is not None:
                log_fn("train_step", entry)
            step += 1
    return TrainResult(params, cache, log)


# ---------------------------------------------------------------- inference

@dataclass
class InferenceResult:
    predicted_columns: list[tuple[str, str, float]]
    sql: str
    timings_ms: dict[str, float]

    @property
    def used_fallback(self) -> bool:
        """Whether nothing was predicted, so the SQL was decoded over every column."""
        return not self.predicted_columns

    def to_json(self) -> dict:
        """The record `jolt infer` prints, and every evaluation record
        holds: the SQL, the predicted columns as {table, column, score},
        the fallback flag and the timings."""
        return {"sql": self.sql,
                "predicted_columns": [{"table": t, "column": c, "score": s}
                                      for t, c, s in self.predicted_columns],
                "used_fallback": self.used_fallback,
                "timings_ms": self.timings_ms}


def encode_prompt(params: ModelParams, example: TrainingExample) -> PromptEncoding:
    """The prompt pass (`model.prompt_pass`, on arrays) over the full
    prefix+schema under the joint mask, at positions 0..n-1, whose last
    layer runs only the rows inference reads: the marker rows in marker
    order, then the last prompt row. Prompt rows never attend to query
    rows, so its marker scores, its last row's logits (the first SQL token)
    and its per-layer K/V are those of the training layout, the first two
    to rounding."""
    seg = replace(example.seg, n=example.seg.query_start)
    return prompt_pass(params, example.tokens.ids[:seg.n], build_joint_mask(seg, set()),
                       rows=example.marker_positions + [seg.n - 1])


def marker_scores(example: TrainingExample,
                  out: PromptEncoding) -> list[tuple[str, str, float]]:
    """(table, column, score) for every column, read off a prompt
    encoding's marker rows, which come first and in marker order."""
    probs = out.marker_probs[:, 0]
    return [(t, c, float(p)) for (t, c, _), p in zip(example.seg.marker_columns, probs)]


def link_schema(params: ModelParams,
                example: TrainingExample) -> list[tuple[str, str, float]]:
    """`marker_scores` of one prompt encoding: every column's (table,
    column, score), in marker order."""
    return marker_scores(example, encode_prompt(params, example))


def prune_prompt(example: TrainingExample,
                 predicted: set[tuple[str, str]]) -> np.ndarray:
    """The decode rows' boolean view of the prompt: `query_view` of the
    predicted columns' schema tokens (`SegmentMap.schema_tokens`: their
    definitions and their tables' header, pk, fks and footer)."""
    if not predicted:
        raise EmptyPrediction("no columns predicted")
    return query_view(example.seg, example.seg.schema_tokens(predicted))


def full_schema_prompt(example: TrainingExample) -> np.ndarray:
    """prune_prompt over every column, the fallback when nothing is predicted."""
    all_cols = {(t, c) for t, c, _ in example.seg.marker_columns}
    return prune_prompt(example, all_cols)


def generate_sql(params: ModelParams, example: TrainingExample,
                 encoded: PromptEncoding, predicted_sets: list[set[tuple[str, str]]],
                 vocab: Vocab, max_new: int) -> list[str]:
    """Greedy SQL for each predicted column set, from one prompt encoding,
    all sets decoded together in one stacked `greedy_generate`.

    `encoded` is `encode_prompt(params, example)`; its last row gives the
    first token and its K/V serve every decode step. Each set's decode rows
    attend to the prompt positions `prune_prompt` flags
    (`full_schema_prompt`'s when the set is empty), the tokens generated so
    far and themselves. Returns each set's SQL, the one it would get
    decoded alone.
    """
    attends = [prune_prompt(example, predicted) if predicted else full_schema_prompt(example)
               for predicted in predicted_sets]
    generated = greedy_generate(params, example.tokens.ids[:example.seg.query_start],
                                max_new=max_new, stop_id=EOS, encoded=encoded,
                                attends=attends)
    # a sequence stops at its first EOS, so EOS can only end it
    return [decode([i for i in new if i != EOS], vocab) for new in generated]


def infer_thresholds(params: ModelParams, example: TrainingExample, vocab: Vocab,
                     thresholds: list[float], max_new: int
                     ) -> tuple[list[tuple[str, str, float]], list[InferenceResult]]:
    """The inference step: one prompt encoding gives every column's score
    and the K/V one stacked `generate_sql` decodes each distinct predicted
    set from. Returns every column's (table, column, score) in marker
    order and a result per threshold, in order; thresholds predicting one
    set share its result. All results share one `timings_ms`: `linking` is
    the encoding and the scores, `generation` thresholding and decoding."""
    t0 = time.perf_counter()
    encoded = encode_prompt(params, example)
    scored = marker_scores(example, encoded)
    t1 = time.perf_counter()
    keys = [frozenset((t, c) for t, c, s in scored if s > threshold) for threshold in thresholds]
    distinct = list(dict.fromkeys(keys))  # threshold order
    generated = generate_sql(params, example, encoded, distinct, vocab, max_new)
    t2 = time.perf_counter()
    timings_ms = {"linking": (t1 - t0) * 1000.0,
                  "generation": (t2 - t1) * 1000.0,
                  "end_to_end": (t2 - t0) * 1000.0}
    by_set = {key: InferenceResult([(t, c, s) for t, c, s in scored if (t, c) in key],
                                   sql, timings_ms)
              for key, sql in zip(distinct, generated)}
    return scored, [by_set[key] for key in keys]


def infer(params: ModelParams, example: TrainingExample, vocab: Vocab,
          threshold: float = DEFAULT_THRESHOLD,
          max_new: int = DEFAULT_MAX_NEW) -> InferenceResult:
    """`infer_thresholds` at one threshold."""
    return infer_thresholds(params, example, vocab, [threshold], max_new)[1][0]


def prepare_inference_example(question: str, schema_doc: SchemaDocument,
                              vocab: Vocab, example_id: str = "query") -> TrainingExample:
    """Example shell with an empty query part, for linking+generation only."""
    return _build_example(question, schema_doc, "", set(), vocab, example_id, "")


# ---------------------------------------------------------------- loading

def load_corpus(path: str, vocab: Vocab,
                schemas: dict[str, SchemaDocument],
                fraction: float = 1.0) -> list[TrainingExample]:
    """Rebuild each record's example from its question and gold SQL, one
    record at a time as the file is read; a `fraction` below 1 keeps that
    share of the records (at least one), counted first. Raises
    MalformedInput naming the file and the record (counted from 1) when a
    record is not an object, lacks a key, holds a key's value that is not a
    string or names a database that has no schema; a gold SQL's error
    (`extract_ground_truth`'s, or DegenerateExample) is raised again with
    that location and the key."""
    examples = []
    records = iter_jsonl(path)
    if fraction < 1.0:
        records = islice(records, max(1, int(count_jsonl(path) * fraction)))
    for i, obj in enumerate(records, 1):
        where = f"{path}, record {i}"
        if not isinstance(obj, dict):
            raise MalformedInput(f"{where}: expected an object")
        for key in ("example_id", "db_id", "question", "gold_sql"):
            if key not in obj:
                raise MalformedInput(f"{where}: missing key {key!r}")
            if not isinstance(obj[key], str):
                raise MalformedInput(f"{where}, key {key!r}: expected a string, "
                                     f"got {type(obj[key]).__name__}")
        if obj["db_id"] not in schemas:
            raise MalformedInput(f"{where}: no schema for db_id {obj['db_id']!r}")
        try:
            examples.append(build_training_example(obj["question"], schemas[obj["db_id"]],
                                                   obj["gold_sql"], vocab, obj["example_id"],
                                                   obj["db_id"]))
        except InvalidSchema:
            raise  # the database's schema, not the record
        except JoltError as e:
            raise type(e)(f"{where}, key 'gold_sql': {e}") from None
    return examples
