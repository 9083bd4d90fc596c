"""End-to-end training and inference.

Training follows the joint recipe: in epoch 1 the linking pass fills the
weight cache with linking probabilities; every step draws a noisy column
subset, assembles the segment map, builds the joint mask, and optimizes
the summed linking + next-token loss.

Inference decodes under that same joint mask. One forward over the full
prefix+schema (positions 0..n-1) gives the linking scores, the first SQL
token's logits and every layer's K/V; generated tokens take positions n,
n+1, ... as query tokens do in training. Pruning is a boolean mask over
the full prompt (`prune_prompt`), not an edit of its text: decode rows see
the prefix plus the predicted columns and their tables' structure (every
column when nothing is predicted), the set assemble_segments builds from
gold links. Prompt rows never see query rows, so each decode step is one
row through `forward` against the cached K/V. Re-encoding a pruned prompt
under a causal mask would instead change the schema rows' K/V and the row
that predicts the first token, a layout training never showed the model.
"""
from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .errors import DegenerateExample, EmptyPrediction, NonFiniteLoss
from .masks import build_joint_mask
from .model import (ForwardOutput, ModelConfig, ModelParams, forward,
                    greedy_generate, joint_loss, no_grad, ntp_loss,
                    schema_linking_loss)
from .sampling import WeightCache, draw_noise_count, example_rng, sample_noisy
from .schema import SchemaDocument, SpanIndex, label_vector, serialize_schema
from .sqlscope import extract_ground_truth
from .tokenizer import EOS, SegmentMap, TokenSequence, Vocab, decode, encode

PREFIX_TEMPLATE = "translate the question to sql . question : {question}"


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
        if not 0 < self.beta < 1:
            raise ValueError("beta must be in (0, 1)")
        if self.noise_mode not in ("confusion", "random", "none"):
            raise ValueError("noise_mode must be confusion, random, or none")


@dataclass
class TrainingExample:
    example_id: str
    db_id: str
    question: str
    prefix_text: str
    schema_text: str
    span_index: SpanIndex
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


def build_training_example(question: str, schema_doc: SchemaDocument, gold_sql: str,
                           vocab: Vocab, example_id: str, db_id: str = "") -> TrainingExample:
    links = extract_ground_truth(gold_sql, schema_doc)
    if not links:
        raise DegenerateExample(f"gold SQL references no columns: {gold_sql!r}")
    label = label_vector(links, schema_doc)
    schema_text, spans = serialize_schema(schema_doc)
    prefix_text = PREFIX_TEMPLATE.format(question=question)
    tokens, seg = encode(prefix_text, schema_text, spans, gold_sql, vocab)
    # terminate the query with EOS so generation learns to stop
    eos_pos = len(tokens.ids)
    tokens.ids.append(EOS)
    seg.query.add(eos_pos)
    seg.n += 1
    return TrainingExample(
        example_id=example_id, db_id=db_id, question=question,
        prefix_text=prefix_text, schema_text=schema_text, span_index=spans,
        gold_sql=gold_sql, link=links, label=label,
        tokens=tokens, seg=seg, schema_doc=schema_doc,
    )


def assemble_segments(example: TrainingExample,
                      noisy_columns: set[tuple[str, str]]) -> SegmentMap:
    """Fresh SegmentMap with GT and noisy token sets for one step.

    Both come from `SegmentMap.schema_tokens`, so a noisy column whose table
    has no GT column drags in that table's header/pk/fk/footer tokens and
    the attended text stays well-formed DDL.
    """
    seg = copy.copy(example.seg)
    seg.gt_schema = seg.schema_tokens(example.link)
    seg.noisy_schema = seg.schema_tokens(noisy_columns) - seg.gt_schema
    return seg


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


def train(examples: list[TrainingExample], model_config: ModelConfig,
          config: TrainConfig, log_fn=None, cache: WeightCache | None = None) -> TrainResult:
    params = ModelParams(model_config, seed=config.seed)
    opt = ad.AdamW(params.all_params(), lr=config.learning_rate,
                   weight_decay=config.weight_decay)
    cache = cache if cache is not None else WeightCache()
    log: list[dict] = []
    num_cols = {ex.example_id: len(ex.seg.marker_columns) for ex in examples}
    step = 0
    last_step = config.epochs * len(examples) - 1
    accum = 0
    for epoch in range(1, config.epochs + 1):
        order_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 7919, epoch]))
        order = order_rng.permutation(len(examples))
        for idx in order:
            ex = examples[int(idx)]
            if config.noise_mode == "confusion" and epoch == 1 and ex.example_id not in cache:
                cache.record(ex.example_id, capture_sampling_weights(params, ex))

            rng = example_rng(config.seed, ex.example_id, epoch, step)
            pool = ex.non_gt_columns()
            if config.noise_mode == "none":
                noisy_cols: set[tuple[str, str]] = set()
            else:
                k = draw_noise_count(num_cols[ex.example_id], config.beta, rng)
                if config.noise_mode == "confusion":
                    weights = cache.lookup(ex.example_id)
                else:
                    weights = [1.0] * len(pool)
                drawn = sample_noisy(list(range(len(pool))), weights, k, rng)
                noisy_cols = {pool[i] for i in drawn}

            seg = assemble_segments(ex, noisy_cols)
            mask = build_joint_mask(seg)
            out = forward(params, ex.tokens.ids, mask)
            l_sl = schema_linking_loss(out.marker_probs, ex.label,
                                       ex.marker_positions)
            l_ntp = ntp_loss(out.lm_logits, ex.tokens.ids, sorted(ex.seg.query))
            loss = joint_loss(l_sl, l_ntp)
            if not np.isfinite(loss.data):
                raise NonFiniteLoss(
                    f"step {step}: L_SL={l_sl.item()}, L_NTP={l_ntp.item()}")
            ad.backward(ad.scale(loss, 1.0 / config.grad_accum))
            accum += 1
            entry = {"step": step, "epoch": epoch, "example_id": ex.example_id,
                     "l_sl": l_sl.item(), "l_ntp": l_ntp.item(),
                     "k_noisy": len(noisy_cols)}
            if accum >= config.grad_accum or step == last_step:
                # norm of the accumulated gradient, before clipping
                entry["grad_norm"] = ad.clip_grad_norm(params.all_params(),
                                                       config.max_grad_norm)
                opt.step()
                opt.zero_grad()
                accum = 0
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
    used_fallback: bool = False


def encode_prompt(params: ModelParams, example: TrainingExample) -> ForwardOutput:
    """One no-gradient forward over the full prefix+schema under the joint
    mask, at positions 0..n-1. Prompt rows never attend to query rows, so
    its marker scores, its last row's logits (the first SQL token) and its
    per-layer K/V are exactly those of the training layout."""
    n_ps = len(example.seg.prefix | example.seg.schema)
    seg = replace(example.seg, n=n_ps, query=set(), gt_schema=set(),
                  noisy_schema=set())
    with no_grad(params):
        return forward(params, example.tokens.ids[:n_ps], build_joint_mask(seg))


def marker_scores(example: TrainingExample,
                  out: ForwardOutput) -> list[tuple[str, str, float]]:
    """(table, column, score) for every column, read off a prompt
    encoding's marker rows."""
    probs = out.marker_probs.data[:, 0]
    return [(t, c, float(probs[pos])) for t, c, pos in example.seg.marker_columns]


def link_schema(params: ModelParams,
                example: TrainingExample) -> list[tuple[str, str, float]]:
    """Score every column's marker under the joint mask (prefix+schema
    only). Returns (table, column, score) for every column; the predicted
    set at a threshold is the columns whose score exceeds it."""
    return marker_scores(example, encode_prompt(params, example))


def prune_prompt(example: TrainingExample,
                 predicted: set[tuple[str, str]]) -> np.ndarray:
    """The decode rows' boolean visibility over the prompt (prefix +
    schema): the prefix plus the predicted columns' schema tokens
    (`SegmentMap.schema_tokens`: their definitions and their tables'
    header, pk, fks and footer), markers hidden.

    These are exactly the prompt positions a query row sees under the joint
    mask when the predicted columns stand in for the gold ones.
    """
    if not predicted:
        raise EmptyPrediction("no columns predicted")
    seg = example.seg
    attend = np.zeros(len(seg.prefix | seg.schema), dtype=bool)
    attend[list((seg.prefix | seg.schema_tokens(predicted)) - seg.markers)] = True
    return attend


def full_schema_prompt(example: TrainingExample) -> np.ndarray:
    """prune_prompt over every column, the fallback when nothing is predicted."""
    all_cols = {(t, c) for t, c, _ in example.seg.marker_columns}
    return prune_prompt(example, all_cols)


def generate_sql(params: ModelParams, example: TrainingExample,
                 encoded: ForwardOutput, predicted: set[tuple[str, str]],
                 vocab: Vocab, max_new: int = 64) -> tuple[str, bool]:
    """Greedy SQL for one predicted column set, from a prompt encoding.

    `encoded` is `encode_prompt(params, example)`; its last row gives the
    first token and its K/V serve every decode step, so one encoding serves
    any number of predicted sets. Decode rows attend to the prompt
    positions `prune_prompt` flags (`full_schema_prompt`'s when the set is
    empty), the tokens generated so far and themselves.

    Returns (sql, whether the empty-set fallback ran).
    """
    used_fallback = not predicted
    attend = (full_schema_prompt(example) if used_fallback
              else prune_prompt(example, predicted))
    prompt = example.tokens.ids[:len(attend)]
    generated = greedy_generate(params, prompt, max_new=max_new, stop_id=EOS,
                                encoded=encoded, attend=attend)
    new_ids = generated[len(prompt):]
    if new_ids and new_ids[-1] == EOS:
        new_ids = new_ids[:-1]
    return decode(new_ids, vocab), used_fallback


def infer(params: ModelParams, example: TrainingExample, vocab: Vocab,
          threshold: float = 0.05, max_new: int = 64) -> InferenceResult:
    """Link, then decode greedily under the training layout: one prompt
    encoding gives the linking scores and the K/V that `generate_sql`
    decodes from."""
    t0 = time.perf_counter()
    encoded = encode_prompt(params, example)
    predicted_columns = [(t, c, s) for t, c, s in marker_scores(example, encoded)
                         if s > threshold]
    t1 = time.perf_counter()
    sql, used_fallback = generate_sql(
        params, example, encoded, {(t, c) for t, c, _ in predicted_columns},
        vocab, max_new)
    t2 = time.perf_counter()
    return InferenceResult(
        predicted_columns=predicted_columns,
        sql=sql,
        timings_ms={
            "linking": (t1 - t0) * 1000.0,
            "generation": (t2 - t1) * 1000.0,
            "end_to_end": (t2 - t0) * 1000.0,
        },
        used_fallback=used_fallback,
    )


def prepare_inference_example(question: str, schema_doc: SchemaDocument,
                              vocab: Vocab, example_id: str = "query") -> TrainingExample:
    """Example shell with an empty query part, for linking+generation only."""
    schema_text, spans = serialize_schema(schema_doc)
    prefix_text = PREFIX_TEMPLATE.format(question=question)
    tokens, seg = encode(prefix_text, schema_text, spans, "", vocab)
    return TrainingExample(
        example_id=example_id, db_id="", question=question,
        prefix_text=prefix_text, schema_text=schema_text, span_index=spans,
        gold_sql="", link=set(), label=[0] * len(seg.marker_columns),
        tokens=tokens, seg=seg, schema_doc=schema_doc,
    )


# ---------------------------------------------------------------- serialization

def example_to_json(ex: TrainingExample) -> dict:
    """JSON-lines record mirroring the training-data file format."""
    token_spans = {t: {k: v for k, v in ts.items() if k != "markers"}
                   for t, ts in SpanIndex(ex.seg.table_elements).to_json().items()}
    q = sorted(ex.seg.query)
    return {
        "example_id": ex.example_id,
        "db_id": ex.db_id,
        "question": ex.question,
        "text": ex.prefix_text + "\n" + ex.schema_text + "\n" + ex.gold_sql,
        "prefix_text": ex.prefix_text,
        "schema_text": ex.schema_text,
        "gold_sql": ex.gold_sql,
        "link": sorted(f"{t}.{c}" for t, c in ex.link),
        "label": ex.label,
        "schema_element_token_spans": token_spans,
        "query_span": [q[0], q[-1] + 1] if q else [0, 0],
        "char_spans": ex.span_index.to_json(),
    }


def example_from_json(obj: dict, vocab: Vocab, schema_doc: SchemaDocument) -> TrainingExample:
    """Rebuild a TrainingExample from its JSONL record (re-encodes)."""
    return build_training_example(obj["question"], schema_doc, obj["gold_sql"],
                                  vocab, obj["example_id"], obj.get("db_id", ""))


def load_corpus(path: str, vocab: Vocab,
                schemas: dict[str, SchemaDocument],
                fraction: float = 1.0) -> list[TrainingExample]:
    examples = []
    with open(path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    if fraction < 1.0:
        records = records[: max(1, int(len(records) * fraction))]
    for obj in records:
        examples.append(example_from_json(obj, vocab, schemas[obj["db_id"]]))
    return examples
