"""Unified command-line entry point.

Subcommands: extract-gt, serialize, encode, mask-viz, gen-corpus, train,
infer, eval, sweep. Exit codes: 0 success, 1 domain error, 2 usage error.
All randomness flows from one root seed (flag, config file, or JOLT_SEED).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sqlite3
import sys
import time

import numpy as np

from . import corpus as corpus_mod
from . import evaluation, pipeline
from .errors import ConfigError, DbError, JoltError, MalformedInput, ShapeMismatch
from .jsonfile import read_json
from .masks import build_causal_mask, build_joint_mask, render_ascii, render_ppm, render_svg
from .model import MAX_LEN, ModelConfig, ModelParams
from .schema import SchemaDocument, SpanIndex, serialize_schema, with_value_examples
from .sqlscope import extract_ground_truth
from .tokenizer import Vocab, encode, tokenize_schema


class EventLog:
    """One JSON object per line with a monotonic counter and wall time. The
    file, and its directory, is made at the first event, so a run refused
    before it leaves neither behind."""

    def __init__(self, path: str | None):
        self.path = path
        self.counter = 0
        self._fh = None

    def log_event(self, stage: str, fields: dict):
        record = {"event": self.counter, "stage": stage,
                  "wall_time": time.time(), **fields}
        line = json.dumps(record)
        if self.path:
            if self._fh is None:
                os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
                self._fh = open(self.path, "w")
            self._fh.write(line + "\n")
            self._fh.flush()
        self.counter += 1

    def close(self):
        if self._fh:
            self._fh.close()


def _load_run_config(path: str | None, overrides: dict) -> dict:
    """Merge config file sections with CLI overrides; `_section` checks
    each section's keys and values when its dataclass is built."""
    cfg: dict = {"train": {}, "model": {}, "corpus": {}}
    if path:
        loaded = read_json(path)
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: the top level must be an object of sections")
        for key, values in loaded.items():
            if key not in cfg:
                raise ConfigError(f"unknown config section {key!r}")
            if not isinstance(values, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            cfg[key].update(values)
    for section, kv in overrides.items():
        cfg[section].update(kv)
    env_seed = os.environ.get("JOLT_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"JOLT_SEED must be an integer, got {env_seed!r}") from None
        cfg["train"]["seed"] = seed
        cfg["corpus"]["seed"] = seed
    return cfg


def _section(name: str, build):
    """Build one config section; a key the section does not know
    (`TypeError`) or a value it rejects (`ValueError`, `ConfigError`)
    becomes a `ConfigError` naming the section."""
    try:
        return build()
    except (TypeError, ValueError, ConfigError) as e:
        raise ConfigError(f"config section {name!r}: {e}") from e


def _read_text(path: str) -> str:
    """The text of `path`, or of stdin for "-"; raises MalformedInput
    naming the file when its bytes do not decode as text."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise MalformedInput(f"{path}: cannot be decoded as text: {e}") from None


# ------------------------------------------------------------ subcommands

def cmd_extract_gt(args) -> int:
    schema = SchemaDocument.load(args.schema)
    sql = _read_text(args.sql)
    links = extract_ground_truth(sql, schema)
    print(json.dumps(sorted(f"{t}.{c}" for t, c in links)))
    return 0


def cmd_serialize(args) -> int:
    schema = SchemaDocument.load(args.schema)
    if args.db:
        conn = evaluation.connect_readonly(args.db)
        try:
            schema = with_value_examples(schema, conn)
        except DbError as e:
            raise DbError(f"{args.db}: {e}") from e
        finally:
            conn.close()
    text, spans = serialize_schema(schema)
    print(text)
    with open(args.spans_out, "w") as f:
        json.dump(spans.to_json(), f, indent=1)
    return 0


def cmd_encode(args) -> int:
    vocab = Vocab.load(args.vocab)
    spans = SpanIndex.load(args.spans)
    schema = tokenize_schema(_read_text(args.schema), spans)
    tokens, seg = encode(_read_text(args.prefix), schema, _read_text(args.query), vocab)
    print(json.dumps({
        "ids": tokens.ids,
        "n": seg.n,
        "prefix": sorted(seg.prefix),
        "schema": sorted(seg.schema),
        "query": sorted(seg.query),
        "markers": sorted(seg.markers),
    }))
    return 0


def cmd_mask_viz(args) -> int:
    if args.corpus_dir is None:
        if not 1 <= args.causal <= MAX_LEN:
            raise JoltError(f"--causal must be in [1, {MAX_LEN}], got {args.causal}")
        mask = build_causal_mask(args.causal)
        seg = None
    else:
        vocab = Vocab.load(os.path.join(args.corpus_dir, "vocab.json"))
        schemas = corpus_mod.load_schemas(os.path.join(args.corpus_dir, "schema"))
        examples = pipeline.load_corpus(
            os.path.join(args.corpus_dir, "train.jsonl"), vocab, schemas)
        if not 0 <= args.index < len(examples):
            raise JoltError(f"--index {args.index} is outside the {len(examples)} examples")
        ex = examples[args.index]
        seg = ex.seg
        mask = build_joint_mask(seg, pipeline.assemble_segments(ex, set()))
    print(render_ascii(mask, seg))
    if args.out:
        with open(args.out + ".ppm", "wb") as f:
            f.write(render_ppm(mask))
        with open(args.out + ".svg", "w") as f:
            f.write(render_svg(mask))
    return 0


def cmd_gen_corpus(args) -> int:
    cfg = _load_run_config(args.config, {})
    corpus_cfg = _section("corpus", lambda: corpus_mod.CorpusConfig(**cfg["corpus"]))
    generated = corpus_mod.generate_corpus(corpus_cfg, args.out)
    stats = corpus_mod.corpus_stats(generated.train_path)
    print(json.dumps({"out": args.out, "train_stats": stats}))
    return 0


def platform_record() -> dict:
    """What the byte-for-byte promise depends on: outputs repeat only on
    the same Python, numpy, BLAS and SQLite build (SQLite resolves the gold
    links and executes the queries)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "sqlite": sqlite3.sqlite_version}


def cmd_train(args) -> int:
    if not 0 < args.train_fraction <= 1:
        raise ConfigError(f"--train-fraction must be in (0, 1], got {args.train_fraction}")
    overrides: dict = {"train": {}, "model": {}}
    if args.seed is not None:
        overrides["train"]["seed"] = args.seed
    if args.epochs is not None:
        overrides["train"]["epochs"] = args.epochs
    cfg = _load_run_config(args.config, overrides)
    # every section is checked before the corpus loads
    train_cfg = _section("train", lambda: pipeline.TrainConfig(**cfg["train"]))
    _section("corpus", lambda: corpus_mod.CorpusConfig(**cfg["corpus"]))
    corpus_dir = os.path.dirname(os.path.abspath(args.corpus))
    schema_dir = args.schema_dir or os.path.join(corpus_dir, "schema")
    vocab = Vocab.load(args.vocab or os.path.join(corpus_dir, "vocab.json"))
    model_cfg = _section("model", lambda: ModelConfig(vocab_size=len(vocab), **cfg["model"]))

    schemas = corpus_mod.load_schemas(schema_dir)
    examples = pipeline.load_corpus(args.corpus, vocab, schemas,
                                    fraction=args.train_fraction)
    if not examples:
        raise JoltError(f"{args.corpus}: no examples to train on")
    log = EventLog(os.path.join(args.out, "train_log.jsonl"))
    try:
        # a diverging run overflows on its way to the loss and capture
        # checks, which stop it with one error line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            result = pipeline.train(examples, model_cfg, train_cfg,
                                    log_fn=log.log_event)
        # the first step's event made `--out`
        result.params.save(os.path.join(args.out, "params.npz"))
        result.cache.save(os.path.join(args.out, "weights.cache.json"))
        vocab.save(os.path.join(args.out, "vocab.json"))
        snapshot = {"train": cfg["train"], "model": cfg["model"],
                    "corpus_path": os.path.abspath(args.corpus),
                    "platform": platform_record()}
        with open(os.path.join(args.out, "config.snapshot.json"), "w") as f:
            json.dump(snapshot, f, indent=1, sort_keys=True)
        log.log_event("train_done", {"steps": len(result.log)})
    finally:
        log.close()
    print(json.dumps({"out": args.out, "steps": len(result.log),
                      "final_l_sl": result.log[-1]["l_sl"],
                      "final_l_ntp": result.log[-1]["l_ntp"]}))
    return 0


def _load_ckpt(ckpt: str) -> tuple[ModelParams, Vocab]:
    params = ModelParams.load(os.path.join(ckpt, "params.npz"))
    vocab = Vocab.load(os.path.join(ckpt, "vocab.json"))
    if params.config.vocab_size != len(vocab):
        raise ShapeMismatch(f"{ckpt}: checkpoint vocab_size {params.config.vocab_size} "
                            f"!= {len(vocab)} tokens in vocab.json")
    return params, vocab


def _check_threshold(threshold: float):
    if not 0 <= threshold <= 1:  # NaN fails too
        raise ConfigError(f"--threshold must be in [0, 1], got {threshold}")


def cmd_infer(args) -> int:
    _check_threshold(args.threshold)
    params, vocab = _load_ckpt(args.ckpt)
    schema = SchemaDocument.load(args.schema)
    ex = pipeline.prepare_inference_example(args.question, schema, vocab)
    pipeline.check_max_len([ex], params.config.max_len, prompts=True)
    result = pipeline.infer(params, ex, vocab, threshold=args.threshold)
    print(json.dumps(result.to_json()))
    return 0


def cmd_eval(args) -> int:
    if args.max_new < 0:
        raise ConfigError(f"--max-new must be at least 0, got {args.max_new}")
    if args.command == "eval":
        _check_threshold(args.threshold)
    params, vocab = _load_ckpt(args.ckpt)
    corpus_dir = os.path.dirname(os.path.abspath(args.dev))
    schema_dir = args.schema_dir or os.path.join(corpus_dir, "schema")
    schemas = corpus_mod.load_schemas(schema_dir)
    examples = pipeline.load_corpus(args.dev, vocab, schemas)
    if not examples:
        raise JoltError(f"{args.dev}: no examples to evaluate")
    db_paths = {db_id: os.path.join(args.dbs, f"{db_id}.sqlite")
                for db_id in schemas}
    # `--out` is made only once there is something to write
    if args.command == "sweep":
        rows = evaluation.threshold_sweep(params, examples, vocab, db_paths,
                                          max_new=args.max_new)
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "sweep.csv"), "w") as f:
            f.write(evaluation.sweep_csv(rows))
        with open(os.path.join(args.out, "sweep.svg"), "w") as f:
            f.write(evaluation.sweep_svg(rows))
        print(json.dumps({"sweep": rows}))
        return 0
    result = evaluation.evaluate(params, examples, vocab, db_paths,
                                 threshold=args.threshold, max_new=args.max_new,
                                 average=args.average)
    metrics = result.to_json()
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "metrics.json"), "w") as f:
        json.dump(metrics, f, indent=1, sort_keys=True)
    with open(os.path.join(args.out, "examples.jsonl"), "w") as f:
        for record in result.per_example:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(metrics))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="jolt",
                                 description="Joint schema-linking + SQL-generation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract-gt", help="extract ground-truth links from SQL")
    p.add_argument("--sql", required=True, help="SQL file or - for stdin")
    p.add_argument("--schema", required=True)
    p.set_defaults(fn=cmd_extract_gt)

    p = sub.add_parser("serialize", help="render DDL text with markers")
    p.add_argument("--schema", required=True)
    p.add_argument("--db", default=None)
    p.add_argument("--spans-out", default="spans.json")
    p.set_defaults(fn=cmd_serialize)

    p = sub.add_parser("encode", help="tokenize a three-part input")
    p.add_argument("--prefix", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--spans", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--vocab", required=True)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("mask-viz", help="render an attention mask")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--causal", type=int,
                        help=f"causal mask over this many tokens, 1 to {MAX_LEN}")
    source.add_argument("--corpus-dir", help="joint mask of a training example")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--out", default=None, help="basename for .ppm/.svg output")
    p.set_defaults(fn=cmd_mask_viz)

    p = sub.add_parser("gen-corpus", help="generate the synthetic corpus")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_corpus)

    p = sub.add_parser("train", help="train the joint model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab", default=None)
    p.add_argument("--schema-dir", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--train-fraction", type=float, default=1.0)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("infer", help="link, prune, and generate SQL")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--question", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--threshold", type=float, default=pipeline.DEFAULT_THRESHOLD)
    p.set_defaults(fn=cmd_infer)

    for name in ("eval", "sweep"):
        p = sub.add_parser(name, help="evaluate on a dev set")
        p.add_argument("--ckpt", required=True)
        p.add_argument("--dev", required=True)
        p.add_argument("--dbs", required=True)
        p.add_argument("--schema-dir", default=None)
        p.add_argument("--out", default="eval_out")
        p.add_argument("--max-new", type=int, default=pipeline.DEFAULT_MAX_NEW)
        if name == "eval":
            p.add_argument("--threshold", type=float, default=pipeline.DEFAULT_THRESHOLD)
            p.add_argument("--average", choices=("micro", "macro"), default="micro")
        p.set_defaults(fn=cmd_eval)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (JoltError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
