"""One SHA-256 per output of a fixed set of runs, for checking that a change
keeps every output byte-identical.

    python tools/digest.py > before.txt    # in a checkout of the parent
    python tools/digest.py > after.txt     # in the change's checkout
    diff before.txt after.txt

    python tools/digest.py --check DIGEST.txt

`DIGEST.txt` at the repository root is this script's output for the
committed code; a change that means to change outputs updates it in the same
commit, so `git log -p DIGEST.txt` is the history of the outputs. `--check`
compares the platform lines first: when they differ it prints that it cannot
check and exits 2, since outputs repeat only on one platform; otherwise it
prints a unified diff of the digest lines and exits 1 when there is one, 0
when there is none. The platform line names the CPU model, since OpenBLAS
picks its kernels per CPU.

It reads the `joltsql` source next to it, so each checkout digests its own
code. The first line is `cli.platform_record()`: outputs repeat only on one
platform, so compare digests from one machine. Then, one line each:

- every file `generate_corpus` writes (desk config) at corpus seeds 1-10,
  and the train and dev examples `load_corpus` rebuilds from them: each
  example's token ids, `SegmentMap` cut points, marker columns, label and
  link;
- the same for the wide shape (`WIDE`: 4-5 tables of 5-7 columns) at
  corpus seeds 1-10;
- at model seeds 3 and 7, the training log and the parameters of the desk
  model (the benchmark's criterion-10 recipe, `perfbench/workloads.py`) on
  the first 60 train examples, and on all dev examples: `threshold_sweep`
  rows, micro and macro `evaluate` JSON and per-example records, and
  `infer` at 0.05 and 0.5.

Records and `infer` results (both read in `InferenceResult.to_json`'s
form) each give two lines, so that a score moved by rounding shows apart
from a changed outcome: `decisions` over each example's SQL, predicted
column names as [table, column] pairs, fallback flag and (records)
verdict, and `scores` over the predicted columns' float scores.

It takes 12 to 14 seconds on a 2-core Xeon with OPENBLAS_NUM_THREADS=1,
about 13 with OpenBLAS's default threads (measured: 11.6-13.7 s over three
runs and 13.1 s).
"""
from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "src"), os.path.join(HERE, "..", "perfbench")]

from joltsql import cli, evaluation, pipeline  # noqa: E402
from joltsql.corpus import CorpusConfig, generate_corpus  # noqa: E402
from joltsql.model import ModelConfig  # noqa: E402
from joltsql.tokenizer import Vocab  # noqa: E402
from workloads import DESK_MODEL, DESK_TRAIN, NOISE_MODE  # noqa: E402

CORPUS_SEEDS = range(1, 11)
WIDE = {"tables_per_db": (4, 5), "columns_per_table": (5, 7)}
MODEL_SEEDS = (3, 7)
TRAIN_EXAMPLES = 60
INFER_THRESHOLDS = (0.05, 0.5)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_sha(obj) -> str:
    return sha(json.dumps(obj, sort_keys=True).encode())


def names(predicted_columns) -> list:
    return [[col["table"], col["column"]] for col in predicted_columns]


def scores(predicted_columns) -> list:
    return [col["score"] for col in predicted_columns]


def example_fields(ex) -> list:
    seg = ex.seg
    return [ex.example_id, ex.tokens.ids, [seg.n, seg.schema_start, seg.query_start],
            seg.marker_columns, ex.label, sorted(ex.link)]


def corpus_digests(where: str, cfg: CorpusConfig, out: str):
    generated = generate_corpus(cfg, out)
    for root, dirs, files in os.walk(out):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                yield f"{where} {os.path.relpath(path, out)}", sha(f.read())
    vocab = Vocab.load(generated.vocab_path)
    examples = [ex for path in (generated.train_path, generated.dev_path)
                for ex in pipeline.load_corpus(path, vocab, generated.schemas)]
    yield f"{where} loaded examples", json_sha(
        [example_fields(ex) for ex in examples])


def model_digests(seed: int, out: str):
    generated = generate_corpus(CorpusConfig(seed=seed), out)
    vocab = Vocab.load(generated.vocab_path)
    train_set = pipeline.load_corpus(generated.train_path, vocab, generated.schemas)
    dev_set = pipeline.load_corpus(generated.dev_path, vocab, generated.schemas)
    res = pipeline.train(train_set[:TRAIN_EXAMPLES],
                         ModelConfig(vocab_size=len(vocab), **DESK_MODEL),
                         pipeline.TrainConfig(noise_mode=NOISE_MODE, **DESK_TRAIN))
    where = f"model seed={seed}"
    yield f"{where} training log", json_sha(res.log)
    arrays = b"".join(name.encode() + str((t.data.dtype, t.data.shape)).encode()
                      + t.data.tobytes() for name, t in res.params.named_params().items())
    yield f"{where} parameters", sha(arrays)
    db_paths = generated.db_paths
    yield f"{where} threshold_sweep rows", json_sha(
        evaluation.threshold_sweep(res.params, dev_set, vocab, db_paths))
    for average in ("micro", "macro"):
        result = evaluation.evaluate(res.params, dev_set, vocab, db_paths, average=average)
        yield f"{where} evaluate {average}", json_sha(result.to_json())
        records = result.per_example
        yield f"{where} evaluate {average} records decisions", json_sha(
            [[r["example_id"], r["sql"], names(r["predicted_columns"]),
              r["used_fallback"], r["verdict"]] for r in records])
        yield f"{where} evaluate {average} records scores", json_sha(
            [scores(r["predicted_columns"]) for r in records])
    for threshold in INFER_THRESHOLDS:
        results = [pipeline.infer(res.params, ex, vocab, threshold=threshold).to_json()
                   for ex in dev_set]
        yield f"{where} infer {threshold} decisions", json_sha(
            [[r["sql"], names(r["predicted_columns"]), r["used_fallback"]] for r in results])
        yield f"{where} infer {threshold} scores", json_sha(
            [scores(r["predicted_columns"]) for r in results])


def digest_lines():
    """The platform line, then one line per output, as they are made."""
    yield json.dumps(cli.platform_record(), sort_keys=True)
    with tempfile.TemporaryDirectory() as tmp:
        for shape, extra in (("corpus", {}), ("wide corpus", WIDE)):
            for seed in CORPUS_SEEDS:
                where = f"{shape} seed={seed}"
                for name, digest in corpus_digests(where, CorpusConfig(seed=seed, **extra),
                                                   os.path.join(tmp, where)):
                    yield f"{digest} {name}"
        for seed in MODEL_SEEDS:
            for name, digest in model_digests(seed, os.path.join(tmp, f"model{seed}")):
                yield f"{digest} {name}"


def check(path: str) -> int:
    with open(path) as f:
        want = f.read().splitlines()
    platform_line = json.dumps(cli.platform_record(), sort_keys=True)
    if not want or want[0] != platform_line:
        print(f"cannot check: {path} was made on {want[0] if want else 'nothing'}; "
              f"this platform is {platform_line}")
        return 2
    got = list(digest_lines())
    diff = list(difflib.unified_diff(want, got, path, "this checkout", lineterm=""))
    print("\n".join(diff) if diff else f"{len(got)} lines match {path}")
    return 1 if diff else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", metavar="DIGEST_FILE",
                    help="compare with a stored digest instead of printing one")
    args = ap.parse_args(argv)
    if args.check:
        return check(args.check)
    for line in digest_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
