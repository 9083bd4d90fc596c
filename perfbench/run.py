"""Desk benchmark for joltsql.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 10 --trace 0

Run from the root of a joltsql checkout. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, measured
untraced; with --trace 1 they are the per-layer ones, from a traced run of a
fixed number of operations, next to an untraced run of the same operations
that gives the tracing overhead. The lines before it carry the workload's
named figures and the platform record. Work files go to .bench_build/perfbench
in the checkout; see perfbench/README.md.
"""
from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
BLAS_THREADS = 1  # at most nproc; one thread keeps timings steady


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["train-desk", "infer-desk", "sweep-desk"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--prepare-checkpoint", action="store_true",
                    help="train and score the set-up checkpoint for --seed, then exit")
    args = ap.parse_args(argv)
    if not args.prepare_checkpoint and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "joltsql", "__init__.py")):
        print(f"perfbench: no joltsql sources at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [SRC, HERE]
    import bench
    return bench.main(args, WORK, os.path.abspath(__file__))


if __name__ == "__main__":
    sys.exit(main())
