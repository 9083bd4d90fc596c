"""One benchmark run: set-up, the measured loop, output checks and the result."""
from __future__ import annotations

import contextlib
import ctypes
import glob
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import speed
import stats
import tracing
import workloads

SETUP_REPEATS = 3


def source_key(root: str, patterns: list[str], extra: str = "") -> str:
    """Digest of the files matching `patterns` under root, plus `extra`.
    Cached checkpoints and output digests are valid only for the sources
    they were made from."""
    h = hashlib.sha256(extra.encode())
    files = sorted(p for pattern in patterns for p in glob.glob(os.path.join(root, pattern)))
    for path in files:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def platform_record(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def check_digests(path: str, digests: list[str]) -> list[int]:
    """Compare per-operation digests with those an earlier run of the same
    seed and sources stored; return mismatching indices and keep the longest
    agreeing record."""
    stored: list[str] = []
    if os.path.exists(path):
        with open(path) as f:
            stored = json.load(f)
    bad = [i for i, (a, b) in enumerate(zip(stored, digests)) if a != b]
    if not bad and len(digests) > len(stored):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".partial", "w") as f:
            json.dump(digests, f)
        os.replace(path + ".partial", path)
    return bad


def _set_up_timed(workload, seed, tmp_dir, ckpt, calibration):
    """SETUP_REPEATS set-ups; returns the last one and every duration."""
    times, desk = [], None
    for _ in range(SETUP_REPEATS):
        if desk is not None:
            workloads.tear_down(desk)
        calibration.sample()
        t0 = time.perf_counter()
        desk = workloads.set_up(tmp_dir, seed, workload.split, ckpt)
        times.append(time.perf_counter() - t0)
    calibration.sample()
    return desk, times


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


@dataclass
class Paths:
    root: str     # checkout root
    work: str     # .bench_build/perfbench
    run_py: str
    tmp: str      # this run's scratch directory, removed at exit
    ckpt: str     # set-up checkpoint for the seed
    floor: str    # its criterion-10 scores
    digests: str  # per-operation output digests of this workload and seed


def main(args, work: str, run_py: str) -> int:
    root = os.path.dirname(os.path.dirname(run_py))
    program = ["src/joltsql/*.py"]
    ckpt_dir = os.path.join(work, "checkpoints",
                            source_key(root, program, workloads.RECIPE_KEY))
    digest_dir = os.path.join(work, "digests",
                              source_key(root, program + ["perfbench/*.py"]))
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    paths = Paths(root, work, run_py,
                  tmp=tempfile.mkdtemp(prefix="run-", dir=os.path.join(work, "tmp")),
                  ckpt=os.path.join(ckpt_dir, f"seed{args.seed}.npz"),
                  floor=os.path.join(ckpt_dir, f"seed{args.seed}.json"),
                  digests=os.path.join(digest_dir, f"{args.workload}-seed{args.seed}.json"))
    try:
        if args.prepare_checkpoint:
            os.makedirs(ckpt_dir, exist_ok=True)
            workloads.prepare_checkpoint(paths.tmp, args.seed, paths.ckpt, paths.floor)
            return 0
        with contextlib.closing(speed.Speed()) as calibration:
            return _run(args, paths, calibration)
    finally:
        shutil.rmtree(paths.tmp, ignore_errors=True)


def _run(args, paths: Paths, calibration: speed.Speed) -> int:
    workload = workloads.WORKLOADS[args.workload]
    problems: list[str] = []
    floor = None
    if workload.needs_checkpoint:
        floor = workloads.ensure_checkpoint(paths.run_py, paths.tmp, args.seed, paths.ckpt,
                                            paths.floor)
        floor["floor_met"] = (floor["roc_auc"] >= workloads.FLOOR_ROC
                              and floor["ex"] >= workloads.FLOOR_EX)
        # Criterion 10 states its floor for the desk corpus at its default
        # seed; other corpus seeds are reported, not gated (see README.md).
        if not floor["floor_met"] and args.seed == workloads.FLOOR_SEED:
            problems.append(f"set-up checkpoint below criterion 10's floor: {floor}")
    desk, setup_times = _set_up_timed(workload, args.seed, paths.tmp,
                                      paths.ckpt if workload.needs_checkpoint else None,
                                      calibration)
    result: dict = {"workload": args.workload, "trace": args.trace,
                    "platform": platform_record(args.seed), "checkpoint": floor,
                    "setup_s_samples": setup_times}
    try:
        hashes_before = desk.db_hashes()
        if args.trace == 0:
            deadline = time.perf_counter() + args.seconds
            t0 = time.perf_counter()
            ops = workload.run(desk, lambda n: time.perf_counter() >= deadline,
                               between=calibration.sample)
            wall = time.perf_counter() - t0
            measured = ops
        else:
            # The untraced and traced halves each get the speed factor of
            # their own calibration samples, so that drift between them does
            # not read as tracing overhead.
            k = workload.trace_ops
            first = len(calibration.samples_ms)
            t0 = time.perf_counter()
            measured = workload.run(desk, lambda n: n >= k, between=calibration.sample)
            wall = time.perf_counter() - t0
            wall_factor = calibration.factor(first)
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                tracer.request = tracing.SETUP_REQUEST
                workloads.tear_down(workloads.set_up(paths.tmp, args.seed, workload.split, None))
                tracer.request = None
                first = len(calibration.samples_ms)
                t1 = time.perf_counter()
                traced_ops = workload.run(desk, lambda n: n >= k, tracer, calibration.sample)
                traced_wall = time.perf_counter() - t1
            traced_factor = calibration.factor(first)
            if [op.digest for op in traced_ops] != [op.digest for op in measured]:
                problems.append("traced run produced different outputs from the untraced run")
            ops = measured + traced_ops
        hashes_after = desk.db_hashes()
    finally:
        workloads.tear_down(desk)
    if hashes_after != hashes_before:
        problems.append("a corpus .sqlite file changed during the run")

    bad = set(check_digests(paths.digests, [op.digest for op in measured]))
    if bad:
        problems.append(f"{len(bad)} operations differ from an earlier run with this seed")
    failed = sum(1 for i, op in enumerate(ops) if not op.ok or i in bad)
    for op in ops:
        problems.extend(op.extra.get("problems", []))
    problems = list(dict.fromkeys(problems))
    attempted = len(ops)

    done = [op for op in measured if op.digest != "raised"]
    named = workloads.workload_report(args.workload, measured) if done else {}
    named["setup_s"] = (stats.median(setup_times), "s")
    named["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    named["failed_share"] = (failed / attempted if attempted else 1.0, "share")
    named["measured_s"] = (wall, "s")
    factor = calibration.factor()
    named["speed_factor"] = (factor, "x")
    if not done:
        problems.append("no operation completed")

    if args.trace == 0 and done:
        ms = [op.ms for op in done]
        # Times at reference speed (speed.py), per token position of work;
        # the raw per-operation times are in `named`.
        us = [op.ms * 1000.0 * factor / op.tokens for op in done]
        metrics = {
            "setup_s": (stats.median(setup_times) * factor, "s"),
            "peak_rss_mb": named["peak_rss_mb"],
            "us_per_token_p50": (stats.median(us), "us"),
        }
        result["us_per_token_tail"] = stats.tail(us)
        result["tokens_per_s"] = sum(op.tokens for op in done) / (sum(ms) * factor / 1000.0)
    elif args.trace == 1:
        metrics = {name: (value * traced_factor if unit == "ms" else value, unit)
                   for name, (value, unit)
                   in tracing.per_layer_metrics(tracer, len(traced_ops), 1).items()}
        untraced_s, traced_s = wall * wall_factor, traced_wall * traced_factor
        metrics["trace.overhead_ms"] = ((traced_s - untraced_s) * 1000.0 / k, "ms")
        metrics["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "share")
        result["untraced_wall_s"] = wall
        result["traced_wall_s"] = traced_wall
        result["self_time"] = tracing.self_time_table(tracer.spans)
        spans_path = os.path.join(paths.work, "results",
                                  f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        with gzip.open(spans_path, "wt", compresslevel=1) as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
        result["spans_file"] = os.path.relpath(spans_path, paths.root)
    else:
        metrics = {}

    correct = not problems and failed == 0 and bool(done)
    result["calibration_ms"] = calibration.samples_ms
    result["ops"] = [{"ms": op.ms, "ok": op.ok, "tokens": op.tokens,
                      **{k: v for k, v in op.extra.items() if k != "problems"}}
                     for op in measured]
    result.update({"named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
                   "problems": problems, "correct": correct})
    results_path = os.path.join(paths.work, "results",
                                f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(results_path), exist_ok=True)
    with open(results_path, "w") as f:
        json.dump(result, f, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"platform={json.dumps(result['platform'])}")
    for name, (value, unit) in named.items():
        print(f"# {name} = {_fmt(value)} {unit}")
    for problem in problems[:20]:
        print(f"# problem: {problem}")
    print(f"# result file: {os.path.relpath(results_path, paths.root)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0
