"""Alternating parent/change pairs of the desk benchmark, summarised in one JSON file.

    python tools/bench_pairs.py PARENT CHANGE --workload infer-desk --seed 3 --pairs 10 --out BENCH.json
    python tools/bench_pairs.py PARENT CHANGE --tier1 --out BENCH.json

PARENT and CHANGE are the roots of two checkouts, each with its own `src/`
and `perfbench/`. A run is `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` in one checkout, T being `run_seconds` of CHANGE's
`BENCHMARK.json`. Before the pairs, one run of each
side fills that side's set-up checkpoint and output digests; it is not
counted. Pair i then runs the parent first when i is even and the change
first when it is odd, one run at a time.

For the workload, the file records:

- each end-to-end metric of CHANGE's `BENCHMARK.json`, per side: every
  run's value, the median, the quartiles and the quartile spread as a share
  of the median; and the pairs in which the change reads better, ties
  counting for neither side;
- the same summary of every numeric figure on the runs' `#` lines;
- each run's failed and attempted operation counts;
- the platform record of the `#` line (`perfbench/bench.platform_record`).

`--tier1` instead times the tier-1 suite in each checkout, once with
`OPENBLAS_NUM_THREADS=1` and once with no thread setting, and records wall
time, the CPU time of the suite's processes and pytest's summary line.

The file is read first and updated in place, one workload or the tier-1
block at a time, so several invocations build one file; `checkouts` names
the two sides by commit (`git rev-parse --short HEAD` in each, or the
directory name where that fails).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def checkout_label(root: str) -> str:
    proc = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or os.path.basename(os.path.abspath(root))


def run_bench(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout `root`: its result object, its numeric
    `#` figures and its platform record."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    figures, platform = {}, None
    for line in lines[:-1]:
        if " platform=" in line:
            platform = json.loads(line.split(" platform=", 1)[1])
        elif line.startswith("# ") and " = " in line:
            name, value = line[2:].split(" = ", 1)
            try:
                figures[name] = float(value.split()[0])
            except ValueError:
                pass
    return {"result": json.loads(lines[-1]), "figures": figures, "platform": platform}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    return {"parent": p, "change": c,
            "change_better": f"{wins}/{len(parent)}",
            "median_change": (c["median"] - p["median"]) / p["median"] if p["median"] else None}


def pairs(args, spec: dict) -> dict:
    sides = {"parent": args.parent, "change": args.change}
    seconds = spec["run_seconds"]
    for root in sides.values():  # fills the checkpoint and the digests
        run_bench(root, args.workload, args.seed, seconds)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side].append(run_bench(sides[side], args.workload, args.seed, seconds))
            print(f"pair {i} {side}: {runs[side][-1]['result']['metrics']}", file=sys.stderr)

    metrics = {}
    for m in spec["end_to_end"]:
        parent, change = ([r["result"]["metrics"][m["name"]]["value"] for r in runs[side]]
                          for side in ("parent", "change"))
        metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                              **compare(parent, change, m["better"])}
    names = set.intersection(*(set(r["figures"]) for side in runs for r in runs[side]))
    figures = {name: {side: summary([r["figures"][name] for r in runs[side]])
                      for side in runs} for name in sorted(names)}
    return {"seed": args.seed, "seconds": seconds, "pairs": args.pairs,
            "metrics": metrics, "figures": figures,
            "operations": {side: [{k: r["result"][k] for k in ("attempted", "failed", "correct")}
                                  for r in runs[side]] for side in runs},
            "platform": {side: runs[side][0]["platform"] for side in runs}}


def tier1(root: str, pinned: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    if pinned:
        env.update({var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": wall, "cpu_s": cpu, "summary": tail, "exit": proc.returncode}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", choices=["train-desk", "infer-desk", "sweep-desk"])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--tier1", action="store_true", help="time the tier-1 suite instead")
    ap.add_argument("--out", required=True, help="the JSON file to update")
    args = ap.parse_args(argv)
    if args.tier1 == (args.workload is not None):
        ap.error("give --workload or --tier1")
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    record["checkouts"] = {"parent": checkout_label(args.parent),
                           "change": checkout_label(args.change)}
    if args.tier1:
        record["tier1"] = {side: {"pinned": tier1(root, True), "unpinned": tier1(root, False)}
                           for side, root in (("parent", args.parent), ("change", args.change))}
    else:
        record.setdefault("workloads", {})[args.workload] = pairs(args, spec)
    with open(args.out + ".partial", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(args.out + ".partial", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
