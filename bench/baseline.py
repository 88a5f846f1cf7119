"""Record the benchmark's baseline and check that it is steady.

    python3 bench/baseline.py --runs 10 --out bench/baseline.json

Runs `bench/run.py` as separate processes, the way it is meant to be
driven: `--runs` untraced runs per workload, each with its own seed, then
one traced run per workload. For every end-to-end metric it records the
median, the quartiles and the spread (quartile distance over the median)
and compares the spread with the metric's bound in BENCHMARK.json. The
traced rows, the input sizes per seed and the machine go in the same
file. Exits 1 when a run fails or a spread (set-up time excepted) is not
below its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}"
                         f"{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def tree_sizes(workload: str, seeds: list[int]) -> list[dict]:
    scratch = REPO / ".bench_work" / f"baseline-{os.getpid()}"
    try:
        sizes = []
        for seed in seeds:
            info = run.make_inputs(run.WORKLOADS[workload], seed,
                                   scratch / str(seed))
            sizes.append({"seed": seed, "files": info.files,
                          "kloc": info.kloc, "digest": info.digest})
        return sizes
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _commit() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", action="append",
                        choices=list(run.WORKLOADS),
                        help="only these workloads (repeatable)")
    args = parser.parse_args(argv)

    spec = json.loads((REPO / "BENCHMARK.json").read_text("utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {
        "machine": {"cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "commit": _commit(),
        "run_seconds": seconds,
        "metrics": {**{name: {"unit": u, "better": b, "measures": m}
                       for name, (u, b, m) in run.E2E_METRICS.items()},
                    **{name: {"unit": u, "better": b, "moves": m}
                       for name, (u, b, m) in run.LAYER_METRICS.items()}},
        "workloads": {},
    }
    steady = True
    for workload in args.workload or list(run.WORKLOADS):
        results = [bench_run(workload, seed, seconds, 0) for seed in seeds]
        row = {"why": run.WORKLOADS[workload].why,
               "inputs": tree_sizes(workload, seeds),
               "end_to_end": {}}
        for name in run.E2E_METRICS:
            stats = summarize([r["metrics"][name]["value"] for r in results])
            stats["bound"] = bounds[name]
            row["end_to_end"][name] = stats
            flag = ""
            if name != "setup_s" and stats["spread"] >= bounds[name]:
                flag, steady = "  OVER BOUND", False
            elif stats["spread"] >= bounds[name] / 3:
                flag = "  above a third of the bound"
            print(f"{workload:<14} {name:<28} median {stats['median']:10.4f}"
                  f"  q1 {stats['q1']:10.4f}  q3 {stats['q3']:10.4f}"
                  f"  spread {stats['spread']:.4f} / {bounds[name]}{flag}",
                  flush=True)
        traced = bench_run(workload, seeds[0], seconds, 1)
        row["per_layer"] = {name: m["value"]
                            for name, m in traced["metrics"].items()}
        report["workloads"][workload] = row

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
