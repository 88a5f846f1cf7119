"""vulnmend benchmark: replayed `run` + `evaluate` on seeded workloads.

    python3 bench/run.py --workload fixture-full --seed 1 --seconds 50 \
        --trace 0

Each round runs a batch of instances through `run_all` and then
`evaluate_run`, in this process and one instance after another, as
`vulnmend run` and `vulnmend evaluate` do (a closed loop, no threads or
pools). Rounds repeat until `--seconds` have passed. Every instance is
checked (see checks.py); a failed check stops the run, which then reports
`"correct": false` and exits 1.

With `--trace 0` the end-to-end metrics are reported. With `--trace 1`
rounds alternate between untraced and traced, the traced ones record a
span at every layer boundary (see spans.py), the spans are written to
`.bench_out/<workload>-seed<seed>.spans.jsonl`, and the per-layer
metrics are reported. `--workload all` runs every workload in turn.

The last line of standard output is one JSON object: correct,
attempted, failed and metrics. Inputs are generated under `.bench_work/`
from the seed and removed at exit; the package comes from `src/` and
the fixture from `tests/fixtures/`, both in this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
FIXTURES = REPO / "tests" / "fixtures"

sys.path.insert(0, str(SRC))

import bigtree  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402


@dataclass(frozen=True)
class Workload:
    tree: str       # "fixture" or "bigtree"
    batch: int      # instances per round
    why: str


# Both replay the fixture's `full` script (both agents on). A third
# workload, the seeded tree with the `base` script, was dropped: on a
# shared 2-vCPU machine its 30 s medians spread by 16-23% from run to run,
# and the time it took went to longer runs of these two instead.
WORKLOADS = {
    "fixture-full": Workload(
        "fixture", 4,
        "fixture, both agents: 5 gcc+ASan PoC builds and git-backed edit "
        "history dominate, so validation and edit-history changes show"),
    "bigtree-full": Workload(
        "bigtree", 1,
        "seeded 39 kLOC tree, 132 files, both agents: symbol index, "
        "repo-wide searches, embedding and tree copies dominate; the "
        "scan/index/copy workload"),
}

# name -> (unit, better, what moves it)
E2E_METRICS = {
    "e2e_s_per_instance": ("s", "lower", "run_all + evaluate_run wall time "
                           "per instance, median over rounds"),
    "run_s_p50": ("s", "lower", "run_instance wall time, median"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of the process"),
    "prompt_kchars_per_instance": ("kchar", "lower",
                                   "characters sent to the backend"),
    "resolved_rate": ("ratio", "higher", "share marked resolved; must be 1"),
    "setup_s": ("s", "lower", "median input generation + warm-up instance"),
}

# name -> (unit, better, end-to-end metric and workload it should move)
LAYER_METRICS = {
    "pipeline.prepare_s": ("s", "lower", "run_s_p50, bigtree-full: edit "
                           "history baseline + symbol index"),
    "pipeline.cpc_s": ("s", "lower", "run_s_p50, bigtree-full"),
    "pipeline.spa_s": ("s", "lower", "run_s_p50, all"),
    "pipeline.localize_s": ("s", "lower", "run_s_p50, bigtree-full"),
    "pipeline.generate_s": ("s", "lower", "run_s_p50, all"),
    "pipeline.validate_s": ("s", "lower", "run_s_p50, fixture-full"),
    "pipeline.self_s": ("s", "lower", "run_s_p50, bigtree-full: tree copies, "
                        "prelude, artifact writes"),
    "pipeline.run_s": ("s", "lower", "run_s_p50, all: the sum of the "
                       "stages above"),
    "execution.exec_calls": ("count", "lower", "run_s_p50, fixture-full"),
    "execution.exec_s": ("s", "lower", "run_s_p50, fixture-full"),
    "execution.timed_out": ("count", "lower", "failed runs, all"),
    "edit_engine.history_init_s": ("s", "lower", "run_s_p50, bigtree-full"),
    "edit_engine.apply_calls": ("count", "lower", "run_s_p50, all"),
    "edit_engine.apply_s": ("s", "lower", "run_s_p50, fixture-full"),
    "edit_engine.rollback_s": ("s", "lower", "run_s_p50, fixture-full"),
    "edit_engine.diff_s": ("s", "lower", "run_s_p50, bigtree-full"),
    "proc.git_spawns": ("count", "lower", "run_s_p50, all"),
    "proc.shell_spawns": ("count", "lower", "run_s_p50, all"),
    "symbol_analysis.index_build_s": ("s", "lower", "run_s_p50, bigtree-full"),
    "symbol_analysis.resolve_s": ("s", "lower", "run_s_p50, bigtree-full"),
    "code_search.search_calls": ("count", "lower", "run_s_p50, bigtree-full"),
    "code_search.search_s": ("s", "lower", "run_s_p50, bigtree-full"),
    "code_search.read_s": ("s", "lower", "run_s_p50, bigtree-full"),
    "cparse.scan_calls": ("count", "lower", "run_s_p50, bigtree-full"),
    "cparse.scanned_kloc": ("kLOC", "lower", "run_s_p50, bigtree-full: over "
                            "the tree's kLOC it is the re-parse factor"),
    "cparse.scan_s": ("s", "lower", "run_s_p50, bigtree-full"),
    "repo_model.source_files_calls": ("count", "lower",
                                      "run_s_p50, bigtree-full"),
    "repo_model.skeletonize_s": ("s", "lower", "run_s_p50, bigtree-full"),
    "repo_model.tree_render_s": ("s", "lower", "run_s_p50, bigtree-full"),
    "localization.embed_s": ("s", "lower", "run_s_p50, bigtree-full"),
    "localization.chunks_embedded": ("count", "lower",
                                     "run_s_p50, bigtree-full"),
    "repair.candidates": ("count", "higher", "base of applied_ratio"),
    "repair.applied": ("count", "higher", "base of poc_pass_ratio"),
    "repair.applied_ratio": ("ratio", "higher", "wasted validation, "
                             "fixture-full; 3/5 today"),
    "repair.poc_pass_ratio": ("ratio", "higher", "wasted validation, "
                              "fixture-full; 2/3 today"),
    "repair.fingerprint_s": ("s", "lower", "run_s_p50, fixture-full"),
    "llm.calls": ("count", "lower", "prompt_kchars_per_instance, all"),
    "llm.prompt_kchars": ("kchar", "lower",
                          "prompt_kchars_per_instance, all"),
    "llm.chat_s": ("s", "lower", "run_s_p50, all"),
    "metrics.verify_s": ("s", "lower", "e2e_s_per_instance, all"),
    "trace_overhead_s": ("s", "lower", "traced minus untraced "
                         "e2e_s_per_instance"),
}

SETUP_REPEATS = 3


class BenchFailure(Exception):
    """An instance failed; the run cannot be reported as good."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


def make_inputs(workload: Workload, seed: int, dest: Path):
    """Tree, instances JSONL and replay script for one workload."""
    dest.mkdir(parents=True)
    tree = dest / "tree"
    if workload.tree == "bigtree":
        info = bigtree.generate(seed, tree)
    else:
        shutil.copytree(bigtree.CREPO, tree)
        info = bigtree.describe(tree)
    row = json.loads((FIXTURES / "instances.jsonl").read_text("utf-8"))
    script = json.loads((FIXTURES / "replays" / "full.json")
                        .read_text("utf-8"))
    entries = script["instances"][row["instance_id"]]["entries"]
    ids = [f"{row['instance_id']}-{k}" for k in range(workload.batch)]
    with open(dest / "instances.jsonl", "w", encoding="utf-8") as fh:
        for iid in ids:
            fh.write(json.dumps({**row, "instance_id": iid,
                                 "workspace": {"path": "tree"}}) + "\n")
    with open(dest / "replay.json", "w", encoding="utf-8") as fh:
        json.dump({"instances": {iid: {"entries": entries} for iid in ids}},
                  fh)
    return info


@dataclass
class Round:
    wall: float
    instances: int
    resolved: int


def run_round(inputs: Path, workload: Workload, out: Path, tally: Tally,
              limit: int | None = None) -> Round:
    """One batch through run_all + evaluate_run, then check every
    instance. Raises BenchFailure when one fails."""
    from vulnmend.harness.backends import ReplayBackend
    from vulnmend.harness.config import variant
    from vulnmend.harness.instances import load_instances
    from vulnmend.harness.metrics import evaluate_run
    from vulnmend.harness.pipeline import run_all

    batch = workload.batch if limit is None else limit
    tally.attempted += batch
    try:
        started = time.perf_counter()
        instances = load_instances(inputs / "instances.jsonl")[:limit]
        script = json.loads((inputs / "replay.json").read_text("utf-8"))
        per_instance = script["instances"]
        results = run_all(instances, variant("full"),
                          lambda iid: ReplayBackend(per_instance[iid]), out)
        _, verdicts = evaluate_run(
            out, load_instances(inputs / "instances.jsonl")[:limit])
        wall = time.perf_counter() - started
    except Exception as exc:
        # whatever the package raises fails the whole batch
        tally.failed += batch
        raise BenchFailure(traceback.format_exc()) from exc

    resolved = {v.instance_id: v.resolved for v in verdicts}
    problems = []
    for result in results:
        found = checks.check_instance(
            result.instance_dir, result.errors,
            resolved.get(result.instance_id, False))
        problems += [f"{result.instance_id}: {p}" for p in found]
        tally.failed += bool(found)
    shutil.rmtree(out)
    if problems:
        raise BenchFailure("; ".join(problems))
    return Round(wall=wall, instances=len(results),
                 resolved=sum(resolved.values()))


def log(line: str) -> None:
    print(line, flush=True)


def measure(name: str, seed: int, seconds: float, trace: bool,
            work: Path, tally: Tally) -> dict:
    """Set up, warm up and measure one workload; returns its metrics."""
    workload = WORKLOADS[name]
    setup_times, infos = [], []
    for k in range(SETUP_REPEATS):
        started = time.perf_counter()
        infos.append(make_inputs(workload, seed, work / f"inputs-{k}"))
        setup_times.append(time.perf_counter() - started)
    for k in range(1, SETUP_REPEATS):
        shutil.rmtree(work / f"inputs-{k}")
    if len(set(infos)) != 1:
        tally.attempted += 1
        tally.failed += 1
        raise BenchFailure(f"seed {seed} generated different trees: {infos}")
    info = infos[0]
    inputs = work / "inputs-0"
    log(f"{name}: tree {info.files} source files, {info.kloc} kLOC, "
        f"digest {info.digest[:16]}")

    started = time.perf_counter()
    run_round(inputs, workload, work / "out", tally, limit=1)
    warm_up = time.perf_counter() - started
    setup_s = statistics.median(setup_times) + warm_up

    plain, traced = spans.Recorder(), spans.Recorder()
    plain_rounds, traced_rounds = [], []
    deadline = time.perf_counter() + seconds
    while True:
        tracing = trace and len(plain_rounds) > len(traced_rounds)
        recorder = traced if tracing else plain
        probes = spans.LAYER_PROBES if tracing else spans.E2E_PROBES
        with spans.installed(recorder, probes):
            result = run_round(inputs, workload, work / "out", tally)
        (traced_rounds if tracing else plain_rounds).append(result)
        done = time.perf_counter() >= deadline
        if done and (not trace or traced_rounds):
            break

    per_instance = [r.wall / r.instances for r in plain_rounds]
    n = sum(r.instances for r in plain_rounds)
    log(f"{name}: {len(plain_rounds)} untraced rounds x {workload.batch} "
        f"instance(s) = {n} timed instances; {len(traced_rounds)} traced "
        "rounds; s per instance by round: "
        + " ".join(f"{t:.3f}" for t in per_instance))
    if trace:
        metrics = spans.layer_metrics(traced)
        metrics["trace_overhead_s"] = (
            statistics.median([r.wall / r.instances for r in traced_rounds])
            - statistics.median(per_instance))
        out_dir = REPO / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        traced.write_jsonl(out_dir / f"{name}-seed{seed}.spans.jsonl")
        log(f"{name}: applied_ratio = {traced.counts['repair.applied']}/"
            f"{traced.counts['repair.candidates']}, poc_pass_ratio = "
            f"{traced.counts['repair.poc_pass']}/"
            f"{traced.counts['repair.applied']}")
        return metrics

    # printed, not reported: on a shared 2-vCPU machine the medians of
    # this 0.2 s copy-apply-build step spread by 25-37% from run to run
    log(_report_line("evaluate_s_p50", statistics.median(
        plain.durations("metrics.verify")), "s", f"{name}  "))
    return {
        "e2e_s_per_instance": statistics.median(per_instance),
        "run_s_p50": statistics.median(
            plain.durations("pipeline.run_instance")),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "prompt_kchars_per_instance":
            plain.counts["llm.prompt_chars"] / 1000 / n,
        "resolved_rate": sum(r.resolved for r in plain_rounds) / n,
        "setup_s": setup_s,
    }


def _report_line(name: str, value: float, unit: str, prefix: str) -> str:
    return f"{prefix}{name:<32} {value:>12.4f} {unit}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Replay benchmark for vulnmend run + evaluate.")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "vulnmend", bigtree.CREPO,
                           FIXTURES / "instances.jsonl")
               if not p.exists()]
    if missing:
        print(f"benchmark needs {', '.join(map(str, missing))}; run it "
              "from the root of a vulnmend checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    catalogue = LAYER_METRICS if args.trace else E2E_METRICS
    work = REPO / ".bench_work" / f"run-{os.getpid()}"
    summary: dict = {}
    tally = Tally()
    try:
        (work / "tmp").mkdir(parents=True)
        # verify_prediction and gcc write temporary files; keep them in
        # the checkout
        os.environ["TMPDIR"] = str(work / "tmp")
        tempfile.tempdir = None
        # when the checkout is a git repository, `git apply` in the
        # evaluator's scratch copy must not find it
        os.environ["GIT_CEILING_DIRECTORIES"] = str(work)
        for name in names:
            try:
                metrics = measure(name, args.seed, args.seconds,
                                  bool(args.trace), work / name, tally)
            except BenchFailure as exc:
                print(f"{name}: FAILED: {exc}", file=sys.stderr)
                continue
            prefix = f"{name}." if args.workload == "all" else ""
            for metric, value in metrics.items():
                log(_report_line(metric, value, catalogue[metric][0],
                                 f"{name}  "))
                summary[prefix + metric] = {"value": value,
                                            "unit": catalogue[metric][0]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    log(_report_line("failed_share", tally.failed / tally.attempted,
                     "ratio", ""))
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": summary if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
