"""Span recorder and per-layer probes, applied from outside the package.

A probe replaces one function with a wrapper that records a span (name,
start, end, parent span, instance id) and optionally bumps counters.
Each probe patches the name where its caller looks it up: a function
imported with `from .x import f` is patched in the importing module,
because patching only the defining module would miss those calls.
Methods are patched on their class. Spans stay in memory; `write_jsonl`
dumps them when the run ends.

The package is single-threaded, so the parent of a span is whatever span
is open on the recorder's stack when it starts.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index into Recorder.spans
    instance: str | None


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._instance: str | None = None

    def wrap(self, fn: Callable, name: str, count=None,
             sets_instance: bool = False) -> Callable:
        def wrapper(*args, **kwargs):
            outer = self._instance
            if sets_instance:
                self._instance = args[0].instance_id
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None,
                        self._instance)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self._instance = outer
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result
        return wrapper

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def write_jsonl(self, path: Path | str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "instance": span.instance}) + "\n")


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def children(spans: list[Span]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            out.setdefault(span.parent, []).append(index)
    return out


def self_time(spans: list[Span], index: int,
              kids: dict[int, list[int]]) -> float:
    """Duration of spans[index] minus the time its child spans cover."""
    span = spans[index]
    return (span.end - span.start) - covered(
        (max(spans[k].start, span.start), min(spans[k].end, span.end))
        for k in kids.get(index, ()))


# -- counters ---------------------------------------------------------------


def _count_prompt(counts, result, args, kwargs):
    request = args[1]
    counts["llm.prompt_chars"] += sum(
        len(m.get("content") or "") for m in request.messages)


def _count_spawn(counts, result, args, kwargs):
    argv = args[0] if args else kwargs.get("args")
    git = isinstance(argv, (list, tuple)) and argv and argv[0] == "git"
    counts["proc.git_spawns" if git else "proc.shell_spawns"] += 1


def _count_scan(counts, result, args, kwargs):
    counts["cparse.scanned_lines"] += args[0].count("\n")


def _count_exec(counts, result, args, kwargs):
    counts["execution.timed_out"] += bool(result.timed_out)


def _count_embed(counts, result, args, kwargs):
    counts["localization.chunks_embedded"] += len(args[1])


def _count_candidate(counts, result, args, kwargs):
    counts["repair.candidates"] += 1
    if result is not None and result.applied:
        counts["repair.applied"] += 1
        counts["repair.poc_pass"] += bool(result.poc_pass)


@dataclass(frozen=True)
class Probe:
    target: str             # "module:function" or "module:Class.method"
    name: str
    count: Callable | None = None
    sets_instance: bool = False


_PIPE = "vulnmend.harness.pipeline"

# always on: what the end-to-end metrics need, a handful of spans per
# instance
E2E_PROBES = (
    Probe(f"{_PIPE}:run_instance", "pipeline.run_instance",
          sets_instance=True),
    Probe("vulnmend.harness.metrics:verify_prediction", "metrics.verify",
          sets_instance=True),
    Probe("vulnmend.harness.backends:ReplayBackend.chat", "llm.chat",
          _count_prompt),
)

# direct children of run_instance, by pipeline stage; together with
# run_instance's self time they cover all of it
STAGE_OF = {
    "edit_engine.history_init": "prepare",
    "symbol_analysis.index_build": "prepare",
    "pipeline.cpc": "cpc",
    "pipeline.spa": "spa",
    "pipeline.localize": "localize",
    "pipeline.generate": "generate",
    "pipeline.validate": "validate",
}
STAGES = ("prepare", "cpc", "spa", "localize", "generate", "validate")

LAYER_PROBES = E2E_PROBES + (
    Probe(f"{_PIPE}:run_cpc_agent", "pipeline.cpc"),
    Probe(f"{_PIPE}:run_spa_agent", "pipeline.spa"),
    Probe(f"{_PIPE}:localize_files_prompt", "pipeline.localize"),
    Probe(f"{_PIPE}:localize_files_retrieval", "pipeline.localize"),
    Probe(f"{_PIPE}:localize_elements", "pipeline.localize"),
    Probe(f"{_PIPE}:build_patch_context", "pipeline.generate"),
    Probe(f"{_PIPE}:generate_patches", "pipeline.generate"),
    Probe(f"{_PIPE}:validate_candidate", "pipeline.validate",
          _count_candidate),
    Probe(f"{_PIPE}:select_patch", "pipeline.validate"),
    Probe(f"{_PIPE}:make_symbol_backend", "symbol_analysis.index_build"),
    Probe("vulnmend.edit_engine:EditHistory.__init__",
          "edit_engine.history_init"),
    Probe("vulnmend.edit_engine:EditHistory.apply_edits",
          "edit_engine.apply"),
    Probe("vulnmend.edit_engine:EditHistory.rollback_latest",
          "edit_engine.rollback"),
    Probe("vulnmend.edit_engine:EditHistory.rollback_all",
          "edit_engine.rollback"),
    Probe("vulnmend.repair:to_unified_diff", "edit_engine.diff"),
    Probe("vulnmend.repair:patch_fingerprint", "repair.fingerprint"),
    Probe("vulnmend.execution:LocalSandbox.exec", "execution.exec",
          _count_exec),
    Probe("subprocess:run", "proc.spawn", _count_spawn),
    Probe("vulnmend.agents.toolkits:resolve_code_symbol",
          "symbol_analysis.resolve"),
    Probe("vulnmend.agents.toolkits:search_code_element",
          "code_search.search"),
    Probe("vulnmend.agents.toolkits:read_code", "code_search.read"),
    Probe("vulnmend.repo_model:scan_elements", "cparse.scan", _count_scan),
    Probe("vulnmend.localization:skeletonize", "repo_model.skeletonize"),
    Probe("vulnmend.localization:HashingEmbedder.embed", "localization.embed",
          _count_embed),
) + tuple(
    Probe(f"{module}:render_repo_tree", "repo_model.tree_render")
    for module in ("vulnmend.agents.cpc", "vulnmend.agents.spa",
                   "vulnmend.localization")
) + tuple(
    Probe(f"{module}:source_files", "repo_model.source_files")
    for module in ("vulnmend.repo_model", "vulnmend.symbol_analysis",
                   "vulnmend.code_search", "vulnmend.localization")
)


def _owner(target: str):
    module_name, _, attr = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(recorder: Recorder, probes):
    """Patch every probe in for the duration of the block."""
    saved = []
    try:
        for probe in probes:
            owner, attr = _owner(probe.target)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(
                original, probe.name, probe.count, probe.sets_instance))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics --------------------------------------------------------


def stage_breakdown(spans: list[Span]) -> list[dict]:
    """Per run_instance span: its wall time, each stage's time and its self
    time. Raises if a direct child belongs to no stage or the parts do
    not add up to the whole."""
    kids = children(spans)
    rows = []
    for index, span in enumerate(spans):
        if span.name != "pipeline.run_instance":
            continue
        row = {"run": span.end - span.start,
               "self": self_time(spans, index, kids)}
        row.update({stage: 0.0 for stage in STAGES})
        for k in kids.get(index, ()):
            stage = STAGE_OF.get(spans[k].name)
            if stage is None:
                raise ValueError(f"span {spans[k].name} under run_instance "
                                 "belongs to no stage")
            row[stage] += spans[k].end - spans[k].start
        parts = sum(row[stage] for stage in STAGES) + row["self"]
        if abs(parts - row["run"]) > 1e-6 * max(1.0, row["run"]):
            raise ValueError(f"stages + self = {parts:.6f} s but "
                             f"run_instance took {row['run']:.6f} s")
        rows.append(row)
    return rows


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Every per-layer metric, per replayed instance."""
    rows = stage_breakdown(recorder.spans)
    n = len(rows)
    if n == 0:
        raise ValueError("no traced run_instance spans")
    counts = recorder.counts

    def total(name):
        return sum(recorder.durations(name)) / n

    def calls(name):
        return len(recorder.durations(name)) / n

    out = {f"pipeline.{stage}_s": sum(r[stage] for r in rows) / n
           for stage in STAGES}
    out["pipeline.self_s"] = sum(r["self"] for r in rows) / n
    out["pipeline.run_s"] = sum(r["run"] for r in rows) / n
    out.update({
        "execution.exec_calls": calls("execution.exec"),
        "execution.exec_s": total("execution.exec"),
        "execution.timed_out": counts["execution.timed_out"] / n,
        "edit_engine.history_init_s": total("edit_engine.history_init"),
        "edit_engine.apply_calls": calls("edit_engine.apply"),
        "edit_engine.apply_s": total("edit_engine.apply"),
        "edit_engine.rollback_s": total("edit_engine.rollback"),
        "edit_engine.diff_s": total("edit_engine.diff"),
        "proc.git_spawns": counts["proc.git_spawns"] / n,
        "proc.shell_spawns": counts["proc.shell_spawns"] / n,
        "symbol_analysis.index_build_s": total("symbol_analysis.index_build"),
        "symbol_analysis.resolve_s": total("symbol_analysis.resolve"),
        "code_search.search_calls": calls("code_search.search"),
        "code_search.search_s": total("code_search.search"),
        "code_search.read_s": total("code_search.read"),
        "cparse.scan_calls": calls("cparse.scan"),
        "cparse.scanned_kloc": counts["cparse.scanned_lines"] / 1000 / n,
        "cparse.scan_s": total("cparse.scan"),
        "repo_model.source_files_calls": calls("repo_model.source_files"),
        "repo_model.skeletonize_s": total("repo_model.skeletonize"),
        "repo_model.tree_render_s": total("repo_model.tree_render"),
        "localization.embed_s": total("localization.embed"),
        "localization.chunks_embedded":
            counts["localization.chunks_embedded"] / n,
        "repair.candidates": counts["repair.candidates"] / n,
        "repair.applied": counts["repair.applied"] / n,
        "repair.applied_ratio":
            counts["repair.applied"] / max(counts["repair.candidates"], 1),
        "repair.poc_pass_ratio":
            counts["repair.poc_pass"] / max(counts["repair.applied"], 1),
        "repair.fingerprint_s": total("repair.fingerprint"),
        "llm.calls": calls("llm.chat"),
        "llm.prompt_kchars": counts["llm.prompt_chars"] / 1000 / n,
        "llm.chat_s": total("llm.chat"),
        "metrics.verify_s": total("metrics.verify"),
    })
    return out
