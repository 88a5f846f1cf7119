"""The per-instance resolution pipeline.

Stage order: optional context agent, optional property-analysis agent,
enhanced-report assembly, file and element localization, patch
generation, per-candidate validation, selection, artifact persistence.
Stage failures degrade the run (recorded in telemetry) instead of
aborting it; a run with no winning patch still produces its artifacts
and an empty prediction.

Artifacts are deterministic by construction: no timestamps, no absolute
paths, sorted JSON keys. Two runs from the same inputs and the same
replay script write identical bytes.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

from ..agents.cpc import run_cpc_agent
from ..agents.reports import EnhancedIssueReport
from ..agents.spa import install_assert_prelude, run_spa_agent
from ..edit_engine import EditHistory
from ..errors import ReplayDesync, ScriptExhausted, VulnmendError
from ..execution import LocalSandbox, LogStore, PocRunner, PythonScriptSandbox
from ..llm import LLMBackend
from ..localization import (localize_elements, localize_files_prompt,
                            localize_files_retrieval, merge_rankings)
from ..repair import (build_patch_context, generate_patches, select_patch,
                      validate_candidate)
from ..repo_model import (RepoIndex, skip_dangling_links, write_json,
                          write_text)
from ..symbol_analysis import make_symbol_backend
from .config import RunConfig
from .instances import IssueInstance
from .metrics import cost_of_records
from .telemetry import transcript_summary


@dataclass
class InstanceResult:
    instance_id: str
    instance_dir: Path
    prediction: str
    winner: int | None
    errors: list


class _Stage:
    """Collects per-stage failures without stopping the pipeline."""

    def __init__(self):
        self.errors: list[dict] = []

    def run(self, name: str, fn, fallback=None):
        try:
            return fn()
        except (ReplayDesync, ScriptExhausted):
            # a replay mismatch means the test script and the pipeline
            # disagree; degrading would hide exactly what it must expose
            raise
        except (VulnmendError, OSError, ValueError, KeyError) as exc:
            self.errors.append({"stage": name,
                                "error": f"{type(exc).__name__}: {exc}"})
            return fallback


def run_instance(instance: IssueInstance, config: RunConfig,
                 llm: LLMBackend, out_dir: Path | str) -> InstanceResult:
    """Resolve one instance into out_dir/<instance_id>/."""
    config.validate()

    instance_dir = Path(out_dir) / instance.instance_id
    if instance_dir.exists():
        shutil.rmtree(instance_dir)
    workspace = instance_dir / "workspace"
    try:
        shutil.copytree(instance.workspace_path, workspace,
                        ignore=skip_dangling_links)
    except OSError as exc:
        # this instance's data is broken (say, its workspace is gone);
        # it gets an empty prediction and the batch goes on
        shutil.rmtree(workspace, ignore_errors=True)
        errors = [{"stage": "workspace",
                   "error": f"{type(exc).__name__}: {exc}"}]
        write_text(instance_dir / "prediction.diff", "")
        write_json(instance_dir / "telemetry.json", {
            "instance_id": instance.instance_id, "agents": {},
            "stages": {}, "errors": errors})
        return InstanceResult(
            instance_id=instance.instance_id, instance_dir=instance_dir,
            prediction="", winner=None, errors=errors)

    stage = _Stage()
    records_start = len(getattr(llm, "records", []) or [])

    if config.input_type == "sanitizer_log":
        if instance.sanitizer_log:
            issue_text = instance.sanitizer_log
        else:
            stage.errors.append({
                "stage": "input",
                "error": "input_type is sanitizer_log but the instance "
                         "has none; using the issue report"})
            issue_text = instance.issue_report
    else:
        issue_text = instance.issue_report

    sandbox = LocalSandbox(workspace)
    if config.enable_spa:
        # rollbacks and prediction diffs cover only the files edit sets
        # rewrote, so the header stays and no prediction mentions it
        install_assert_prelude(sandbox)

    log_store = LogStore()
    history = EditHistory(workspace)
    runner = PocRunner(
        sandbox, instance.repro_command, log_store=log_store,
        head_lines=config.log_head_lines, tail_lines=config.log_tail_lines,
        timeout=config.poc_timeout)
    script_sandbox = PythonScriptSandbox(
        log_provider=log_store.get, output_cap=config.script_output_cap)
    # one index for every file listing and element lookup of this
    # instance; it lists and parses lazily, inside the stage that first
    # needs it
    index = RepoIndex(workspace)
    symbols = make_symbol_backend(index)

    telemetry: dict = {"instance_id": instance.instance_id,
                       "agents": {}, "stages": {}}

    context_report = None
    if config.enable_cpc:
        cpc_out = stage.run("cpc", lambda: run_cpc_agent(
            llm, index, symbols, issue_text,
            max_steps=config.cpc_max_steps))
        if cpc_out is not None:
            context_report, transcript = cpc_out
            telemetry["agents"]["cpc"] = transcript_summary(transcript)
            telemetry["agents"]["cpc"]["report_parse_ok"] = \
                context_report.parse_ok

    property_report = None
    if config.enable_spa:
        spa_issue = issue_text
        if context_report is not None:
            spa_issue = EnhancedIssueReport(
                issue_text=issue_text,
                context_report=context_report).render()
        spa_out = stage.run("spa", lambda: run_spa_agent(
            llm, index, symbols, history, runner, script_sandbox,
            spa_issue, max_steps=config.spa_max_steps))
        if spa_out is not None:
            property_report, transcript = spa_out
            telemetry["agents"]["spa"] = transcript_summary(transcript)
            telemetry["agents"]["spa"]["report_parse_ok"] = \
                property_report.parse_ok

    enhanced = EnhancedIssueReport(issue_text=issue_text,
                                   context_report=context_report,
                                   property_report=property_report)
    enhanced_text = enhanced.render()
    write_text(instance_dir / "reports" / "enhanced.md", enhanced_text)
    if context_report is not None:
        write_text(instance_dir / "reports" / "context.md",
                   context_report.render())
    if property_report is not None:
        write_text(instance_dir / "reports" / "property.md",
                   property_report.render())

    has_reports = context_report is not None or property_report is not None

    loc_text = (enhanced_text
                if has_reports and "localization" in config.enhance_stages
                else issue_text)
    prompt_files = stage.run("localize_files", lambda: localize_files_prompt(
        llm, index, loc_text, config.top_files), fallback=[])
    retrieval_files = stage.run(
        "localize_retrieval", lambda: localize_files_retrieval(
            llm, index, loc_text, config.top_files,
            chunk_lines=config.chunk_lines), fallback=[])
    merged = merge_rankings(prompt_files, retrieval_files, config.top_files)
    element_loc = stage.run("localize_elements", lambda: localize_elements(
        llm, index, merged, loc_text, limit=config.element_limit))
    selections = element_loc.selections if element_loc is not None else ()

    write_json(instance_dir / "rankings" / "files.json", {
        "prompt": prompt_files,
        "retrieval": retrieval_files,
        "merged": merged,
    })
    write_json(instance_dir / "rankings" / "elements.json", [{
        "file": sel.file,
        "id": sel.element.qualified_name,
        "kind": sel.element.kind.value,
        "start_line": sel.element.start_line,
        "end_line": sel.element.end_line,
    } for sel in selections])
    telemetry["stages"]["localization"] = {
        "enhanced_input": loc_text is enhanced_text,
        "prompt_files": len(prompt_files),
        "retrieval_files": len(retrieval_files),
        "elements": len(selections),
        "element_parse_ok": (element_loc.parse_ok
                             if element_loc is not None else False),
    }

    context = build_patch_context(
        workspace, selections,
        whole_files=merged if not selections else None,
        margin=config.context_margin)

    gen_text = (enhanced_text
                if has_reports and "generation" in config.enhance_stages
                else issue_text)
    # a failed request keeps the candidates answered before it
    candidates: list = []
    stage.run("generate", lambda: generate_patches(
        llm, gen_text, context, t=config.candidates, out=candidates))

    outcomes = []
    for candidate in candidates:
        write_text(instance_dir / "candidates"
                   / f"candidate-{candidate.index}.md", candidate.raw_text)
        outcome = stage.run(
            f"validate-{candidate.index}",
            lambda c=candidate: validate_candidate(c, history, runner,
                                                   workspace))
        if outcome is None:
            continue
        outcomes.append(outcome)
        if outcome.applied:
            write_text(instance_dir / "candidates"
                       / f"candidate-{outcome.index}.diff", outcome.diff)
    write_json(instance_dir / "candidates" / "outcomes.json", [{
        "index": o.index,
        "applied": o.applied,
        "compiled": o.compiled,
        "sanitizer_triggered": o.sanitizer_triggered,
        "poc_pass": o.poc_pass,
        "fingerprint": o.fingerprint,
        "failure": o.failure,
    } for o in outcomes])

    selection = select_patch(outcomes, config.selection_strategy)
    by_index = {o.index: o for o in outcomes}
    prediction = (by_index[selection.winner].diff
                  if selection.winner is not None else "")
    write_text(instance_dir / "prediction.diff", prediction)

    telemetry["stages"]["generation"] = {
        "enhanced_input": gen_text is enhanced_text,
        "candidates": len(candidates),
        "applied": sum(1 for o in outcomes if o.applied),
        "poc_pass": sum(1 for o in outcomes if o.poc_pass),
    }
    telemetry["selection"] = {
        "strategy": selection.strategy,
        "winner": selection.winner,
        "pool": list(selection.pool),
        "group_sizes": dict(sorted(selection.group_sizes.items())),
        "reason": selection.reason,
    }
    telemetry["errors"] = stage.errors
    write_json(instance_dir / "telemetry.json", telemetry)

    records = getattr(llm, "records", None)
    if records is not None:
        write_json(instance_dir / "cost.json",
                   cost_of_records(records[records_start:], config))

    if not config.keep_workspaces:
        # the workspace carries volatile state (build artifacts);
        # dropping it leaves only reproducible artifacts
        shutil.rmtree(workspace, ignore_errors=True)
    return InstanceResult(
        instance_id=instance.instance_id, instance_dir=instance_dir,
        prediction=prediction, winner=selection.winner,
        errors=stage.errors)


def run_all(instances, config: RunConfig, backend_for,
            out_dir: Path | str) -> list[InstanceResult]:
    """Run every instance; backend_for(instance_id) supplies its model."""
    out_dir = Path(out_dir)
    write_json(out_dir / "config.json", config.to_dict())
    results = []
    for instance in instances:
        results.append(run_instance(instance, config,
                                    backend_for(instance.instance_id),
                                    out_dir))
    return results
