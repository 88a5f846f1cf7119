"""The per-instance resolution pipeline.

Stage order: optional context agent, optional property-analysis agent,
enhanced-report assembly, file and element localization, patch
generation, per-candidate validation, selection, artifact persistence.
Stage failures degrade the run (recorded in telemetry) instead of
aborting it; a run with no winning patch still produces its artifacts
and an empty prediction. Every stage reads the input in place, through
one RepoIndex, but the property-analysis agent, the one writer: it works
in a temp copy of its own, removed when it ends. One copier, AheadCopies,
makes every copy: the agent's and one per judge ahead, any other when
taken; once validation ends, or the run fails, it removes what is left.

Artifacts are deterministic by construction: no timestamps, no absolute
paths, sorted JSON keys. Two runs from the same inputs and the same
replay script write identical bytes.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

from ..agents.cpc import run_cpc_agent
from ..agents.reports import EnhancedIssueReport
from ..agents.spa import run_spa_agent
from ..edit_engine import EditHistory
from ..errors import (NoRunDirectory, ReplayDesync, ScriptExhausted,
                      VulnmendError, describe_error)
from ..execution import (AheadCopies, LocalSandbox, PocRunner, PristineCopy,
                         PythonScriptSandbox, pool_width, require_git)
from ..llm import LLMBackend
from ..localization import (localize_elements, localize_files_prompt,
                            localize_files_retrieval, merge_rankings)
from ..repair import (DEFAULT_CANDIDATES, CandidateBatch, build_patch_context,
                      generate_patches, select_patch, validate_candidate)
from ..repo_model import RepoIndex, write_json, write_text
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
    """Collects per-stage failures without stopping the pipeline.

    A file an error names is recorded relative to the instance
    directory. The input and the property agent's copy of it (added to
    roots once it is made) are both named `workspace`.
    """

    def __init__(self, instance: IssueInstance, instance_dir: Path):
        self.instance_id = instance.instance_id
        self.errors: list[dict] = []
        self.instance_dir = instance_dir
        self.roots = {instance_dir: "", instance.workspace_path: "workspace"}

    def fail(self, name: str, exc: BaseException) -> None:
        self.errors.append({"stage": name,
                            "error": describe_error(exc, self.roots)})

    def run(self, name: str, fn, fallback=None):
        try:
            return fn()
        except (ReplayDesync, ScriptExhausted):
            # a replay mismatch means the test script and the pipeline
            # disagree; degrading would hide exactly what it must expose
            raise
        except (VulnmendError, OSError, ValueError, KeyError) as exc:
            self.fail(name, exc)
            return fallback

    def save(self, write, rel: str, payload) -> None:
        # a failed artifact write is this instance's error, like a
        # failed stage; the instance and the batch go on
        self.run(f"write {rel}",
                 lambda: write(self.instance_dir / rel, payload))

    def finish(self, prediction: str, telemetry: dict,
               winner: int | None = None) -> InstanceResult:
        """Write prediction.diff, then telemetry.json with the stage
        errors, and return the instance's result."""
        self.save(write_text, "prediction.diff", prediction)
        telemetry["errors"] = self.errors
        self.save(write_json, "telemetry.json", telemetry)
        return InstanceResult(
            instance_id=self.instance_id, instance_dir=self.instance_dir,
            prediction=prediction, winner=winner, errors=self.errors)


def run_instance(instance: IssueInstance, config: RunConfig,
                 llm: LLMBackend, out_dir: Path | str) -> InstanceResult:
    """Resolve one instance into out_dir/<instance_id>/."""
    config.validate()

    instance_dir = Path(out_dir) / instance.instance_id
    stage = _Stage(instance, instance_dir)
    if instance_dir.exists():
        shutil.rmtree(instance_dir)
    try:
        os.listdir(instance.workspace_path)
    except OSError as exc:
        # this instance's data is broken (say, its workspace is gone);
        # it gets an empty prediction and the batch goes on
        stage.fail("workspace", exc)
        return stage.finish("", {"instance_id": instance.instance_id,
                                 "agents": {}, "stages": {}})

    # the property agent's copy of the input and one per worker of
    # validation's pool are made ahead, while the stages before them run
    ahead = AheadCopies(instance.workspace_path,
                        ("agents-",) * config.enable_spa
                        + ("pristine-",) * pool_width(DEFAULT_CANDIDATES))
    try:
        return _resolve(instance, config, llm, stage, ahead)
    finally:
        ahead.close()


def _run_spa_in_a_copy(instance: IssueInstance, config: RunConfig,
                       llm: LLMBackend, stage: _Stage, ahead: AheadCopies,
                       listed: RepoIndex, issue_text: str):
    """run_spa_agent in the copy of the input made ahead for it, with an
    index over listed's files, history, PoC runner and script sandbox of
    its own; the copy is removed when the agent ends."""
    scratch = ahead.take("agents-")
    try:
        stage.roots[scratch] = ""
        index = listed.moved_to(scratch / "workspace")
        runner = PocRunner(LocalSandbox(index.root), instance.repro_command,
                           timeout=config.poc_timeout)
        return run_spa_agent(
            llm, index, make_symbol_backend(index), EditHistory(index),
            runner, PythonScriptSandbox(log_provider=runner.log_store.get),
            issue_text)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _resolve(instance: IssueInstance, config: RunConfig, llm: LLMBackend,
             stage: _Stage, ahead: AheadCopies) -> InstanceResult:
    """run_instance's stages, once the input is found."""
    save = stage.save

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

    # one index over the input for every stage but spa, down to
    # validation's in-memory apply; it lists and parses lazily, inside the
    # stage that first needs it
    index = RepoIndex(instance.workspace_path)
    symbols = make_symbol_backend(index)

    telemetry: dict = {"instance_id": instance.instance_id,
                       "agents": {}, "stages": {}}

    def agent(name: str, run):
        # the report, summed up in telemetry; None if the stage failed
        out = stage.run(name, run)
        if out is None:
            return None
        report, transcript = out
        telemetry["agents"][name] = transcript_summary(transcript, report)
        return report

    context_report = None
    if config.enable_cpc:
        context_report = agent("cpc", lambda: run_cpc_agent(
            llm, index, symbols, issue_text))

    property_report = None
    if config.enable_spa:
        spa_issue = issue_text
        if context_report is not None:
            spa_issue = EnhancedIssueReport(
                issue_text=issue_text,
                context_report=context_report).render()
        property_report = agent("spa", lambda: _run_spa_in_a_copy(
            instance, config, llm, stage, ahead, index, spa_issue))

    enhanced = EnhancedIssueReport(issue_text=issue_text,
                                   context_report=context_report,
                                   property_report=property_report)
    enhanced_text = enhanced.render()
    save(write_text, "reports/enhanced.md", enhanced_text)
    if context_report is not None:
        save(write_text, "reports/context.md", context_report.render())
    if property_report is not None:
        save(write_text, "reports/property.md", property_report.render())

    has_reports = context_report is not None or property_report is not None

    loc_text = (enhanced_text
                if has_reports and "localization" in config.enhance_stages
                else issue_text)
    prompt_files = stage.run("localize_files", lambda: localize_files_prompt(
        llm, index, loc_text), fallback=[])
    retrieval_files = stage.run("localize_retrieval", lambda: (
        localize_files_retrieval(llm, index, loc_text)), fallback=[])
    merged = merge_rankings(prompt_files, retrieval_files)
    element_loc = stage.run("localize_elements", lambda: localize_elements(
        llm, index, merged, loc_text))
    selections = element_loc.selections if element_loc is not None else ()

    save(write_json, "rankings/files.json", {
        "prompt": prompt_files,
        "retrieval": retrieval_files,
        "merged": merged,
    })
    save(write_json, "rankings/elements.json", [{
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

    gen_text = (enhanced_text
                if has_reports and "generation" in config.enhance_stages
                else issue_text)
    # a failed request keeps the candidates answered before it
    candidates: list = []
    stage.run("generate", lambda: generate_patches(
        llm, gen_text, build_patch_context(
            index, selections,
            whole_files=merged if not selections else None),
        out=candidates))

    outcomes = []
    # one PoC run per distinct program, judged as evaluate judges a
    # prediction, in a fresh pristine copy of its own, but by the repro
    # command: the verify command is held out. The first candidate's call
    # judges every program, in a bounded pool; the others read the
    # batch's results. A judge takes the next copy the copier hands out
    batch = CandidateBatch(candidates)
    pristine = PristineCopy(ahead, instance.repro_command,
                            timeout=config.poc_timeout,
                            harness_commands=(instance.verify_command,))
    for candidate in candidates:
        save(write_text, f"candidates/candidate-{candidate.index}.md",
             candidate.raw_text)
        outcome = stage.run(
            f"validate-{candidate.index}",
            lambda c=candidate: validate_candidate(c, index, pristine, batch))
        if outcome is None:
            continue
        outcomes.append(outcome)
        if outcome.applied:
            save(write_text, f"candidates/candidate-{outcome.index}.diff",
                 outcome.diff)
    ahead.close()  # the copies no judge took go now
    # a row is the outcome's record; its diff has a file of its own
    save(write_json, "candidates/outcomes.json", [
        {k: v for k, v in asdict(o).items() if k != "diff"}
        for o in outcomes])

    selection = select_patch(outcomes, config.selection_strategy)
    by_index = {o.index: o for o in outcomes}
    prediction = (by_index[selection.winner].diff
                  if selection.winner is not None else "")

    telemetry["stages"]["generation"] = {
        "enhanced_input": gen_text is enhanced_text,
        "candidates": len(candidates),
        "applied": sum(1 for o in outcomes if o.applied),
        "poc_pass": sum(1 for o in outcomes if o.poc_pass),
    }
    telemetry["selection"] = asdict(selection)
    records = getattr(llm, "records", None)
    if records is not None:
        save(write_json, "cost.json",
             cost_of_records(records, config))
    return stage.finish(prediction, telemetry, selection.winner)


def run_all(instances, config: RunConfig, backend_for,
            out_dir: Path | str) -> list[InstanceResult]:
    """Run every instance; backend_for(instance_id) gives each instance
    a model backend of its own, so its records are its calls alone."""
    # before any model call is paid for
    require_git()
    out_dir = Path(out_dir)
    try:
        write_json(out_dir / "config.json", config.to_dict())
    except OSError as exc:
        raise NoRunDirectory(f"cannot write --out {out_dir}: "
                             f"{exc.strerror or exc}") from None
    results = []
    for instance in instances:
        results.append(run_instance(instance, config,
                                    backend_for(instance.instance_id),
                                    out_dir))
    return results
