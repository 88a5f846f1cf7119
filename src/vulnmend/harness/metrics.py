"""Run evaluation and cost accounting.

Money is Decimal end to end; rates render at one decimal place from
exact fractions. The built-in verifier re-applies each prediction to a
fresh workspace copy and replays the verify command through the same
PocRunner that validation uses: resolved means the patch applies
cleanly and the run passes by the one PoC verdict, PocResult.passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path

from ..execution import LocalSandbox, PocRunner
from ..llm import RequestRecord
from ..repo_model import skip_dangling_links, write_json
from .config import RunConfig
from .instances import IssueInstance

_CENT = Decimal("0.01")
_TENTH = Decimal("0.1")
_MTOK = Decimal(1_000_000)


def cost_of_records(records: list[RequestRecord],
                    config: RunConfig) -> dict:
    """Exact cost breakdown by stage tag, plus totals, as strings."""
    price_in = Decimal(config.price_input_per_mtok)
    price_out = Decimal(config.price_output_per_mtok)
    by_tag: dict[str, dict] = {}
    total_in = total_out = 0
    for record in records:
        slot = by_tag.setdefault(record.tag, {"calls": 0, "input_tokens": 0,
                                              "output_tokens": 0})
        slot["calls"] += 1
        slot["input_tokens"] += record.usage.input_tokens
        slot["output_tokens"] += record.usage.output_tokens
        total_in += record.usage.input_tokens
        total_out += record.usage.output_tokens
    cost = (Decimal(total_in) * price_in
            + Decimal(total_out) * price_out) / _MTOK
    return {
        "by_tag": {tag: by_tag[tag] for tag in sorted(by_tag)},
        "input_tokens": total_in,
        "output_tokens": total_out,
        "calls": len(records),
        "cost_usd": str(cost.quantize(_CENT, rounding=ROUND_HALF_UP)),
    }


@dataclass(frozen=True)
class InstanceVerdict:
    instance_id: str
    has_patch: bool
    applied: bool
    exit_code: int | None
    sanitizer_triggered: bool
    resolved: bool
    detail: str = ""


@dataclass(frozen=True)
class Metrics:
    total: int
    patched: int
    resolved: int
    cost_usd: Decimal

    @property
    def resolved_rate(self) -> Decimal:
        if self.total == 0:
            return Decimal(0)
        return (Decimal(self.resolved) * 100 / Decimal(self.total)
                ).quantize(_TENTH, rounding=ROUND_HALF_UP)

    @property
    def average_cost_usd(self) -> Decimal:
        if self.total == 0:
            return Decimal("0.00")
        return (self.cost_usd / Decimal(self.total)).quantize(
            _CENT, rounding=ROUND_HALF_UP)

    def render(self) -> str:
        return (f"Resolved {self.resolved}/{self.total} "
                f"({self.resolved_rate}%), patched {self.patched}, "
                f"total cost ${self.cost_usd.quantize(_CENT, rounding=ROUND_HALF_UP)}, "
                f"average ${self.average_cost_usd} per instance")


def verify_prediction(instance: IssueInstance, diff: str | bytes,
                      timeout: float = 300.0) -> InstanceVerdict:
    """Apply a prediction to a fresh workspace copy and replay the PoC."""
    if not diff.strip():
        return InstanceVerdict(instance.instance_id, has_patch=False,
                               applied=False, exit_code=None,
                               sanitizer_triggered=False, resolved=False,
                               detail="empty prediction")
    if isinstance(diff, str):
        diff = diff.encode("utf-8", errors="surrogateescape")

    scratch = Path(tempfile.mkdtemp(prefix="verify-"))
    try:
        work = scratch / "workspace"
        shutil.copytree(instance.workspace_path, work,
                        ignore=skip_dangling_links)
        # bytes in, so a diff of a non-UTF-8 source applies as written
        apply_proc = subprocess.run(
            ["git", "apply", "--whitespace=nowarn", "-"], input=diff,
            cwd=work, capture_output=True)
        if apply_proc.returncode != 0:
            stderr = apply_proc.stderr.decode("utf-8", errors="replace")
            return InstanceVerdict(
                instance.instance_id, has_patch=True, applied=False,
                exit_code=None, sanitizer_triggered=False, resolved=False,
                detail=f"patch does not apply: {stderr.strip()[:200]}")
        command = instance.verify_command or instance.repro_command
        result = PocRunner(LocalSandbox(work), command,
                           timeout=timeout).run_poc("verify")
        sanitizer = result.sanitizer_triggered
        return InstanceVerdict(
            instance.instance_id, has_patch=True, applied=True,
            exit_code=result.exit_code, sanitizer_triggered=sanitizer,
            resolved=result.passed,
            detail="" if result.passed else f"exit {result.exit_code}"
                   + (", sanitizer still fires" if sanitizer else ""))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def evaluate_run(run_dir: Path | str, instances: list[IssueInstance],
                 timeout: float = 300.0) -> tuple[Metrics, list[InstanceVerdict]]:
    """Judge every instance of a finished run and persist the verdicts."""
    run_dir = Path(run_dir)
    by_id = {i.instance_id: i for i in instances}
    verdicts = []
    patched = resolved = 0
    cost = Decimal(0)
    for instance_dir in sorted(p for p in run_dir.iterdir() if p.is_dir()):
        instance = by_id.get(instance_dir.name)
        if instance is None:
            continue
        diff_path = instance_dir / "prediction.diff"
        diff = diff_path.read_bytes() if diff_path.exists() else b""
        verdict = verify_prediction(instance, diff, timeout=timeout)
        verdicts.append(verdict)
        patched += verdict.has_patch
        resolved += verdict.resolved
        cost_path = instance_dir / "cost.json"
        if cost_path.exists():
            with open(cost_path, encoding="utf-8") as fh:
                cost += Decimal(json.load(fh)["cost_usd"])

    metrics = Metrics(total=len(verdicts), patched=patched,
                      resolved=resolved, cost_usd=cost)
    payload = {
        "total": metrics.total,
        "patched": metrics.patched,
        "resolved": metrics.resolved,
        "resolved_rate_percent": str(metrics.resolved_rate),
        "cost_usd": str(metrics.cost_usd.quantize(_CENT,
                                                  rounding=ROUND_HALF_UP)),
        "average_cost_usd": str(metrics.average_cost_usd),
        "instances": [{
            "instance_id": v.instance_id,
            "has_patch": v.has_patch,
            "applied": v.applied,
            "exit_code": v.exit_code,
            "sanitizer_triggered": v.sanitizer_triggered,
            "resolved": v.resolved,
            "detail": v.detail,
        } for v in verdicts],
    }
    write_json(run_dir / "evaluation.json", payload)
    return metrics, verdicts
