"""Run evaluation and cost accounting.

Money is Decimal end to end; rates render at one decimal place from
exact fractions. The built-in verifier judges each prediction as
validation judges a candidate (PristineCopy), in a fresh copy that a
copier with nothing queued makes when taken: resolved means the patch
leaves the PoC harness alone, applies with `git apply`, and the verify
command's run passes within the run's poc_timeout by the one PoC verdict,
PocResult.passed. A batch's predictions are judged concurrently, in a
bounded pool, in order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path

from ..errors import NoRunDirectory
from ..execution import (DEFAULT_POC_TIMEOUT, AheadCopies, PristineCopy,
                         in_pool, require_git)
from ..llm import RequestRecord
from ..repo_model import write_json
from .config import RunConfig, run_poc_timeout
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
                      timeout: float = DEFAULT_POC_TIMEOUT) -> InstanceVerdict:
    """Apply a prediction to a fresh workspace copy and replay the PoC."""
    if not diff.strip():
        return InstanceVerdict(instance.instance_id, has_patch=False,
                               applied=False, exit_code=None,
                               sanitizer_triggered=False, resolved=False,
                               detail="empty prediction")
    command = instance.verify_command or instance.repro_command
    verdict = PristineCopy(
        AheadCopies(instance.workspace_path), command, timeout=timeout,
        harness_commands=(instance.repro_command,)).judge(diff, "verify")
    result = verdict.result
    if result is None:
        return InstanceVerdict(
            instance.instance_id, has_patch=True, applied=False,
            exit_code=None, sanitizer_triggered=False, resolved=False,
            detail=verdict.detail)
    sanitizer = result.sanitizer_triggered
    return InstanceVerdict(
        instance.instance_id, has_patch=True, applied=True,
        exit_code=result.exit_code, sanitizer_triggered=sanitizer,
        resolved=verdict.passed,
        detail="" if verdict.passed else f"exit {result.exit_code}"
               + (", sanitizer still fires" if sanitizer else ""))


def require_run_dir(run_dir: Path | str) -> Path:
    """run_dir, if it is a directory."""
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise NoRunDirectory(f"no run directory {run_dir}")
    return run_dir


def evaluate_run(run_dir: Path | str, instances: list[IssueInstance]
                 ) -> tuple[Metrics, list[InstanceVerdict]]:
    """Judge every instance of a finished run, each PoC run within the
    run's own poc_timeout, and persist the verdicts."""
    require_git()
    run_dir = require_run_dir(run_dir)
    timeout = run_poc_timeout(run_dir)
    by_id = {i.instance_id: i for i in instances}
    jobs = []
    for instance_dir in sorted(p for p in run_dir.iterdir() if p.is_dir()):
        instance = by_id.get(instance_dir.name)
        if instance is None:
            continue
        diff_path = instance_dir / "prediction.diff"
        diff = diff_path.read_bytes() if diff_path.exists() else b""
        jobs.append((instance_dir, instance, diff))
    # each prediction in a fresh copy of its own, in a bounded pool;
    # verify_prediction is looked up at each call, not bound here
    judged = in_pool(jobs, lambda job: verify_prediction(
        job[1], job[2], timeout=timeout))

    verdicts = []
    patched = resolved = 0
    cost = Decimal(0)
    for (instance_dir, _, _), verdict in zip(jobs, judged):
        if isinstance(verdict, Exception):
            raise verdict
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
        "instances": [asdict(v) for v in verdicts],
    }
    write_json(run_dir / "evaluation.json", payload)
    return metrics, verdicts
