"""Command line entry points: run, evaluate, report."""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..errors import BadInputFile, GitUnavailable, NoRunDirectory
from .backends import HttpChatBackend, load_replay
from .config import VARIANTS, RunConfig, variant
from .instances import input_file, load_instances
from .metrics import evaluate_run, read_cost, require_run_dir
from .pipeline import run_all


def _load_config(args) -> RunConfig:
    if args.config and args.variant:
        raise SystemExit("--config and --variant are mutually exclusive")
    if args.config:
        return RunConfig.from_file(args.config)
    if args.variant:
        return variant(args.variant)
    return RunConfig().validate()


def _backend_factory(spec: str, args, instance_ids=()):
    if spec.startswith("replay:"):
        # the whole script is checked before --out is made
        return load_replay(spec[len("replay:"):], instance_ids)
    if spec == "live":
        base_url = args.base_url or os.environ.get("VULNMEND_BASE_URL")
        model = args.model or os.environ.get("VULNMEND_MODEL")
        if not base_url or not model:
            raise SystemExit(
                "live backend needs --base-url and --model (or the "
                "VULNMEND_BASE_URL / VULNMEND_MODEL environment variables)")
        api_key = args.api_key or os.environ.get("VULNMEND_API_KEY", "")
        return lambda instance_id: HttpChatBackend(
            base_url=base_url, model=model, api_key=api_key)
    raise SystemExit(f"unknown backend {spec!r}; use 'live' or "
                     "'replay:<script.json>'")


def _cmd_run(args) -> int:
    config = _load_config(args)
    instances = load_instances(args.instances)
    if args.instance_id:
        instances = [i for i in instances
                     if i.instance_id in set(args.instance_id)]
        if not instances:
            raise SystemExit("no instances left after --instance-id filter")
    backend_for = _backend_factory(
        args.backend, args, [i.instance_id for i in instances])
    results = run_all(instances, config, backend_for, args.out)
    for result in results:
        state = ("patch selected (candidate "
                 f"{result.winner})" if result.winner is not None
                 else "no patch")
        print(f"{result.instance_id}: {state}; "
              f"{len(result.errors)} stage error(s)")
    print(f"run artifacts in {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    metrics, verdicts = evaluate_run(args.run, load_instances(args.instances))
    for v in verdicts:
        mark = "resolved" if v.resolved else "unresolved"
        detail = f" ({v.detail})" if v.detail else ""
        print(f"{v.instance_id}: {mark}{detail}")
    print(metrics.render())
    return 0 if metrics.total else 1


def _read_json(kind: str, path, pick):
    """pick(the JSON in path), what report prints of it. A file that is
    not JSON, or whose JSON pick cannot read, is a BadInputFile that
    names it."""
    with input_file(kind, path) as fh:
        data = json.load(fh)
        try:
            return pick(data)
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"unexpected content ({type(exc).__name__}: "
                             f"{exc})") from None


def _configuration(cfg: dict) -> str:
    return (f"configuration: cpc={cfg.get('enable_cpc')} "
            f"spa={cfg.get('enable_spa')} "
            f"enhance={','.join(cfg.get('enhance_stages', [])) or 'none'} "
            f"selection={cfg.get('selection_strategy')} "
            f"input={cfg.get('input_type')}")


def _instance_line(name: str, telemetry: dict, verdict: str) -> str:
    """The report line of one instance: its telemetry, with verdict (its
    evaluation and cost) after the agents' steps."""
    winner = telemetry.get("selection", {}).get("winner")
    gen = telemetry.get("stages", {}).get("generation", {})
    picked = ("no patch" if winner is None
              else f"candidate {winner} of {gen.get('candidates', '?')}")
    agents = telemetry.get("agents", {})
    agent_bits = [f"{agent}:{agents[agent]['steps']} steps"
                  for agent in ("cpc", "spa") if agent in agents]
    agent_note = f" [{', '.join(agent_bits)}]" if agent_bits else ""
    errors = telemetry.get("errors", [])
    err_note = f", {len(errors)} stage error(s)" if errors else ""
    return f"{name}: {picked}{agent_note}{verdict}{err_note}"


def _evaluation(summary: dict) -> tuple[dict, str]:
    """Each instance's resolved flag, and the totals line."""
    return ({row["instance_id"]: row["resolved"]
             for row in summary["instances"]},
            f"totals: resolved {summary['resolved']}/{summary['total']} "
            f"({summary['resolved_rate_percent']}%), "
            f"cost ${summary['cost_usd']}")


def _cmd_report(args) -> int:
    run_dir = require_run_dir(args.run)
    config_path = run_dir / "config.json"
    if config_path.exists():
        print(_read_json("config file", config_path, _configuration))
    resolved_by_id, totals = {}, None
    eval_path = run_dir / "evaluation.json"
    if eval_path.exists():
        resolved_by_id, totals = _read_json("evaluation file", eval_path,
                                            _evaluation)

    for instance_dir in sorted(p for p in run_dir.iterdir() if p.is_dir()):
        telemetry_path = instance_dir / "telemetry.json"
        if not telemetry_path.exists():
            continue
        verdict = ""
        if instance_dir.name in resolved_by_id:
            verdict = (", resolved" if resolved_by_id[instance_dir.name]
                       else ", unresolved")
        cost_path = instance_dir / "cost.json"
        if cost_path.exists():
            verdict += f", cost ${read_cost(cost_path)}"
        print(_read_json("telemetry file", telemetry_path,
                         lambda telemetry: _instance_line(
                             instance_dir.name, telemetry, verdict)))
    if totals is not None:
        print(totals)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vulnmend",
        description="Deterministic vulnerability-issue resolution pipeline "
                    "with tool-using analysis agents.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="resolve instances into a run "
                                       "directory")
    run_p.add_argument("--instances", required=True,
                       help="JSONL instance file")
    run_p.add_argument("--out", required=True, help="run output directory")
    run_p.add_argument("--backend", required=True,
                       help="'live' or 'replay:<script.json>'")
    run_p.add_argument("--config", help="JSON config file")
    run_p.add_argument("--variant", choices=VARIANTS,
                       help="named configuration variant")
    run_p.add_argument("--instance-id", action="append",
                       help="run only these instance ids (repeatable)")
    run_p.add_argument("--base-url", help="live backend API base URL")
    run_p.add_argument("--model", help="live backend model name")
    run_p.add_argument("--api-key", help="live backend API key")
    run_p.set_defaults(fn=_cmd_run)

    eval_p = sub.add_parser("evaluate", help="verify a run's predictions "
                                             "against fresh workspaces")
    eval_p.add_argument("--run", required=True, help="run directory")
    eval_p.add_argument("--instances", required=True,
                        help="JSONL instance file")
    eval_p.set_defaults(fn=_cmd_evaluate)

    report_p = sub.add_parser("report", help="summarize a run directory")
    report_p.add_argument("--run", required=True, help="run directory")
    report_p.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (BadInputFile, GitUnavailable, NoRunDirectory) as exc:
        raise SystemExit(f"vulnmend {args.command}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
