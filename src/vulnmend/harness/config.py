"""Run configuration and the standard ablation variants."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .. import execution
from .instances import input_file

SELECTION_STRATEGIES = ("poc_voting", "simple_voting")
INPUT_TYPES = ("issue_report", "sanitizer_log")
ENHANCE_STAGES = ("localization", "generation")

# the standard ablations, as deltas on the default config
_DELTAS = {
    "base": dict(enable_cpc=False, enable_spa=False, enhance_stages=()),
    "cpc": dict(enable_cpc=True, enable_spa=False),
    "spa": dict(enable_cpc=False, enable_spa=True),
    "full": dict(enable_cpc=True, enable_spa=True),
    "enhanceVulnLoc": dict(enhance_stages=("localization",)),
    "enhancePatchGen": dict(enhance_stages=("generation",)),
    "simpleVoting": dict(selection_strategy="simple_voting"),
    "sanitizer": dict(input_type="sanitizer_log"),
}
VARIANTS = tuple(_DELTAS)

# USD per million tokens; far above any real price, and small enough
# that a cost of any plausible token count quantizes to cents
_MAX_PRICE = 1_000_000


def _wrong_type(name: str, expected: str, value) -> ValueError:
    return ValueError(f"{name} must be {expected}, got {value!r}")


def check_poc_timeout(value) -> float:
    """value, if it is a PoC timeout in seconds: a positive, finite
    number. NaN and infinity cannot bound a subprocess."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _wrong_type("poc_timeout", "a number", value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError("poc_timeout must be positive and finite")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Each field is a variant's switch, or a deployment's timeout or price."""

    enable_cpc: bool = True
    enable_spa: bool = True
    enhance_stages: tuple = ("localization", "generation")
    selection_strategy: str = "poc_voting"
    input_type: str = "issue_report"
    poc_timeout: float = execution.DEFAULT_POC_TIMEOUT
    price_input_per_mtok: str = "3.00"
    price_output_per_mtok: str = "15.00"

    def validate(self) -> "RunConfig":
        # JSON has no schema: "false" must not pass for a flag
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.type == "bool" and not isinstance(value, bool):
                raise _wrong_type(field.name, "a bool", value)
        check_poc_timeout(self.poc_timeout)
        for name, known in (("selection_strategy", SELECTION_STRATEGIES),
                            ("input_type", INPUT_TYPES)):
            if getattr(self, name) not in known:
                raise ValueError(f"{name} must be one of {known}, "
                                 f"got {getattr(self, name)!r}")
        if not isinstance(self.enhance_stages, (tuple, list)) or not all(
                isinstance(stage, str) for stage in self.enhance_stages):
            raise _wrong_type("enhance_stages", "a list of stage names",
                        self.enhance_stages)
        stages = tuple(self.enhance_stages)
        if not set(stages) <= set(ENHANCE_STAGES):
            raise ValueError(f"enhance_stages must be a subset of "
                             f"{ENHANCE_STAGES}, got {stages}")
        if len(set(stages)) != len(stages):
            raise ValueError("enhance_stages has duplicates")
        from decimal import Decimal, InvalidOperation
        for name in ("price_input_per_mtok", "price_output_per_mtok"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise _wrong_type(name, "a string", value)
            try:
                price = Decimal(value)
            except InvalidOperation:
                raise ValueError(f"{name} is not a decimal number")
            # NaN would be written into cost.json as is; a negative or
            # an infinite price, or one too large to round to cents,
            # would fail the cost sum after the calls are paid for
            if not (price.is_finite() and not price.is_signed()
                    and price <= _MAX_PRICE):
                raise _wrong_type(
                    name, f"a finite price from 0 to {_MAX_PRICE} USD per "
                    "million tokens", value)
        return self

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["enhance_stages"] = list(self.enhance_stages)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if isinstance(data.get("enhance_stages"), list):
            data = dict(data)
            data["enhance_stages"] = tuple(data["enhance_stages"])
        return cls(**data).validate()

    @classmethod
    def from_file(cls, path: Path | str) -> "RunConfig":
        with input_file("config file", path) as fh:
            data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("not a JSON object")
            return cls.from_dict(data)


def run_poc_timeout(run_dir: Path) -> float:
    """The poc_timeout of run_dir's config.json, read alone, so a run
    made with fields since dropped still serves; the default if none."""
    path = run_dir / "config.json"
    if not path.exists():
        return RunConfig.poc_timeout
    with input_file("config file", path) as fh:
        data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        return check_poc_timeout(
            data.get("poc_timeout", RunConfig.poc_timeout))


def variant(name: str) -> RunConfig:
    """The named standard ablation."""
    if name not in _DELTAS:
        raise ValueError(f"unknown variant {name!r}; known: {VARIANTS}")
    return RunConfig(**_DELTAS[name]).validate()
