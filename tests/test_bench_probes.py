"""The bench's probes patch package names at their lookup sites, so a
rename or deletion of a probed name would only show when the bench runs.
This resolves every probe target against the package as it is."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_probe_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while spans.py runs
    monkeypatch.setitem(sys.modules, "spans", spans)
    spec.loader.exec_module(spans)
    assert spans.LAYER_PROBES
    for probe in spans.LAYER_PROBES:
        owner, attr = spans._owner(probe.target)
        assert attr in vars(owner), probe.target
