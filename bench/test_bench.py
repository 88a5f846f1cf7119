"""Self-test of the benchmark: python3 -m pytest bench"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import bigtree
import checks
import run
import spans

BENCH = Path(__file__).resolve().parent


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_tree_is_deterministic_per_seed(tmp_path):
    first = bigtree.generate(3, tmp_path / "a")
    again = bigtree.generate(3, tmp_path / "b")
    other = bigtree.generate(4, tmp_path / "c")
    assert first == again
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert other.digest != first.digest
    # only content depends on the seed, never the layout
    assert _files(tmp_path / "a").keys() == _files(tmp_path / "c").keys()
    assert first.files == len(bigtree.C_TEMPLATES + bigtree.CPP_TEMPLATES) \
        + bigtree.GEN_FILES
    assert 35 < first.kloc < 45


def test_tree_keeps_the_fixture_at_its_paths(tmp_path):
    bigtree.generate(5, tmp_path / "tree")
    tree = _files(tmp_path / "tree")
    for rel, data in _files(bigtree.CREPO).items():
        assert tree[rel] == data
    generated = b"".join(data for rel, data in tree.items()
                         if rel.startswith("lib/"))
    for name in (b"copy_name", b"NAME_CAP", b"g_count"):
        assert name + b"(" not in generated
        assert name + b" " not in generated


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, "i")


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 4.0, 0),          # overlaps a: counted once
        _span("c", 6.0, 7.0, 0),
        _span("a.1", 1.5, 2.5, 1),        # grandchild: not root's child
        _span("late", 9.5, 12.0, 0),      # clipped to the parent's end
    ]
    kids = spans.children(tree)
    assert kids == {0: [1, 2, 3, 5], 1: [4]}
    assert spans.self_time(tree, 0, kids) == pytest.approx(10 - 3 - 1 - 0.5)
    assert spans.self_time(tree, 1, kids) == pytest.approx(2 - 1)
    assert spans.self_time(tree, 4, kids) == pytest.approx(1)
    assert spans.covered([]) == 0.0


def test_stages_and_self_add_up_to_run_instance():
    tree = [
        _span("pipeline.run_instance", 0.0, 10.0),
        _span("edit_engine.history_init", 0.5, 1.0, 0),
        _span("pipeline.spa", 1.0, 4.0, 0),
        _span("execution.exec", 2.0, 3.0, 2),
        _span("pipeline.validate", 5.0, 9.0, 0),
        _span("pipeline.validate", 9.0, 9.5, 0),
    ]
    (row,) = spans.stage_breakdown(tree)
    assert row["prepare"] == pytest.approx(0.5)
    assert row["spa"] == pytest.approx(3.0)
    assert row["validate"] == pytest.approx(4.5)
    assert row["self"] == pytest.approx(2.0)
    with pytest.raises(ValueError, match="belongs to no stage"):
        spans.stage_breakdown(tree + [_span("cparse.scan", 9.6, 9.7, 0)])


def test_probes_patch_the_lookup_site_and_restore_it(crepo_copy):
    import vulnmend.repo_model as repo_model
    from vulnmend.code_search import search_code_element

    original = repo_model.scan_elements
    recorder = spans.Recorder()
    with spans.installed(recorder, spans.LAYER_PROBES):
        assert repo_model.scan_elements is not original
        search_code_element(crepo_copy, "copy_name")
    assert repo_model.scan_elements is original
    assert recorder.durations("cparse.scan")
    assert len(recorder.durations("repo_model.source_files")) == 1
    assert recorder.counts["cparse.scanned_lines"] > 300


@pytest.fixture
def crepo_copy(tmp_path):
    shutil.copytree(bigtree.CREPO, tmp_path / "crepo")
    return tmp_path / "crepo"


def _instance_dir(tmp_path, diff=checks.EXPECTED_DIFF, outcomes=None):
    outcomes = checks.EXPECTED_OUTCOMES if outcomes is None else outcomes
    (tmp_path / "candidates").mkdir(parents=True)
    (tmp_path / "prediction.diff").write_bytes(diff)
    (tmp_path / "candidates" / "outcomes.json").write_text(json.dumps(
        [{"index": i, "applied": a, "poc_pass": p}
         for i, (a, p) in outcomes.items()]))
    return tmp_path


def test_check_accepts_the_reference_outcome(tmp_path):
    assert checks.check_instance(_instance_dir(tmp_path), [], True) == []


def test_check_rejects_a_tampered_prediction(tmp_path):
    tampered = checks.EXPECTED_DIFF.replace(b"cap - 1", b"cap - 2")
    problems = checks.check_instance(_instance_dir(tmp_path, tampered),
                                     [], True)
    assert problems == ["prediction.diff differs from the reference fix"]


def test_check_rejects_other_failures(tmp_path):
    outcomes = {**checks.EXPECTED_OUTCOMES, 2: (True, True)}
    problems = checks.check_instance(
        _instance_dir(tmp_path, outcomes=outcomes),
        [{"stage": "generate", "error": "boom"}], False)
    assert len(problems) == 3


@pytest.fixture
def bench_env(monkeypatch):
    # main() points TMPDIR and git discovery at its work directory
    monkeypatch.setenv("TMPDIR", os.environ.get("TMPDIR", "/tmp"))
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", "")
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)


def test_failed_check_fails_the_run(bench_env, monkeypatch, capsys):
    monkeypatch.setattr(checks, "EXPECTED_DIFF", b"tampered")
    assert run.main(["--workload", "fixture-full", "--seed", "1",
                     "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result == {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}


def _bench_cmd(*extra, bench=BENCH):
    return [sys.executable, str(bench / "run.py"), "--workload",
            "fixture-full", "--seed", "1", "--seconds", "0", *extra]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_fixture_run_reports_every_metric(trace):
    proc = subprocess.run(_bench_cmd("--trace", trace), cwd=BENCH.parent,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    catalogue = run.LAYER_METRICS if trace == "1" else run.E2E_METRICS
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(catalogue)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == catalogue[name][0]
    if trace == "0":
        assert result["metrics"]["resolved_rate"]["value"] == 1.0
    else:
        assert result["metrics"]["repair.applied_ratio"]["value"] == 0.6
        assert result["metrics"]["repair.poc_pass_ratio"]["value"] == \
            pytest.approx(2 / 3)


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(_bench_cmd(bench=tmp_path / "bench"),
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_catalogues():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == run.WORKLOADS[entry["name"]].why
    for key, catalogue in (("end_to_end", run.E2E_METRICS),
                           ("per_layer", run.LAYER_METRICS)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == {name: (unit, better) for name, (unit, better, _)
                          in catalogue.items()}
