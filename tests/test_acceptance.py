"""Acceptance gate: the system-level guarantees, one test per criterion.

Each test prints a single `[acceptance] <criterion>: PASS|FAIL` line to
the terminal (bypassing capture), so a plain pytest run doubles as the
acceptance checklist. Every check rests on an oracle independent of the
implementation: plain-text scans, brute-force enumeration, pure-python
arithmetic, or generation-side ground truth.
"""

import dataclasses
import hashlib
import itertools
import json
import math
import random
import re
import shutil
import socket
import time
from collections import Counter
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (CREPO, FIXTURES, ScriptedLLM, parse_annotations,
                      snapshot, total_evaluations)
from replay_scripts import build_entries
from vulnmend.code_search import format_marker, read_code, search_code_element
from vulnmend.edit_engine import EditHistory, SearchReplaceEdit
from vulnmend.execution import (ExecResult, LogScan, LogStore, PocRunner,
                                PythonScriptSandbox, truncate_log)
from vulnmend.harness.backends import ReplayBackend
from vulnmend.harness.cli import main
from vulnmend.harness.config import VARIANTS, variant
from vulnmend.harness.instances import IssueInstance, load_instances
from vulnmend.harness.metrics import Metrics, evaluate_run
from vulnmend.harness.pipeline import run_all
from vulnmend.llm import ChatResponse
from vulnmend.localization import (DEFAULT_TOP_FILES, HashingEmbedder,
                                   chunk_file, localize_files_retrieval)
from vulnmend.repair import (DEFAULT_CANDIDATES, DEFAULT_CONTEXT_MARGIN,
                             CandidateOutcome, select_patch,
                             temperature_schedule)
from vulnmend.repo_model import RepoIndex, read_text, source_files
from vulnmend.symbol_analysis import (IndexBackend, plan_queries,
                                      resolve_code_symbol)

needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None,
                               reason="gcc not available")


@pytest.fixture
def criterion(request):
    """Names the criterion under test and prints its verdict on teardown."""
    chosen = {}

    def mark(name):
        chosen["name"] = name

    yield mark
    report = getattr(request.node, "rep_call", None)
    status = "PASS" if (report is not None and report.passed) else "FAIL"
    line = f"[acceptance] {chosen.get('name', request.node.name)}: {status}"
    capman = request.config.pluginmanager.getplugin("capturemanager")
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(line)
    else:
        print(line)


def _unique_lines(root):
    """Per file: (line_no, text) rows whose text occurs exactly once."""
    per_file = {}
    for rel in source_files(root):
        lines = read_text(root / rel).split("\n")
        counts = Counter(lines)
        rows = [(i + 1, text) for i, text in enumerate(lines)
                if text.strip() and counts[text] == 1]
        if rows:
            per_file[rel] = rows
    return per_file


def _identifier_sites(root, cap=None):
    """First word-boundary site of each distinct identifier, restricted
    to lines unique within their file so searches are unambiguous."""
    sites = []
    seen = set()
    for rel in source_files(root):
        lines = read_text(root / rel).split("\n")
        counts = Counter(lines)
        for line_no, text in enumerate(lines, 1):
            if counts[text] != 1:
                continue
            for m in re.finditer(r"\b[A-Za-z_]\w*\b", text):
                token = m.group(0)
                if token in seen:
                    continue
                seen.add(token)
                sites.append((rel, line_no, text, token, m.start() + 1))
                if cap is not None and len(sites) >= cap:
                    return sites
    return sites


# --- criterion: edit-engine round-trip -------------------------------------


def test_randomized_edit_sets_round_trip(criterion, scratch_crepo):
    criterion("edit-engine round-trip")
    started = time.monotonic()
    history = EditHistory(RepoIndex(scratch_crepo))
    base = snapshot(scratch_crepo).digest
    per_file = _unique_lines(scratch_crepo)
    files = sorted(per_file)
    rng = random.Random(0x5EED)

    applied_sets = 0
    for k in range(970):
        rel = rng.choice(files)
        _, text = rng.choice(per_file[rel])
        applied = history.apply_edits(f"probe-{k}", [SearchReplaceEdit(
            file=rel, search=text, replace=f"{text}\n/* probe {k} */")])
        applied_sets += 1
        assert applied.files == (rel,)
        if k % 97 == 0:
            assert snapshot(scratch_crepo).digest != base
        history.rollback_latest()
        assert snapshot(scratch_crepo).digest == base

    # stacks of sets over distinct lines, undone by one rollback_all
    picks = [(rel, text) for rel in files for _, text in per_file[rel]]
    for batch in range(2):
        for j, (rel, text) in enumerate(rng.sample(picks, k=15)):
            history.apply_edits(f"stack-{batch}-{j}", [SearchReplaceEdit(
                file=rel, search=text,
                replace=f"{text}\n/* stacked {batch}-{j} */")])
            applied_sets += 1
        assert snapshot(scratch_crepo).digest != base
        history.rollback_all()
        assert snapshot(scratch_crepo).digest == base

    assert applied_sets >= 1000
    assert time.monotonic() - started < 30.0


# --- criterion: marker-resolution oracle equivalence -----------------------


def test_marker_resolution_matches_text_scan(criterion, crepo, crepo_index):
    criterion("marker-resolution oracle equivalence")
    started = time.monotonic()

    sites = _identifier_sites(crepo, cap=150)
    assert len(sites) >= 50
    for rel, line_no, text, token, col in sites:
        wrapped = re.sub(rf"\b{re.escape(token)}\b",
                         f"FIND_DEFINITION({token})", text, count=1)
        block = (f"### {rel}\n<<<<<<< SEARCH\n{text}\n=======\n"
                 f"{wrapped}\n>>>>>>> REPLACE\n")
        queries = plan_queries(crepo_index, block)
        assert [(q.kind, q.symbol, q.file, q.line, q.col)
                for q in queries] == [
                    ("definition", token, rel, line_no, col)]

    # the fallback index agrees with element-scan definition sites
    expected = {}
    for rel in source_files(crepo):
        lines = read_text(crepo / rel).split("\n")
        for element in crepo_index.elements(rel):
            for ln in range(element.start_line, element.end_line + 1):
                m = re.search(rf"\b{re.escape(element.name)}\b",
                              lines[ln - 1])
                if m:
                    expected.setdefault(element.name, set()).add(
                        (rel, ln, m.start() + 1))
                    break
    assert len(expected) >= 10
    backend = IndexBackend(crepo_index)
    for name, sites_for_name in expected.items():
        rel, ln, col = sorted(sites_for_name)[0]
        got = {(loc.file, loc.line, loc.col)
               for loc in backend.definition(rel, ln, col)}
        assert got == sites_for_name, name

    assert time.monotonic() - started < 10.0


# --- criterion: virtual-edit purity -----------------------------------------


@needs_gcc
def test_symbol_queries_and_agent_runs_leave_tree_pristine(
        criterion, scratch_crepo, tmp_path):
    criterion("virtual-edit purity")
    base = snapshot(scratch_crepo)

    backend = IndexBackend(RepoIndex(scratch_crepo))
    for rel, _, text, token, _ in _identifier_sites(scratch_crepo, cap=25):
        for kind in ("FIND_DEFINITION", "FIND_REFERENCES"):
            wrapped = re.sub(rf"\b{re.escape(token)}\b",
                             f"{kind}({token})", text, count=1)
            block = (f"### {rel}\n<<<<<<< SEARCH\n{text}\n=======\n"
                     f"{wrapped}\n>>>>>>> REPLACE\n")
            result = resolve_code_symbol(block, backend)
            assert result.outcomes
    assert snapshot(scratch_crepo) == base

    # an agent that applies a probe, builds it and never rolls back still
    # hands the input back as it was, build artifacts and all: the
    # pipeline gives it a copy of its own, which is gone when it ends
    forgetful = [entry for entry in build_entries(False, True)
                 if entry["response"].get("tool")
                 != "rollback_all_applied_edits"]
    instance = dataclasses.replace(
        load_instances(FIXTURES / "instances.jsonl")[0],
        workspace_path=str(scratch_crepo))
    (result,) = run_all([instance], variant("spa"),
                        lambda _: ReplayBackend(forgetful), tmp_path / "run")
    assert result.winner is not None and not result.errors
    telemetry = json.loads((result.instance_dir / "telemetry.json")
                           .read_text())
    assert telemetry["agents"]["spa"]["tool_counts"] == {
        "apply_edits": 1, "run_poc": 2, "run_python_code": 1}
    assert snapshot(scratch_crepo) == base


# --- criterion: log pipeline ------------------------------------------------


class _CannedSandbox:
    workspace = Path("/nonexistent")

    def __init__(self, stdout, exit_code=1):
        self.stdout = stdout
        self.exit_code = exit_code

    def exec(self, command, timeout=None):
        return ExecResult(exit_code=self.exit_code, stdout=self.stdout,
                          stderr="")


def test_log_pipeline_at_hundred_thousand_lines(criterion):
    criterion("log pipeline")
    started = time.monotonic()
    rng = random.Random(424242)
    idents = ("alpha", "beta", "gamma", "delta")
    want_pass = Counter()
    want_fail = Counter()
    lines = []
    total = 100_000
    for i in range(total):
        if rng.random() < 0.3:
            ident = rng.choice(idents)
            if rng.random() < 0.5:
                want_pass[ident] += 1
                lines.append(f"[SPA] {ident} PASS")
            elif rng.random() < 0.5:
                want_fail[ident] += 1
                lines.append(f'[SPA] {ident} FAIL expr="i < n"')
            else:
                want_fail[ident] += 1
                lines.append(f"[SPA] {ident} FAIL")
        else:
            lines.append(f"noise {i} :: nothing to see")
    log = "\n".join(lines)
    assert len(log.split("\n")) == total

    summary = LogScan(log).summary()
    got = {ident: (p, f) for ident, p, f, _ in summary.counts}
    assert got == {ident: (want_pass[ident], want_fail[ident])
                   for ident in got}
    assert set(got) == set(want_pass) | set(want_fail)
    assert total_evaluations(summary) == (sum(want_pass.values())
                                         + sum(want_fail.values()))

    head = tail = 100
    excerpt = truncate_log(log, head, tail, name="big-run")
    excerpt_lines = excerpt.split("\n")
    assert len(excerpt_lines) == head + tail + 1
    assert excerpt_lines[:head] == lines[:head]
    assert excerpt_lines[-tail:] == lines[-tail:]
    assert excerpt_lines[head] == (
        f"... [{total - head - tail} lines elided; "
        f"full log stored as 'big-run'] ...")

    store = LogStore()
    runner = PocRunner(_CannedSandbox(stdout=log), "true", log_store=store,
                       head_lines=head, tail_lines=tail)
    result = runner.run_poc("big-run")
    assert result.compiled is True
    assert result.sanitizer_triggered is False
    assert result.summary == LogScan(
        runner.log_store.get("big-run")).summary()
    assert result.summary == summary
    assert "full log stored as 'big-run'" in result.log
    assert len(result.log.split("\n")) == head + tail + 1

    assert time.monotonic() - started < 5.0


# --- criterion: selection oracle --------------------------------------------


def _set_partitions(n):
    """Every partition of n items, as a label tuple per item."""
    out = []

    def rec(i, labels):
        if i == n:
            out.append(tuple(labels))
            return
        top = max(labels, default=-1)
        for label in range(top + 2):
            labels.append(label)
            rec(i + 1, labels)
            labels.pop()

    rec(0, [])
    return out


def _oracle_winner(outcomes, strategy):
    pool = [o for o in outcomes
            if o.applied and o.fingerprint is not None
            and (o.poc_pass or strategy == "simple_voting")]
    if not pool:
        return None
    votes = Counter(o.fingerprint for o in pool)
    best = None
    for o in pool:
        key = (-votes[o.fingerprint], o.index)
        if best is None or key < best:
            best = key
    return best[1]


def test_selection_matches_exhaustive_enumeration(criterion):
    criterion("selection oracle")
    assert [len(_set_partitions(n)) for n in range(1, 6)] == [1, 2, 5, 15,
                                                              52]
    checked = 0
    for n in range(1, 6):
        for partition in _set_partitions(n):
            for poc_bits in itertools.product((False, True), repeat=n):
                outcomes = [CandidateOutcome(
                    index=i, applied=True, compiled=True,
                    sanitizer_triggered=not poc, poc_pass=poc,
                    fingerprint=f"fp{label}")
                    for i, (label, poc) in enumerate(zip(partition,
                                                         poc_bits))]
                for strategy in ("poc_voting", "simple_voting"):
                    got = select_patch(outcomes, strategy)
                    want = _oracle_winner(outcomes, strategy)
                    assert got.winner == want, (partition, poc_bits,
                                                strategy)
                    checked += 1
    assert checked == 2 * sum(
        len(_set_partitions(n)) * 2 ** n for n in range(1, 6))


# --- criterion: marker format ------------------------------------------------


_CORPUS_FILES = tuple(source_files(CREPO))
_CORPUS_INDEX = RepoIndex(CREPO)
_CORPUS_ELEMENTS = tuple(
    (rel, element.name, element.start_line)
    for rel in _CORPUS_FILES
    for element in _CORPUS_INDEX.elements(rel))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_annotated_lines_parse_back(criterion, data):
    criterion("marker format")
    rel = data.draw(st.sampled_from(_CORPUS_FILES))
    center = data.draw(st.integers(1, 400))
    num = data.draw(st.integers(1, 120))
    marks = data.draw(st.frozensets(st.integers(1, 400), max_size=8))

    window = read_code(_CORPUS_INDEX, rel, center, num, mark_lines=marks)
    rendered = window.render()
    inside = sorted(n for n in marks
                    if window.start_line <= n <= window.end_line)
    assert parse_annotations(rendered) == [(rel, n) for n in inside]
    for raw in rendered.split("\n"):
        line_no = int(raw.split(" ", 1)[0])
        if "// <<<<< " in raw:
            assert raw.endswith(f" {format_marker(rel, line_no)}")
            assert line_no in window.marked
        else:
            assert line_no not in window.marked

    # search output round-trips the same way
    erel, name, start = data.draw(st.sampled_from(_CORPUS_ELEMENTS))
    result = search_code_element(_CORPUS_INDEX, name, file=erel,
                                 mark_lines=[start])
    assert (erel, start) in parse_annotations(result.render())


# --- criterion: retrieval oracle ---------------------------------------------


def _pure_cosine(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def test_retrieval_ranking_matches_brute_force(criterion, crepo,
                                               issue_text):
    criterion("retrieval oracle")
    embedder = HashingEmbedder()
    for root in (crepo, crepo / "njs", crepo / "cpp"):
        files = list(source_files(root))
        assert files
        best = {}
        for rel in files:
            text = read_text(root / rel)
            chunks = chunk_file(text)
            assert len(chunks) == math.ceil(len(text.splitlines()) / 512)
            rows = embedder.embed(chunks + [issue_text])
            issue_row = [float(x) for x in rows[-1]]
            best[rel] = max(_pure_cosine([float(x) for x in row], issue_row)
                            for row in rows[:-1])
        want = sorted(best, key=lambda rel: (-best[rel], rel))
        llm = ScriptedLLM([ChatResponse(text="[]")])
        got = localize_files_retrieval(llm, RepoIndex(root), issue_text,
                                       n=len(files), embedder=embedder)
        assert got == want, str(root)

    # multi-chunk files split at exactly 512 lines and reassemble
    big = "\n".join(f"int line_{i};" for i in range(1300)) + "\n"
    chunks = chunk_file(big)
    assert len(chunks) == math.ceil(1300 / 512) == 3
    assert "".join(chunks) == big
    assert all(len(c.splitlines()) == 512 for c in chunks[:-1])


# --- criterion: config fidelity ----------------------------------------------


GOLDEN = FIXTURES / "golden_runs.json"


@pytest.fixture(scope="module")
def variant_runs(tmp_path_factory):
    """One replayed run directory per variant, <root>/<variant>, and
    full's evaluated."""
    root = tmp_path_factory.mktemp("variants")
    instances = load_instances(FIXTURES / "instances.jsonl")
    for name in VARIANTS:
        cfg = variant(name)
        run_all(instances, cfg,
                lambda iid, c=cfg: ReplayBackend(
                    build_entries(c.enable_cpc, c.enable_spa)), root / name)
    evaluate_run(root / "full", instances)
    return root


def _digests(root):
    """sha256 of every file under root, by its path relative to root."""
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


@needs_gcc
def test_variants_produce_distinct_stage_traces(criterion, variant_runs):
    criterion("config fidelity")
    # the pipeline's fixed settings, which no variant changes
    assert DEFAULT_TOP_FILES == 3
    assert DEFAULT_CONTEXT_MARGIN == 10
    assert DEFAULT_CANDIDATES == 5
    assert temperature_schedule(DEFAULT_CANDIDATES) == (0.0, 1.0, 1.0, 1.0,
                                                        1.0)

    traces = {name: (variant_runs / name / "config.json").read_bytes()
              + (variant_runs / name / "namecache-obo-1"
                 / "telemetry.json").read_bytes()
              for name in VARIANTS}
    assert len(set(traces.values())) == len(VARIANTS) == 8

    tele = {name: json.loads(
        (variant_runs / name / "namecache-obo-1" / "telemetry.json").read_text())
        for name in VARIANTS}
    assert set(tele["base"]["agents"]) == set()
    assert set(tele["cpc"]["agents"]) == {"cpc"}
    assert set(tele["spa"]["agents"]) == {"spa"}
    assert set(tele["full"]["agents"]) == {"cpc", "spa"}
    loc = "localization"
    gen = "generation"
    assert tele["enhanceVulnLoc"]["stages"][loc]["enhanced_input"] is True
    assert tele["enhanceVulnLoc"]["stages"][gen]["enhanced_input"] is False
    assert tele["enhancePatchGen"]["stages"][loc]["enhanced_input"] is False
    assert tele["enhancePatchGen"]["stages"][gen]["enhanced_input"] is True
    assert tele["full"]["stages"][loc]["enhanced_input"] is True
    assert tele["full"]["stages"][gen]["enhanced_input"] is True
    assert tele["base"]["stages"][loc]["enhanced_input"] is False
    assert tele["simpleVoting"]["selection"]["strategy"] == "simple_voting"
    assert tele["full"]["selection"]["strategy"] == "poc_voting"
    sanitizer_cfg = json.loads(
        (variant_runs / "sanitizer" / "config.json").read_text())
    assert sanitizer_cfg["input_type"] == "sanitizer_log"


@needs_gcc
def test_run_directories_match_the_golden_manifest(criterion, variant_runs):
    """Every artifact of every variant's replayed run, and full's
    evaluation.json, byte for byte. A change that alters an artifact on
    purpose updates tests/fixtures/golden_runs.json in the same diff."""
    criterion("golden run directories")
    want = json.loads(GOLDEN.read_text())
    got = _digests(variant_runs)
    changed = sorted(set(want) ^ set(got)
                     | {rel for rel in set(want) & set(got)
                        if want[rel] != got[rel]})
    report = []
    for rel in changed:
        if rel not in got:
            report.append(f"--- {rel}: missing")
        else:
            report.append(f"--- {rel}: sha256 {got[rel]} (manifest "
                          f"{want.get(rel, 'has no entry')}), now:\n"
                          + (variant_runs / rel).read_text(errors="replace"))
    assert not changed, "\n".join(report)

# --- criterion: end-to-end replay --------------------------------------------


@needs_gcc
def test_replayed_pipeline_resolves_fixture_deterministically(
        criterion, fixtures_dir, tmp_path, capsys, monkeypatch):
    criterion("end-to-end replay")
    started = time.monotonic()

    def no_network(*args, **kwargs):
        raise AssertionError("network touched during a replay run")

    monkeypatch.setattr(socket, "socket", no_network)
    monkeypatch.setattr(socket, "create_connection", no_network)

    instances = str(fixtures_dir / "instances.jsonl")
    script = str(fixtures_dir / "replays" / "full.json")
    trees = []
    for run_name in ("run-a", "run-b"):
        out = tmp_path / run_name
        assert main(["run", "--instances", instances, "--out", str(out),
                     "--backend", f"replay:{script}"]) == 0
        tree = {p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}
        trees.append(tree)
    capsys.readouterr()
    assert trees[0] == trees[1]
    assert "namecache-obo-1/prediction.diff" in trees[0]

    prediction = trees[0]["namecache-obo-1/prediction.diff"].decode()
    assert prediction.startswith("diff --git")
    assert "+        len = cap - 1;" in prediction

    rc = main(["evaluate", "--run", str(tmp_path / "run-a"),
               "--instances", instances])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "namecache-obo-1: resolved" in stdout
    assert "Resolved 1/1 (100.0%)" in stdout
    evaluation = json.loads(
        (tmp_path / "run-a" / "evaluation.json").read_text())
    row = evaluation["instances"][0]
    assert row["resolved"] is True
    assert row["sanitizer_triggered"] is False
    assert row["exit_code"] == 0

    assert time.monotonic() - started < 60.0


# --- criterion: metrics arithmetic -------------------------------------------


HELLO_DIFF = """diff --git a/hello.txt b/hello.txt
--- a/hello.txt
+++ b/hello.txt
@@ -1 +1 @@
-old
+new
"""


def test_metrics_reproduce_published_arithmetic(criterion, tmp_path):
    criterion("metrics arithmetic")
    run_dir = tmp_path / "run"
    instances = []
    for i in range(80):
        iid = f"synth-{i:02d}"
        workspace = tmp_path / f"ws-{iid}"
        workspace.mkdir()
        (workspace / "hello.txt").write_text("old\n")
        if i < 60:
            repro = "grep -q new hello.txt"
        elif i < 70:
            repro = "exit 1"
        else:
            repro = "true"
        instances.append(IssueInstance(
            instance_id=iid, issue_report="r", repro_command=repro,
            workspace_path=str(workspace)))
        instance_dir = run_dir / iid
        instance_dir.mkdir(parents=True)
        (instance_dir / "prediction.diff").write_text(
            HELLO_DIFF if i < 70 else "")
        (instance_dir / "cost.json").write_text('{"cost_usd": "0.05"}')

    metrics, verdicts = evaluate_run(run_dir, instances)
    assert (metrics.total, metrics.patched, metrics.resolved) == (80, 70, 60)
    assert metrics.resolved_rate == Decimal("75.0")
    assert metrics.cost_usd == Decimal("4.00")
    assert metrics.average_cost_usd == Decimal("0.05")
    assert metrics.render() == ("Resolved 60/80 (75.0%), patched 70, "
                                "total cost $4.00, average $0.05 "
                                "per instance")
    payload = json.loads((run_dir / "evaluation.json").read_text())
    assert payload["resolved_rate_percent"] == "75.0"

    # averaging stays exact to the cent against an integer-cent oracle
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 40)
        cents = [rng.randint(0, 999) for _ in range(n)]
        total = sum((Decimal(c) / 100 for c in cents), Decimal(0))
        average = Metrics(total=n, patched=n, resolved=0,
                          cost_usd=total).average_cost_usd
        assert average == Decimal((sum(cents) * 2 + n) // (2 * n)) / 100


# --- criterion: script sandbox safety ----------------------------------------


def test_script_sandbox_blocks_side_effects(criterion, scratch_crepo):
    criterion("script sandbox safety")
    before = snapshot(scratch_crepo).digest
    target = str(scratch_crepo / "src" / "buf.c")
    box = PythonScriptSandbox(log_provider=lambda name: "[SPA] p PASS\n")
    forbidden = [
        f"open({target!r}).read()",
        f"open({target!r}, 'w').write('clobbered')",
        f"handle = open({target!r}, 'a')",
        "import os\nos.remove('src/buf.c')",
        "import subprocess\nsubprocess.run(['rm', '-rf', 'src'])",
        "import shutil\nshutil.rmtree('src')",
        "import socket\nsocket.create_connection(('localhost', 80))",
        "import pathlib\npathlib.Path('src/buf.c').write_text('x')",
        "__import__('os').system('touch pwned')",
        "exec('import os')",
        "eval('1 + 1')",
        "compile('1', 'x', 'eval')",
        "try:\n    open('src/buf.c', 'w').write('quiet')\n"
        "except Exception:\n    pass",
    ]
    for code in forbidden:
        result = box.run_script(code)
        assert result.violation, code
    assert len(box.violations) >= len(forbidden)
    assert snapshot(scratch_crepo).digest == before
    assert not (scratch_crepo / "pwned").exists()

    # the log bridge stays usable for honest computation
    ok = box.run_script("log = get_poc_output('latest')\n"
                        "print(log.count('PASS'))")
    assert ok.violation is None
    assert ok.error is None
    assert ok.output.strip() == "1"
