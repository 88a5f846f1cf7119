import hashlib
import re
import shutil
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import pytest

from vulnmend.harness.backends import ReplayBackend
from vulnmend.repo_model import DEFAULT_IGNORE_DIRS, RepoIndex, read_text

FIXTURES = Path(__file__).parent / "fixtures"
CREPO = FIXTURES / "crepo"


class ScriptedLLM:
    """In-test backend: pops canned responses, records request order."""

    def __init__(self, turns):
        self.turns = list(turns)
        self.requests = []

    def chat(self, request):
        self.requests.append(request)
        if not self.turns:
            raise AssertionError(
                f"scripted backend exhausted at stage {request.tag!r}")
        turn = self.turns.pop(0)
        if callable(turn):
            return turn(request)
        return turn

    @property
    def tags(self):
        return [r.tag for r in self.requests]


class RecordingReplay(ReplayBackend):
    """A replay backend that also keeps every request it answers."""

    def __init__(self, script):
        super().__init__(script)
        self.requests = []

    def chat(self, request):
        self.requests.append(request)
        return super().chat(request)


def join_the_copier() -> None:
    """Wait for the thread that makes validation's copies ahead."""
    for thread in threading.enumerate():
        if thread.name == "pristine-copier":
            thread.join(10)
            assert not thread.is_alive()


def copier_running() -> bool:
    return any(thread.name == "pristine-copier"
               for thread in threading.enumerate())


_MARKER_RE = re.compile(r"// <<<<< (\S+):(\d+)\s*$")


def parse_annotations(text: str) -> list[tuple[str, int]]:
    """(path, line) for every line a code window or search result marked
    with format_marker, in order of appearance."""
    out = []
    for raw in text.splitlines():
        m = _MARKER_RE.search(raw)
        if m:
            out.append((m.group(1), int(m.group(2))))
    return out


def total_evaluations(summary) -> int:
    """PASS plus FAIL lines over every property of an AssertionSummary."""
    return sum(p + f for _, p, f, _ in summary.counts) + sum(summary.more)


@dataclass(frozen=True)
class Snapshot:
    """Content digest of a list of workspace files; timestamps play no
    part."""

    digest: str
    files: tuple


def snapshot(root, files=None) -> Snapshot:
    """Digest the content of `files` (relative paths) under root.

    By default every file outside version-control directories counts.
    Pass the `files` of an earlier snapshot to digest the same files
    again, so that build artifacts a PoC run drops in between do not
    count.
    """
    root = Path(root)
    if files is None:
        files = sorted(
            p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and not any(
                part in DEFAULT_IGNORE_DIRS
                for part in p.relative_to(root).parts[:-1]))
    acc = hashlib.sha256()
    for rel in files:
        path = root / rel
        acc.update(rel.encode() + b"\0")
        acc.update(hashlib.sha256(path.read_bytes()).digest()
                   if path.is_file() else b"<missing>")
    return Snapshot(digest=acc.hexdigest(), files=tuple(files))


def read_texts(root, *rels) -> dict:
    """rel -> text of each named file under root, as diffs and
    fingerprints take them."""
    return {rel: read_text(Path(root) / rel) for rel in rels}


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    # expose per-phase outcomes so teardown fixtures can report status
    report = yield
    setattr(item, "rep_" + report.when, report)
    return report


@pytest.fixture(autouse=True)
def _no_thread_left_running():
    # a test that starts a thread also sees it end
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate()
            if thread not in before and thread.is_alive()]
    assert not left, f"threads still running after the test: {left}"


@pytest.fixture(autouse=True)
def _no_temp_file_left(tmp_path_factory, monkeypatch):
    # a test that makes a temp file or directory also removes it; each
    # test gets a temp dir of its own, so a leak is the test's
    temp = tmp_path_factory.mktemp("tempdir")
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    yield
    left = sorted(path.name for path in temp.iterdir())
    assert not left, f"left in the temp dir after the test: {left}"


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture(autouse=True, scope="session")
def _crepo_stays_pristine():
    # crepo is shared read-only; tests that mutate must copy it first
    before = snapshot(CREPO)
    yield
    assert snapshot(CREPO) == before


@pytest.fixture
def crepo():
    return CREPO


@pytest.fixture
def crepo_index(crepo):
    """A fresh index over the shared fixture tree. Tests that start from
    another directory build RepoIndex(root) themselves."""
    return RepoIndex(crepo)


@pytest.fixture
def scratch_crepo(tmp_path):
    dst = tmp_path / "crepo"
    shutil.copytree(CREPO, dst)
    return dst


@pytest.fixture
def issue_text():
    return (FIXTURES / "crepo_issue.md").read_text()


@pytest.fixture
def sanitizer_log():
    return (FIXTURES / "crepo_sanitizer.log").read_text()
