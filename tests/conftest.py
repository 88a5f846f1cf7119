import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path

import pytest

from vulnmend.repo_model import DEFAULT_IGNORE_DIRS, RepoIndex

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


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    # expose per-phase outcomes so teardown fixtures can report status
    report = yield
    setattr(item, "rep_" + report.when, report)
    return report


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture(autouse=True, scope="session")
def _crepo_stays_pristine():
    # crepo is shared read-only; tests that mutate must copy it first
    before = sorted(p.name for p in CREPO.iterdir())
    yield
    assert sorted(p.name for p in CREPO.iterdir()) == before


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
