"""The package declares no runtime dependency and imports only the
standard library and itself; an offline run loads nothing beyond the
standard library, and none of the HTTP stack that only the live
backend needs. Every name a module imports is used. One class copies
a tree and makes a temp directory: execution.AheadCopies, made ahead or
when taken; no module starts a thread of its own."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


# the live backend's HTTP stack; an offline run must not load it
_HTTP_STACK = ("urllib", "http", "ssl", "email")


def _imported_packages(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _unused_imports(path: Path) -> set[tuple[int, str]]:
    """(line, name) of each name path imports but never uses, outside
    import statements that say `# noqa`; a name a module lists in
    __all__ counts as used."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (isinstance(node, ast.ImportFrom)
                and node.module == "__future__"):
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return {(line, name) for name, line in imported.items()
            if name not in used}


def test_every_imported_name_is_used():
    files = sorted(SRC.rglob("*.py"))
    assert files
    unused = {(path.relative_to(ROOT).as_posix(), line, name)
              for path in files for line, name in _unused_imports(path)}
    assert not unused


def _sites(path: Path, names) -> set[tuple[str | None, str]]:
    """(enclosing function, name) of each mention in path of one of
    names: a call, a reference or an import. A method is named
    `Class.method`; the function is None at module level."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            name = (child.attr if isinstance(child, ast.Attribute)
                    else child.id if isinstance(child, ast.Name)
                    else child.name if isinstance(child, ast.alias)
                    else None)
            if name in names:
                sites.add((scope, name))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), None)
    return sites


def _sites_in_src(names) -> set[tuple[str, str | None, str]]:
    return {(path.relative_to(SRC).as_posix(), scope, name)
            for path in sorted(SRC.rglob("*.py"))
            for scope, name in _sites(path, names)}


# the calls that copy files or make a temp file or directory; shutil's
# plain `copy` is left out, as a name too common to tell apart
_COPYING = {"copytree", "copy2", "copyfile", "copyfileobj", "mkdtemp",
            "mkstemp", "TemporaryDirectory", "NamedTemporaryFile"}


def test_only_the_copier_copies_a_tree_or_makes_a_temp_dir():
    # every copy of an input is a temp directory that AheadCopies makes
    assert {(path, scope.split(".")[0], name)
            for path, scope, name in _sites_in_src(_COPYING)} == {
        ("vulnmend/execution.py", "AheadCopies", "copytree"),
        ("vulnmend/execution.py", "AheadCopies", "mkdtemp")}


def test_background_work_goes_through_the_pool_and_the_one_copier():
    # no hand-rolled thread: every background job is a ThreadPoolExecutor
    # job; and no module but execution.py makes a copy, so every other
    # takes its copies from AheadCopies, made ahead or when taken
    assert _sites_in_src({"Thread"}) == set()
    assert {site for site in _sites_in_src(_COPYING | {"_copy", "_make"})
            if site[0] != "vulnmend/execution.py"} == set()


def test_no_runtime_dependency_is_declared():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


def test_every_import_is_stdlib_the_package_or_declared():
    allowed = set(sys.stdlib_module_names) | {"vulnmend"}
    files = sorted(SRC.rglob("*.py"))
    assert files
    stray = {(path.relative_to(ROOT).as_posix(), name)
             for path in files for name in _imported_packages(path)
             if name not in allowed}
    assert not stray


@pytest.mark.skipif(shutil.which("gcc") is None,
                    reason="no C compiler on this machine")
def test_an_offline_run_and_evaluation_load_only_the_standard_library(
        tmp_path):
    # the HTTP stack costs a replay run 7 MB of RSS, so the live backend
    # imports it inside the call that needs it
    fixtures = ROOT / "tests" / "fixtures"
    instances = str(fixtures / "instances.jsonl")
    run = str(tmp_path / "run")
    # modules the interpreter's own start-up loaded do not count
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from vulnmend.harness.cli import main\n"
        "instances, run, replay = sys.argv[1:]\n"
        "assert main(['run', '--instances', instances, '--out', run,\n"
        "             '--backend', 'replay:' + replay]) == 0\n"
        "assert main(['evaluate', '--run', run,\n"
        "             '--instances', instances]) == 0\n"
        "added = [name for name in sys.modules if name not in before]\n"
        "tops = {name.split('.')[0] for name in added}\n"
        "print(sorted(tops - set(sys.stdlib_module_names) - {'vulnmend'}))\n"
        f"print(sorted(name for name in added\n"
        f"             if name.split('.')[0] in {_HTTP_STACK!r}))\n")
    proc = subprocess.run([sys.executable, "-c", script, instances, run,
                           str(fixtures / "replays" / "full.json")],
                          cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]
    evaluation = json.loads((tmp_path / "run" / "evaluation.json").read_text())
    assert evaluation["resolved"] == evaluation["total"] == 1

