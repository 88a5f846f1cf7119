import re
import subprocess

import pytest
from hypothesis import given
from hypothesis import strategies as st

import vulnmend.repo_model as repo_model
from vulnmend.code_search import (format_marker, parse_annotations,
                                  read_code, search_code_element)
from vulnmend.errors import ElementNotFound
from vulnmend.repo_model import RepoIndex, read_text, write_text

_PATH_CHARS = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789_./-"),
    min_size=1, max_size=40).filter(lambda s: not s.isspace())


@given(_PATH_CHARS, st.integers(min_value=1, max_value=10**6))
def test_marker_format_parses_back(path, line):
    annotated = "dst[len] = '\\0'; " + format_marker(path, line)
    found = parse_annotations(annotated)
    assert found == [(path, line)]


@given(st.lists(st.tuples(_PATH_CHARS,
                          st.integers(min_value=1, max_value=9999)),
                min_size=0, max_size=5))
def test_marker_parse_back_many(pairs):
    text = "\n".join(f"code line {i}; " + format_marker(p, n)
                     for i, (p, n) in enumerate(pairs))
    assert parse_annotations(text) == list(pairs)


def test_marker_exact_shape():
    assert format_marker("src/buf.c", 19) == "// <<<<< src/buf.c:19"


def test_read_code_window_and_markers(crepo):
    window = read_code(crepo, "src/buf.c", center=19, num=5,
                       mark_lines=[19])
    assert (window.start_line, window.end_line) == (17, 21)
    rendered = window.render()
    # the marked line carries the marker; oracle: it is the same text as
    # the raw file line
    raw_line = read_text(crepo / "src" / "buf.c").splitlines()[18]
    marked = [l for l in rendered.splitlines() if "<<<<<" in l]
    assert len(marked) == 1
    assert parse_annotations(rendered) == [("src/buf.c", 19)]
    assert raw_line in marked[0]


def test_read_code_clamps_to_file_start(crepo):
    window = read_code(crepo, "src/buf.c", center=1, num=7)
    assert window.start_line == 1
    assert window.end_line == 7


def test_read_code_clamps_to_file_end(crepo):
    total = len(read_text(crepo / "src" / "buf.c").splitlines())
    window = read_code(crepo, "src/buf.c", center=total, num=9)
    assert window.end_line == total


def test_read_code_whole_short_file(crepo):
    raw_lines = read_text(crepo / "src" / "buf.h").splitlines()
    window = read_code(crepo, "src/buf.h", center=1, num=10_000)
    assert (window.start_line, window.end_line) == (1, len(raw_lines))
    assert list(window.lines) == raw_lines


def test_search_finds_definition_with_span_oracle(crepo, crepo_index):
    result = search_code_element(crepo_index, "copy_name", file="src/buf.c")
    assert len(result.matches) == 1
    element, window = result.matches[0]
    # oracle: independent substring scan for the definition line
    lines = read_text(crepo / "src" / "buf.c").splitlines()
    def_line = next(i + 1 for i, l in enumerate(lines)
                    if l.startswith("void copy_name("))
    assert element.start_line == def_line
    assert window.start_line == def_line


def test_search_across_files(crepo_index):
    result = search_code_element(crepo_index, "copy_name")
    files = {element.file for element, _ in result.matches}
    assert {"src/buf.c", "src/buf.h"} <= files


def test_search_with_mark_lines(crepo_index):
    result = search_code_element(crepo_index, "copy_name",
                                 file="src/buf.c", mark_lines=[19])
    assert parse_annotations(result.render()) == [("src/buf.c", 19)]


def test_search_qualified_member(crepo_index):
    result = search_code_element(crepo_index, "File::open")
    assert any(element.file == "cpp/fileio.cpp"
               for element, _ in result.matches)


@pytest.mark.parametrize("brk", ["\f", "\r", "\x1c", "\x85", "\u2028"],
                         ids=["ff", "cr", "fs", "nel", "ls"])
def test_line_numbers_count_newlines_only(tmp_path, brk):
    # a break str.splitlines honours, inside a comment on line 1
    write_text(tmp_path / "m.c", f"int a; /* {brk} */\nint f(int x)\n{{\n"
                                 "  return x;\n}\n")
    grep = subprocess.run(["grep", "-a", "-n", "return x;", "m.c"],
                          cwd=tmp_path, capture_output=True, text=True,
                          check=True)
    line = int(grep.stdout.split(":")[0])

    (element, window), = search_code_element(RepoIndex(tmp_path),
                                             "f").matches
    assert (element.start_line, element.end_line) == (line - 2, line + 1)
    assert window.lines[line - element.start_line] == "  return x;"
    assert read_code(tmp_path, "m.c", line, 1).lines == ("  return x;",)


def test_paths_outside_the_workspace_are_refused(scratch_crepo):
    secret = scratch_crepo.parent / "secret.c"
    secret.write_text("int secret(void) { return 1; }\n")
    (scratch_crepo / "src" / "leak.c").symlink_to(secret)
    (scratch_crepo / "src" / "alias.c").symlink_to("buf.c")
    index = RepoIndex(scratch_crepo)
    for name in ("../secret.c", str(secret), "src/leak.c",
                 "src/../../secret.c", "../crepo/src/buf.c"):
        with pytest.raises(ValueError, match="outside the workspace"):
            read_code(scratch_crepo, name, 1, 3)
        with pytest.raises(ValueError, match="outside the workspace"):
            search_code_element(index, "secret", file=name)
    # a link that stays inside the tree and a non-source file still read
    assert search_code_element(index, "copy_name", file="src/alias.c")
    assert read_code(scratch_crepo, "secb.sh", 1, 3).lines


def test_search_unknown_name_raises(crepo_index):
    with pytest.raises(ElementNotFound):
        search_code_element(crepo_index, "definitely_not_here")


def test_search_result_render_lists_location(crepo_index):
    rendered = search_code_element(crepo_index, "NAME_CAP").render()
    assert re.search(r"src/buf\.h:\d+", rendered)


def test_pinned_marker_listing(crepo):
    """The annotated read of the loop body renders the exact expected
    marker lines."""
    window = read_code(crepo, "njs/src/njs_array.c", center=151, num=3,
                       mark_lines=[150, 151, 152])
    rendered = window.render()
    assert parse_annotations(rendered) == [
        ("njs/src/njs_array.c", 150),
        ("njs/src/njs_array.c", 151),
        ("njs/src/njs_array.c", 152),
    ]
    assert "for (i = 0; i < length; i++) {" in rendered


def test_repo_wide_search_matches_a_full_parse(crepo):
    # the reference parses every file and filters its elements, as the
    # search did before it looked only in files that hold the word
    full = RepoIndex(crepo)
    elements = [e for rel in full.files() for e in full.elements(rel)]
    assert any(e.qualifier for e in elements)
    queries = ({e.name for e in elements}
               | {e.qualified_name for e in elements}
               | {"Nope::open", "name_in_no_file", "File::", ""})
    for query in sorted(queries):
        expected = [e for e in elements if query == (
            e.qualified_name if "::" in query else e.name)]
        for limit in (1, 10):
            try:
                result = search_code_element(RepoIndex(crepo), query,
                                             limit=limit)
            except ElementNotFound:
                assert expected == [], query
                continue
            assert [e for e, _ in result.matches] == expected[:limit], query
            assert result.truncated == (len(expected) > limit), query


def test_repo_wide_search_parses_only_files_that_hold_the_word(
        tmp_path, monkeypatch):
    write_text(tmp_path / "a.c", "int name(void) { return 0; }\n")
    write_text(tmp_path / "b.c", "int name_suffix(void) { return 1; }\n")
    write_text(tmp_path / "c.c", "int prefix_name;\nlong v = 1name;\n")
    write_text(tmp_path / "d.h", "/* see name */\nint other;\n")
    scanned = []
    scan = repo_model.scan_elements
    monkeypatch.setattr(repo_model, "scan_elements",
                        lambda text: scanned.append(text) or scan(text))

    (element, _), = search_code_element(RepoIndex(tmp_path),
                                        "name").matches
    assert element.file == "a.c"
    assert sorted(scanned) == sorted([read_text(tmp_path / "a.c"),
                                      read_text(tmp_path / "d.h")])


def test_a_file_that_cannot_be_read_is_reported_not_skipped(tmp_path):
    write_text(tmp_path / "a.c", "int name(void) { return 0; }\n")
    write_text(tmp_path / "b.c", "int name;\n")
    write_text(tmp_path / "c.c", "int other;\n")
    index = RepoIndex(tmp_path)
    assert index.files_with_word("name") == ["a.c", "b.c"]
    (tmp_path / "b.c").unlink()
    (tmp_path / "c.c").unlink()
    (tmp_path / "c.c").mkdir()
    # the prefilter cannot rule either file out, so the search reads them
    # and fails as a full parse would
    assert index.files_with_word("name") == ["a.c", "b.c", "c.c"]
    with pytest.raises(FileNotFoundError):
        search_code_element(index, "name")
