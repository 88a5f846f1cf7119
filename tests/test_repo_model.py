import os

import pytest
from conftest import snapshot
from hypothesis import given, settings
from hypothesis import strategies as st

from vulnmend.cparse import ElementKind
from vulnmend.repo_model import (RepoIndex, read_text, render_repo_tree,
                                 skeletonize, source_files, write_text)


def test_read_write_round_trip_is_byte_lossless(tmp_path):
    raw = b"int x;\n\xff\xfe broken utf8 \xe0\n"
    path = tmp_path / "odd.c"
    path.write_bytes(raw)
    text = read_text(path)
    write_text(tmp_path / "copy.c", text)
    assert (tmp_path / "copy.c").read_bytes() == raw


@settings(max_examples=50)
@given(st.binary(max_size=400))
def test_read_write_round_trip_arbitrary_bytes(tmp_path_factory, payload):
    tmp = tmp_path_factory.mktemp("bytes")
    path = tmp / "blob.c"
    path.write_bytes(payload)
    write_text(tmp / "copy.c", read_text(path))
    assert (tmp / "copy.c").read_bytes() == payload


def test_source_files_filters_and_sorts(crepo):
    files = source_files(crepo)
    assert files == sorted(files)
    assert "src/buf.c" in files and "cpp/fileio.hpp" in files
    assert all(not f.endswith(".md") for f in files)
    assert all(not f.endswith(".sh") for f in files)


def test_source_files_skips_ignored_dirs(scratch_crepo):
    (scratch_crepo / ".git").mkdir()
    (scratch_crepo / ".git" / "junk.c").write_text("int hidden;\n")
    assert all(not f.startswith(".git/")
               for f in source_files(scratch_crepo))


def test_tree_rendering_matches_layout(crepo_index):
    tree = render_repo_tree(crepo_index)
    lines = tree.splitlines()
    # exact shape: root first, lexicographic children, two-space indent,
    # trailing slash on directories
    assert lines[0] == "crepo/"
    assert lines[1] == "  cpp/"
    assert "    fileio.cpp" in lines
    idx = lines.index("  src/")
    assert lines[idx + 1] == "    buf.c"
    for line in lines:
        name = line.strip()
        depth = (len(line) - len(line.lstrip())) // 2
        assert line == "  " * depth + name
    assert "README.md" not in tree


def _oracle_spans(crepo, rel):
    """Line-scan oracle: find definitions by scanning raw lines."""
    text = read_text(crepo / rel)
    return text.splitlines()


def test_parse_elements_function_span_oracle(crepo, crepo_index):
    elements = crepo_index.elements("src/buf.c")
    by_name = {e.name: e for e in elements}
    copy_name = by_name["copy_name"]
    assert copy_name.kind is ElementKind.FUNCTION
    lines = _oracle_spans(crepo, "src/buf.c")
    # oracle: the span starts on the signature line and ends on the
    # matching close brace found by independent counting
    assert lines[copy_name.start_line - 1].startswith("void copy_name(")
    assert lines[copy_name.end_line - 1] == "}"
    depth = 0
    seen_open = False
    for i in range(copy_name.start_line - 1, len(lines)):
        depth += lines[i].count("{") - lines[i].count("}")
        seen_open = seen_open or "{" in lines[i]
        if seen_open and depth == 0:
            assert copy_name.end_line == i + 1
            break
    # text is the exact line slice
    assert copy_name.text == "\n".join(
        lines[copy_name.start_line - 1:copy_name.end_line]) + "\n"


def test_parse_elements_kinds_cover_header(crepo_index):
    kinds = {(e.name, e.kind) for e in crepo_index.elements("src/buf.h")}
    assert ("NAME_CAP", ElementKind.MACRO) in kinds
    assert ("CLAMP", ElementKind.MACRO) in kinds
    assert ("name_kind", ElementKind.ENUM) in kinds
    assert ("name_slot", ElementKind.STRUCT) in kinds
    assert ("name_key", ElementKind.UNION) in kinds
    assert ("g_count", ElementKind.GLOBAL_VARIABLE) in kinds
    assert ("copy_name", ElementKind.FUNCTION) in kinds


def test_parse_elements_qualified_methods(crepo_index):
    elements = crepo_index.elements("cpp/fileio.cpp")
    qualified = {e.qualified_name for e in elements}
    assert {"File::open", "File::close"} <= qualified
    opener = [e for e in elements if e.qualified_name == "File::open"][0]
    assert opener.kind is ElementKind.FUNCTION
    assert opener.qualifier == "File"


def test_multiline_macro_span(crepo, crepo_index):
    clamp = [e for e in crepo_index.elements("src/buf.h")
             if e.name == "CLAMP"][0]
    lines = _oracle_spans(crepo, "src/buf.h")
    assert "\\" in lines[clamp.start_line - 1]
    assert not lines[clamp.end_line - 1].rstrip().endswith("\\")
    assert clamp.end_line > clamp.start_line


def test_crlf_source_elements_start_on_their_own_line(tmp_path):
    write_text(tmp_path / "m.c", "int a;\r\nint f(int x)\r\n{\r\n"
                                 "  return x;\r\n}\r\nint b;\r\n")
    by_name = {e.name: e for e in RepoIndex(tmp_path).elements("m.c")}
    f = by_name["f"]
    assert (f.start_line, f.end_line) == (2, 5)
    assert f.text == "int f(int x)\r\n{\r\n  return x;\r\n}\r\n"
    assert (by_name["b"].start_line, by_name["b"].text) == (6, "int b;\r\n")


def test_skeletonize_shortens_and_keeps_signatures(crepo):
    text = read_text(crepo / "njs" / "src" / "njs_array.c")
    skeleton = skeletonize(text)
    assert len(skeleton) < len(text)
    assert "njs_array_keys" in skeleton
    assert "{ ... }" in skeleton
    # body internals are gone
    assert "njs_uint32_to_string(&index, i);" not in skeleton


def test_skeletonize_from_index_elements_matches_scan(crepo):
    index = RepoIndex(crepo)
    for rel in index.files():
        text, elements = index.read(rel)
        assert skeletonize(text, elements) == skeletonize(text), rel


def test_skeletonize_never_grows():
    tiny = "int f(void) { return 1; }\n"
    assert len(skeletonize(tiny)) <= len(tiny)


def test_snapshot_ignores_timestamps(scratch_crepo):
    first = snapshot(scratch_crepo)
    os.utime(scratch_crepo / "src" / "buf.c", (1, 1))
    second = snapshot(scratch_crepo)
    assert first.digest == second.digest
    assert first.files == second.files


def test_snapshot_detects_content_change(scratch_crepo):
    before = snapshot(scratch_crepo).digest
    path = scratch_crepo / "src" / "buf.c"
    path.write_text(path.read_text().replace("g_count++", "g_count += 1"))
    assert snapshot(scratch_crepo).digest != before


def test_snapshot_over_baseline_files_ignores_new_artifacts(scratch_crepo):
    before = snapshot(scratch_crepo)
    (scratch_crepo / "build").mkdir()
    (scratch_crepo / "build" / "artifact.o").write_bytes(b"\x7fELF junk")
    assert snapshot(scratch_crepo, before.files) == before
    assert snapshot(scratch_crepo) != before


def test_parse_elements_missing_file_raises(crepo_index):
    with pytest.raises(FileNotFoundError):
        crepo_index.elements("src/nope.c")
