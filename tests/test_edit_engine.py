import random
import subprocess

import pytest
from conftest import snapshot
from hypothesis import given, settings
from hypothesis import strategies as st

from vulnmend.edit_engine import (EditHistory, SearchReplaceEdit,
                                  apply_edits_to_text, locate_search,
                                  parse_edit_blocks, to_unified_diff)
from vulnmend.errors import (EmptyHistory, MalformedBlock, NoChanges,
                             SearchTextAmbiguous, SearchTextNotFound)
from vulnmend.repo_model import read_text, write_text

GOOD_BLOCK = """### src/buf.c
<<<<<<< SEARCH
    if (len > cap) {
        len = cap;
    }
=======
    if (len >= cap) {
        len = cap - 1;
    }
>>>>>>> REPLACE
"""

# Applies on top of GOOD_BLOCK: it searches the replaced text.
SECOND_BLOCK = """### src/buf.c
<<<<<<< SEARCH
        len = cap - 1;
=======
        len = cap - 1u;
>>>>>>> REPLACE
"""


def test_parse_single_block():
    edits = parse_edit_blocks(GOOD_BLOCK)
    assert len(edits) == 1
    edit = edits[0]
    assert edit.file == "src/buf.c"
    assert edit.search.startswith("    if (len > cap)")
    assert edit.replace.startswith("    if (len >= cap)")


def test_parse_tolerates_surrounding_prose_and_fences():
    text = ("Here is the fix you asked for:\n\n```\n" + GOOD_BLOCK
            + "```\n\nLet me know.\n")
    assert len(parse_edit_blocks(text)) == 1


def test_parse_multiple_blocks_multiple_files():
    text = GOOD_BLOCK + "\n### src/buf.h\n<<<<<<< SEARCH\n" \
        "#define NAME_CAP 16\n=======\n#define NAME_CAP 32\n" \
        ">>>>>>> REPLACE\n"
    edits = parse_edit_blocks(text)
    assert [e.file for e in edits] == ["src/buf.c", "src/buf.h"]


def test_parse_accepts_longer_fences():
    text = GOOD_BLOCK.replace("<<<<<<<", "<" * 12).replace(
        "=======", "=" * 9).replace(">>>>>>>", ">" * 10)
    assert len(parse_edit_blocks(text)) == 1


def test_parse_rejects_six_char_fence():
    text = GOOD_BLOCK.replace("<<<<<<< SEARCH", "<<<<<< SEARCH")
    with pytest.raises(MalformedBlock):
        parse_edit_blocks(text)


def test_malformed_block_reports_offset():
    prefix = "some prose first\n\n"
    broken = (prefix + "### src/buf.c\n<<<<<<< SEARCH\nno divider\n"
              ">>>>>>> REPLACE\n")
    with pytest.raises(MalformedBlock) as exc_info:
        parse_edit_blocks(broken)
    assert exc_info.value.offset == len(prefix)


def test_parse_missing_replace_fence():
    with pytest.raises(MalformedBlock):
        parse_edit_blocks("### f.c\n<<<<<<< SEARCH\nx\n=======\ny\n")


def test_path_traversal_rejected():
    evil = GOOD_BLOCK.replace("### src/buf.c", "### ../escape.c")
    with pytest.raises(MalformedBlock):
        parse_edit_blocks(evil)
    evil2 = GOOD_BLOCK.replace("### src/buf.c", "### /etc/passwd")
    with pytest.raises(MalformedBlock):
        parse_edit_blocks(evil2)


def test_locate_exact_and_normalized():
    content = "int  a = 1;\nint b = 2;\nint c = 3;\n"
    start, end, mode = locate_search(content, "int b = 2;")
    assert content.split("\n")[start:end] == ["int b = 2;"]
    assert mode == "exact"
    # whitespace-normalized fallback
    start, end, mode = locate_search(content, "int a = 1;")
    assert content.split("\n")[start:end] == ["int  a = 1;"]
    assert mode == "normalized"


def test_locate_ambiguous_raises():
    content = "x = 1;\ny = 2;\nx = 1;\nz = 3;\n"
    with pytest.raises(SearchTextAmbiguous):
        locate_search(content, "x = 1;")


def test_locate_missing_raises():
    with pytest.raises(SearchTextNotFound):
        locate_search("a\nb\n", "zzz")


def test_apply_edits_to_text_replaces_once():
    content = "a\nb\nc\n"
    edit = SearchReplaceEdit(file="f", search="b", replace="B\nB2")
    assert apply_edits_to_text(content, [edit]) == "a\nB\nB2\nc\n"


# -- randomized round-trip: apply then invert restores the original --------


def _line_hits(content, search):
    """Independent line-sequence occurrence scan (the test's oracle)."""
    content_lines = content.split("\n")
    search_lines = search.split("\n")
    k = len(search_lines)
    return [i for i in range(len(content_lines) - k + 1)
            if content_lines[i:i + k] == search_lines]


def _random_edit_pair(rng, content):
    """A (forward, inverse) edit pair built from actual file content."""
    lines = content.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines:
        return None
    start = rng.randrange(len(lines))
    length = rng.randint(1, min(3, len(lines) - start))
    search = "\n".join(lines[start:start + length])
    if not search.strip():
        return None
    if len(_line_hits(content, search)) != 1:
        return None
    replace = search + f"\n/* probe {rng.randrange(10**9)} */"
    if len(_line_hits(content, replace)) != 0:
        return None
    return (SearchReplaceEdit(file="f.c", search=search, replace=replace),
            SearchReplaceEdit(file="f.c", search=replace, replace=search))


def test_randomized_edit_round_trip(crepo):
    rng = random.Random(20240817)
    original = read_text(crepo / "src" / "buf.c")
    done = 0
    attempts = 0
    while done < 200 and attempts < 2000:
        attempts += 1
        pair = _random_edit_pair(rng, original)
        if pair is None:
            continue
        forward, inverse = pair
        edited = apply_edits_to_text(original, [forward])
        assert edited != original
        restored = apply_edits_to_text(edited, [inverse])
        assert restored == original
        done += 1
    assert done == 200


@settings(max_examples=60)
@given(st.text(alphabet="abcdef ();{}\n", min_size=1, max_size=200),
       st.integers(min_value=0, max_value=10**9))
def test_insert_then_remove_is_identity(body, salt):
    content = body if body.endswith("\n") else body + "\n"
    lines = content.split("\n")[:-1]
    if not lines:
        return
    target = lines[salt % len(lines)]
    if not target.strip() or len(_line_hits(content, target)) != 1:
        return
    probe = f"/* p{salt} */"
    fwd = SearchReplaceEdit(file="f", search=target,
                            replace=target + "\n" + probe)
    inv = SearchReplaceEdit(file="f", search=target + "\n" + probe,
                            replace=target)
    assert apply_edits_to_text(
        apply_edits_to_text(content, [fwd]), [inv]) == content


# -- history ------------------------------------------------------------------


def test_history_apply_and_rollback_digest_oracle(scratch_crepo):
    history = EditHistory(scratch_crepo)
    base = snapshot(scratch_crepo).digest
    result = history.apply_edits("fix", GOOD_BLOCK)
    assert result.fixed_name == "fix"
    assert result.files == ("src/buf.c",)
    assert snapshot(scratch_crepo).digest != base
    view = history.rollback_latest()
    assert view.count == 0
    assert snapshot(scratch_crepo).digest == base


def test_history_name_dedup(scratch_crepo):
    history = EditHistory(scratch_crepo)
    first = history.apply_edits("fix", GOOD_BLOCK)
    second = history.apply_edits("fix", SECOND_BLOCK)
    assert first.fixed_name == "fix"
    assert second.fixed_name == "fix-2"
    assert history.history_view().names == ("fix", "fix-2")


def test_history_rollback_all(scratch_crepo):
    history = EditHistory(scratch_crepo)
    base = snapshot(scratch_crepo).digest
    history.apply_edits("one", GOOD_BLOCK)
    history.apply_edits("two", SECOND_BLOCK)
    view = history.rollback_all()
    assert view.count == 0
    assert snapshot(scratch_crepo).digest == base


def test_history_empty_rollback_raises(scratch_crepo):
    history = EditHistory(scratch_crepo)
    with pytest.raises(EmptyHistory):
        history.rollback_latest()
    with pytest.raises(EmptyHistory):
        history.rollback_all()


def test_history_stacked_rollback_is_lifo(scratch_crepo):
    history = EditHistory(scratch_crepo)
    history.apply_edits("one", GOOD_BLOCK)
    mid = snapshot(scratch_crepo).digest
    history.apply_edits("two", SECOND_BLOCK)
    history.rollback_latest()
    assert snapshot(scratch_crepo).digest == mid


def test_history_noop_edit_rejected(scratch_crepo):
    history = EditHistory(scratch_crepo)
    noop = GOOD_BLOCK.replace(
        "    if (len >= cap) {\n        len = cap - 1;\n    }",
        "    if (len > cap) {\n        len = cap;\n    }")
    with pytest.raises(NoChanges):
        history.apply_edits("noop", noop)
    assert history.history_view().count == 0


def test_history_untracked_artifacts_survive_rollback(scratch_crepo):
    history = EditHistory(scratch_crepo)
    artifact = scratch_crepo / "build" / "poc"
    artifact.parent.mkdir()
    artifact.write_bytes(b"\x7fELF")
    history.apply_edits("fix", GOOD_BLOCK)
    history.rollback_all()
    assert artifact.exists()


def test_history_originals_predate_stacked_sets(scratch_crepo):
    history = EditHistory(scratch_crepo)
    original = read_text(scratch_crepo / "src" / "buf.c")
    history.apply_edits("one", GOOD_BLOCK)
    history.apply_edits("two", SECOND_BLOCK)
    assert history.originals() == {"src/buf.c": original}
    diff = to_unified_diff(scratch_crepo, history.originals())
    assert "+    if (len >= cap) {" in diff
    history.rollback_all()
    assert history.originals() == {}
    assert read_text(scratch_crepo / "src" / "buf.c") == original


def test_history_rollback_restores_non_utf8_bytes(tmp_path):
    raw = b"int a; /* caf\xe9 */\nint b;\n"
    (tmp_path / "x.c").write_bytes(raw)
    history = EditHistory(tmp_path)
    history.apply_edits("b", [SearchReplaceEdit("x.c", "int b;",
                                                "int b = 1;")])
    assert (tmp_path / "x.c").read_bytes() == raw.replace(b"b;", b"b = 1;")
    history.rollback_latest()
    assert (tmp_path / "x.c").read_bytes() == raw


def test_history_view_render(scratch_crepo):
    history = EditHistory(scratch_crepo)
    assert "no applied edit sets" in history.history_view().render()
    history.apply_edits("fix", GOOD_BLOCK)
    rendered = history.history_view().render()
    assert "1 applied edit set(s)" in rendered and "fix" in rendered


def test_apply_is_atomic_across_files(scratch_crepo):
    history = EditHistory(scratch_crepo)
    base = snapshot(scratch_crepo).digest
    text = GOOD_BLOCK + ("\n### src/buf.h\n<<<<<<< SEARCH\n"
                         "this does not exist\n=======\nnope\n"
                         ">>>>>>> REPLACE\n")
    with pytest.raises(SearchTextNotFound):
        history.apply_edits("broken", text)
    assert snapshot(scratch_crepo).digest == base
    assert history.history_view().count == 0


# -- unified diff ---------------------------------------------------------------


def _git_apply(diff, cwd):
    return subprocess.run(["git", "apply", "-"], input=diff, text=True,
                          cwd=cwd, capture_output=True)


def _originals(root, *rels):
    return {rel: read_text(root / rel) for rel in rels}


def test_unified_diff_round_trips_through_git_apply(tmp_path, crepo):
    import shutil
    after = tmp_path / "after"
    shutil.copytree(crepo, after)
    buf = after / "src" / "buf.c"
    main = after / "src" / "main.c"
    write_text(buf, read_text(buf).replace("len = cap;", "len = cap - 1;"))
    write_text(main, read_text(main) + "/* trailer */\n")

    diff = to_unified_diff(after, _originals(crepo, "src/main.c",
                                             "src/buf.c", "src/buf.h"))
    assert "diff --git a/src/buf.c b/src/buf.c" in diff
    # lexicographic order; unchanged files are left out
    assert diff.index("a/src/buf.c") < diff.index("a/src/main.c")
    assert "src/buf.h" not in diff

    target = tmp_path / "target"
    shutil.copytree(crepo, target)
    proc = _git_apply(diff, target)
    assert proc.returncode == 0, proc.stderr
    assert read_text(target / "src" / "buf.c") == read_text(buf)
    assert read_text(target / "src" / "main.c") == read_text(main)


def test_unified_diff_handles_missing_trailing_newline(tmp_path):
    root = tmp_path / "a"
    root.mkdir()
    (root / "x.c").write_text("int a;\nint b; /* no newline */")
    diff = to_unified_diff(root, {"x.c": "int a;\n"})
    assert "\\ No newline at end of file" in diff
    target = tmp_path / "t"
    target.mkdir()
    (target / "x.c").write_text("int a;\n")
    proc = _git_apply(diff, target)
    assert proc.returncode == 0, proc.stderr
    assert (target / "x.c").read_text() == (root / "x.c").read_text()


def test_unified_diff_next_to_a_form_feed_line_applies(tmp_path):
    # git counts only "\n" as a line end: a form-feed line is one line
    old = "int a;\n\f\nint f(int x)\n{\n  return x;\n}\n"
    after = tmp_path / "after"
    write_text(after / "m.c", old.replace("return x;", "return x + 1;"))
    diff = to_unified_diff(after, {"m.c": old})
    assert "No newline" not in diff
    target = tmp_path / "target"
    write_text(target / "m.c", old)
    proc = _git_apply(diff, target)
    assert proc.returncode == 0, proc.stderr
    assert read_text(target / "m.c") == read_text(after / "m.c")


def test_unified_diff_empty_for_identical_trees(crepo):
    assert to_unified_diff(crepo, {}) == ""
    assert to_unified_diff(crepo, _originals(crepo, "src/buf.c",
                                             "cpp/fileio.cpp")) == ""


def test_unified_diff_patch_p1_compatible(tmp_path, crepo):
    import shutil
    after = tmp_path / "after"
    shutil.copytree(crepo, after)
    buf = after / "src" / "buf.c"
    write_text(buf, read_text(buf).replace("len = cap;", "len = cap - 1;"))
    diff = to_unified_diff(after, _originals(crepo, "src/buf.c"))
    target = tmp_path / "t"
    shutil.copytree(crepo, target)
    proc = subprocess.run(["patch", "-p1"], input=diff, text=True,
                          cwd=target, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert read_text(target / "src" / "buf.c") == read_text(buf)


def iter_block_texts(edits):
    """Render edits back into block text (the inverse of parsing)."""
    parts = []
    for e in edits:
        parts += [f"### {e.file}", "<<<<<<< SEARCH", e.search, "=======",
                  e.replace, ">>>>>>> REPLACE"]
    return "\n".join(parts) + "\n"


def test_iter_block_texts_round_trip():
    edits = parse_edit_blocks(GOOD_BLOCK)
    rendered = iter_block_texts(edits)
    assert parse_edit_blocks(rendered) == edits
