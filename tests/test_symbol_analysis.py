import re
from pathlib import Path

import pytest
from conftest import snapshot

from vulnmend.edit_engine import EditHistory
from vulnmend.errors import MalformedBlock, NoMarkersFound, VulnmendError
from vulnmend.repo_model import (RepoIndex, read_text, source_files,
                                 write_text)
from vulnmend.symbol_analysis import (IndexBackend, SymbolLocation,
                                      make_symbol_backend, plan_queries,
                                      resolve_code_symbol)


def _col_of(root, rel, line, token, nth=1):
    """1-based column of the nth word-boundary occurrence (the oracle)."""
    text = read_text(Path(root) / rel).split("\n")[line - 1]
    hits = [m.start() + 1
            for m in re.finditer(rf"\b{re.escape(token)}\b", text)]
    return hits[nth - 1]


def _grep_references(root, token):
    pat = re.compile(rf"\b{re.escape(token)}\b")
    out = []
    for rel in source_files(root):
        lines = read_text(Path(root) / rel).split("\n")
        for line_no, text in enumerate(lines, 1):
            for m in pat.finditer(text):
                out.append((rel, line_no, m.start() + 1))
    return out


# -- marker planning ----------------------------------------------------------


def test_plan_queries_maps_marker_to_position(crepo):
    blocks = """### src/main.c
<<<<<<< SEARCH
    copy_name(name, sizeof(name), argv[1]);
=======
    FIND_REFERENCES(copy_name)(name, sizeof(name), argv[1]);
>>>>>>> REPLACE
"""
    queries = plan_queries(crepo, blocks)
    assert len(queries) == 1
    q = queries[0]
    assert (q.kind, q.symbol, q.file) == ("references", "copy_name",
                                          "src/main.c")
    assert q.line == 14
    assert q.col == _col_of(crepo, "src/main.c", 14, "copy_name")


def test_plan_queries_multiple_markers_one_block(crepo):
    blocks = """### src/main.c
<<<<<<< SEARCH
    copy_name(name, sizeof(name), argv[1]);
    printf("stored %zu bytes (count=%d)\\n", strlen(name), g_count);
=======
    FIND_DEFINITION(copy_name)(name, sizeof(name), argv[1]);
    printf("stored %zu bytes (count=%d)\\n", strlen(name), FIND_REFERENCES(g_count));
>>>>>>> REPLACE
"""
    queries = plan_queries(crepo, blocks)
    assert [(q.kind, q.symbol, q.line) for q in queries] == [
        ("definition", "copy_name", 14),
        ("references", "g_count", 15),
    ]
    assert queries[1].col == _col_of(crepo, "src/main.c", 15, "g_count")


def test_plan_queries_normalized_mode_nth_occurrence(crepo):
    # altered spacing forces the normalized pass; the marker wraps the
    # second `i` on the line, so the mapped column must be the second
    # occurrence in the real file text
    blocks = ("### src/buf.c\n<<<<<<< SEARCH\n"
              "  dst[i]  =  src[i];\n=======\n"
              "  dst[i]  =  src[FIND_REFERENCES(i)];\n>>>>>>> REPLACE\n")
    queries = plan_queries(crepo, blocks)
    assert len(queries) == 1
    q = queries[0]
    assert (q.file, q.line) == ("src/buf.c", 17)
    assert q.col == _col_of(crepo, "src/buf.c", 17, "i", nth=2)


def test_plan_queries_rejects_real_edit(crepo):
    blocks = """### src/main.c
<<<<<<< SEARCH
    copy_name(name, sizeof(name), argv[1]);
=======
    FIND_REFERENCES(copy_name)(name, cap, argv[1]);
>>>>>>> REPLACE
"""
    with pytest.raises(MalformedBlock):
        plan_queries(crepo, blocks)


def test_plan_queries_rejects_non_identifier_wrap(crepo):
    blocks = """### src/main.c
<<<<<<< SEARCH
    copy_name(name, sizeof(name), argv[1]);
=======
    FIND_DEFINITION(copy_name(name, sizeof(name), argv[1]));
>>>>>>> REPLACE
"""
    with pytest.raises(MalformedBlock):
        plan_queries(crepo, blocks)


def test_plan_queries_requires_some_marker(crepo):
    blocks = """### src/main.c
<<<<<<< SEARCH
    copy_name(name, sizeof(name), argv[1]);
=======
    copy_name(name, sizeof(name), argv[1]);
>>>>>>> REPLACE
"""
    with pytest.raises(NoMarkersFound):
        plan_queries(crepo, blocks)


def test_plan_queries_missing_file(crepo):
    blocks = ("### src/ghost.c\n<<<<<<< SEARCH\nx\n=======\n"
              "FIND_DEFINITION(x)\n>>>>>>> REPLACE\n")
    with pytest.raises(FileNotFoundError):
        plan_queries(crepo, blocks)


def test_resolution_is_virtual_only(scratch_crepo):
    before = snapshot(scratch_crepo).digest
    blocks = """### src/main.c
<<<<<<< SEARCH
    copy_name(name, sizeof(name), argv[1]);
=======
    FIND_REFERENCES(copy_name)(name, sizeof(name), argv[1]);
>>>>>>> REPLACE
"""
    backend = IndexBackend(RepoIndex(scratch_crepo))
    result = resolve_code_symbol(scratch_crepo, blocks, backend)
    assert result.outcomes[0].total > 0
    assert snapshot(scratch_crepo).digest == before


# -- index backend vs grep oracle ---------------------------------------------


def test_references_match_grep_oracle_across_many_symbols(crepo,
                                                         crepo_index):
    backend = IndexBackend(crepo_index)
    first_site = {}
    for rel in source_files(crepo):
        lines = read_text(Path(crepo) / rel).split("\n")
        for line_no, text in enumerate(lines, 1):
            for m in re.finditer(r"[A-Za-z_]\w*", text):
                first_site.setdefault(m.group(0),
                                      (rel, line_no, m.start() + 1))
    assert len(first_site) >= 50
    for token, (rel, line, col) in sorted(first_site.items()):
        got = [(l.file, l.line, l.col)
               for l in backend.references(rel, line, col)]
        assert got == _grep_references(crepo, token), token


def test_definitions_are_subset_of_occurrences(crepo, crepo_index):
    backend = IndexBackend(crepo_index)
    for token in ("copy_name", "slot_used", "g_count", "NAME_CAP",
                  "name_slot", "main"):
        rel, line, col = _grep_references(crepo, token)[0]
        defs = backend.definition(rel, line, col)
        assert defs, token
        occurrences = set(_grep_references(crepo, token))
        for loc in defs:
            assert (loc.file, loc.line, loc.col) in occurrences


def test_definition_sees_declaration_and_definition(crepo, crepo_index):
    backend = IndexBackend(crepo_index)
    call_col = _col_of(crepo, "src/main.c", 14, "copy_name")
    defs = backend.definition("src/main.c", 14, call_col)
    sites = {(l.file, l.line) for l in defs}
    assert ("src/buf.c", 8) in sites
    assert ("src/buf.h", 28) in sites
    assert backend.includes_declaration is True


def test_cross_file_references_for_struct_member(crepo, crepo_index):
    backend = IndexBackend(crepo_index)
    blocks = """### njs/src/njs_vmcode.c
<<<<<<< SEARCH
    uint32_t    index;
=======
    uint32_t    FIND_REFERENCES(index);
>>>>>>> REPLACE
"""
    q = plan_queries(crepo, blocks)[0]
    assert (q.file, q.line, q.col) == ("njs/src/njs_vmcode.c", 9, 17)
    result = resolve_code_symbol(crepo, blocks, backend)
    outcome = result.outcomes[0]
    got = {(l.file, l.line, l.col) for l in outcome.locations}
    assert got == set(_grep_references(crepo, "index"))
    assert any(l.file == "njs/src/njs_array.c" for l in outcome.locations)


# three comment lines above copy_name's definition at src/buf.c:8
SHIFT_COPY_NAME = """### src/buf.c
<<<<<<< SEARCH
int g_count = 0;
=======
int g_count = 0;
/* one */
/* two */
/* three */
>>>>>>> REPLACE
"""


def test_lookups_follow_applied_edits(scratch_crepo):
    backend = IndexBackend(RepoIndex(scratch_crepo))
    call_col = _col_of(scratch_crepo, "src/main.c", 14, "copy_name")

    def buf_sites():
        defs = backend.definition("src/main.c", 14, call_col)
        refs = backend.references("src/main.c", 14, call_col)
        return ({l.line for l in defs if l.file == "src/buf.c"},
                [(l.file, l.line, l.col) for l in refs])

    assert buf_sites() == ({8}, _grep_references(scratch_crepo, "copy_name"))
    history = EditHistory(scratch_crepo)
    history.apply_edits("shift", SHIFT_COPY_NAME)
    defs, refs = buf_sites()
    assert defs == {11}
    assert ("src/buf.c", 11, 6) in refs
    assert refs == _grep_references(scratch_crepo, "copy_name")
    # the token under the cursor comes from the edited text, too
    assert {l.line for l in backend.definition("src/buf.c", 11, 6)
            if l.file == "src/buf.c"} == {11}
    history.rollback_all()
    assert buf_sites()[0] == {8}


def test_token_lookup_off_identifier_is_empty(crepo_index):
    backend = IndexBackend(crepo_index)
    assert backend.references("src/buf.c", 13, 8) == []
    assert backend.definition("src/buf.c", 999, 1) == []


def test_reference_cap_truncates_and_reports_total(crepo, crepo_index):
    backend = IndexBackend(crepo_index)
    blocks = """### njs/src/njs_vmcode.c
<<<<<<< SEARCH
    uint32_t    index;
=======
    uint32_t    FIND_REFERENCES(index);
>>>>>>> REPLACE
"""
    total = len(_grep_references(crepo, "index"))
    result = resolve_code_symbol(crepo, blocks, backend, reference_cap=3)
    outcome = result.outcomes[0]
    assert outcome.truncated is True
    assert outcome.total == total
    assert len(outcome.locations) == 3
    rendered = result.render()
    assert f"3 of {total} shown" in rendered
    assert "(declaration included)" in rendered


class _FlakyBackend:
    includes_declaration = False

    def definition(self, file, line, col):
        return [SymbolLocation(file="src/buf.c", line=8, col=6,
                               preview="void copy_name(...)")]

    def references(self, file, line, col):
        raise VulnmendError("backend exploded")


def test_backend_error_isolated_per_query(crepo):
    blocks = """### src/main.c
<<<<<<< SEARCH
    copy_name(name, sizeof(name), argv[1]);
    printf("stored %zu bytes (count=%d)\\n", strlen(name), g_count);
=======
    FIND_REFERENCES(copy_name)(name, sizeof(name), argv[1]);
    printf("stored %zu bytes (count=%d)\\n", strlen(name), FIND_DEFINITION(g_count));
>>>>>>> REPLACE
"""
    result = resolve_code_symbol(crepo, blocks, _FlakyBackend())
    first, second = result.outcomes
    assert first.error == "backend exploded"
    assert first.locations == ()
    assert second.error is None
    assert second.locations
    assert "error: backend exploded" in result.render()


def test_make_backend_default_is_index(crepo_index):
    assert isinstance(make_symbol_backend(crepo_index), IndexBackend)


def test_definitions_match_the_per_name_pattern(crepo_index, monkeypatch):
    # a definition is where `\bname\b` first matches in each element of
    # that name, on every fixture element, C++ files included; a lookup
    # compiles the same small number of patterns whatever the name, never
    # one per element
    expected = {}
    for rel in crepo_index.files():
        for e in crepo_index.elements(rel):
            pattern = re.compile(rf"\b{re.escape(e.name)}\b")
            for idx, text in enumerate(e.text.split("\n")):
                m = pattern.search(text)
                if m:
                    expected.setdefault(e.name, []).append(
                        (rel, e.start_line + idx, m.start() + 1))
                    break
    assert {"File", "open"} <= set(expected)
    assert any(rel.startswith("cpp/") for rel, _, _ in expected["open"])
    backend = IndexBackend(crepo_index)
    compile_ = re.compile
    for name, sites in expected.items():
        compiled = []
        monkeypatch.setattr(re, "compile",
                            lambda *args: compiled.append(args) or
                            compile_(*args))
        found = backend.definition(*sites[0])
        monkeypatch.undo()
        assert [(l.file, l.line, l.col) for l in found] == sorted(sites)
        assert len(compiled) == 1, name


def test_lookups_report_a_file_that_cannot_be_read(tmp_path):
    write_text(tmp_path / "a.c", "int name(void) { return 0; }\n")
    write_text(tmp_path / "b.c", "int name;\n")
    backend = IndexBackend(RepoIndex(tmp_path))
    assert [l.file for l in backend.references("a.c", 1, 5)] == ["a.c", "b.c"]
    (tmp_path / "b.c").unlink()
    # a vanished file fails the lookup, as it did when every file was read
    for lookup in (backend.definition, backend.references):
        with pytest.raises(FileNotFoundError):
            lookup("a.c", 1, 5)
