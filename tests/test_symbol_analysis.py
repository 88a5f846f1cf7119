import re
from pathlib import Path

import pytest
from conftest import snapshot

from vulnmend.edit_engine import EditHistory
from vulnmend.errors import MalformedBlock, NoMarkersFound, VulnmendError
from vulnmend.repo_model import read_text, source_files
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
    backend = IndexBackend(scratch_crepo)
    result = resolve_code_symbol(scratch_crepo, blocks, backend)
    assert result.outcomes[0].total > 0
    assert snapshot(scratch_crepo).digest == before


# -- index backend vs grep oracle ---------------------------------------------


def test_references_match_grep_oracle_across_many_symbols(crepo):
    backend = IndexBackend(crepo)
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


def test_definitions_are_subset_of_occurrences(crepo):
    backend = IndexBackend(crepo)
    for token in ("copy_name", "slot_used", "g_count", "NAME_CAP",
                  "name_slot", "main"):
        rel, line, col = _grep_references(crepo, token)[0]
        defs = backend.definition(rel, line, col)
        assert defs, token
        occurrences = set(_grep_references(crepo, token))
        for loc in defs:
            assert (loc.file, loc.line, loc.col) in occurrences


def test_definition_sees_declaration_and_definition(crepo):
    backend = IndexBackend(crepo)
    call_col = _col_of(crepo, "src/main.c", 14, "copy_name")
    defs = backend.definition("src/main.c", 14, call_col)
    sites = {(l.file, l.line) for l in defs}
    assert ("src/buf.c", 8) in sites
    assert ("src/buf.h", 28) in sites
    assert backend.includes_declaration is True


def test_cross_file_references_for_struct_member(crepo):
    backend = IndexBackend(crepo)
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
    backend = IndexBackend(scratch_crepo)
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


def test_token_lookup_off_identifier_is_empty(crepo):
    backend = IndexBackend(crepo)
    assert backend.references("src/buf.c", 13, 8) == []
    assert backend.definition("src/buf.c", 999, 1) == []


def test_reference_cap_truncates_and_reports_total(crepo):
    backend = IndexBackend(crepo)
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


def test_make_backend_default_is_index(crepo):
    assert isinstance(make_symbol_backend(crepo), IndexBackend)
