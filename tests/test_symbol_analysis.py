import re
import sys
import textwrap
from pathlib import Path

import pytest
from conftest import snapshot

from vulnmend.errors import (BackendUnavailable, MalformedBlock,
                             NoMarkersFound, VulnmendError)
from vulnmend.lsp_client import LspBackend
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

    def shutdown(self):
        pass


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


# -- language server wire protocol --------------------------------------------

_FAKE_SERVER = textwrap.dedent('''\
    import json
    import os
    import sys

    log = open(sys.argv[1], "a", buffering=1)

    def send(msg):
        data = json.dumps(msg).encode()
        sys.stdout.buffer.write(
            b"Content-Length: %d\\r\\n\\r\\n" % len(data) + data)
        sys.stdout.buffer.flush()

    def read_msg():
        length = None
        while True:
            line = sys.stdin.buffer.readline()
            if not line:
                return None
            line = line.strip()
            if not line:
                break
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":")[1])
        if length is None:
            return None
        return json.loads(sys.stdin.buffer.read(length))

    def uri(rel):
        return "file://" + os.path.join(os.getcwd(), rel)

    while True:
        msg = read_msg()
        if msg is None:
            break
        method = msg.get("method")
        if method:
            print(method, file=log)
        if method == "initialize":
            send({"jsonrpc": "2.0", "id": msg["id"],
                  "result": {"capabilities": {}}})
        elif method == "textDocument/definition":
            if msg["params"]["position"]["character"] == 98:
                send({"jsonrpc": "2.0", "id": msg["id"],
                      "error": {"code": -32600, "message": "boom"}})
                continue
            send({"jsonrpc": "2.0", "method": "window/logMessage",
                  "params": {"type": 3, "message": "noise"}})
            send({"jsonrpc": "2.0", "id": 999,
                  "method": "workspace/configuration",
                  "params": {"items": []}})
            send({"jsonrpc": "2.0", "id": msg["id"], "result": [
                {"uri": uri("src/buf.c"),
                 "range": {"start": {"line": 7, "character": 5},
                           "end": {"line": 7, "character": 14}}}]})
        elif method == "textDocument/references":
            ctx = msg["params"]["context"]
            print("includeDeclaration=%s" % ctx["includeDeclaration"],
                  file=log)
            send({"jsonrpc": "2.0", "id": msg["id"], "result": [
                {"uri": uri("src/main.c"),
                 "range": {"start": {"line": 13, "character": 4},
                           "end": {"line": 13, "character": 13}}},
                {"targetUri": uri("src/buf.c"),
                 "targetRange": {"start": {"line": 7, "character": 0},
                                 "end": {"line": 20, "character": 1}},
                 "targetSelectionRange": {
                     "start": {"line": 7, "character": 5},
                     "end": {"line": 7, "character": 14}}}]})
        elif method == "shutdown":
            send({"jsonrpc": "2.0", "id": msg["id"], "result": None})
        elif method == "exit":
            break
''')


@pytest.fixture
def fake_lsp(tmp_path):
    server = tmp_path / "server.py"
    server.write_text(_FAKE_SERVER)
    log = tmp_path / "wire.log"
    return [sys.executable, str(server), str(log)], log


def test_lsp_backend_definition_over_wire(crepo, fake_lsp):
    command, log = fake_lsp
    backend = LspBackend(crepo, command)
    try:
        locs = backend.definition("src/main.c", 14, 5)
    finally:
        backend.shutdown()
    assert [(l.file, l.line, l.col) for l in locs] == [("src/buf.c", 8, 6)]
    assert locs[0].preview == ("void copy_name(char *dst, size_t cap, "
                               "const char *src)")
    methods = log.read_text().splitlines()
    assert methods.index("initialize") < methods.index("initialized")
    assert methods.index("initialized") < methods.index(
        "textDocument/didOpen")
    assert methods.index("textDocument/didOpen") < methods.index(
        "textDocument/definition")
    # the exit notification races with process termination, so only the
    # acknowledged shutdown request is asserted
    assert "shutdown" in methods


def test_lsp_backend_references_mixes_location_shapes(crepo, fake_lsp):
    command, log = fake_lsp
    backend = LspBackend(crepo, command)
    try:
        locs = backend.references("src/main.c", 14, 5)
    finally:
        backend.shutdown()
    # Location and LocationLink payloads both map, sorted by position
    assert [(l.file, l.line, l.col) for l in locs] == [
        ("src/buf.c", 8, 6), ("src/main.c", 14, 5)]
    assert "includeDeclaration=True" in log.read_text()


def test_lsp_backend_error_response_raises(crepo, fake_lsp):
    command, _ = fake_lsp
    backend = LspBackend(crepo, command)
    try:
        with pytest.raises(BackendUnavailable, match="boom"):
            backend.definition("src/main.c", 14, 99)
    finally:
        backend.shutdown()


def test_make_backend_falls_back_when_server_missing(crepo):
    backend = make_symbol_backend(
        crepo, lsp_command=["/nonexistent/lang-server-binary"])
    assert isinstance(backend, IndexBackend)


def test_make_backend_default_is_index(crepo):
    assert isinstance(make_symbol_backend(crepo), IndexBackend)


def test_make_backend_prefers_running_server(crepo, fake_lsp):
    command, _ = fake_lsp
    backend = make_symbol_backend(crepo, lsp_command=command)
    try:
        assert isinstance(backend, LspBackend)
    finally:
        backend.shutdown()
