import hashlib
import math
import re

import numpy as np
import pytest
from conftest import ScriptedLLM
from hypothesis import given, settings
from hypothesis import strategies as st

from vulnmend.errors import JSONParseFailure
from vulnmend.llm import ChatResponse
from vulnmend.localization import (DEFAULT_CHUNK_LINES, HashingEmbedder,
                                   chunk_file, cosine, extract_json_array,
                                   ignore_folders, localize_elements,
                                   localize_files_prompt,
                                   localize_files_retrieval, merge_rankings)
from vulnmend.repo_model import RepoIndex, read_text, source_files


def _text(t):
    return ChatResponse(text=t)


def expected_chunk_count(line_count, chunk_lines=DEFAULT_CHUNK_LINES):
    return math.ceil(line_count / chunk_lines)


# -- chunking -------------------------------------------------------------------


@settings(max_examples=120)
@given(st.text(alphabet="ab\n", max_size=300),
       st.integers(min_value=1, max_value=7))
def test_chunk_concat_and_count_invariants(text, chunk_lines):
    chunks = chunk_file(text, chunk_lines)
    assert "".join(chunks) == text
    line_count = len(text.splitlines(keepends=True))
    assert len(chunks) == expected_chunk_count(line_count, chunk_lines)
    for chunk in chunks[:-1]:
        assert len(chunk.splitlines(keepends=True)) == chunk_lines


def test_chunk_lines_end_at_newline_only():
    text = "a\f\nb\rc\n\x85d\u2028e\nf"
    assert chunk_file(text, 2) == ["a\f\nb\rc\n", "\x85d\u2028e\nf"]


def test_chunk_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        chunk_file("x", 0)


def test_expected_chunk_count_pins():
    assert expected_chunk_count(0) == 0
    assert expected_chunk_count(1) == 1
    assert expected_chunk_count(512) == 1
    assert expected_chunk_count(513) == 2
    assert expected_chunk_count(1024) == 2
    assert expected_chunk_count(1025) == 3
    assert expected_chunk_count(100, chunk_lines=30) == math.ceil(100 / 30)


# -- embedding -------------------------------------------------------------------


def test_embed_matches_token_by_token_sha256(crepo):
    texts = ["copy_name writes past cap", "Copy_Name copy_name 42 cap cap",
             "", "caf\udce9 x",
             read_text(crepo / "njs" / "src" / "njs_array.c")]
    dim = 64
    expected = np.zeros((len(texts), dim))
    for i, text in enumerate(texts):
        for token in re.findall(r"[A-Za-z_]\w*|\d+", text.lower()):
            h = hashlib.sha256(
                token.encode("utf-8", "surrogateescape")).digest()
            expected[i, int.from_bytes(h[:4], "big") % dim] += \
                1.0 if h[4] & 1 else -1.0
        norm = np.linalg.norm(expected[i])
        if norm > 0:
            expected[i] /= norm
    assert np.array_equal(HashingEmbedder(dim).embed(texts), expected)


def test_embedder_deterministic_and_normalized():
    texts = ["copy_name writes past cap", "unrelated words entirely",
             "copy_name cap len dst"]
    embedder = HashingEmbedder()
    a = embedder.embed(texts)
    b = embedder.embed(texts)
    assert np.array_equal(a, b)
    assert a.shape == (3, 256)
    for row in a:
        assert abs(float(np.linalg.norm(row)) - 1.0) < 1e-12


def test_embedder_empty_text_is_zero_vector():
    row = HashingEmbedder().embed([""])[0]
    assert not row.any()


def test_embedder_case_insensitive_token_bag():
    embedder = HashingEmbedder()
    a = embedder.embed(["FOO bar FOO"])
    b = embedder.embed(["foo BAR foo"])
    assert np.array_equal(a, b)


def test_embedder_underscore_is_one_token():
    embedder = HashingEmbedder()
    joined = embedder.embed(["foo_bar"])[0]
    split = embedder.embed(["foo bar"])[0]
    assert not np.array_equal(joined, split)


def test_embedder_slot_matches_hash_oracle():
    dim = 64
    embedder = HashingEmbedder(dim=dim)
    for token in ("alpha", "len", "copy_name", "42"):
        h = hashlib.sha256(token.encode()).digest()
        idx = int.from_bytes(h[:4], "big") % dim
        sign = 1.0 if h[4] & 1 else -1.0
        row = embedder.embed([token])[0]
        expected = np.zeros(dim)
        expected[idx] = sign
        assert np.array_equal(row, expected), token


def test_embedder_rejects_bad_dim():
    with pytest.raises(ValueError):
        HashingEmbedder(dim=0)


def test_cosine_matches_pure_python_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=16)
        b = rng.normal(size=16)
        dot = sum(float(x) * float(y) for x, y in zip(a, b))
        na = math.sqrt(sum(float(x) ** 2 for x in a))
        nb = math.sqrt(sum(float(y) ** 2 for y in b))
        assert abs(cosine(a, b) - dot / (na * nb)) < 1e-12


def test_cosine_zero_vector_is_zero():
    z = np.zeros(4)
    v = np.ones(4)
    assert cosine(z, v) == 0.0
    assert cosine(v, z) == 0.0


# -- model output parsing -----------------------------------------------------------


def test_extract_json_array_from_prose():
    assert extract_json_array('Sure: ["a", "b"] as requested.') == ["a", "b"]
    assert extract_json_array("[1, [2, 3]]") == [1, [2, 3]]
    assert extract_json_array("broken [not json] then [3]") == [3]


def test_extract_json_array_rejects_non_arrays():
    with pytest.raises(JSONParseFailure):
        extract_json_array('{"a": 1}')
    with pytest.raises(JSONParseFailure):
        extract_json_array("no brackets at all")


# -- file localization ----------------------------------------------------------------


def test_prompt_route_filters_and_caps(crepo_index, issue_text):
    llm = ScriptedLLM([_text(
        '["./src/buf.c", "src/ghost.c", "src/buf.c", 7, '
        '"src/main.c", "src/buf.h"]')])
    files = localize_files_prompt(llm, crepo_index, issue_text, n=2)
    assert files == ["src/buf.c", "src/main.c"]
    request = llm.requests[0]
    assert request.tag == "localize_files"
    assert "Name up to 2 files." in request.messages[1]["content"]


def test_named_files_must_be_listed_in_the_tree(scratch_crepo, issue_text):
    # a dot directory is listed and kept; a path that climbs out of the
    # workspace names a real file but is never listed, so never read
    (scratch_crepo / ".ci").mkdir()
    (scratch_crepo / ".ci" / "probe.c").write_text(
        "int probe(int x) { return x + 1; }\n")
    (scratch_crepo.parent / "secret.c").write_text("int secret;\n")
    llm = ScriptedLLM([
        _text('[".ci/probe.c", "src/../../secret.c", "./src/buf.c"]'),
        _text('[{"file": ".ci/probe.c", "id": "probe"}]')])
    files = localize_files_prompt(llm, RepoIndex(scratch_crepo), issue_text,
                                  n=3)
    assert files == [".ci/probe.c", "src/buf.c"]
    result = localize_elements(llm, RepoIndex(scratch_crepo), files[:1],
                               issue_text)
    assert [(s.file, s.element.name) for s in result.selections] == [
        (".ci/probe.c", "probe")]


def test_prompt_route_tolerates_junk_reply(crepo_index, issue_text):
    assert localize_files_prompt(ScriptedLLM([_text("cannot help")]),
                                 crepo_index, issue_text, n=3) == []


def test_ignore_folders_normalizes_entries(crepo_index, issue_text):
    llm = ScriptedLLM([_text('["njs/", " cpp ", 42, ""]')])
    assert ignore_folders(llm, crepo_index, issue_text) == ["njs", "cpp"]
    assert llm.tags == ["ignore_folders"]


def test_ignore_folders_junk_means_no_pruning(crepo_index, issue_text):
    assert ignore_folders(ScriptedLLM([_text("n/a")]), crepo_index,
                          issue_text) == []


def test_retrieval_ranking_matches_brute_force_oracle(crepo, crepo_index,
                                                     issue_text):
    llm = ScriptedLLM([_text('["njs", "cpp"]')])
    ranked = localize_files_retrieval(llm, crepo_index, issue_text, n=3)
    assert ranked == ["src/buf.c", "src/main.c", "src/buf.h"]

    embedder = HashingEmbedder()
    issue_vec = embedder.embed([issue_text])[0]
    best = {}
    for rel in source_files(crepo):
        if rel.startswith(("njs/", "cpp/")):
            continue
        for chunk in chunk_file(read_text(crepo / rel)):
            sim = cosine(embedder.embed([chunk])[0], issue_vec)
            best[rel] = max(best.get(rel, -2.0), sim)
    oracle = sorted(best, key=lambda rel: (-best[rel], rel))[:3]
    assert ranked == oracle


def test_retrieval_tie_breaks_lexicographically(tmp_path):
    content = "int shared_token_soup(void) { return 1; }\n"
    for name in ("zz.c", "aa.c", "mm.c"):
        (tmp_path / name).write_text(content)
    llm = ScriptedLLM([_text("[]")])
    ranked = localize_files_retrieval(llm, RepoIndex(tmp_path),
                                      "shared_token_soup crash", n=3)
    assert ranked == ["aa.c", "mm.c", "zz.c"]


def test_retrieval_respects_ignored_folders(crepo_index, issue_text):
    llm = ScriptedLLM([_text('["njs", "cpp", "src"]')])
    ranked = localize_files_retrieval(llm, crepo_index, issue_text, n=5)
    assert ranked == []


def test_merge_rankings_prompt_first():
    assert merge_rankings(["a", "b"], ["b", "c", "d"], 3) == ["a", "b", "c"]
    assert merge_rankings(["a", "a"], ["b"], 5) == ["a", "b"]
    assert merge_rankings([], ["x", "y"], 1) == ["x"]
    assert merge_rankings(["p"], [], 4) == ["p"]


# -- element localization -----------------------------------------------------------


def test_localize_elements_filters_and_dedupes(crepo_index, issue_text):
    llm = ScriptedLLM([_text(
        '[{"file": "src/buf.c", "id": "copy_name"},'
        ' {"file": "./src/buf.c", "id": "copy_name"},'
        ' {"file": "src/main.c", "id": "main"},'
        ' {"file": "src/buf.c", "id": "ghost_function"},'
        ' "not an object",'
        ' {"file": "src/buf.c", "id": "slot_used"}]')])
    result = localize_elements(llm, crepo_index, ["src/buf.c"], issue_text)
    assert result.parse_ok is True
    picks = [(s.file, s.element.name) for s in result.selections]
    assert picks == [("src/buf.c", "copy_name"), ("src/buf.c", "slot_used")]
    assert result.selections[0].element.start_line == 8


def test_localize_elements_sends_skeletons(crepo_index, issue_text):
    llm = ScriptedLLM([_text('[{"file": "src/buf.c", "id": "copy_name"}]')])
    localize_elements(llm, crepo_index, ["src/buf.c", "src/main.c"],
                      issue_text)
    user = llm.requests[0].messages[1]["content"]
    assert "## src/buf.c" in user
    assert "## src/main.c" in user
    assert "{ ... }" in user
    assert "g_count++;" not in user


def test_localize_elements_respects_limit(crepo_index, issue_text):
    llm = ScriptedLLM([_text(
        '[{"file": "src/buf.c", "id": "copy_name"},'
        ' {"file": "src/buf.c", "id": "slot_used"}]')])
    result = localize_elements(llm, crepo_index, ["src/buf.c"], issue_text,
                               limit=1)
    assert len(result.selections) == 1


def test_localize_elements_qualified_names(crepo_index, issue_text):
    llm = ScriptedLLM([_text('[{"file": "cpp/fileio.cpp",'
                             ' "id": "File::open"}]')])
    result = localize_elements(llm, crepo_index, ["cpp/fileio.cpp"],
                               issue_text)
    assert len(result.selections) == 1
    assert result.selections[0].element.qualified_name == "File::open"


def test_localize_elements_reask_recovers(crepo_index, issue_text):
    llm = ScriptedLLM([
        _text("I think copy_name is the problem."),
        _text('[{"file": "src/buf.c", "id": "copy_name"}]'),
    ])
    result = localize_elements(llm, crepo_index, ["src/buf.c"], issue_text)
    assert result.parse_ok is True
    assert len(result.selections) == 1
    assert llm.tags == ["localize_elements", "localize_elements"]
    retry = llm.requests[1].messages[1]["content"]
    assert "was not a JSON array" in retry


def test_localize_elements_double_failure(crepo_index, issue_text):
    llm = ScriptedLLM([_text("junk"), _text("more junk")])
    result = localize_elements(llm, crepo_index, ["src/buf.c"], issue_text)
    assert result.parse_ok is False
    assert result.selections == ()
