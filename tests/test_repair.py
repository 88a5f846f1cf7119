import shutil

import pytest
from conftest import ScriptedLLM, snapshot
from hypothesis import given, settings
from hypothesis import strategies as st
from replay_scripts import (COMMENT_ONLY_PATCH, COMMENTED_FIX, REFERENCE_FIX,
                            UNMATCHED_PATCH)

from vulnmend.edit_engine import (EditHistory, apply_edits_to_text,
                                  parse_edit_blocks)
from vulnmend.execution import LocalSandbox, PocRunner
from vulnmend.llm import ChatResponse
from vulnmend.localization import ElementSelection
from vulnmend.repair import (CandidateOutcome, CandidatePatch, PatchContext,
                             build_patch_context, generate_patches,
                             normalize_source, patch_fingerprint,
                             select_patch, temperature_schedule,
                             validate_candidate, _merge_ranges)
from vulnmend.repo_model import RepoIndex, read_text

needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None,
                               reason="no C compiler on this machine")


def _element(crepo, rel, name):
    for e in RepoIndex(crepo).elements(rel):
        if e.name == name:
            return e
    raise AssertionError(f"{name} not found in {rel}")


def _candidate(index, text):
    return CandidatePatch(index=index, temperature=0.0, raw_text=text,
                          edits=tuple(parse_edit_blocks(text)))


# -- context windows -----------------------------------------------------------


def test_merge_ranges_semantics():
    assert _merge_ranges([(1, 5), (6, 10)]) == [(1, 10)]
    assert _merge_ranges([(1, 5), (7, 10)]) == [(1, 5), (7, 10)]
    assert _merge_ranges([(7, 10), (1, 5)]) == [(1, 5), (7, 10)]
    assert _merge_ranges([(1, 20), (5, 10)]) == [(1, 20)]
    assert _merge_ranges([(3, 4), (4, 6), (8, 9)]) == [(3, 6), (8, 9)]
    assert _merge_ranges([]) == []


def test_context_windows_merge_and_clamp(crepo):
    copy_name = _element(crepo, "src/buf.c", "copy_name")
    slot_used = _element(crepo, "src/buf.c", "slot_used")
    selections = [ElementSelection("src/buf.c", copy_name),
                  ElementSelection("src/buf.c", slot_used)]
    file_lines = len(read_text(crepo / "src/buf.c").splitlines())

    merged = build_patch_context(crepo, selections, margin=10)
    assert len(merged.windows) == 1
    window = merged.windows[0]
    assert window.start_line == 1
    assert window.end_line == file_lines
    assert window.text == read_text(crepo / "src/buf.c")

    split = build_patch_context(crepo, selections, margin=0)
    assert [(w.start_line, w.end_line) for w in split.windows] == [
        (copy_name.start_line, copy_name.end_line),
        (slot_used.start_line, slot_used.end_line)]


def test_context_window_text_matches_span(crepo):
    element = _element(crepo, "src/buf.c", "copy_name")
    context = build_patch_context(
        crepo, [ElementSelection("src/buf.c", element)], margin=2)
    window = context.windows[0]
    lines = read_text(crepo / "src/buf.c").splitlines(keepends=True)
    assert window.text == "".join(
        lines[window.start_line - 1:window.end_line])
    assert "void copy_name" in window.text


def test_whole_files_fill_in(crepo):
    element = _element(crepo, "src/buf.c", "copy_name")
    context = build_patch_context(
        crepo, [ElementSelection("src/buf.c", element)],
        whole_files=["src/buf.c", "src/main.c"], margin=5)
    by_file = {}
    for w in context.windows:
        by_file.setdefault(w.file, []).append(w)
    # already-selected file keeps its focused window, no duplicate
    assert len(by_file["src/buf.c"]) == 1
    assert by_file["src/buf.c"][0].start_line == element.start_line - 5
    main = by_file["src/main.c"][0]
    assert main.start_line == 1
    assert main.text == read_text(crepo / "src/main.c")


def test_context_render_shape(crepo):
    element = _element(crepo, "src/buf.c", "copy_name")
    rendered = build_patch_context(
        crepo, [ElementSelection("src/buf.c", element)], margin=0).render()
    assert rendered.startswith(
        f"## src/buf.c (lines {element.start_line}-{element.end_line})\n```")
    assert rendered.rstrip().endswith("```")


# -- generation -------------------------------------------------------------------


def test_temperature_schedule():
    assert temperature_schedule(0) == ()
    assert temperature_schedule(1) == (0.0,)
    assert temperature_schedule(5) == (0.0, 1.0, 1.0, 1.0, 1.0)


def test_generate_patches_parses_and_records(crepo, issue_text):
    element = _element(crepo, "src/buf.c", "copy_name")
    context = build_patch_context(
        crepo, [ElementSelection("src/buf.c", element)])
    llm = ScriptedLLM([
        ChatResponse(text=REFERENCE_FIX),
        ChatResponse(text="### src/buf.c\n<<<<<<< SEARCH\nno divider\n"
                          ">>>>>>> REPLACE\n",
                     more_texts=("I cannot produce a patch.",)),
    ])
    candidates = generate_patches(llm, issue_text, context, t=3)
    assert [c.index for c in candidates] == [0, 1, 2]
    assert [c.temperature for c in candidates] == [0.0, 1.0, 1.0]
    assert [(r.temperature, r.n) for r in llm.requests] == [(0.0, 1),
                                                             (1.0, 2)]
    assert llm.tags == ["generate"] * 2

    good, malformed, empty = candidates
    assert good.parse_error is None
    assert len(good.edits) == 1
    assert good.edits[0].file == "src/buf.c"
    assert malformed.edits == ()
    assert "offset" in malformed.parse_error
    assert empty.parse_error == "no edit blocks found"

    user = llm.requests[0].messages[1]["content"]
    assert issue_text.strip() in user
    assert "## src/buf.c" in user
    assert "SEARCH/REPLACE" in llm.requests[0].messages[0]["content"]


def test_generate_patches_asks_once_per_temperature():
    # the four diverse samples share one prompt and one temperature, so
    # they are one request for four choices, not four requests
    texts = [f"sample {k}" for k in range(5)]
    llm = ScriptedLLM([
        ChatResponse(text=texts[0]),
        ChatResponse(text=texts[1], more_texts=tuple(texts[2:])),
    ])
    candidates = generate_patches(llm, "crash", PatchContext(windows=()),
                                  t=5)
    assert [(r.temperature, r.n) for r in llm.requests] == [(0.0, 1),
                                                             (1.0, 4)]
    assert llm.requests[0].messages == llm.requests[1].messages
    assert [c.index for c in candidates] == [0, 1, 2, 3, 4]
    assert [c.temperature for c in candidates] == list(
        temperature_schedule(5))
    assert [c.raw_text for c in candidates] == texts


# -- normalization and fingerprints --------------------------------------------------


def test_normalize_source_pins():
    text = ("int x = 1; /* trailing */\n"
            "\n"
            "// a line comment\n"
            "int   y\t=  2;\n"
            "/* multi\n   line */ int z;\n")
    assert normalize_source(text) == "int x = 1;\nint y = 2;\nint z;\n"


def test_normalize_equates_comment_variants(crepo):
    original = read_text(crepo / "src/buf.c")
    plain = apply_edits_to_text(original,
                                parse_edit_blocks(REFERENCE_FIX))
    commented = apply_edits_to_text(original,
                                    parse_edit_blocks(COMMENTED_FIX))
    assert plain != commented
    assert normalize_source(plain) == normalize_source(commented)
    # a real semantic change does not normalize away
    assert normalize_source(plain) != normalize_source(original)


def test_fingerprint_ignores_comment_differences(scratch_crepo):
    history = EditHistory(scratch_crepo)

    history.apply_edits("plain", REFERENCE_FIX)
    fp_plain = patch_fingerprint(scratch_crepo, ["src/buf.c"])
    history.rollback_all()

    history.apply_edits("commented", COMMENTED_FIX)
    fp_commented = patch_fingerprint(scratch_crepo, ["src/buf.c"])
    history.rollback_all()

    assert fp_plain == fp_commented

    history.apply_edits("different", """### src/buf.c
<<<<<<< SEARCH
    if (len > cap) {
        len = cap;
    }
=======
    if (len + 1 > cap) {
        len = cap - 1;
    }
>>>>>>> REPLACE
""")
    fp_other = patch_fingerprint(scratch_crepo, ["src/buf.c"])
    assert fp_other != fp_plain


def test_fingerprint_binds_path_and_sorts_file_set(tmp_path):
    (tmp_path / "a.c").write_text("int v;\n")
    (tmp_path / "b.c").write_text("int v;\n")
    assert (patch_fingerprint(tmp_path, ["a.c"])
            != patch_fingerprint(tmp_path, ["b.c"]))
    assert (patch_fingerprint(tmp_path, ["a.c", "b.c"])
            == patch_fingerprint(tmp_path, ["b.c", "a.c", "a.c"]))


# -- validation ------------------------------------------------------------------


@needs_gcc
def test_validate_candidate_poc_verdicts(scratch_crepo):
    history = EditHistory(scratch_crepo)
    runner = PocRunner(LocalSandbox(scratch_crepo), "sh secb.sh")
    before = snapshot(scratch_crepo)

    fixed = validate_candidate(_candidate(0, REFERENCE_FIX), history,
                               runner, scratch_crepo)
    assert fixed.applied and fixed.compiled and fixed.poc_pass
    assert fixed.sanitizer_triggered is False
    assert fixed.fingerprint
    assert "len = cap - 1;" in fixed.diff
    assert fixed.diff.startswith("diff --git")
    assert snapshot(scratch_crepo, before.files) == before

    cosmetic = validate_candidate(_candidate(1, COMMENT_ONLY_PATCH),
                                  history, runner, scratch_crepo)
    assert cosmetic.applied and cosmetic.compiled
    assert cosmetic.sanitizer_triggered is True
    assert cosmetic.poc_pass is False
    assert snapshot(scratch_crepo, before.files) == before


def test_validate_candidate_unmatched_search(scratch_crepo):
    history = EditHistory(scratch_crepo)
    runner = PocRunner(LocalSandbox(scratch_crepo), "true")
    outcome = validate_candidate(_candidate(2, UNMATCHED_PATCH), history,
                                 runner, scratch_crepo)
    assert outcome.applied is False
    assert outcome.failure.startswith("SearchTextNotFound")
    assert history.history_view().count == 0


def test_validate_candidate_parse_error_short_circuits(scratch_crepo):
    candidate = CandidatePatch(index=3, temperature=1.0, raw_text="junk",
                               edits=(), parse_error="no edit blocks found")
    outcome = validate_candidate(
        candidate, EditHistory(scratch_crepo),
        PocRunner(LocalSandbox(scratch_crepo), "true"), scratch_crepo)
    assert outcome.applied is False
    assert outcome.failure == "no edit blocks found"


# -- selection -------------------------------------------------------------------


def _outcome(index, applied=True, poc_pass=True, fingerprint="fp"):
    return CandidateOutcome(index=index, applied=applied,
                            compiled=applied, poc_pass=poc_pass,
                            fingerprint=fingerprint if applied else None)


def test_select_majority_wins():
    outcomes = [_outcome(0, fingerprint="A"),
                _outcome(1, fingerprint="B"),
                _outcome(2, fingerprint="B")]
    selection = select_patch(outcomes, "poc_voting")
    assert selection.winner == 1
    assert selection.pool == (0, 1, 2)
    assert selection.group_sizes == {"A": 1, "B": 2}
    assert "2 of 3" in selection.reason


def test_select_tie_goes_to_lowest_index_group():
    outcomes = [_outcome(0, fingerprint="A"), _outcome(1, fingerprint="B")]
    assert select_patch(outcomes, "poc_voting").winner == 0


def test_select_poc_gate_vs_simple_voting():
    outcomes = [_outcome(0, poc_pass=False, fingerprint="A"),
                _outcome(1, poc_pass=True, fingerprint="B")]
    assert select_patch(outcomes, "poc_voting").winner == 1
    assert select_patch(outcomes, "poc_voting").pool == (1,)
    simple = select_patch(outcomes, "simple_voting")
    assert simple.winner == 0
    assert simple.pool == (0, 1)


def test_select_empty_pool():
    outcomes = [_outcome(0, applied=False),
                _outcome(1, poc_pass=False)]
    selection = select_patch(outcomes, "poc_voting")
    assert selection.winner is None
    assert selection.pool == ()
    assert selection.reason == "no eligible candidates"


def test_select_unknown_strategy():
    with pytest.raises(ValueError):
        select_patch([], "coin_flip")


def _oracle_winner(outcomes, strategy):
    """Brute force over candidates: the lowest-indexed member of any
    maximally-voted fingerprint group."""
    if strategy == "poc_voting":
        pool = [o for o in outcomes
                if o.applied and o.poc_pass and o.fingerprint]
    else:
        pool = [o for o in outcomes if o.applied and o.fingerprint]
    if not pool:
        return None
    votes = {o.index: sum(1 for p in pool
                          if p.fingerprint == o.fingerprint)
             for o in pool}
    top = max(votes.values())
    return min(i for i, v in votes.items() if v == top)


@settings(max_examples=300)
@given(st.lists(
    st.tuples(st.booleans(), st.booleans(),
              st.sampled_from(["X", "Y", "Z"])),
    max_size=5),
    st.sampled_from(["poc_voting", "simple_voting"]))
def test_select_matches_exhaustive_oracle(shape, strategy):
    outcomes = [
        CandidateOutcome(index=i, applied=applied, compiled=applied,
                         poc_pass=applied and poc_pass,
                         fingerprint=fp if applied else None)
        for i, (applied, poc_pass, fp) in enumerate(shape)]
    selection = select_patch(outcomes, strategy)
    assert selection.winner == _oracle_winner(outcomes, strategy)
    assert sum(selection.group_sizes.values()) == len(selection.pool)
    if selection.winner is not None:
        assert selection.winner in selection.pool
