import shutil
import time

import pytest
from conftest import ScriptedLLM, read_texts, snapshot
from hypothesis import given, settings
from hypothesis import strategies as st
from replay_scripts import (COMMENT_ONLY_PATCH, COMMENTED_FIX, REFERENCE_FIX,
                            UNMATCHED_PATCH)

import vulnmend.execution as execution
from vulnmend.edit_engine import (EditHistory, apply_edits_to_text,
                                  parse_edit_blocks)
from vulnmend.execution import LocalSandbox, PristineCopy
from vulnmend.llm import ChatResponse
from vulnmend.localization import ElementSelection
from vulnmend.repair import (CandidateBatch, CandidateOutcome, CandidatePatch,
                             PatchContext, build_patch_context,
                             generate_patches,
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


def test_context_windows_merge_and_clamp(crepo, crepo_index):
    copy_name = _element(crepo, "src/buf.c", "copy_name")
    slot_used = _element(crepo, "src/buf.c", "slot_used")
    selections = [ElementSelection("src/buf.c", copy_name),
                  ElementSelection("src/buf.c", slot_used)]
    file_lines = len(read_text(crepo / "src/buf.c").splitlines())

    merged = build_patch_context(crepo_index, selections, margin=10)
    assert len(merged.windows) == 1
    window = merged.windows[0]
    assert window.start_line == 1
    assert window.end_line == file_lines
    assert window.text == read_text(crepo / "src/buf.c")

    split = build_patch_context(crepo_index, selections, margin=0)
    assert [(w.start_line, w.end_line) for w in split.windows] == [
        (copy_name.start_line, copy_name.end_line),
        (slot_used.start_line, slot_used.end_line)]


def test_context_window_text_matches_span(crepo, crepo_index):
    element = _element(crepo, "src/buf.c", "copy_name")
    context = build_patch_context(
        crepo_index, [ElementSelection("src/buf.c", element)], margin=2)
    window = context.windows[0]
    lines = read_text(crepo / "src/buf.c").splitlines(keepends=True)
    assert window.text == "".join(
        lines[window.start_line - 1:window.end_line])
    assert "void copy_name" in window.text


def test_whole_files_fill_in(crepo, crepo_index):
    element = _element(crepo, "src/buf.c", "copy_name")
    context = build_patch_context(
        crepo_index, [ElementSelection("src/buf.c", element)],
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


def test_context_render_shape(crepo, crepo_index):
    element = _element(crepo, "src/buf.c", "copy_name")
    rendered = build_patch_context(
        crepo_index, [ElementSelection("src/buf.c", element)],
        margin=0).render()
    assert rendered.startswith(
        f"## src/buf.c (lines {element.start_line}-{element.end_line})\n```")
    assert rendered.rstrip().endswith("```")


# -- generation -------------------------------------------------------------------


def test_temperature_schedule():
    assert temperature_schedule(0) == ()
    assert temperature_schedule(1) == (0.0,)
    assert temperature_schedule(5) == (0.0, 1.0, 1.0, 1.0, 1.0)


def test_generate_patches_parses_and_records(crepo, crepo_index, issue_text):
    element = _element(crepo, "src/buf.c", "copy_name")
    context = build_patch_context(
        crepo_index, [ElementSelection("src/buf.c", element)])
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
    fp_plain = patch_fingerprint(read_texts(scratch_crepo, "src/buf.c"))
    history.rollback_all()

    history.apply_edits("commented", COMMENTED_FIX)
    fp_commented = patch_fingerprint(read_texts(scratch_crepo, "src/buf.c"))
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
    fp_other = patch_fingerprint(read_texts(scratch_crepo, "src/buf.c"))
    assert fp_other != fp_plain


# pairs of different programs that a normal form blind to literals,
# line splices, raw strings or what counts as a line break would merge
_DISTINCT_PROGRAMS = {
    "slashes-in-string": ('log("see http://x"); return len - 1;\n',
                          'log("see http://x"); return len;\n'),
    "spaces-in-string": ('const char *s = "a  b";\n',
                         'const char *s = "a b";\n'),
    "comment-in-string": ('const char *s = "/* x */";\n',
                          'const char *s = " ";\n'),
    "continued-macro": ("#define A 1 \\\n\nint x;\n",
                        "#define A 1 \\\nint x;\n"),
    "not-a-line-break": ("int a;\x85int b;\n", "int a;\nint b;\n"),
    "raw-string": ('auto s = R"x(a " /* b */ )x";\n',
                   'auto s = R"x(a " )x";\n'),
}


@pytest.mark.parametrize("one, two", _DISTINCT_PROGRAMS.values(),
                         ids=_DISTINCT_PROGRAMS.keys())
def test_different_programs_get_different_fingerprints(tmp_path, one, two):
    fingerprints = set()
    for side, text in (("one", one), ("two", two)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "x.c").write_text(text, newline="")
        fingerprints.add(patch_fingerprint(read_texts(tmp_path / side,
                                                      "x.c")))
    assert len(fingerprints) == 2


def test_normalize_treats_comments_as_spaces_and_keeps_literals():
    assert normalize_source("a/**/b;\r\n\n  c // d\n") == "a b;\nc\n"
    assert (normalize_source('  f( "x  y" ,\t\'/\' ) ;  ')
            == 'f( "x  y" , \'/\' ) ;\n')
    # a comment that spans lines is one space, so the directive goes on
    assert normalize_source("#define A 1 /*\n*/ 2\n") == "#define A 1 2\n"
    # an unterminated literal keeps its trailing blanks
    assert normalize_source("char c = '  \n") == "char c = '  \n"


def test_fingerprint_takes_files_other_than_c_as_they_are(tmp_path):
    # a recipe line needs its tab and "//" starts no comment in a script
    pairs = {"Makefile": ("all:\n\tcc x.c\n", "all:\n    cc x.c\n"),
             "fetch.sh": ("curl http://a/x\n", "curl http://b/x\n")}
    for rel, (one, two) in pairs.items():
        (tmp_path / rel).write_text(one)
        first = patch_fingerprint(read_texts(tmp_path, rel))
        (tmp_path / rel).write_text(two)
        assert patch_fingerprint(read_texts(tmp_path, rel)) != first, rel


def test_fingerprint_binds_path_and_sorts_file_set(tmp_path):
    (tmp_path / "a.c").write_text("int v;\n")
    (tmp_path / "b.c").write_text("int v;\n")
    assert (patch_fingerprint(read_texts(tmp_path, "a.c"))
            != patch_fingerprint(read_texts(tmp_path, "b.c")))
    assert (patch_fingerprint(read_texts(tmp_path, "a.c", "b.c"))
            == patch_fingerprint(read_texts(tmp_path, "b.c", "a.c", "a.c")))


# -- validation ------------------------------------------------------------------


@needs_gcc
def test_validate_candidate_poc_verdicts(scratch_crepo):
    before = snapshot(scratch_crepo)

    pristine = PristineCopy(scratch_crepo, "sh secb.sh")
    fixed = validate_candidate(_candidate(0, REFERENCE_FIX), pristine)
    assert fixed.applied and fixed.compiled and fixed.poc_pass
    assert fixed.sanitizer_triggered is False
    assert fixed.fingerprint
    assert "len = cap - 1;" in fixed.diff
    assert fixed.diff.startswith("diff --git")
    assert snapshot(scratch_crepo, before.files) == before

    cosmetic = validate_candidate(_candidate(1, COMMENT_ONLY_PATCH),
                                  pristine)
    assert cosmetic.applied and cosmetic.compiled
    assert cosmetic.sanitizer_triggered is True
    assert cosmetic.poc_pass is False
    assert snapshot(scratch_crepo, before.files) == before


# a PoC that passes only on the fixed clamp, with no compiler needed
_GREP_POC = ("grep -q 'len >= cap' src/buf.c || { echo '==9==ERROR: "
             "AddressSanitizer: stack-buffer-overflow' >&2; exit 1; }")


def test_validation_runs_the_poc_once_per_fingerprint(scratch_crepo,
                                                      monkeypatch):
    execs = []
    exec_ = LocalSandbox.exec
    monkeypatch.setattr(LocalSandbox, "exec", lambda self, command, **kw: (
        execs.append(command) or exec_(self, command, **kw)))
    pristine = PristineCopy(scratch_crepo, _GREP_POC)
    batch = CandidateBatch((_candidate(0, REFERENCE_FIX),
                            _candidate(1, COMMENTED_FIX),
                            _candidate(2, COMMENT_ONLY_PATCH)))

    first, *rest = batch.candidates
    fixed = validate_candidate(first, pristine, batch)
    # the first call judged the batch: two programs, one run each
    assert len(execs) == 2
    commented, cosmetic = (validate_candidate(c, pristine, batch)
                           for c in rest)
    assert len(execs) == 2
    assert commented.fingerprint == fixed.fingerprint != cosmetic.fingerprint
    assert (commented.compiled, commented.sanitizer_triggered,
            commented.poc_pass) == (fixed.compiled, fixed.sanitizer_triggered,
                                    fixed.poc_pass) == (True, False, True)
    assert (fixed.poc_run_of, commented.poc_run_of) == (None, 0)
    assert "/* leave room for the terminator */" in commented.diff
    assert cosmetic.poc_run_of is None
    assert cosmetic.sanitizer_triggered and not cosmetic.poc_pass


def test_validate_candidate_unmatched_search(scratch_crepo):
    before = snapshot(scratch_crepo)
    outcome = validate_candidate(_candidate(2, UNMATCHED_PATCH),
                                 PristineCopy(scratch_crepo, "true"))
    assert outcome.applied is False
    assert outcome.failure.startswith("SearchTextNotFound")
    assert snapshot(scratch_crepo) == before


def test_validate_candidate_parse_error_short_circuits(scratch_crepo):
    candidate = CandidatePatch(index=3, temperature=1.0, raw_text="junk",
                               edits=(), parse_error="no edit blocks found")
    outcome = validate_candidate(candidate,
                                 PristineCopy(scratch_crepo, "true"))
    assert outcome.applied is False
    assert outcome.failure == "no edit blocks found"


# -- pooled validation -------------------------------------------------------------


def _clamp_fix(keep):
    """A fix that passes _GREP_POC and differs for each keep."""
    return REFERENCE_FIX.replace("cap - 1;", f"cap - {keep};")


# programs: 0 (passes), 1 (fails), 0 again, none, 4 (passes), none,
# 6 (fails)
_BATCH = (
    _candidate(0, REFERENCE_FIX),
    _candidate(1, COMMENT_ONLY_PATCH),
    _candidate(2, COMMENTED_FIX),
    _candidate(3, UNMATCHED_PATCH),
    _candidate(4, _clamp_fix(2)),
    CandidatePatch(index=5, temperature=1.0, raw_text="junk", edits=(),
                   parse_error="no edit blocks found"),
    _candidate(6, REFERENCE_FIX.replace("len >= cap", "len > cap - 1")),
)


def _validate_batch(root, candidates, poc=_GREP_POC):
    pristine, batch = PristineCopy(root, poc), CandidateBatch(candidates)
    return [validate_candidate(c, pristine, batch) for c in candidates]


def _pin_workers(monkeypatch, workers):
    monkeypatch.setattr(execution, "usable_cpus", lambda: workers)


# passes only where no earlier run has left its mark: a PoC that a
# reused copy would judge by what ran in it before
_STATEFUL_POC = f"test ! -e .stale && touch .stale && {_GREP_POC}"


@pytest.mark.parametrize("poc", [_GREP_POC, _STATEFUL_POC],
                         ids=["grep", "stateful"])
def test_pooled_validation_matches_one_worker(scratch_crepo, monkeypatch,
                                              poc):
    outcomes = {}
    for workers in (1, 3):
        _pin_workers(monkeypatch, workers)
        outcomes[workers] = _validate_batch(scratch_crepo, _BATCH, poc)
    assert outcomes[1] == outcomes[3]
    assert [(o.applied, o.poc_pass, o.poc_run_of) for o in outcomes[1]] == [
        (True, True, None), (True, False, None), (True, True, 0),
        (False, False, None), (True, True, None), (False, False, None),
        (True, False, None)]


def test_pooled_validation_credits_the_lowest_index(scratch_crepo,
                                                     monkeypatch):
    _pin_workers(monkeypatch, 2)
    finished = []
    judge = PristineCopy.judge

    def slow_first(self, diff, name):
        if name == "validate-0":
            time.sleep(0.5)
        verdict = judge(self, diff, name)
        finished.append(name)
        return verdict

    monkeypatch.setattr(PristineCopy, "judge", slow_first)
    outcomes = _validate_batch(scratch_crepo, _BATCH[:3])
    # program 1 was judged first, on the other worker
    assert finished == ["validate-1", "validate-0"]
    assert [o.poc_run_of for o in outcomes] == [None, None, 0]


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
