"""The C scanner: its lexing edge cases, and a differential check against
the character-at-a-time reference in cparse_reference."""

import random
import re

import cparse_reference as reference
import pytest
from conftest import CREPO
from hypothesis import given, settings
from hypothesis import strategies as st

from vulnmend.cparse import ElementKind, scan_elements, shadow_source
from vulnmend.repo_model import read_text, source_files

FIXTURE_SOURCES = source_files(CREPO)


def _assert_matches_reference(text: str) -> None:
    assert shadow_source(text) == reference.shadow_source(text)
    elements = scan_elements(text)
    assert elements == reference.scan_elements(text)
    # every name is a whole word of its element's lines, which is what
    # lets a repo-wide lookup skip files that lack the word
    for e in elements:
        first = text.rfind("\n", 0, e.start) + 1
        last = text.find("\n", max(e.end - 1, e.start))
        lines = text[first:] if last == -1 else text[first:last]
        assert e.name in re.findall(r"\w+", lines), (e, lines)


# -- lexing edge cases ----------------------------------------------------------


def test_unterminated_block_comment_blanks_to_eof_keeping_newlines():
    text = "int a;\n/* open\nint b;\nint c; *"
    shadow = shadow_source(text)
    assert len(shadow) == len(text)
    assert shadow == "int a;\n" + "       \n      \n        "
    assert [e.name for e in scan_elements(text)] == ["a"]


def test_slash_star_slash_does_not_close_a_block_comment():
    text = "/*/ int hidden; */ int seen;"
    assert shadow_source(text) == " " * 18 + " int seen;"
    assert [e.name for e in scan_elements(text)] == ["seen"]


def test_line_comment_continues_across_backslash_newline():
    text = "// note \\\nint hidden;\nint seen;\n"
    assert shadow_source(text) == " " * 9 + "\n" + " " * 11 + "\nint seen;\n"
    assert [e.name for e in scan_elements(text)] == ["seen"]


def test_string_literal_ends_at_a_raw_newline():
    text = 's = "open\nt = "x";\n'
    assert shadow_source(text) == 's = "    \nt = " ";\n'


def test_quote_in_character_literal_opens_no_string():
    text = "char q = '\"'; int seen;\n"
    assert shadow_source(text) == "char q = ' '; int seen;\n"
    assert [e.name for e in scan_elements(text)] == ["q", "seen"]


@pytest.mark.parametrize("text, shadow", [
    ('"\\', '" '), ("'\\", "' "), ("// \\", "    "), ("x = \\", "x = \\"),
    ("#define A \\", "#define A \\")])
def test_trailing_backslash_at_eof_does_not_raise(text, shadow):
    assert shadow_source(text) == shadow
    scan_elements(text)


def test_escaped_quote_stays_inside_the_string():
    text = 'const char *s = "a\\"{"; int seen;\n'
    assert [e.name for e in scan_elements(text)] == ["s", "seen"]


def test_directive_on_a_continued_line_is_a_macro_of_its_own():
    text = "#define A \\\n#define B 1\nint x;\n"
    elements = scan_elements(text)
    assert [(e.name, e.kind, e.start, e.end) for e in elements] == [
        ("A", ElementKind.MACRO, 0, 23), ("B", ElementKind.MACRO, 12, 23),
        ("x", ElementKind.GLOBAL_VARIABLE, 24, 30)]


@pytest.mark.parametrize("text, names", [
    ("int 1ffint;", []), ("a 0x10;", ["a"]), ("T x = 1ffint;", ["x"])])
def test_no_identifier_starts_inside_a_number(text, names):
    assert [e.name for e in scan_elements(text)] == names


@pytest.mark.parametrize("text, names", [
    ("int arr[N];", ["arr"]), ("int arr[0x10];", ["arr"]),
    ("long tab[3][0x4f];", ["tab"]), ("int a = 1, b[2u];", ["a", "b"]),
    ("int t[N] = {1, 2}, *u[] = {0};", ["t", "u"]),
    ("struct { int x; } arr[N];", ["arr"]),
    ("void (*handlers[N])(int);", ["handlers"]),
    ("static void (*handlers[])(int) = {f, g};", ["handlers"])])
def test_global_arrays_are_named_after_the_declarator(text, names):
    elements = scan_elements(text)
    assert [e.name for e in elements] == names
    assert {e.kind for e in elements} <= {ElementKind.GLOBAL_VARIABLE,
                                          ElementKind.STRUCT}


# -- differential check against the reference lexer ----------------------------


@pytest.mark.parametrize("rel", FIXTURE_SOURCES)
def test_fixture_sources_scan_as_the_reference_does(rel):
    _assert_matches_reference(read_text(CREPO / rel))


_WORD = re.compile(r"\b[A-Za-z_]\w*")
_KEEP = reference._KEYWORDS | {"include", "define", "ifdef", "ifndef",
                               "endif", "pragma", "defined", "NULL"}


def _renamed(text: str, tag: str) -> str:
    return _WORD.sub(lambda m: m.group() if m.group() in _KEEP
                     else f"{m.group()}_{tag}", text)


# inputs that reach the scanner's rarer branches
TRICKY = [
    "int a[(1)];", "int a), (b;", "int (*fp)(int), g;", "T x[] = {1, {2}};",
    "struct { int x; } s, t;", "typedef struct S { int x; } S_t;",
    "int N::M::f(int x) { return x; }", "namespace N { int f(); }",
    'extern "C" { int g(void); }', "class C { public: int m(int); };",
    "enum { A, B } e;", "int f(int x)\n{ { } }\nint g;", "int f(int x) {",
    "int a = (1, 2), b;", "#define A \\\n  B\nint x;", "} int y;",
    "int f) (;", '"a\\\nb" int z;', "'x' int c;", "/* a */ /**/ /***/ int d;",
    "int a;\n  #define A 1\n\t# if B\nint x;",
    "#define A \\ \t\nint x;\nint y;",
    "int 1x(int);", "int a; /* open\n", 'char *s = "a\\\n',
    "int 1ffint;", "a 0x10;", "int arr[N];", "int a = 1, b[2u];",
    "long tab[3][0x4f];", "int t[N] = {1}, *u[] = {0};",
    "struct { int x; } arr[N];", "void (*handlers[N])(int);",
    "int a = 1, (*h)(int);",
]


@pytest.mark.parametrize("text", TRICKY)
def test_tricky_inputs_scan_as_the_reference_does(text):
    _assert_matches_reference(text)


@pytest.mark.parametrize("seed", range(3))
def test_renamed_fixture_concatenations_scan_as_the_reference_does(seed):
    # the way the benchmark's seeded tree builds its files: shuffled
    # fixture sources, every non-keyword identifier suffixed per copy
    rng = random.Random(seed)
    sources = [read_text(CREPO / rel) for rel in FIXTURE_SOURCES]
    rng.shuffle(sources)
    text = "\n".join(_renamed(src, f"{rng.getrandbits(32):08x}")
                     for src in sources)
    _assert_matches_reference(text)


# code tokens, weighted over the characters that open a comment, a
# literal or a directive, since one of those can swallow the rest; the
# length is drawn first, as lists would otherwise stay short
_CODE = ["a", "f", "1", " ", "\t", "\n", "\r\n", "\f", "\v", "(", ")", "[",
         "]", "{", "}", ";", "=", ",", ":", "::", "*", "int ", "struct ",
         "class ", "namespace ", 'extern "C" ', "public:"]
_LEXICAL = ["/", "*", '"', "'", "\\", "#", "#define ", "//", "/*", "*/"]
C_LIKE = st.integers(0, 80).flatmap(lambda n: st.lists(
    st.sampled_from(_CODE * 3 + _LEXICAL), min_size=n, max_size=n)).map(
        "".join)


@settings(max_examples=500, deadline=None)
@given(C_LIKE)
def test_c_like_text_scans_as_the_reference_does(text):
    _assert_matches_reference(text)


@pytest.mark.parametrize("blank", ["\r\n", "\n\f\n", "\v\n"],
                         ids=["crlf", "form-feed", "vertical-tab"])
def test_every_c_whitespace_character_separates_tokens(blank):
    text = (f"int a;{blank}int S{blank}::{blank}f{blank}(int x){blank}"
            f"{{ return x; }}{blank}int (*fp){blank}(int);{blank}")
    elements = scan_elements(text)
    assert [(e.name, e.qualifier, e.kind) for e in elements] == [
        ("a", None, ElementKind.GLOBAL_VARIABLE),
        ("f", "S", ElementKind.FUNCTION),
        ("fp", None, ElementKind.GLOBAL_VARIABLE)]
    assert [e.start for e in elements] == [
        0, text.index("int S"), text.index("int (*fp)")]
