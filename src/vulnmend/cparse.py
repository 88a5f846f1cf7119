"""Lexical scanning of C/C++ sources into top-level elements.

This is deliberately not a real compiler front end. It blanks comments,
string literals and preprocessor regions so that brace matching is
reliable, then walks the file as a sequence of top-level "units"
(declaration or definition) and classifies each one. A region that
defeats the heuristics is skipped; it never fails the whole file.

Every pass is driven by a compiled pattern that jumps straight to the
next character the pass cares about: the start of a comment or literal
when blanking, a bracket, '=', ';' or '{' when cutting units, a brace
when matching a body. The runs of characters in between are left to the
regex engine and never visited one at a time in Python.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class ElementKind(str, Enum):
    CLASS = "Class"
    STRUCT = "Struct"
    UNION = "Union"
    ENUM = "Enum"
    FUNCTION = "Function"
    MACRO = "Macro"
    GLOBAL_VARIABLE = "GlobalVariable"


@dataclass(frozen=True)
class RawElement:
    """Element located by the scanner, in character-offset coordinates."""

    name: str
    qualifier: str | None
    kind: ElementKind
    start: int
    end: int  # exclusive char offset
    body: tuple[int, int] | None = None  # offsets of '{' and matching '}'


# an identifier never starts inside a longer word: `1ffint` and `0x10`
# hold none, so every name the scanner reports is a whole word of its text
_IDENT = re.compile(r"(?<!\w)[A-Za-z_]\w*")

# Identifiers that can never be an element name.
_KEYWORDS = frozenset("""
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    bool class namespace template using public private protected virtual
    friend operator new delete this catch try throw noexcept constexpr
    decltype mutable explicit typename export static_assert alignas alignof
    thread_local char16_t char32_t wchar_t true false nullptr override final
    _Bool _Atomic _Static_assert
""".split())

_TYPE_KEYWORDS = {
    "struct": ElementKind.STRUCT,
    "class": ElementKind.CLASS,
    "union": ElementKind.UNION,
    "enum": ElementKind.ENUM,
}

# C's whitespace; every skip over blanks between tokens uses this set
_SPACE = " \t\n\r\f\v"

_TRANSPARENT_HEAD = re.compile(
    r"(inline\s+)?namespace(\s+[A-Za-z_]\w*(::[A-Za-z_]\w*)*)?\s*$"
    r'|extern\s*"[^"]*"\s*$')


# One lexeme that shadow_source blanks: a line comment (a
# backslash-newline continues it), a block comment (to EOF when
# unterminated; `/*/` does not close), or a string or character literal
# (an escape takes the next character, a raw newline ends it). A literal
# keeps its quotes, so only its group is blanked. No branch may start
# with a group: a leading literal character lets the engine skip to the
# next '/', '"' or "'" without trying every position.
_LEXEME = re.compile(r"""
      //[^\n\\]*(?:\\\n?[^\n\\]*)*
    | /\*[^*]*(?:\*+(?!/)[^*]*)*(?:\*/)?
    | "([^"\\\n]*(?:\\.?[^"\\\n]*)*)"?
    | '([^'\\\n]*(?:\\.?[^'\\\n]*)*)'?
""", re.VERBOSE | re.DOTALL)


def _blank(text: str) -> str:
    """Spaces of the same length as text, with its newlines kept."""
    if "\n" not in text:
        return " " * len(text)
    return "\n".join(" " * len(line) for line in text.split("\n"))


def shadow_source(text: str) -> str:
    """Return text of identical length with comment bodies and string or
    character literal contents replaced by spaces. Newlines survive so
    offsets and line numbers stay valid."""
    parts = []
    pos = 0
    for m in _LEXEME.finditer(text):
        start, end = m.span(m.lastindex or 0)
        parts.append(text[pos:start])
        parts.append(_blank(text[start:end]))
        pos = end
    parts.append(text[pos:])
    return "".join(parts)


# a newline before a directive line, and a directive from its line's
# start through every line that a trailing backslash continues
_NEWLINE_BEFORE_HASH = re.compile(r"\n(?=[ \t]*#)")
_DIRECTIVE = re.compile(r"[ \t]*#(?:[^\n]*\\[^\S\n]*\n)*[^\n]*")


def _directive_spans(shadow: str) -> list[tuple[int, int]]:
    """Spans (start, end exclusive) of preprocessor directives, where a
    trailing backslash continues the directive onto the next line. A
    directive line inside a continued one is a directive of its own."""
    starts = [0, *(m.end() for m in _NEWLINE_BEFORE_HASH.finditer(shadow))]
    spans = []
    for start in starts:
        m = _DIRECTIVE.match(shadow, start)
        if m:
            spans.append(m.span())
    return spans


def _blank_spans(shadow: str, spans: list[tuple[int, int]]) -> str:
    """Blank the spans (sorted by start; they may overlap), newlines
    kept."""
    parts = []
    pos = 0
    for start, end in spans:
        start = max(start, pos)
        if end <= start:
            continue
        parts.append(shadow[pos:start])
        parts.append(_blank(shadow[start:end]))
        pos = end
    parts.append(shadow[pos:])
    return "".join(parts)


def _scan_macros(shadow: str, spans: list[tuple[int, int]]) -> list[RawElement]:
    elems = []
    for start, end in spans:
        m = re.match(r"[ \t]*#[ \t]*define[ \t]+([A-Za-z_]\w*)",
                     shadow[start:end])
        if m:
            elems.append(RawElement(m.group(1), None, ElementKind.MACRO,
                                    start, end))
    return elems


@dataclass
class _Unit:
    start: int                   # first non-blank char
    end: int                     # exclusive
    head_end: int                # offset of the body '{' or terminating ';'
    body: tuple[int, int] | None  # offsets of '{' and its matching '}'
    eq_before_body: bool


_SKIP_BETWEEN_UNITS = re.compile(f"[{_SPACE};]*")
# the characters that decide where a unit ends
_UNIT_PUNCT = re.compile(r"[()\[\]=;{]")
_BRACES = re.compile(r"[{}]")
_PARENS = re.compile(r"[()]")
_BRACKETS = re.compile(r"[()\[\]{}]")
_BRACKETS_OR_COMMA = re.compile(r"[()\[\]{},]")


def _match_brace(shadow: str, open_pos: int) -> int:
    depth = 0
    for m in _BRACES.finditer(shadow, open_pos):
        if m.group() == "{":
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                return m.start()
    return -1


def _has_type_keyword(shadow: str, start: int, end: int) -> bool:
    return any(t in _TYPE_KEYWORDS for t in _IDENT.findall(shadow[start:end]))


def _scan_units(shadow: str, start: int, end: int):
    """Yield top-level _Units of shadow[start:end].

    Namespace and extern "C" blocks are transparent: their contents are
    scanned as if they sat at the top level.
    """
    i = start
    while i < end:
        i = _SKIP_BETWEEN_UNITS.match(shadow, i, end).end()
        if i >= end:
            return
        unit_start = i
        paren = 0
        eq_seen = False
        saw_paren_at_depth0 = False
        unit = None
        consumed = None
        for m in _UNIT_PUNCT.finditer(shadow, i, end):
            c = m.group()
            j = m.start()
            if c in "([":
                if paren == 0 and c == "(":
                    saw_paren_at_depth0 = True
                paren += 1
            elif c in ")]":
                paren -= 1
            elif c == "=" and paren == 0:
                eq_seen = True
            elif c == ";" and paren == 0:
                unit = _Unit(unit_start, j + 1, j, None, eq_seen)
                consumed = j + 1
                break
            elif c == "{" and paren == 0:
                head = shadow[unit_start:j].strip()
                if _TRANSPARENT_HEAD.fullmatch(head):
                    close = _match_brace(shadow, j)
                    if close == -1:
                        return
                    yield from _scan_units(shadow, j + 1, min(close, end))
                    consumed = close + 1
                    break
                close = _match_brace(shadow, j)
                if close == -1 or close >= end:
                    return
                # `struct x { ... } name;` and `T x[] = {...};` run on to
                # the ';'; a function body ends the unit at its '}'
                glue = eq_seen or (not saw_paren_at_depth0
                                   and _has_type_keyword(shadow,
                                                         unit_start, j))
                if glue:
                    term = shadow.find(";", close, end)
                    if term == -1:
                        unit = _Unit(unit_start, close + 1, j,
                                     (j, close), eq_seen)
                        consumed = close + 1
                    else:
                        unit = _Unit(unit_start, term + 1, j,
                                     (j, close), eq_seen)
                        consumed = term + 1
                else:
                    unit = _Unit(unit_start, close + 1, j, (j, close),
                                 eq_seen)
                    consumed = close + 1
                break
        if consumed is None:
            return
        if unit is not None:
            yield unit
        i = consumed


def _tokens(shadow: str, start: int, end: int) -> list[str]:
    return _IDENT.findall(shadow[start:end])


def _first_depth0_paren(shadow: str, start: int, end: int) -> int:
    depth = 0
    for m in _BRACKETS.finditer(shadow, start, end):
        c = m.group()
        if c == "(" and depth == 0:
            return m.start()
        if c in "([{":
            depth += 1
        else:
            depth -= 1
    return -1


def _match_paren(shadow: str, open_pos: int, limit: int) -> int:
    depth = 0
    for m in _PARENS.finditer(shadow, open_pos, limit):
        if m.group() == "(":
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                return m.start()
    return -1


# the word that ends a string, trailing whitespace aside; the lookbehind
# only spares the engine from trying every start inside a longer word
_TRAILING_WORD = re.compile(rf"(?<!\w)\w+(?=[{_SPACE}]*\Z)")


def _ident_before(shadow: str, pos: int, start: int) -> tuple[str | None, int]:
    """Identifier token ending right before pos (whitespace allowed),
    plus the offset where it begins."""
    m = _TRAILING_WORD.search(shadow[start:pos])
    if m is None or m.group()[0].isdigit():
        return None, -1
    return m.group(), start + m.start()


def _qualifier_chain(shadow: str, name_start: int, start: int) -> list[str]:
    """Scope parts preceding a `Scope::name` declarator, outermost first."""
    parts = []
    i = name_start
    while True:
        k = i - 1
        while k >= start and shadow[k] in _SPACE:
            k -= 1
        if k < start + 1 or shadow[k - 1:k + 1] != "::":
            break
        ident, ident_start = _ident_before(shadow, k - 1, start)
        if ident is None:
            break
        parts.append(ident)
        i = ident_start
    parts.reverse()
    return parts


def _split_top_commas(shadow: str, start: int, end: int):
    depth = 0
    seg = start
    for m in _BRACKETS_OR_COMMA.finditer(shadow, start, end):
        c = m.group()
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif depth == 0:
            yield seg, m.start()
            seg = m.end()
    yield seg, end


# what names a declarator: identifiers, brackets and '='
_DECLARATOR_PART = re.compile(r"(?<!\w)[A-Za-z_]\w*|[()\[\]{}=]")


def _declarator_name(shadow: str, start: int, end: int) -> str | None:
    """The name one declarator, shadow[start:end], declares: its last
    non-keyword identifier at bracket depth 0 before a depth-0 '[' or
    '='. Failing one, the name inside its first parenthesised group, as
    in `void (*handlers[])(int)`."""
    depth = 0
    name = None
    group_start = group_end = -1
    for m in _DECLARATOR_PART.finditer(shadow, start, end):
        part = m.group()
        if part in ("(", "[", "{"):
            if depth == 0 and part == "[":
                break
            if depth == 0 and part == "(" and group_start == -1:
                group_start = m.end()
            depth += 1
        elif part in (")", "]", "}"):
            # a stray closer, as in `} int y;`, opens no negative depth
            depth = max(depth - 1, 0)
            if depth == 0 and group_start != -1 and group_end == -1:
                group_end = m.start()
        elif part == "=":
            if depth == 0:
                break
        elif depth == 0 and part not in _KEYWORDS:
            name = part
    if name is None and group_end != -1:
        return _declarator_name(shadow, group_start, group_end)
    return name


def _declared_names(shadow: str, start: int, end: int) -> list[str]:
    """The names that the comma-separated declarators of shadow[start:end]
    declare: `int a[N] = {1}, *b` declares a and b, never N."""
    names = (_declarator_name(shadow, seg_start, seg_end)
             for seg_start, seg_end in _split_top_commas(shadow, start, end))
    return [name for name in names if name is not None]


def _classify_type_unit(shadow: str, unit: _Unit) -> RawElement | None:
    if unit.body is None:
        return None
    # a parameter list before the body means this is a function that
    # happens to mention struct/enum/... in its signature
    if _first_depth0_paren(shadow, unit.start, unit.head_end) != -1:
        return None
    head = shadow[unit.start:unit.head_end]
    kw = None
    for t in _IDENT.findall(head):
        if t in _TYPE_KEYWORDS:
            kw = t
            break
    if kw is None:
        return None
    kind = _TYPE_KEYWORDS[kw]
    m = re.search(r"\b%s\s+([A-Za-z_]\w*)" % kw, head)
    if m and m.group(1) not in _KEYWORDS:
        name = m.group(1)
    else:
        # anonymous body: borrow the typedef alias or declarator name
        tail = _declared_names(shadow, unit.body[1] + 1, unit.end)
        if not tail:
            return None
        name = tail[-1]
    return RawElement(name, None, kind, unit.start, unit.end)


def _classify_function_unit(shadow: str, unit: _Unit) -> RawElement | None:
    pos = _first_depth0_paren(shadow, unit.start, unit.head_end)
    if pos == -1:
        return None
    name, name_start = _ident_before(shadow, pos, unit.start)
    if name is None or name in _KEYWORDS:
        return None
    quals = _qualifier_chain(shadow, name_start, unit.start)
    return RawElement(name, quals[-1] if quals else None, ElementKind.FUNCTION,
                      unit.start, unit.end, body=unit.body)


def _classify_decl_unit(shadow: str, unit: _Unit) -> list[RawElement]:
    """Bodyless unit terminated by ';': prototype or global variable(s)."""
    limit = unit.head_end
    eq = shadow.find("=", unit.start, limit)
    decl_end = eq if eq != -1 else limit
    pos = _first_depth0_paren(shadow, unit.start, decl_end)
    if pos != -1:
        close = _match_paren(shadow, pos, limit)
        after = close + 1 if close != -1 else -1
        while after != -1 and after < limit and shadow[after] in _SPACE:
            after += 1
        if after != -1 and after < limit and shadow[after] == "(":
            # function pointer: `T (*name)(args);`
            name = _declarator_name(shadow, pos + 1, close)
            if name is not None:
                return [RawElement(name, None, ElementKind.GLOBAL_VARIABLE,
                                   unit.start, unit.end)]
            return []
        name, name_start = _ident_before(shadow, pos, unit.start)
        if name and name not in _KEYWORDS:
            quals = _qualifier_chain(shadow, name_start, unit.start)
            return [RawElement(name, quals[-1] if quals else None,
                               ElementKind.FUNCTION, unit.start, unit.end)]
        return []
    return [RawElement(name, None, ElementKind.GLOBAL_VARIABLE, unit.start,
                       unit.end)
            for name in _declared_names(shadow, unit.start, limit)]


def _scan_members(shadow: str, type_elem: RawElement,
                  body: tuple[int, int]) -> list[RawElement]:
    """Methods declared or defined inside a class/struct body.

    Fields, nested types and access specifiers are not elements; a field
    has no parameter list, so the paren test filters them out. Function
    pointer fields hide their name inside a paren group, which the
    identifier-before-paren test also rejects.
    """
    out = []
    for unit in _scan_units(shadow, body[0] + 1, body[1]):
        try:
            if unit.eq_before_body and unit.body is None:
                continue
            start = unit.start
            m = re.match(r"(public|private|protected)\s*:\s*",
                         shadow[start:unit.head_end])
            if m:
                start += m.end()
            pos = _first_depth0_paren(shadow, start, unit.head_end)
            if pos == -1:
                continue
            name, _ = _ident_before(shadow, pos, start)
            if name is None or name in _KEYWORDS:
                continue
            out.append(RawElement(name, type_elem.name, ElementKind.FUNCTION,
                                  start, unit.end, body=unit.body))
        except Exception:
            continue
    return out


def scan_elements(text: str) -> list[RawElement]:
    """All recognizable top-level elements of text, best effort."""
    shadow = shadow_source(text)
    spans = _directive_spans(shadow)
    elems = _scan_macros(shadow, spans)
    blanked = _blank_spans(shadow, spans)

    for unit in _scan_units(blanked, 0, len(blanked)):
        try:
            if unit.body is not None and not unit.eq_before_body:
                type_elem = _classify_type_unit(blanked, unit)
                if type_elem is not None:
                    elems.append(type_elem)
                    if type_elem.kind in (ElementKind.CLASS,
                                          ElementKind.STRUCT):
                        elems.extend(_scan_members(blanked, type_elem,
                                                   unit.body))
                    continue
                fn = _classify_function_unit(blanked, unit)
                if fn is not None:
                    elems.append(fn)
                continue
            if unit.body is not None and unit.eq_before_body:
                # aggregate initializer: `T name[] = {...};`
                elems.extend(RawElement(name, None,
                                        ElementKind.GLOBAL_VARIABLE,
                                        unit.start, unit.end)
                             for name in _declared_names(blanked, unit.start,
                                                         unit.end))
                continue
            head_toks = _tokens(blanked, unit.start, unit.head_end)
            if head_toks and head_toks[0] == "typedef":
                continue  # bodyless alias, none of the element kinds
            elems.extend(_classify_decl_unit(blanked, unit))
        except Exception:
            continue
    elems.sort(key=lambda e: (e.start, e.end))
    return elems
