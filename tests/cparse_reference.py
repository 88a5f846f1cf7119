"""Reference lexer for the differential tests of vulnmend.cparse.

These are the character-at-a-time scanning loops that cparse used before
it moved to compiled patterns, kept verbatim as an oracle: for any input,
scan_elements and shadow_source here must return what the package's
versions return. Four changes since were made in the package and here
alike:

- the whitespace set, widened from space, tab and newline to C's six
  characters, so that CRLF and form-feed sources start their elements
  on the right character;
- an identifier never starts right after a word character, so `1ffint`
  and `0x10` hold none and every element name is a whole word;
- a global declarator is named after its last identifier at bracket
  depth 0 before '[' or '=' (inside its first parenthesised group when
  there is none), each comma segment cut at its own '=', so that
  `int arr[N];` declares arr, not N, and `int a = 1, b[2u];` declares
  both a and b;
- a qualified declarator keeps its whole scope chain as the qualifier,
  so `int N::M::f(int x) {...}` is f with qualifier `N::M`, not `M`.

Only ElementKind and RawElement come from the package, so that results
compare equal. Never imported by the package itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from vulnmend.cparse import ElementKind, RawElement


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


def shadow_source(text: str) -> str:
    """Return text of identical length with comment bodies and string or
    character literal contents replaced by spaces. Newlines survive so
    offsets and line numbers stay valid."""
    out = list(text)
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "/":
                j = i
                while j < n and text[j] != "\n":
                    if text[j] == "\\" and j + 1 < n and text[j + 1] == "\n":
                        out[j] = " "
                        j += 2
                        continue
                    out[j] = " "
                    j += 1
                i = j
                continue
            if nxt == "*":
                j = i + 2
                while j + 1 < n and not (text[j] == "*" and text[j + 1] == "/"):
                    if text[j] != "\n":
                        out[j] = " "
                    j += 1
                for k in (i, i + 1, j, j + 1):
                    if k < n and text[k] != "\n":
                        out[k] = " "
                i = min(j + 2, n)
                continue
        if c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    if text[j] != "\n":
                        out[j] = " "
                    if j + 1 < n and text[j + 1] != "\n":
                        out[j + 1] = " "
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                out[j] = " "
                j += 1
            i = j + 1
            continue
        i += 1
    return "".join(out)


def _directive_spans(shadow: str) -> list[tuple[int, int]]:
    """Spans (start, end exclusive) of preprocessor directives, where a
    trailing backslash continues the directive onto the next line."""
    spans = []
    for m in re.finditer(r"^[ \t]*#", shadow, re.MULTILINE):
        start = m.start()
        j = m.end()
        while j < len(shadow):
            nl = shadow.find("\n", j)
            if nl == -1:
                j = len(shadow)
                break
            if shadow[j:nl].rstrip().endswith("\\"):
                j = nl + 1
                continue
            j = nl
            break
        spans.append((start, j))
    return spans


def _blank_spans(shadow: str, spans: list[tuple[int, int]]) -> str:
    out = list(shadow)
    for start, end in spans:
        for k in range(start, min(end, len(out))):
            if out[k] != "\n":
                out[k] = " "
    return "".join(out)


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


def _match_brace(shadow: str, open_pos: int) -> int:
    depth = 0
    for i in range(open_pos, len(shadow)):
        c = shadow[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
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
        while i < end and shadow[i] in _SPACE + ";":
            i += 1
        if i >= end:
            return
        unit_start = i
        paren = 0
        eq_seen = False
        saw_paren_at_depth0 = False
        unit = None
        consumed = None
        j = i
        while j < end:
            c = shadow[j]
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
            j += 1
        if consumed is None:
            return
        if unit is not None:
            yield unit
        i = consumed


def _tokens(shadow: str, start: int, end: int) -> list[str]:
    return _IDENT.findall(shadow[start:end])


def _first_depth0_paren(shadow: str, start: int, end: int) -> int:
    depth = 0
    for i in range(start, end):
        c = shadow[i]
        if c == "(" and depth == 0:
            return i
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
    return -1


def _match_paren(shadow: str, open_pos: int, limit: int) -> int:
    depth = 0
    for i in range(open_pos, limit):
        if shadow[i] == "(":
            depth += 1
        elif shadow[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _ident_before(shadow: str, pos: int, start: int) -> tuple[str | None, int]:
    """Identifier token ending right before pos (whitespace allowed),
    plus the offset where it begins."""
    i = pos - 1
    while i >= start and shadow[i] in _SPACE:
        i -= 1
    if i < start or not (shadow[i].isalnum() or shadow[i] == "_"):
        return None, -1
    j = i
    while j - 1 >= start and (shadow[j - 1].isalnum() or shadow[j - 1] == "_"):
        j -= 1
    if shadow[j].isdigit():
        return None, -1
    return shadow[j:i + 1], j


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
    for i in range(start, end):
        c = shadow[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            yield seg, i
            seg = i + 1
    yield seg, end


def _is_word(c: str) -> bool:
    return c.isalnum() or c == "_"


def _declarator_name(shadow: str, start: int, end: int) -> str | None:
    """The name one declarator, shadow[start:end], declares: its last
    non-keyword identifier at bracket depth 0 before a depth-0 '[' or
    '='. Failing one, the name inside its first parenthesised group."""
    depth = 0
    name = None
    group_start = group_end = -1
    i = start
    while i < end:
        c = shadow[i]
        if _is_word(c):
            j = i
            while j < end and _is_word(shadow[j]):
                j += 1
            word = shadow[i:j]
            starts_inside = i > 0 and _is_word(shadow[i - 1])
            if (depth == 0 and not starts_inside
                    and (c.isascii() and c.isalpha() or c == "_")
                    and word not in _KEYWORDS):
                name = word
            i = j
            continue
        if c in "([{":
            if depth == 0 and c == "[":
                break
            if depth == 0 and c == "(" and group_start == -1:
                group_start = i + 1
            depth += 1
        elif c in ")]}":
            depth = max(depth - 1, 0)
            if depth == 0 and group_start != -1 and group_end == -1:
                group_end = i
        elif c == "=" and depth == 0:
            break
        i += 1
    if name is None and group_end != -1:
        return _declarator_name(shadow, group_start, group_end)
    return name


def _declared_names(shadow: str, start: int, end: int) -> list[str]:
    """The names of the comma-separated declarators of shadow[start:end]."""
    names = []
    for seg_start, seg_end in _split_top_commas(shadow, start, end):
        name = _declarator_name(shadow, seg_start, seg_end)
        if name is not None:
            names.append(name)
    return names


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
    return RawElement(name, "::".join(quals) or None, ElementKind.FUNCTION,
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
                return [RawElement(name, None,
                                   ElementKind.GLOBAL_VARIABLE,
                                   unit.start, unit.end)]
            return []
        name, name_start = _ident_before(shadow, pos, unit.start)
        if name and name not in _KEYWORDS:
            quals = _qualifier_chain(shadow, name_start, unit.start)
            return [RawElement(name, "::".join(quals) or None,
                               ElementKind.FUNCTION, unit.start, unit.end)]
        return []
    out = []
    for name in _declared_names(shadow, unit.start, limit):
        out.append(RawElement(name, None, ElementKind.GLOBAL_VARIABLE,
                              unit.start, unit.end))
    return out


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
                for name in _declared_names(blanked, unit.start, unit.end):
                    elems.append(RawElement(name, None,
                                            ElementKind.GLOBAL_VARIABLE,
                                            unit.start, unit.end))
                continue
            head_toks = _tokens(blanked, unit.start, unit.head_end)
            if head_toks and head_toks[0] == "typedef":
                continue  # bodyless alias, none of the element kinds
            elems.extend(_classify_decl_unit(blanked, unit))
        except Exception:
            continue
    elems.sort(key=lambda e: (e.start, e.end))
    return elems
