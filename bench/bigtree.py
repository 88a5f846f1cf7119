"""Seeded synthetic source tree built from the fixture's own C/C++ files.

The tree is the fixture checkout (`tests/fixtures/crepo`) with every file
at its own path, so `secb.sh` and the recorded replay scripts run
unchanged, plus `lib/mNN/fNNN.{c,h,cpp}` files. Each generated file is a
concatenation of fixture sources in which every identifier that is not a
keyword or a standard-library name gets a per-copy suffix, so the copies
never match a symbol or token that the fixture's issue and replay
scripts name.

File names, directory layout, the templates in each file and the suffix
width are fixed, so only the order of the copies and their suffixes
depend on the seed: the same seed gives the same bytes, every seed gives
the same line count, and the rendered repository tree (which the agents
put in their prompts) is the same for every seed. The benchmark
generates each tree several times and fails if the generations differ.
"""

from __future__ import annotations

import hashlib
import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CREPO = REPO / "tests" / "fixtures" / "crepo"

C_TEMPLATES = ("src/buf.c", "src/buf.h", "src/main.c",
               "njs/src/njs_array.c", "njs/src/njs_vmcode.c")
CPP_TEMPLATES = ("cpp/fileio.cpp", "cpp/fileio.hpp")
# the same extensions repo_model.source_files treats as sources
SOURCE_SUFFIXES = (".c", ".h", ".cc", ".cpp", ".cxx", ".hpp", ".hh")

# 125 files: 100 C files of one copy of each C template (309 lines) and
# 25 C++ files of 7 copies of each C++ template (315 lines), about
# 39 kLOC next to the fixture's 354 lines. The seed shuffles the copies
# and picks their suffixes, so every seed does the same amount of work.
# On a 2-vCPU machine an instance of the `full` script then takes 3-5 s.
# At 78 kLOC it took 5-7 s, a 25 s run timed four of them, and the
# medians of five runs spread by 15-18%.
GEN_DIRS = 10
GEN_FILES = 125
C_COPIES = 1
CPP_COPIES = 7
# file i takes this extension; .cpp files are built from C++ templates
SUFFIX_CYCLE = (".c", ".c", ".h", ".c", ".cpp")

KEEP = frozenset("""
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    bool class delete explicit false friend mutable namespace new noexcept
    nullptr operator private protected public template this throw true try
    catch typename using virtual
    include define undef ifdef ifndef endif elif pragma defined
    size_t ssize_t uint8_t uint16_t uint32_t uint64_t int32_t int64_t
    uintptr_t NULL memcpy memset memmove strlen strcmp printf fprintf
    stderr stdout malloc free open close
""".split())

_IDENT = re.compile(r"\b[A-Za-z_]\w*")


@dataclass(frozen=True)
class TreeInfo:
    files: int          # source files, fixture ones included
    kloc: float         # lines of those files / 1000
    digest: str         # sha256 over sorted (path, content) of every file


def rename(text: str, tag: str) -> str:
    """Suffix every non-kept identifier with `_<tag>`."""
    return _IDENT.sub(
        lambda m: m.group(0) if m.group(0) in KEEP
        else f"{m.group(0)}_{tag}", text)


def _templates(rels: tuple[str, ...]) -> list[str]:
    return [(CREPO / rel).read_text(encoding="utf-8") for rel in rels]


def _generated_file(rng: random.Random, sources: list[str]) -> str:
    sources = list(sources)
    rng.shuffle(sources)
    return "\n".join(rename(src, f"{rng.getrandbits(32):08x}")
                     for src in sources)


def generate(seed: int, dest: Path | str) -> TreeInfo:
    """Write the seeded tree to dest (which must not exist yet)."""
    dest = Path(dest)
    shutil.copytree(CREPO, dest)
    c_sources = _templates(C_TEMPLATES) * C_COPIES
    cpp_sources = _templates(CPP_TEMPLATES) * CPP_COPIES
    rng = random.Random(seed)
    for i in range(GEN_FILES):
        suffix = SUFFIX_CYCLE[i % len(SUFFIX_CYCLE)]
        sources = cpp_sources if suffix == ".cpp" else c_sources
        path = dest / "lib" / f"m{i % GEN_DIRS:02d}" / f"f{i:03d}{suffix}"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_generated_file(rng, sources), encoding="utf-8")
    return describe(dest)


def describe(root: Path | str) -> TreeInfo:
    root = Path(root)
    digest = hashlib.sha256()
    files = lines = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
        if path.suffix in SOURCE_SUFFIXES:
            files += 1
            lines += data.count(b"\n")
    return TreeInfo(files=files, kloc=round(lines / 1000, 3),
                    digest=digest.hexdigest())
