"""Running things: sandboxes, the PoC pipeline and the script sandbox.

A sandbox is a place where the repro command can run. The local sandbox
covers plain directories; everything above it only needs its `exec`
surface. A PristineCopy judges a patch: `git apply` on a fresh copy of
the untouched workspace, then one PoC run, then the copy is removed.
AheadCopies is the one code that copies an input: ahead, on a worker
of its own (the property agent's copy first), or when a copy is taken.
Patches are judged concurrently in one bounded pool: at most one worker
per CPU the process may run on, each taking the next job not yet
started, so no job waits behind a slow one.
What a run writes is kept within DEFAULT_LOG_CAP bytes per stream; a
stream past it is scanned for the verdict while it is read.
"""

from __future__ import annotations

import builtins as _real_builtins
import codecs
import contextlib
import io
import os
import posixpath
import re
import secrets
import selectors
import shlex
import shutil
import signal
import subprocess
import tempfile
import threading
import time
import traceback
from collections import deque
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .errors import (GitUnavailable, SandboxUnavailable, UnknownLogName,
                     describe_error, placeless_message)
from .naming import dedupe_name

DEFAULT_HEAD_LINES = 100
DEFAULT_TAIL_LINES = 100
DEFAULT_SCRIPT_OUTPUT_CAP = 8192
DEFAULT_POC_TIMEOUT = 300.0

DEFAULT_LOG_CAP = 1 << 20  # bytes kept of each output stream of a run
_KILL_DRAIN_GRACE = 0.5  # seconds a timed-out run is read after its kill
# NAME=<a token of the run's own> is in the environment of every run, and
# so of each child: one that left the run's session still holds it
_RUN_MARKER = "VULNMEND_RUN_TOKEN"

# (a literal every match holds, the pattern): the pattern is searched for
# only in text that holds its literal, so a long log is read fast
SANITIZER_SIGNATURES = tuple((key, re.compile(p, re.MULTILINE)) for key, p in (
    ("ERROR:", r"^==\d+==\s*ERROR:"),
    ("SUMMARY: ", r"^SUMMARY: "),
))

COMPILE_ERROR_SIGNATURES = tuple(
    (key, re.compile(p, re.MULTILINE)) for key, p in (
        ("error:", r"^[^:\n]+:\d+(:\d+)?: (fatal )?error:"),
        ("error:", r"^collect2: error:"),
        ("undefined reference to", r"undefined reference to"),
        ("BUILD FAILED", r"\bBUILD FAILED\b"),
    ))


def _found(signatures, text: str) -> bool:
    return any(key in text and rx.search(text) for key, rx in signatures)


@dataclass(frozen=True)
class ExecResult:
    exit_code: int
    stdout: str
    stderr: str
    timed_out: bool = False
    # for a stream that passed the cap, what a scan of all of it found
    stdout_scan: LogScan | None = None
    stderr_scan: LogScan | None = None


def _decode(data: bytes) -> str:
    """Output as text mode decodes it, but UTF-8 whatever the locale:
    undecodable bytes survive as surrogates, then "\r\n" and "\r" are
    "\n"."""
    text = data.decode("utf-8", "surrogateescape")
    return text.replace("\r\n", "\n").replace("\r", "\n")


class _Capture:
    """One output stream, read once in blocks and kept within cap bytes.

    A stream of at most cap bytes is kept whole. Past the cap only its
    first and last cap/2 bytes are kept, with one marker line between
    them that says how many bytes were dropped; from then on a LogScan
    reads all of the stream as it arrives, the head included. A line
    longer than the cap is scanned in pieces.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.head = bytearray()  # the whole stream, while it fits
        self.tail = bytearray()
        self.size = 0
        self.scan: LogScan | None = None
        self._decoder = io.IncrementalNewlineDecoder(
            codecs.getincrementaldecoder("utf-8")("surrogateescape"),
            translate=True)
        self._line = ""  # the scan's unfinished last line

    def feed(self, data: bytes) -> None:
        self.size += len(data)
        if self.scan is None:
            self.head += data
            if len(self.head) <= self.cap:
                return
            self.scan = LogScan()
            data, self.head = self.head, self.head[:self.cap // 2]
        self._read(data)
        self.tail += data
        del self.tail[:max(0, len(self.tail) - (self.cap - self.cap // 2))]

    def _read(self, data: bytes, final: bool = False) -> None:
        text = self._line + self._decoder.decode(data, final)
        end = text.rfind("\n") + 1
        if final or (not end and len(text) > self.cap):
            end = len(text)
        self.scan.feed(text[:end])
        self._line = text[end:]

    def close(self) -> tuple[str, LogScan | None]:
        """The kept text, and the scan if the stream passed the cap."""
        if self.scan is None:
            return _decode(self.head), None
        self._read(b"", final=True)
        head = _decode(self.head)
        dropped = self.size - len(self.head) - len(self.tail)
        return (head + ("" if head.endswith("\n") else "\n")
                + f"... [{dropped} of {self.size} bytes dropped: over the "
                  f"{self.cap}-byte cap] ...\n"
                + _decode(self.tail)), self.scan


def _drain(selector: selectors.BaseSelector,
           deadline: float | None) -> bool:
    """Feed each registered pipe to its capture until every one is at end
    of file (True) or the deadline passes (False)."""
    while selector.get_map():
        wait = None if deadline is None else deadline - time.monotonic()
        if wait is not None and wait <= 0:
            return False
        for key, _ in selector.select(wait):
            data = os.read(key.fd, 1 << 16)
            if data:
                key.data.feed(data)
            else:
                selector.unregister(key.fileobj)
    return True


def _kill_marked(entry: bytes) -> None:
    """SIGKILL every process whose environment holds entry (NAME=token);
    where there is no /proc, none."""
    with contextlib.suppress(OSError):
        for pid in filter(str.isdigit, os.listdir("/proc")):
            with contextlib.suppress(OSError):  # gone, or not ours to read
                with open(f"/proc/{pid}/environ", "rb") as fh:
                    if entry in fh.read().split(b"\0"):
                        os.kill(int(pid), signal.SIGKILL)


class LocalSandbox:
    """Command execution rooted in a local directory.

    A run ends when both output streams reach end of file and the shell
    has exited, or when the timeout passes; a child the command left in
    the background that still holds a stream keeps the run going until
    then. When the run ends, its process group is killed, and so is every
    process that still holds the run's marker in its environment, such as
    a child that left the session. A timed-out run returns within
    _KILL_DRAIN_GRACE seconds of its timeout. Each stream is kept within
    DEFAULT_LOG_CAP bytes (_Capture).
    """

    def __init__(self, workspace: Path | str):
        self.workspace = Path(workspace)
        if not self.workspace.is_dir():
            raise SandboxUnavailable(f"workspace {workspace} is not a "
                                     f"directory")

    def exec(self, command: str,
             timeout: float = DEFAULT_POC_TIMEOUT) -> ExecResult:
        # a session of its own, so a timeout kills the command's children
        # along with its shell, and a marker, so it kills the ones that
        # left the session too
        out, err = _Capture(DEFAULT_LOG_CAP), _Capture(DEFAULT_LOG_CAP)
        token = secrets.token_hex(16)
        env = {**os.environ, _RUN_MARKER: token}
        with subprocess.Popen(command, shell=True, cwd=self.workspace,
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE,
                              start_new_session=True) as proc, \
                selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ, out)
            selector.register(proc.stderr, selectors.EVENT_READ, err)
            deadline = time.monotonic() + timeout
            timed_out = not _drain(selector, deadline)
            if not timed_out:
                try:
                    exit_code = proc.wait(max(0.0,
                                              deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    timed_out = True
            # the command's group dies with the run, a child it left in
            # the background (`sleep &`) too; the group is gone if the
            # shell was reaped and left none
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            # and so does a child that left the session (`setsid ...`)
            _kill_marked(f"{_RUN_MARKER}={token}".encode())
            if timed_out:
                # a child that cleared its environment may hold a stream
                # open past the kills, so what the run wrote last is
                # read for a short while only
                _drain(selector, time.monotonic() + _KILL_DRAIN_GRACE)
                proc.wait()
                exit_code = 124
        stdout, stdout_scan = out.close()
        stderr, stderr_scan = err.close()
        return ExecResult(exit_code=exit_code, stdout=stdout, stderr=stderr,
                          timed_out=timed_out, stdout_scan=stdout_scan,
                          stderr_scan=stderr_scan)


# -- log plumbing ------------------------------------------------------------


class LogStore:
    """Process-lifetime store of run logs as the PoC runner kept them:
    whole, unless a stream passed DEFAULT_LOG_CAP bytes; then its head
    and tail, with a marker line in place of the rest."""

    def __init__(self):
        self._logs: dict[str, str] = {}
        self._counts: dict[str, int] = {}

    def reserve(self, unique_name: str) -> str:
        return dedupe_name(self._counts, unique_name)

    def put(self, name: str, text: str) -> None:
        self._logs[name] = text

    def get(self, name: str) -> str:
        if name not in self._logs:
            known = ", ".join(sorted(self._logs)) or "<none>"
            raise UnknownLogName(f"no log named {name!r} (known: {known})")
        return self._logs[name]


def truncate_log(log: str, head_lines: int = DEFAULT_HEAD_LINES,
                 tail_lines: int = DEFAULT_TAIL_LINES,
                 name: str = "log") -> str:
    """Keep the first and last lines of a long log, with an elision
    marker naming the stored full copy."""
    lines = log.split("\n")
    if len(lines) <= head_lines + tail_lines:
        return log
    elided = len(lines) - head_lines - tail_lines
    marker = f"... [{elided} lines elided; full log stored as '{name}'] ..."
    return "\n".join(lines[:head_lines] + [marker] + lines[-tail_lines:])


# an ASan report's shadow memory map and its fixed legend: each block is
# its header line and the indented (or `=>`) lines under it. The report's
# own lines already say in words where the access landed.
_SHADOW_BLOCK = (r"(?:Shadow bytes around the buggy address:"
                 r"|Shadow byte legend \(.*\):)(?:\n(?:  |=>).*)*")
_SHADOW_MAP_RE = re.compile(rf"^{_SHADOW_BLOCK}(?:\n{_SHADOW_BLOCK})*$",
                            re.MULTILINE)


def _elide_shadow_map(log: str, name: str) -> str:
    """Replace each run of ASan shadow-map and legend blocks with one
    marker line naming the stored full copy."""
    def marker(m: re.Match) -> str:
        lines = m.group().count("\n") + 1
        return (f"... [{lines} lines of ASan shadow byte map elided; "
                f"full log stored as '{name}'] ...")
    return _SHADOW_MAP_RE.sub(marker, log)


# `expr` runs to the last quote on the line: the stringified condition
# may hold quotes of its own
_SPA_LINE_RE = re.compile(
    r'^\[SPA\] (\S+) (PASS|FAIL)(?: expr="(.*)")?\s*$', re.MULTILINE)


MAX_TALLIED_PROPERTIES = 100  # [SPA] ids a scan tallies one by one


@dataclass(frozen=True)
class AssertionSummary:
    """Per-property PASS/FAIL tallies pulled from a full run log."""

    counts: tuple  # ((id, passes, fails, expr), ...) in first-seen order
    # (passes, fails) of the ids past the first MAX_TALLIED_PROPERTIES
    more: tuple = (0, 0)

    def render(self) -> str:
        if not self.counts:
            return "Safety property assertions: none evaluated."
        parts = []
        for prop_id, passes, fails, expr in self.counts:
            bit = f"{prop_id}: {passes} PASS, {fails} FAIL"
            if fails and expr:
                bit += f' (expr "{expr}")'
            parts.append(bit)
        if any(self.more):
            passes, fails = self.more
            parts.append(f"properties past the first {len(self.counts)}: "
                         f"{passes} PASS, {fails} FAIL")
        return "Safety property assertions: " + "; ".join(parts)


class LogScan:
    """What the verdicts read off a log: whether it holds a sanitizer
    signature or a compile-error signature, and its [SPA] tallies.

    Text is fed in blocks of whole lines, so a log need not be held at
    once to be scanned; a match that would span two blocks is not found.
    The first MAX_TALLIED_PROPERTIES ids are tallied one by one; every
    later id counts in one shared tally, so a log of many ids costs
    bounded memory and a bounded summary.
    """

    def __init__(self, text: str = ""):
        self.sanitizer = False
        self.compile_error = False
        # id -> [passes, fails, expr of the last FAIL], in first-seen order
        self._tallies: dict[str, list] = {}
        self._more = [0, 0, ""]  # the one tally of the ids past the bound
        self.feed(text)

    def _count(self, prop_id: str, passes: int, fails: int,
               expr: str) -> None:
        tally = self._tallies.get(prop_id)
        if tally is None:
            tally = (self._tallies.setdefault(prop_id, [0, 0, ""])
                     if len(self._tallies) < MAX_TALLIED_PROPERTIES
                     else self._more)
        tally[0] += passes
        tally[1] += fails
        tally[2] = expr or tally[2]

    def feed(self, text: str) -> None:
        self.sanitizer = self.sanitizer or _found(SANITIZER_SIGNATURES, text)
        self.compile_error = (self.compile_error
                              or _found(COMPILE_ERROR_SIGNATURES, text))
        if "[SPA] " not in text:
            return
        for m in _SPA_LINE_RE.finditer(text):
            if m.group(2) == "PASS":
                self._count(m.group(1), 1, 0, "")
            else:
                self._count(m.group(1), 0, 1, m.group(3) or "")

    def then(self, later: LogScan) -> LogScan:
        """The scan of this log followed by later's log, within the same
        bound: an id that either scan counted past its bound stays in
        the shared tally."""
        joined = LogScan()
        joined.sanitizer = self.sanitizer or later.sanitizer
        joined.compile_error = self.compile_error or later.compile_error
        for scan in (self, later):
            for prop_id, tally in scan._tallies.items():
                joined._count(prop_id, *tally)
            joined._more[0] += scan._more[0]
            joined._more[1] += scan._more[1]
        return joined

    def summary(self) -> AssertionSummary:
        return AssertionSummary(
            counts=tuple((prop_id, *tally)
                         for prop_id, tally in self._tallies.items()),
            more=tuple(self._more[:2]))


# -- PoC runner ---------------------------------------------------------------


_SANITIZER_PID_RE = re.compile(r"^==\d+==", re.MULTILINE)
# a raw address, which address space randomization moves from run to
# run; a short module offset (+0x27249) stays
_ADDRESS_RE = re.compile(r"0x[0-9a-fA-F]{8,}")


def _workspace_re(workspace: Path) -> re.Pattern:
    """The workspace's absolute path, as given and resolved, where it is
    not the start of a longer file name."""
    forms = {os.path.abspath(workspace), str(workspace.resolve())}
    alternation = "|".join(
        re.escape(f) for f in sorted(forms, key=len, reverse=True))
    return re.compile(rf"(?:{alternation})(?![\w.-])")


def _placeless(log: str, workspace_re: re.Pattern) -> str:
    """A log as the agents see it: the same wherever the workspace lives,
    whatever process id the PoC ran as and wherever its memory was
    mapped."""
    log = _SANITIZER_PID_RE.sub("==PID==", workspace_re.sub(".", log))
    return _ADDRESS_RE.sub("0xADDR", log)


@dataclass(frozen=True)
class PocResult:
    name: str
    exit_code: int
    compiled: bool
    sanitizer_triggered: bool
    timed_out: bool
    summary: AssertionSummary
    log: str                   # map elided, truncated, placeless

    @property
    def passed(self) -> bool:
        """The one PoC verdict, for validation and evaluation alike: the
        run finished in time, exited 0 and no sanitizer reported."""
        return (self.exit_code == 0 and not self.sanitizer_triggered
                and not self.timed_out)

    def render(self) -> str:
        if not self.compiled:
            head = (f"PoC run '{self.name}': compilation FAILED "
                    f"(exit {self.exit_code}). Compiler log:")
        else:
            state = ("sanitizer TRIGGERED" if self.sanitizer_triggered
                     else "no sanitizer report")
            head = (f"PoC run '{self.name}': ran, exit {self.exit_code}, "
                    f"{state}.")
            if self.timed_out:
                head += " Note: the command hit its timeout."
        return f"{head}\n{self.summary.render()}\n{self.log}"


class PocRunner:
    """Compile-and-run of the instance's repro command, with log capture.

    One instance descriptor, one runner. Each run gets a caller-chosen
    name (deduplicated with numeric suffixes) under which the raw log
    stays retrievable for the life of the process: stdout, then stderr,
    as the sandbox returned them (LocalSandbox cuts a stream past
    DEFAULT_LOG_CAP bytes to its head and tail). The excerpt in the
    result, which goes into prompts, drops the ASan shadow byte map and
    keeps the head and tail of what is left, each cut marked with the
    run's name. It names the workspace `.` and every sanitizer process
    `==PID==`, so prompts do not depend on where the checkout lives.
    Verdicts and summaries read all of the output: the raw log, or for a
    stream past the cap the scan made while it was read.
    """

    def __init__(self, sandbox, repro_command: str,
                 log_store: LogStore | None = None,
                 head_lines: int = DEFAULT_HEAD_LINES,
                 tail_lines: int = DEFAULT_TAIL_LINES,
                 timeout: float = DEFAULT_POC_TIMEOUT):
        self.sandbox = sandbox
        self.repro_command = repro_command
        self.log_store = log_store if log_store is not None else LogStore()
        self.head_lines = head_lines
        self.tail_lines = tail_lines
        self.timeout = timeout
        self._workspace_re = _workspace_re(sandbox.workspace)

    def run_poc(self, unique_name: str) -> PocResult:
        fixed = self.log_store.reserve(unique_name)
        res = self.sandbox.exec(self.repro_command, timeout=self.timeout)
        full_log = res.stdout
        if full_log and not full_log.endswith("\n"):
            full_log += "\n"
        full_log += res.stderr
        self.log_store.put(fixed, full_log)

        # the verdict and the summary reflect the complete output, not
        # the excerpt: a stream past the cap was scanned as it was read.
        # Each stream is scanned on its own, so no match spans the two
        scan = (res.stdout_scan or LogScan(res.stdout)).then(
            res.stderr_scan or LogScan(res.stderr))
        compile_error = (res.exit_code != 0 and not scan.sanitizer
                         and scan.compile_error)
        excerpt = _placeless(
            truncate_log(_elide_shadow_map(full_log, fixed), self.head_lines,
                         self.tail_lines, name=fixed),
            self._workspace_re)
        return PocResult(
            name=fixed,
            exit_code=res.exit_code,
            compiled=not compile_error,
            sanitizer_triggered=scan.sanitizer,
            timed_out=res.timed_out,
            summary=scan.summary(),
            log=excerpt,
        )


# -- judging a patch -------------------------------------------------------------


@dataclass(frozen=True)
class PatchVerdict:
    """A diff judged in a pristine copy: the PoC run on the patched copy,
    or why there is none (the diff or the copy failed)."""

    result: PocResult | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.result is not None and self.result.passed


def require_git() -> None:
    """Fail unless `git` is on PATH. PristineCopy judges every patch
    through `git apply`, so a batch checks this once, before its first
    instance, instead of failing each instance alike."""
    if shutil.which("git") is None:
        raise GitUnavailable("no `git` on PATH: run and evaluate apply "
                             "every patch with `git apply`")


def _is_script(path: Path) -> bool:
    """A file that starts with `#!` or that may be executed."""
    try:
        with open(path, "rb") as fh:
            return fh.read(2) == b"#!" or os.access(path, os.X_OK)
    except OSError:  # not there, or a directory
        return False


def harness_files(workspace: Path | str, *commands: str | None) -> set[str]:
    """The PoC harness, by relative path: every workspace script that
    one of the commands names as a word. A file the command only reads,
    such as a source or an input, is no script and may be patched."""
    found = set()
    for command in filter(None, commands):
        lexer = shlex.shlex(command, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        try:
            words = list(lexer)
        except ValueError:  # an unclosed quote
            words = command.split()
        for word in words:
            rel = posixpath.normpath(word)
            if (not posixpath.isabs(rel) and rel.split("/")[0] != ".."
                    and _is_script(Path(workspace) / rel)):
                found.add(rel)
    return found


def _unchanged(original: Path, copy: Path) -> bool:
    """copy is still original: a file, not a link, with its mode and
    bytes. Copies follow links, so an untouched copy holds no link."""
    try:
        return (copy.lstat().st_mode == original.stat().st_mode
                and copy.read_bytes() == original.read_bytes())
    except OSError:  # gone
        return False


def skip_dangling_links(directory: str, names: list[str]) -> set[str]:
    """The links among names whose target is missing, looked up from the
    link's own directory: a copy drops them, and copies a valid link as
    the file it points to."""
    return {name for name in names
            if os.path.islink(os.path.join(directory, name))
            and not os.path.exists(os.path.join(directory, name))}


class AheadCopies:
    """The one owner of every copy of an untouched workspace, source: a
    temp directory holding it as `workspace`, which the taker removes.
    The copies named by prefixes are made in order on a worker that ends
    with its queue, none with no prefix; one that fails stops the rest.
    take() hands them out in order, each once, waiting for one in the
    making; with none left, or the next failed or stopped, it makes one
    in the taker's thread. close() stops the copy in the making between
    directories, cancels the rest and removes those not taken; it makes
    none, stops none made on demand, and may be called again.
    """

    def __init__(self, source: Path | str, prefixes: Sequence[str] = ()):
        self.source = Path(source)
        self._stopped = threading.Event()
        self._pool = ThreadPoolExecutor(1,
                                        thread_name_prefix="pristine-copier")
        self._queued = deque(self._pool.submit(self._make, prefix)
                             for prefix in prefixes)
        self._pool.shutdown(wait=False)

    def _copy(self, prefix: str, ahead: bool = False) -> Path:
        """A new copy in a temp dir named after prefix. A failed one leaves
        none, and its OSError names the copy's files `copy/...`."""
        def ignore(directory: str, names: list[str]) -> set[str]:
            if ahead and self._stopped.is_set():
                raise CancelledError
            return skip_dangling_links(directory, names)

        scratch = Path(tempfile.mkdtemp(prefix=prefix))
        try:
            shutil.copytree(self.source, scratch / "workspace", ignore=ignore)
        except BaseException as exc:
            shutil.rmtree(scratch, ignore_errors=True)
            if isinstance(exc, OSError):
                raise type(exc)(placeless_message(
                    exc, {scratch / "workspace": "copy"})) from exc
            raise
        return scratch

    def _make(self, prefix: str) -> Path:
        try:
            return self._copy(prefix, ahead=True)
        except BaseException:
            self._stopped.set()
            raise

    def take(self, prefix: str) -> Path:
        """The next queued copy, or else a new one named after prefix."""
        with contextlib.suppress(IndexError, OSError, CancelledError):
            return self._queued.popleft().result()
        return self._copy(prefix)

    def close(self) -> None:
        self._stopped.set()
        self._pool.shutdown(cancel_futures=True)
        while self._queued:
            future = self._queued.popleft()
            if not future.cancelled() and future.exception() is None:
                shutil.rmtree(future.result(), ignore_errors=True)


@dataclass(frozen=True)
class PristineCopy:
    """How a diff is judged: in a fresh copy of an untouched workspace,
    `git apply` takes the diff as bytes, then the command runs once
    through a PocRunner and PocResult.passed gives the verdict. The copy
    is removed afterwards, so no verdict depends on what another diff's
    run left behind. Validation and evaluation both judge patches here,
    in the copy that copies hands out, or say why it failed.

    A diff that touches the PoC harness, a workspace script named in the
    command or in one of the instance's other commands (harness_commands),
    is rejected before the PoC runs: a patch may not rewrite the test that
    judges it. The check reads the copy `git apply` patched: a harness
    file there that is gone, or has other bytes or another mode, is touched.
    """

    copies: AheadCopies
    command: str
    timeout: float = DEFAULT_POC_TIMEOUT
    harness_commands: tuple = ()

    def judge(self, diff: str | bytes, name: str) -> PatchVerdict:
        """Apply diff to a fresh copy and run the PoC under name."""
        if isinstance(diff, str):
            diff = diff.encode("utf-8", errors="surrogateescape")
        source = self.copies.source
        step, scratch = "workspace copy", None
        try:
            scratch = self.copies.take("pristine-")
            work = scratch / "workspace"
            # bytes in, so a diff of a non-UTF-8 source applies as
            # written. The ceiling keeps git from finding a repository
            # that encloses the temp directory: it would resolve the
            # diff's paths against that repository's top level and skip
            # them without an error.
            step = "git apply"
            applied = subprocess.run(
                ["git", "apply", "--whitespace=nowarn", "-"], input=diff,
                cwd=work, capture_output=True,
                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(scratch)})
            if applied.returncode != 0:
                stderr = applied.stderr.decode("utf-8", errors="replace")
                return PatchVerdict(
                    detail=f"patch does not apply: {stderr.strip()[:200]}")
            touched = sorted(
                rel for rel in harness_files(source, self.command,
                                             *self.harness_commands)
                if not _unchanged(source / rel, work / rel))
            if touched:
                return PatchVerdict(detail="touches the PoC harness: "
                                    + ", ".join(touched))
            step = "PoC run"
            runner = PocRunner(LocalSandbox(work), self.command,
                               timeout=self.timeout)
            return PatchVerdict(result=runner.run_poc(name))
        except OSError as exc:
            # a step that cannot start is the diff's verdict: the copy (say,
            # the workspace is gone) or a spawn (say, EAGAIN) failed
            return PatchVerdict(detail=f"{step} failed: "
                                + describe_error(exc, {source: "workspace"}))
        finally:
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)


# -- the worker pool ---------------------------------------------------------------


def usable_cpus() -> int:
    """The CPUs this process may run on, which bound every pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def pool_width(jobs: int) -> int:
    """W = min(jobs, usable_cpus()), and at least 1: how many workers
    in_pool runs for that many jobs."""
    return max(1, min(jobs, usable_cpus()))


def in_pool(jobs: Sequence, work: Callable) -> list:
    """Call work(job) for every job on pool_width(len(jobs)) worker
    threads that share one queue: each takes the next job not yet
    started, so no job waits behind a slow one. Returns in job order
    what each call returned or the Exception it raised. If the caller is
    interrupted (say, by ^C), the jobs not yet started are cancelled,
    the ones in hand finish, and no worker outlives the call."""
    def call(job):
        try:
            return work(job)
        except Exception as exc:
            return exc

    # a call holds its caller, so no two calls at once share a prefix
    prefix = f"in-pool-{threading.get_ident()}"
    pool = ThreadPoolExecutor(pool_width(len(jobs)), thread_name_prefix=prefix)
    try:
        futures = [pool.submit(call, job) for job in jobs]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)
        # an interrupt between a worker's start and its registration
        # leaves it out of the pool's own join
        for thread in threading.enumerate():
            if thread.name.startswith(prefix + "_"):
                thread.join()


# -- python script sandbox -----------------------------------------------------


class SandboxViolation(Exception):
    """Raised inside a sandboxed script when it touches the outside world."""


_SAFE_BUILTIN_NAMES = (
    "abs", "all", "any", "ascii", "bin", "bool", "bytearray", "bytes",
    "callable", "chr", "complex", "dict", "divmod", "enumerate", "filter",
    "float", "format", "frozenset", "hash", "hex", "int", "isinstance",
    "issubclass", "iter", "len", "list", "map", "max", "min", "next",
    "object", "oct", "ord", "pow", "range", "repr", "reversed", "round",
    "set", "slice", "sorted", "str", "sum", "tuple", "type", "zip",
    "ValueError", "TypeError", "KeyError", "IndexError", "AttributeError",
    "RuntimeError", "NameError", "ZeroDivisionError", "ArithmeticError",
    "StopIteration", "LookupError", "OverflowError", "Exception",
    "BaseException", "True", "False", "None", "NotImplemented",
)

_ALLOWED_IMPORTS = frozenset({
    "re", "math", "json", "string", "itertools", "functools", "collections",
    "textwrap", "struct", "binascii", "base64", "statistics",
})


def _script_traceback(exc: BaseException) -> str:
    """exc's traceback with only the script's own frames, the first three
    of each exception: no path or line of the package is in it."""
    shown = traceback.TracebackException.from_exception(exc)
    chain = [shown]
    for link in chain:  # the chain grows as it is walked
        link.stack = traceback.StackSummary.from_list(
            [f for f in link.stack if f.filename == "<agent-script>"][:3])
        chain += filter(None, (link.__cause__, link.__context__))
    return "".join(shown.format())


@dataclass
class ScriptResult:
    output: str
    violation: str | None = None
    error: str | None = None


class PythonScriptSandbox:
    """In-process interpreter cage for agent-written helper scripts.

    Scripts get pure-computation builtins, a short import allowlist and a
    `get_poc_output(name)` bridge, which returns a PoC run's raw log as
    the LogStore keeps it: a stream past DEFAULT_LOG_CAP bytes is only
    its head and tail there. File, process and network access is
    stubbed to record a violation and raise. The scripts come from a
    model that reads the issue text, and that text is attacker-supplied,
    so a script may be hostile. This cage only catches honest mistakes:
    it is not a security boundary. It runs in the calling process with
    no time limit, and object introspection reaches past its stubs.
    """

    def __init__(self, log_provider: Callable[[str], str] | None = None,
                 output_cap: int = DEFAULT_SCRIPT_OUTPUT_CAP):
        self.log_provider = log_provider
        self.output_cap = output_cap
        self.violations: list[str] = []

    def _violate(self, detail: str):
        self.violations.append(detail)
        raise SandboxViolation(detail)

    def _guarded_import(self, name, globals=None, locals=None, fromlist=(),
                        level=0):
        root = name.split(".")[0]
        if root in _ALLOWED_IMPORTS:
            return __import__(name, globals, locals, fromlist, level)
        self._violate(f"import of {name!r} blocked")

    def run_script(self, code: str) -> ScriptResult:
        buffer = io.StringIO()
        truncated = [False]

        def guarded_print(*args, sep=" ", end="\n", file=None, flush=False):
            if buffer.tell() >= self.output_cap:
                truncated[0] = True
                return
            print(*args, sep=sep, end=end, file=buffer)

        def blocked(what):
            def stub(*args, **kwargs):
                self._violate(f"{what} blocked")
            return stub

        safe_builtins = {name: getattr(_real_builtins, name)
                         for name in _SAFE_BUILTIN_NAMES
                         if hasattr(_real_builtins, name)}
        safe_builtins["print"] = guarded_print
        safe_builtins["__import__"] = self._guarded_import
        safe_builtins["__build_class__"] = __build_class__
        safe_builtins["__name__"] = "sandboxed_script"
        for banned in ("open", "input", "exec", "eval", "compile",
                       "breakpoint", "exit", "quit", "__loader__"):
            safe_builtins[banned] = blocked(banned)

        env = {"__builtins__": safe_builtins}
        if self.log_provider is not None:
            env["get_poc_output"] = self.log_provider

        before = len(self.violations)
        violation = None
        error = None
        try:
            exec(compile(code, "<agent-script>", "exec"), env)  # noqa: S102
        except SandboxViolation as exc:
            violation = str(exc)
        except BaseException as exc:
            error = _script_traceback(exc)
        if violation is None and len(self.violations) > before:
            # the script swallowed the violation; it still counts
            violation = self.violations[before]

        output = buffer.getvalue()
        if len(output) > self.output_cap:
            output = (output[:self.output_cap]
                      + f"\n... [output truncated at {self.output_cap} "
                        f"bytes] ...")
        elif truncated[0]:
            output += (f"\n... [output truncated at {self.output_cap} "
                       f"bytes] ...")
        if error:
            output = output + ("\n" if output else "") + error
        return ScriptResult(output=output, violation=violation, error=error)
