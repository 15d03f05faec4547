#!/usr/bin/env python3
"""ember_lint: project-invariant checks clang-tidy cannot express.

The rules encode contracts this codebase relies on for correctness at
scale (DESIGN.md section 11):

  naked-new / naked-delete
      All ownership in src/ goes through smart pointers or containers; a
      raw new/delete is either a leak-in-waiting or a double-free-in-
      waiting. (Deleted special members, `= delete`, are fine.)
  atomic-memory-order
      Every std::atomic load/store/RMW must spell its memory order. The
      lock-free metrics registry and the thread pool were audited order
      by order; an implicit seq_cst hides the reasoning and costs cycles
      on the hot path.
  neighbor-span-index
      Neighbor spans returned by NeighborList::neighbors(i) are iterated
      with range-for in kernel hot loops, never indexed with unchecked
      operator[]: a stale index into a rebuilt list is the classic silent
      corruption in MD codes.
  obs-span-early-return
      A bare { } block whose first statement is EMBER_OBS_SPAN or a named
      obs::ScopedSpan (a timed scope) is an instrumentation scope; a
      `return` inside one leaks control flow out of a region the trace
      and its timer claim completed.
  timer-switch-exhaustive
      Any switch over TimerCategory must list all five enumerators
      (Pair, Neigh, Comm, Other, Dump) and carry no default:, so adding
      a category is a compile-time (and lint-time) event, never a
      silently mis-bucketed timer.
  blocking-io-in-steploop
      Code that participates in the step loop (any file outside src/io/
      that names StepLoop or StepStages) must not open output streams or
      call the path-level serializers directly: scheduled output goes
      through io::Writer requests, so the async backend can take the
      write off the stepping thread. A bare std::ofstream in a driver is
      a stall the Dump timer cannot see. (Reads — std::ifstream,
      read_checkpoint — are fine: restarts are not on the hot path.)
  comm-backend-include
      comm/communicator.hpp and comm/socket_transport.hpp are backend
      implementation headers, private to src/comm/. Everything else
      programs against the comm/transport.hpp interface and obtains a
      backend through comm::make_context, so drivers stay portable
      across thread-rank and process-rank execution.
  simd-intrinsics-include
      <immintrin.h> (and the other x86 intrinsics headers) may be
      included only by the per-ISA translation units in src/snap/simd/.
      Everything else uses the runtime-dispatched SimdOps table via
      snap/simd/dispatch.hpp, so the rest of the tree stays portable and
      builds without any -m<isa> flags.

Suppressions must carry a reason:

    // ember-lint: allow(<rule-id>) -- <why this site is exempt>

on the offending line or in the comment block directly above it. An
allow() without a reason is itself reported.

Usage: scripts/ember_lint.py [paths...]        (default: src)
       scripts/ember_lint.py --list-rules
Exit status 1 when findings are reported, 0 when clean.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

RULES = {
    "naked-new": "raw `new` outside smart-pointer/container ownership",
    "naked-delete": "raw `delete` (deleted special members are exempt)",
    "atomic-memory-order": "std::atomic operation without an explicit memory order",
    "neighbor-span-index": "unchecked operator[] on a NeighborList neighbor span",
    "obs-span-early-return": "return inside a bare EMBER_OBS_SPAN / obs::ScopedSpan instrumentation block",
    "timer-switch-exhaustive": "switch over TimerCategory missing enumerators or using default:",
    "blocking-io-in-steploop": "direct file output in step-loop code: submit an io::Writer request",
    "comm-backend-include": "comm backend header included outside src/comm/",
    "simd-intrinsics-include": "x86 intrinsics header included outside src/snap/simd/",
}

SOURCE_SUFFIXES = {".cpp", ".cc", ".hpp", ".h"}

ALLOW_RE = re.compile(
    r"ember-lint:\s*allow\((?P<rule>[a-z-]+)\)(?:\s*--\s*(?P<reason>\S.*))?")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text: str) -> str:
    """Blank out comments, string and char literals, preserving layout.

    Every replaced character becomes a space so line numbers and column
    offsets in the stripped text match the original exactly.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            quote = c
            # Raw string literal: R"delim( ... )delim"
            if quote == '"' and i >= 1 and text[i - 1] == "R":
                m = re.match(r'"([^()\s\\]{0,16})\(', text[i:])
                if m:
                    close = ")" + m.group(1) + '"'
                    end = text.find(close, i)
                    end = (end + len(close)) if end != -1 else n
                    for k in range(i, min(end, n)):
                        if text[k] != "\n":
                            out[k] = " "
                    i = end
                    continue
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def find_matching(text: str, open_pos: int, open_ch: str, close_ch: str) -> int:
    """Index of the bracket matching text[open_pos], or len(text)."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def allowed(raw_lines: list[str], line: int, rule: str,
            findings: list[Finding], path: Path) -> bool:
    """True when line (1-based) carries a matching allow annotation, on the
    line itself or in the contiguous comment block directly above."""
    candidates = [line]
    k = line - 1
    while k >= 1 and raw_lines[k - 1].lstrip().startswith("//"):
        candidates.append(k)
        k -= 1
    for cand in candidates:
        m = ALLOW_RE.search(raw_lines[cand - 1])
        if m and m.group("rule") == rule:
            if not m.group("reason"):
                findings.append(Finding(
                    path, cand, rule,
                    "allow() annotation must carry a reason: "
                    "`// ember-lint: allow(%s) -- <reason>`" % rule))
                return True  # suppress the original finding, report the bare allow
            return True
    return False


# ---------------------------------------------------------------- rules ----

NEW_RE = re.compile(r"\bnew\b(?!\s*\()\s*[\w:<(]|\bnew\s*\(")
DELETE_RE = re.compile(r"(?<![=\w])\s*\bdelete\b\s*(\[\s*\])?\s*[\w:*(]")
DELETED_FN_RE = re.compile(r"=\s*delete\b")


def check_naked_new_delete(path, raw_lines, code, findings):
    for m in NEW_RE.finditer(code):
        ln = line_of(code, m.start())
        if not allowed(raw_lines, ln, "naked-new", findings, path):
            findings.append(Finding(
                path, ln, "naked-new",
                "raw `new`: own memory via std::make_unique/containers"))
    for m in re.finditer(r"\bdelete\b", code):
        ln = line_of(code, m.start())
        lo = max(0, m.start() - 16)
        if DELETED_FN_RE.search(code[lo:m.end()]):
            continue  # `= delete` special member
        if not allowed(raw_lines, ln, "naked-delete", findings, path):
            findings.append(Finding(
                path, ln, "naked-delete",
                "raw `delete`: ownership must be RAII-managed"))


# `.clear(` / `.wait(` are deliberately absent: they collide with
# std::vector::clear and std::condition_variable::wait, and this codebase
# uses no std::atomic_flag.
ATOMIC_OP_RE = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong|test_and_set)"
    r"\s*\(")


def check_atomic_memory_order(path, raw_lines, code, findings):
    for m in ATOMIC_OP_RE.finditer(code):
        open_pos = m.end() - 1
        close_pos = find_matching(code, open_pos, "(", ")")
        args = code[open_pos + 1:close_pos]
        if "memory_order" in args:
            continue
        ln = line_of(code, m.start())
        if not allowed(raw_lines, ln, "atomic-memory-order", findings, path):
            findings.append(Finding(
                path, ln, "atomic-memory-order",
                f"`.{m.group(1)}(...)` without an explicit std::memory_order"))


NEIGHBOR_DIRECT_RE = re.compile(r"\bneighbors\s*\(")
NEIGHBOR_BIND_RE = re.compile(
    r"(?:auto|std::span<[^;=\n]*Entry[^;=\n]*>)\s*[&\s]*\b(\w+)\s*=\s*"
    r"[\w.\->()\[\]]*\bneighbors\s*\(")


def check_neighbor_span_index(path, raw_lines, code, findings):
    # Direct indexing of the returned span: nl.neighbors(i)[k]
    for m in NEIGHBOR_DIRECT_RE.finditer(code):
        close = find_matching(code, m.end() - 1, "(", ")")
        after = code[close + 1:close + 8]
        if after.lstrip().startswith("["):
            ln = line_of(code, m.start())
            if not allowed(raw_lines, ln, "neighbor-span-index", findings, path):
                findings.append(Finding(
                    path, ln, "neighbor-span-index",
                    "direct operator[] on neighbors(...): iterate with "
                    "range-for or bounds-check the index"))
    # Indexing a variable bound to a neighbor span, within the same scope
    # (approximated as: until the enclosing brace block closes).
    for m in NEIGHBOR_BIND_RE.finditer(code):
        var = m.group(1)
        depth = code.count("{", 0, m.start()) - code.count("}", 0, m.start())
        idx_re = re.compile(r"\b" + re.escape(var) + r"\s*\[")
        pos = m.end()
        while pos < len(code):
            ch = code[pos]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth < 0:
                    break
            im = idx_re.match(code, pos)
            if im:
                # A dominating `idx < var.size()` bound (e.g. the loop
                # condition) makes the access checked; only flag unchecked
                # ones.
                bracket_close = find_matching(code, im.end() - 1, "[", "]")
                idx_expr = code[im.end():bracket_close].strip()
                guard_re = re.compile(
                    re.escape(idx_expr) + r"\s*(?:<|!=)\s*" + re.escape(var) +
                    r"\s*\.\s*size\s*\(\s*\)")
                if not idx_expr or not guard_re.search(code[m.end():pos]):
                    ln = line_of(code, pos)
                    if not allowed(raw_lines, ln, "neighbor-span-index",
                                   findings, path):
                        findings.append(Finding(
                            path, ln, "neighbor-span-index",
                            f"unchecked operator[] on neighbor span `{var}`: "
                            "iterate with range-for or guard the index "
                            f"against {var}.size()"))
                pos = bracket_close + 1
                continue
            pos += 1


OBS_SPAN_RE = re.compile(
    r"\b(?:EMBER_OBS_SPAN\s*\(|(?:(?:ember::)?obs::)?ScopedSpan\s+\w+\s*[({])")


def check_obs_span_early_return(path, raw_lines, code, findings):
    code_lines = code.split("\n")
    for m in OBS_SPAN_RE.finditer(code):
        span_line = line_of(code, m.start())
        # Find the opening brace of the enclosing scope.
        depth = 0
        open_pos = -1
        for i in range(m.start() - 1, -1, -1):
            if code[i] == "}":
                depth += 1
            elif code[i] == "{":
                if depth == 0:
                    open_pos = i
                    break
                depth -= 1
        if open_pos < 0:
            continue
        # Instrumentation block: the scope opener is a bare `{` line and
        # the span macro is its first statement.
        open_line = line_of(code, open_pos)
        if code_lines[open_line - 1].strip() != "{":
            continue
        between = code[open_pos + 1:m.start()]
        if between.strip():
            continue  # span is not the first statement
        close_pos = find_matching(code, open_pos, "{", "}")
        block = code[open_pos:close_pos]
        for rm in re.finditer(r"\breturn\b", block):
            ln = line_of(code, open_pos + rm.start())
            if not allowed(raw_lines, ln, "obs-span-early-return",
                           findings, path):
                findings.append(Finding(
                    path, ln, "obs-span-early-return",
                    f"return inside the span block opened at line "
                    f"{span_line}: hoist the early return out of the "
                    "instrumentation scope"))


SWITCH_RE = re.compile(r"\bswitch\s*\(")
TIMER_ENUMERATORS = ("Pair", "Neigh", "Comm", "Other", "Dump")


def check_timer_switch_exhaustive(path, raw_lines, code, findings):
    for m in SWITCH_RE.finditer(code):
        paren_close = find_matching(code, m.end() - 1, "(", ")")
        brace_open = code.find("{", paren_close)
        if brace_open < 0:
            continue
        body = code[brace_open:find_matching(code, brace_open, "{", "}") + 1]
        if "TimerCategory::" not in body:
            continue
        ln = line_of(code, m.start())
        cases = set(re.findall(r"case\s+TimerCategory::(\w+)", body))
        missing = [e for e in TIMER_ENUMERATORS if e not in cases]
        if missing and not allowed(raw_lines, ln, "timer-switch-exhaustive",
                                   findings, path):
            findings.append(Finding(
                path, ln, "timer-switch-exhaustive",
                "switch over TimerCategory missing case(s): "
                + ", ".join(missing)))
        if re.search(r"\bdefault\s*:", body) and not allowed(
                raw_lines, ln, "timer-switch-exhaustive", findings, path):
            findings.append(Finding(
                path, ln, "timer-switch-exhaustive",
                "switch over TimerCategory must not use default: "
                "(new categories must fail to compile, not mis-bucket)"))


# The output pipeline (DESIGN.md section 13) hinges on one property: the
# stepping thread never blocks on a file. Any file that participates in
# the step loop — it names StepLoop or StepStages in code — must express
# output as io::Writer requests instead of opening streams or calling
# the path-level serializers itself, or the async backend silently
# degrades to sync for that path. src/io/ is exempt (it IS the writer),
# and input streams are exempt (restarts run off the hot path).
STEPLOOP_RE = re.compile(r"\b(?:StepLoop|StepStages)\b")
BLOCKING_IO_RE = re.compile(
    r"std::ofstream|std::fstream\b|\bfopen\s*\(|"
    r"\b(?:md|io)::write_(?:xyz|checkpoint_batch|checkpoint)\s*\(")


def check_blocking_io_in_steploop(path, raw_lines, code, findings):
    posix = path.as_posix()
    if "src/io/" in posix or posix.startswith("src/io"):
        return
    if not STEPLOOP_RE.search(code):
        return
    for m in BLOCKING_IO_RE.finditer(code):
        ln = line_of(code, m.start())
        if not allowed(raw_lines, ln, "blocking-io-in-steploop",
                       findings, path):
            findings.append(Finding(
                path, ln, "blocking-io-in-steploop",
                f"`{m.group(0).strip()}` in step-loop code: output must go "
                "through an io::Writer request so the async backend can "
                "take the write off the stepping thread"))


# The comm backends (thread mailboxes, socket processes) are private to
# src/comm/: everything else programs against comm/transport.hpp and
# obtains a backend through comm::make_context. This rule keeps backend
# headers from leaking back out. It scans raw lines, not stripped code,
# because strip_code blanks string literals -- which is exactly where an
# include path lives.
BACKEND_INCLUDE_RE = re.compile(
    r'#\s*include\s*"(comm/communicator\.hpp|comm/socket_transport\.hpp)"')


def check_comm_backend_include(path, raw_lines, code, findings):
    posix = path.as_posix()
    if "src/comm/" in posix or posix.startswith("src/comm"):
        return
    for idx, line in enumerate(raw_lines, start=1):
        m = BACKEND_INCLUDE_RE.search(line)
        if m and not allowed(raw_lines, idx, "comm-backend-include",
                             findings, path):
            findings.append(Finding(
                path, idx, "comm-backend-include",
                '`#include "%s"` outside src/comm/: comm backends are '
                "private; include comm/transport.hpp and construct through "
                "comm::make_context instead" % m.group(1)))


# SIMD intrinsics stay behind the runtime dispatcher: only the per-ISA
# kernel TUs in src/snap/simd/ may include the x86 intrinsics headers
# (they are the only files compiled with -m<isa> flags; an intrinsic
# anywhere else would either fail to build or, worse, emit illegal
# instructions on older hosts). Raw lines again, since strip_code blanks
# the include path string.
INTRIN_INCLUDE_RE = re.compile(
    r"#\s*include\s*[<\"]("
    r"immintrin\.h|x86intrin\.h|xmmintrin\.h|emmintrin\.h|pmmintrin\.h|"
    r"tmmintrin\.h|smmintrin\.h|nmmintrin\.h|wmmintrin\.h|avxintrin\.h|"
    r"avx2intrin\.h|avx512fintrin\.h"
    r")[>\"]")


def check_simd_intrinsics_include(path, raw_lines, code, findings):
    posix = path.as_posix()
    if "src/snap/simd/" in posix or posix.startswith("src/snap/simd"):
        return
    for idx, line in enumerate(raw_lines, start=1):
        m = INTRIN_INCLUDE_RE.search(line)
        if m and not allowed(raw_lines, idx, "simd-intrinsics-include",
                             findings, path):
            findings.append(Finding(
                path, idx, "simd-intrinsics-include",
                "`#include <%s>` outside src/snap/simd/: intrinsics are "
                "confined to the per-ISA kernel TUs; program against "
                "snap/simd/dispatch.hpp instead" % m.group(1)))


CHECKS = [
    check_naked_new_delete,
    check_atomic_memory_order,
    check_neighbor_span_index,
    check_obs_span_early_return,
    check_timer_switch_exhaustive,
    check_blocking_io_in_steploop,
    check_comm_backend_include,
    check_simd_intrinsics_include,
]


def lint_file(path: Path) -> list[Finding]:
    text = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = text.split("\n")
    code = strip_code(text)
    findings: list[Finding] = []
    for check in CHECKS:
        check(path, raw_lines, code, findings)
    return findings


def collect_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            files.extend(f for f in sorted(path.rglob("*"))
                         if f.suffix in SOURCE_SUFFIXES and f.is_file())
        else:
            print(f"ember_lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=["src"],
                    help="files or directories to lint (default: src)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule catalogue and exit")
    args = ap.parse_args()

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:24s} {desc}")
        return 0

    findings: list[Finding] = []
    files = collect_files(args.paths or ["src"])
    for f in files:
        findings.extend(lint_file(f))

    findings.sort(key=lambda fi: (str(fi.path), fi.line, fi.rule))
    for fi in findings:
        print(fi)
    if findings:
        print(f"ember_lint: {len(findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"ember_lint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Piping into `head` closes stdout early; exit with the
        # conventional 128+SIGPIPE instead of a traceback.
        sys.exit(141)
