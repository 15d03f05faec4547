#!/usr/bin/env python3
"""ember_analyze: flow-aware concurrency/determinism checks for src/.

The sibling of ember_lint.py (DESIGN.md section 14). ember_lint rules
are line- or include-local; these three need a model of scopes and
control flow — which brace block a statement lives in, which function
body it belongs to, what condition guards it — that clang-tidy's
matcher language cannot express either:

  collective-symmetry
      Transport collectives (barrier / allreduce_* / broadcast /
      gather* / run_gather / global_state) are rendezvous points: every
      rank must reach the same sequence or the mesh deadlocks. In any
      file that talks to a Transport (StepStages overrides, comm-farm
      loops, and src/comm/ itself) two shapes break that symmetry and
      both are flagged:
        (a) a conditional early `return` lexically before a later
            collective in the same function — a rank that takes the
            branch never shows up at the rendezvous;
        (b) a collective nested under a rank-dependent condition
            (`rank`, `rank_`, `rank()`, `is_root`) — only some ranks
            enter the call at all.
      There is no path exemption: the Transport base builds the
      collectives from point-to-point legs, which the rule does not
      treat as rendezvous points.
  blocking-under-lock
      While a lock scope (ember::LockGuard, std::lock_guard /
      unique_lock / scoped_lock) is open, no call that can block on
      another thread or on the filesystem: io::Writer submit()/drain(),
      Transport send*/recv*, ThreadPool parallel_for, thread join(),
      or opening an std::ofstream/fopen. A blocking call under a lock
      turns the lock into a convoy (every contender stalls behind the
      I/O) and is one ordering edge away from deadlock. CondVar wait()
      is exempt — releasing the lock while blocked is its contract.
  unordered-iteration-reduction
      In src/md, src/snap and src/io, no range-for over a
      std::unordered_map / std::unordered_set that feeds an
      accumulation (+=, -=, *=) or an output stream (<<, push_back,
      submit). Hash iteration order is unspecified and libstdc++
      changes it with load factor and seed: a sum or a dump fed from
      one is the classic silently-nondeterministic reduction. Iterate
      a sorted copy, or use std::map / a vector.

Suppressions must carry a reason (same contract ember_lint enforces):

    // ember-analyze: allow(<rule-id>) -- <why this site is exempt>

on the offending line or in the comment block directly above it. An
allow() without a reason is itself reported.

Usage: scripts/ember_analyze.py [paths...]      (default: src)
       scripts/ember_analyze.py --list-rules
Exit status 1 when findings are reported, 0 when clean, 2 on bad paths.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

RULES = {
    "collective-symmetry":
        "rank-conditional path around a Transport collective (mesh deadlock)",
    "blocking-under-lock":
        "blocking call (submit/drain/send/recv/join/ofstream) inside a lock scope",
    "unordered-iteration-reduction":
        "unordered_{map,set} iteration feeding a reduction or output",
}

SOURCE_SUFFIXES = {".cpp", ".cc", ".hpp", ".h"}

ALLOW_RE = re.compile(
    r"ember-analyze:\s*allow\((?P<rule>[a-z-]+)\)(?:\s*--\s*(?P<reason>\S.*))?")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text: str) -> str:
    """Blank out comments, string and char literals, preserving layout
    (same contract as ember_lint.strip_code: offsets stay exact)."""
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


def allowed(raw_lines: list[str], line: int, rule: str,
            findings: list[Finding], path: Path) -> bool:
    """True when line (1-based) carries a matching allow annotation, on
    the line itself or in the contiguous comment block directly above."""
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
                    "`// ember-analyze: allow(%s) -- <reason>`" % rule))
                return True  # suppress the finding, report the bare allow
            return True
    return False


# ------------------------------------------------------------ scope model ----

CONTROL_KEYWORDS = {"if", "while", "for", "switch", "catch", "do", "else"}


class Block:
    """One brace block in the stripped code.

    kind is 'function' (a function, method or lambda body), 'control'
    (the block of an if/else/while/for/switch/catch/do) or 'plain'
    (a bare scope). cond holds the text inside the controlling (...)
    for control blocks — for an `else` block, the owning if's condition.
    """

    __slots__ = ("open", "close", "kind", "cond", "parent", "sig_open")

    def __init__(self, open_pos: int, close_pos: int, kind: str,
                 cond: str, parent: "Block | None", sig_open: int = -1):
        self.open = open_pos
        self.close = close_pos
        self.kind = kind
        self.cond = cond
        self.parent = parent
        # For function blocks: position of the parameter list's '(' when
        # known, so parameters count as inside the function's scope.
        self.sig_open = sig_open if sig_open >= 0 else open_pos


IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _preceding_ident(code: str, pos: int) -> str:
    """The identifier ending directly before pos (skipping whitespace)."""
    j = pos - 1
    while j >= 0 and code[j].isspace():
        j -= 1
    end = j + 1
    while j >= 0 and (code[j].isalnum() or code[j] == "_"):
        j -= 1
    return code[j + 1:end]


def _matching_open_paren(code: str, close: int) -> int:
    depth = 0
    for i in range(close, -1, -1):
        if code[i] == ")":
            depth += 1
        elif code[i] == "(":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _classify_block(code: str, open_pos: int) -> tuple[str, str, int]:
    """Classify the brace at open_pos: (kind, condition-text, sig_open)."""
    j = open_pos - 1
    while j >= 0 and code[j].isspace():
        j -= 1
    if j < 0:
        return "plain", "", -1
    # `do {` / `else {` / `try {`: keyword directly before the brace.
    word = _preceding_ident(code, j + 1)
    if word == "do":
        return "control", "", -1
    if word == "else":
        # Walk back over `else` to the owning `if (...)` condition.
        k = j - len("else")
        close = code.rfind(")", 0, k + 1)
        cond = ""
        if close != -1:
            op = _matching_open_paren(code, close)
            if op != -1 and _preceding_ident(code, op) == "if":
                cond = code[op + 1:close]
        return "control", cond, -1
    if word == "try":
        return "plain", "", -1
    # Skip trailing function decorations back to a `)` if present.
    while True:
        word = _preceding_ident(code, j + 1)
        if word in ("const", "noexcept", "override", "final", "mutable"):
            j -= len(word)
            while j >= 0 and code[j].isspace():
                j -= 1
            continue
        break
    if j >= 0 and code[j] == ")":
        op = _matching_open_paren(code, j)
        if op == -1:
            return "plain", "", -1
        kw = _preceding_ident(code, op)
        if kw in CONTROL_KEYWORDS:
            return "control", code[op + 1:j], -1
        # A lambda introducer `[...](...)` or a named function/method.
        return "function", "", op
    if j >= 0 and code[j] == "]":
        return "function", "", -1  # capture-default lambda with no parens
    return "plain", "", -1


def parse_blocks(code: str) -> list[Block]:
    """All brace blocks, classified, with parent links."""
    blocks: list[Block] = []
    stack: list[Block] = []
    for i, c in enumerate(code):
        if c == "{":
            kind, cond, sig_open = _classify_block(code, i)
            blk = Block(i, len(code), kind, cond,
                        stack[-1] if stack else None, sig_open)
            blocks.append(blk)
            stack.append(blk)
        elif c == "}":
            if stack:
                stack.pop().close = i
    return blocks


def innermost_block(blocks: list[Block], pos: int) -> Block | None:
    best = None
    for b in blocks:
        if b.open < pos < b.close:
            if best is None or b.open > best.open:
                best = b
    return best


def enclosing_function(block: Block | None) -> Block | None:
    while block is not None and block.kind != "function":
        block = block.parent
    return block


# ------------------------------------------------- rule 1: collectives ----

# A collective rendezvous on the Transport API (or a driver method that
# is one: gather/global_state do allreduces/sends on every rank).
COLLECTIVE_RE = re.compile(
    r"(?:\.|->|\b)"
    r"(barrier|allreduce_\w+|broadcast|gather(?:_global)?|run_gather|"
    r"global_state)\s*\(")

RANK_COND_RE = re.compile(r"\brank_?\b|\bis_root\b")
RETURN_RE = re.compile(r"\breturn\b")

# The rule applies to code that talks to a Transport / comm Context;
# pure compute files (e.g. the SIMD kernels' V::broadcast) are out of
# scope by this gate.
COMM_SCOPED_RE = re.compile(r"\bcomm::|Transport\s*&|\bcomm_\b")


def _cond_chain(block: Block | None, fn: Block) -> list[Block]:
    """Control blocks enclosing `block`, innermost first, stopping at fn."""
    chain = []
    while block is not None and block is not fn:
        if block.kind == "control":
            chain.append(block)
        if block.kind == "function":
            break
        block = block.parent
    return chain


def check_collective_symmetry(path, raw_lines, code, findings):
    if not COMM_SCOPED_RE.search(code):
        return
    blocks = parse_blocks(code)

    collectives = []  # (pos, name, fn-block)
    for m in COLLECTIVE_RE.finditer(code):
        blk = innermost_block(blocks, m.start())
        fn = enclosing_function(blk)
        if fn is None:
            continue
        collectives.append((m.start(), m.group(1), blk, fn))

    # (b) collective under a rank-dependent condition.
    for pos, name, blk, fn in collectives:
        for ctl in _cond_chain(blk, fn):
            if RANK_COND_RE.search(ctl.cond):
                ln = line_of(code, pos)
                if not allowed(raw_lines, ln, "collective-symmetry",
                               findings, path):
                    findings.append(Finding(
                        path, ln, "collective-symmetry",
                        f"collective `{name}(...)` guarded by the "
                        "rank-dependent condition at line "
                        f"{line_of(code, ctl.open)}: ranks that skip the "
                        "branch never reach the rendezvous and the mesh "
                        "deadlocks"))
                break

    # (a) conditional early return before a later collective in the
    # same function.
    by_fn: dict[int, list[tuple[int, str]]] = {}
    for pos, name, _blk, fn in collectives:
        by_fn.setdefault(fn.open, []).append((pos, name))
    for m in RETURN_RE.finditer(code):
        blk = innermost_block(blocks, m.start())
        fn = enclosing_function(blk)
        if fn is None or fn.open not in by_fn:
            continue
        chain = _cond_chain(blk, fn)
        if not chain:
            continue  # unconditional return: every rank takes it
        later = [(p, n) for p, n in by_fn[fn.open]
                 if p > m.start() and p < fn.close]
        # A collective inside the same conditional block as the return
        # is skipped together with it — only flag rendezvous points the
        # fall-through path still reaches.
        later = [(p, n) for p, n in later if not (chain[0].open < p < chain[0].close)]
        if not later:
            continue
        ln = line_of(code, m.start())
        if not allowed(raw_lines, ln, "collective-symmetry", findings, path):
            p, n = later[0]
            findings.append(Finding(
                path, ln, "collective-symmetry",
                f"conditional early return skips the collective `{n}(...)` "
                f"at line {line_of(code, p)}: a rank taking this branch "
                "never reaches the rendezvous — restructure so every rank "
                "executes the same collective sequence"))


# ---------------------------------------------- rule 2: blocking-under-lock ----

LOCK_DECL_RE = re.compile(
    r"\b(?:std::lock_guard|std::unique_lock|std::scoped_lock|"
    r"(?:ember::)?LockGuard)\s*(?:<[^;>]*>)?\s+(\w+)\s*[({]")

BLOCKING_CALL_RE = re.compile(
    r"(?:\.|->)\s*(submit|drain|send|recv|send_bytes|recv_bytes|"
    r"recv_bytes_any|parallel_for|join)\s*\(|"
    r"\bstd::(?:ofstream|fstream)\b|\bfopen\s*\(")


def check_blocking_under_lock(path, raw_lines, code, findings):
    blocks = parse_blocks(code)
    for m in LOCK_DECL_RE.finditer(code):
        scope = innermost_block(blocks, m.start())
        if scope is None:
            continue
        # The lock is held from its declaration to the end of its block.
        region_start, region_end = m.end(), scope.close
        for bm in BLOCKING_CALL_RE.finditer(code, region_start, region_end):
            # Blocking calls inside a nested lambda body are deferred
            # work, not calls made while this lock is held.
            bblk = innermost_block(blocks, bm.start())
            fn_here = enclosing_function(innermost_block(blocks, m.start()))
            if enclosing_function(bblk) is not fn_here:
                continue
            what = (bm.group(1) or
                    bm.group(0).replace("std::", "").split("(")[0]).strip()
            ln = line_of(code, bm.start())
            if not allowed(raw_lines, ln, "blocking-under-lock",
                           findings, path):
                findings.append(Finding(
                    path, ln, "blocking-under-lock",
                    f"`{what}` called while `{m.group(1)}` (declared line "
                    f"{line_of(code, m.start())}) holds its lock: move the "
                    "blocking call out of the critical section — copy the "
                    "state out under the lock, then block"))


# ------------------------------- rule 3: unordered-iteration-reduction ----

UNORDERED_DIRS = ("src/md", "src/snap", "src/io")

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set)\s*<[^;{}]*>\s*[&*]?\s*(\w+)")

ACCUMULATE_RE = re.compile(
    r"[+\-*|&^]=|<<|\bpush_back\s*\(|\bsubmit\s*\(|\bwrite\w*\s*\(|"
    r"\binsert\s*\(|\bemplace\w*\s*\(")


def check_unordered_iteration(path, raw_lines, code, findings):
    # The determinism contract covers the physics + output pipeline
    # (src/md, src/snap, src/io); obs/bench bookkeeping may hash freely.
    # Files outside src/ (the self-test fixtures) are always in scope.
    posix = path.as_posix()
    if "src/" in posix and not any(d in posix for d in UNORDERED_DIRS):
        return
    blocks = parse_blocks(code)
    decls = [(m.start(), m.group(1)) for m in UNORDERED_DECL_RE.finditer(code)]
    if not decls:
        return

    def fn_of(pos: int) -> Block | None:
        """Innermost function block whose scope (parameter list included)
        contains pos."""
        best = None
        for b in blocks:
            if b.kind == "function" and b.sig_open < pos < b.close:
                if best is None or b.open > best.open:
                    best = b
        return best

    def visible_vars(fn: Block | None) -> set[str]:
        """Names declared at file/class scope, or in `fn` itself or an
        enclosing function (so a sibling function's local of the same
        name never leaks in)."""
        out = set()
        for pos, name in decls:
            owner = fn_of(pos)
            if owner is None:
                out.add(name)
                continue
            walk = fn
            while walk is not None:
                if walk is owner:
                    out.add(name)
                    break
                walk = walk.parent
        return out
    # Range-for over an unordered container (directly or via a declared
    # variable), whose body accumulates or emits.
    for m in re.finditer(r"\bfor\s*\(", code):
        close = _find_matching(code, m.end() - 1, "(", ")")
        head = code[m.end():close]
        # The range-for separator is a single ':' (never the '::' of a
        # qualified name in the declaration or range expression).
        sep = re.search(r"(?<!:):(?!:)", head)
        if sep is None:
            continue
        range_expr = head[sep.end():].strip()
        range_idents = set(IDENT_RE.findall(range_expr))
        in_scope = visible_vars(fn_of(m.start()))
        is_unordered = ("unordered_map" in range_expr or
                        "unordered_set" in range_expr or
                        bool(range_idents & in_scope))
        if not is_unordered:
            continue
        body_open = code.find("{", close)
        if body_open < 0:
            continue
        body_close = _find_matching(code, body_open, "{", "}")
        body = code[body_open:body_close]
        am = ACCUMULATE_RE.search(body)
        if am is None:
            continue
        ln = line_of(code, m.start())
        if not allowed(raw_lines, ln, "unordered-iteration-reduction",
                       findings, path):
            findings.append(Finding(
                path, ln, "unordered-iteration-reduction",
                f"range-for over unordered container `{range_expr}` feeds "
                f"an accumulation/output at line "
                f"{line_of(code, body_open + am.start())}: hash order is "
                "unspecified — iterate a sorted copy or use std::map"))


def _find_matching(text: str, open_pos: int, open_ch: str, close_ch: str) -> int:
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return len(text)


CHECKS = [
    check_collective_symmetry,
    check_blocking_under_lock,
    check_unordered_iteration,
]


def analyze_file(path: Path) -> list[Finding]:
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
            print(f"ember_analyze: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=["src"],
                    help="files or directories to analyze (default: src)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule catalogue and exit")
    args = ap.parse_args()

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:32s} {desc}")
        return 0

    findings: list[Finding] = []
    files = collect_files(args.paths or ["src"])
    for f in files:
        findings.extend(analyze_file(f))

    findings.sort(key=lambda fi: (str(fi.path), fi.line, fi.rule))
    for fi in findings:
        print(fi)
    if findings:
        print(f"ember_analyze: {len(findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"ember_analyze: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(141)
