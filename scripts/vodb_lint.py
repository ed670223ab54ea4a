#!/usr/bin/env python3
"""Repo-specific lint invariants clang-tidy cannot express.

Two analysis backends feed one shared rule-evaluation layer:

  * AST backend (``--ast``): libclang (python3-clang) driven by the
    ``compile_commands.json`` a configured build tree exports. Exact
    class/field attribution for member accesses, exact loop and function
    extents. Requires libclang; CI passes ``--require-ast`` so the
    fallback can never silently stand in there.
  * Token backend (default, and the ``--ast`` fallback): comment-stripped
    token/scope analysis. No dependencies, slightly conservative — it
    only attributes an access when the receiver or enclosing
    ``Class::Method`` definition resolves a unique class.

Line-grep rules (backend-independent):

  raw-double-unit
      Public headers under src/ must not pass raw `double` seconds/bits/
      rates across their API where the common/units.h aliases (Seconds,
      Bits, BitsPerSecond) exist: the alias is the documentation, and
      mixing raw doubles with unit aliases is how ms/s and bit/byte slips
      enter. Applies to declarations whose identifier names a physical
      quantity (time, bits, rate, ...).

  check-in-hot-loop
      VOD_CHECK aborts are always-on and the simulator's per-event loops
      are the hot path; inside a loop body in src/sim or src/sched the
      check must either be VOD_DCHECK (compiled out under NDEBUG) or sit
      in an explicit `#ifndef NDEBUG` region.

  raw-timing
      All host-clock access in src/ goes through src/obs/clock.h
      (obs::MonotonicNanos / obs::Stopwatch / obs::ProfTicks): one clock
      source means traces, profiles, and run wall times are mutually
      comparable, and keeps wall-clock reads out of code that must depend
      only on *simulated* time. Direct std::chrono / clock_gettime /
      gettimeofday use and cycle-counter reads (__rdtsc,
      __builtin_ia32_rdtsc, rdtscp, including the mnemonic inside an asm
      string) are flagged everywhere under src/ except src/obs/ itself.

  unconsumed-status
      Every call to a function returning vod::Status or vod::Result must
      consume the result (assign, return, test, VOD_RETURN_IF_ERROR, or an
      explicit void cast). The [[nodiscard]] attributes enforce this at
      compile time for -Werror targets (src/); this rule extends the net
      over tests/, bench/, and examples/, which build without -Werror.

Structural rules (AST or token backend; scoped to src/):

  unannotated-shared-state
      A class field written or read inside a vod::MutexLock /
      std::lock_guard region must carry a VODB_GUARDED_BY capability
      annotation (common/thread_annotations.h) naming that mutex, so
      Clang's -Wthread-safety pass (CI `thread-safety` job) can reject
      unlocked accesses at compile time. std::atomic, const, Mutex, and
      CondVar members are exempt (self-synchronizing or immutable).

  lock-order
      Lock-acquisition order must be consistent across the repo: if any
      code path acquires mutex B while holding A, no path may acquire A
      while holding B (classic deadlock cycle). Detected over all
      translation units jointly; each edge participating in a cycle is
      reported at its acquisition site.

  alloc-in-hot-path
      No allocation inside a loop body of a profiler-scoped function
      (one containing VODB_PROF_SCOPE — exactly the per-event paths the
      profiling layer flags): no `new`/`malloc`/`make_unique`, no
      container constructed in the loop, and no growth call
      (push_back/emplace/insert/...) unless the receiver was `reserve()`d
      earlier in the same function.

  unordered-iteration
      Determinism audit: iterating a std::unordered_{map,set,...} in a
      region that feeds an output channel (stream <<, printf family,
      ToJson/ToCsv, Append/write) emits hash order, which varies across
      libstdc++ versions and ASLR seeds, and breaks the byte-identical
      golden CSV/JSON/trace contract. Iterate a std::map or sort the keys
      instead.

  units-hygiene
      Dimensional-analysis hygiene for public headers under src/: a raw
      `double` parameter or field whose name carries a unit suffix
      (`*_bits`, `*_seconds`, `*_bps`, `*_rate`, or the bare words) is a
      typed quantity that escaped the common/units.h Quantity layer —
      the compiler cannot check its dimension at call sites. Declare it
      vod::Bits / vod::Seconds / vod::BitsPerSecond instead; genuinely
      dimensionless parameters (distribution rates, ratios) take an
      allow comment stating why. On the AST backend the declaration kind
      (parameter vs field) is exact; the token backend matches `double
      <ident>` declarations, skipping return types.

Suppress any finding with a trailing  // vodb-lint: allow(<rule>)  on the
reported line — or  allow(<rule-a>, <rule-b>)  when several rules fire on
the same declaration — stating why in a nearby comment.

Exit status: 0 clean, 1 findings, 2 when --require-ast is set and the
libclang backend is unavailable.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import sys

ALLOW_RE = re.compile(r"//\s*vodb-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def strip_comments(text: str) -> str:
    """Blanks out // and /* */ comments and string literals, preserving
    line structure so reported line numbers stay valid."""
    out = []
    i, n = 0, len(text)
    mode = None  # None | "line" | "block" | "str" | "chr"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode is None:
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "str"
                out.append(c)
                i += 1
                continue
            if c == "'":
                mode = "chr"
                out.append(c)
                i += 1
                continue
            out.append(c)
        else:
            if c == "\n":
                if mode == "line":
                    mode = None
                out.append(c)
            elif mode == "block" and c == "*" and nxt == "/":
                mode = None
                out.append("  ")
                i += 2
                continue
            elif mode == "str" and c == "\\":
                out.append("  ")
                i += 2
                continue
            elif mode == "str" and c == '"':
                mode = None
                out.append(c)
            elif mode == "chr" and c == "\\":
                out.append("  ")
                i += 2
                continue
            elif mode == "chr" and c == "'":
                mode = None
                out.append(c)
            else:
                out.append(" ")
            i += 1
            continue
        i += 1
    return "".join(out)


def allowed(lines: list[str], lineno: int, rule: str) -> bool:
    if lineno < 1 or lineno > len(lines):
        return False
    m = ALLOW_RE.search(lines[lineno - 1])
    if not m:
        return False
    return rule in {r.strip() for r in m.group(1).split(",")}


def iter_files(root: str, subdirs: list[str], exts: tuple[str, ...]):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)


class Findings:
    def __init__(self) -> None:
        self.count = 0
        self.items: list[tuple[str, int, str, str]] = []
        self._seen: set[tuple[str, int, str]] = set()

    def report(self, path: str, lineno: int, rule: str, msg: str) -> None:
        key = (path, lineno, rule)
        if key in self._seen:
            return
        self._seen.add(key)
        self.count += 1
        self.items.append((path, lineno, rule, msg))
        print(f"{path}:{lineno}: [{rule}] {msg}")


class SourceFile:
    """A source file plus the derived views every rule needs."""

    def __init__(self, path: str, rel: str) -> None:
        self.path = path
        self.rel = rel
        with open(path, encoding="utf-8") as f:
            self.text = f.read()
        self.lines = self.text.splitlines()
        self.clean = strip_comments(self.text)
        self.clean_lines = self.clean.splitlines()
        self._depths: list[int] | None = None

    def line_start_depths(self) -> list[int]:
        """Brace depth at the *start* of each 1-based line (index 0 unused)."""
        if self._depths is None:
            depths = [0, 0]
            d = 0
            for line in self.clean_lines:
                d += line.count("{") - line.count("}")
                depths.append(d)
            self._depths = depths
        return self._depths

    def block_end(self, lineno: int) -> int:
        """Last line of the innermost block enclosing statement `lineno`."""
        depths = self.line_start_depths()
        d = depths[lineno] if lineno < len(depths) else 0
        for ln in range(lineno + 1, len(self.lines) + 1):
            if depths[ln] < d:
                return ln - 1
        return len(self.lines)

    def region_text(self, start: int, end: int) -> str:
        return "\n".join(self.clean_lines[start - 1:end])


def load_sources(root: str, subdirs: list[str],
                 exts: tuple[str, ...]) -> list[SourceFile]:
    out = []
    for path in iter_files(root, subdirs, exts):
        out.append(SourceFile(path, os.path.relpath(path, root)))
    return out


# ---------------------------------------------------------------------------
# Rule: raw-double-unit
# ---------------------------------------------------------------------------

# Identifier fragments that name a physical quantity with a units.h alias.
UNIT_HINTS = [
    (re.compile(r"(?:^|_)(time|seconds|secs|deadline|latenc\w*|duration|"
                r"period|t_log|timeout)(?:_|$)", re.IGNORECASE), "Seconds"),
    (re.compile(r"(?:^|_)(bits|bytes|memory|capacity)(?:_|$)",
                re.IGNORECASE), "Bits"),
    (re.compile(r"(?:^|_)(rate|bandwidth|throughput|bps)(?:_|$)",
                re.IGNORECASE), "BitsPerSecond"),
]

DOUBLE_DECL_RE = re.compile(r"\bdouble\s+(\w+)")


def check_raw_double_units(root: str, findings: Findings) -> None:
    for path in iter_files(root, ["src"], (".h",)):
        rel = os.path.relpath(path, root)
        # units.h is where the aliases are *defined* in terms of double.
        if rel.endswith(os.path.join("common", "units.h")):
            continue
        with open(path, encoding="utf-8") as f:
            text = f.read()
        lines = text.splitlines()
        clean = strip_comments(text)
        for lineno, line in enumerate(clean.splitlines(), start=1):
            for m in DOUBLE_DECL_RE.finditer(line):
                ident = m.group(1)
                for hint_re, alias in UNIT_HINTS:
                    if hint_re.search(ident):
                        if allowed(lines, lineno, "raw-double-unit"):
                            break
                        findings.report(
                            rel, lineno, "raw-double-unit",
                            f"`double {ident}` names a physical quantity; "
                            f"use vod::{alias} from common/units.h")
                        break


# ---------------------------------------------------------------------------
# Rule: check-in-hot-loop
# ---------------------------------------------------------------------------

LOOP_HEAD_RE = re.compile(r"\b(for|while)\s*\(")
CHECK_RE = re.compile(r"\bVOD_CHECK\s*\(")


def loop_body_depths(clean: str) -> list[set[int]]:
    """For each line (0-based), the set of brace depths that belong to a
    loop body enclosing that line."""
    depth = 0
    loop_depths: list[int] = []     # brace depths whose block is a loop body
    pending_loops: list[int] = []   # paren depth of unclosed loop heads
    paren = 0
    result: list[set[int]] = []
    i, n = 0, len(clean)
    while i < n:
        c = clean[i]
        if c == "\n":
            result.append(set(loop_depths))
            i += 1
            continue
        m = LOOP_HEAD_RE.match(clean, i)
        if m:
            pending_loops.append(paren)
            paren += 1
            i = m.end()
            continue
        if c == "(":
            paren += 1
        elif c == ")":
            paren -= 1
            if pending_loops and paren == pending_loops[-1]:
                pending_loops.pop()
                # The next '{' (or single statement) opens the loop body.
                j = i + 1
                while j < n and clean[j] in " \t\n":
                    j += 1
                if j < n and clean[j] == "{":
                    loop_depths.append(depth)
        elif c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            while loop_depths and loop_depths[-1] >= depth:
                loop_depths.pop()
        i += 1
    result.append(set(loop_depths))
    return result


def ndebug_guarded(lines: list[str], lineno: int) -> bool:
    """True when line `lineno` (1-based) sits inside an #ifndef NDEBUG
    region (flat scan; nested conditionals resolve to the nearest guard)."""
    stack: list[bool] = []
    for i in range(lineno):
        stripped = lines[i].strip()
        if stripped.startswith("#ifndef") and "NDEBUG" in stripped:
            stack.append(True)
        elif stripped.startswith(("#if", "#ifdef")):
            stack.append(False)
        elif stripped.startswith("#else") and stack:
            stack[-1] = not stack[-1]
        elif stripped.startswith("#endif") and stack:
            stack.pop()
    return any(stack)


def check_hot_loop_checks(root: str, findings: Findings) -> None:
    for path in iter_files(root, [os.path.join("src", "sim"),
                                  os.path.join("src", "sched")], (".cc",)):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        lines = text.splitlines()
        clean = strip_comments(text)
        depths = loop_body_depths(clean)
        for lineno, line in enumerate(clean.splitlines(), start=1):
            if not CHECK_RE.search(line):
                continue
            if not depths[lineno - 1]:
                continue  # Not inside any loop body.
            if ndebug_guarded(lines, lineno):
                continue
            if allowed(lines, lineno, "check-in-hot-loop"):
                continue
            findings.report(
                rel, lineno, "check-in-hot-loop",
                "VOD_CHECK inside a simulator loop: use VOD_DCHECK or wrap "
                "the check in #ifndef NDEBUG")


# ---------------------------------------------------------------------------
# Rule: raw-timing
# ---------------------------------------------------------------------------

RAW_TIMING_RE = re.compile(
    r"\bstd::chrono\b|\bclock_gettime\b|\bgettimeofday\b"
    r"|\b(?:__builtin_ia32_|__)?rdtscp?\b")
# The cycle-counter mnemonic inside a string literal (inline asm).
CYCLE_ASM_RE = re.compile(r'"[^"\n]*\brdtscp?\b')


def check_raw_timing(root: str, findings: Findings) -> None:
    for path in iter_files(root, ["src"], (".h", ".cc")):
        rel = os.path.relpath(path, root)
        parts = rel.split(os.sep)
        # src/obs is the sanctioned clock site.
        if len(parts) >= 2 and parts[1] == "obs":
            continue
        with open(path, encoding="utf-8") as f:
            text = f.read()
        lines = text.splitlines()
        clean = strip_comments(text)
        for lineno, line in enumerate(clean.splitlines(), start=1):
            # A literal counts only where its quote survived comment
            # stripping, i.e. it is code, not commented-out text.
            in_literal = any(line[m.start()] == '"' for m in
                         CYCLE_ASM_RE.finditer(lines[lineno - 1])
                         if m.start() < len(line))
            if not (RAW_TIMING_RE.search(line) or in_literal):
                continue
            if allowed(lines, lineno, "raw-timing"):
                continue
            findings.report(
                rel, lineno, "raw-timing",
                "raw host-clock access outside src/obs; use "
                "obs::MonotonicNanos()/obs::Stopwatch/obs::ProfTicks() "
                "from obs/clock.h")


# ---------------------------------------------------------------------------
# Rule: unconsumed-status
# ---------------------------------------------------------------------------

STATUS_DECL_RE = re.compile(
    r"(?:^|\s)(?:virtual\s+|static\s+|\[\[nodiscard\]\]\s+)*"
    r"(?:::)?(?:vod::)?(?:Status|Result<[^;=]*?>)\s+"
    r"(\w+)\s*\(", re.MULTILINE)

# A bare statement-level call: optional receiver chain, then the call, then
# the end of the statement on the same line.
def bare_call_re(names: set[str]) -> re.Pattern[str]:
    alt = "|".join(sorted(re.escape(n) for n in names))
    return re.compile(
        r"^\s*(?:[\w\)\]]+(?:\.|->))*(" + alt + r")\s*\(.*\)\s*;\s*$")


CONSUMED_HINT_RE = re.compile(
    r"\b(return|VOD_RETURN_IF_ERROR|VOD_CHECK|VOD_DCHECK|EXPECT_|ASSERT_|"
    r"static_cast<void>)|=|\(void\)")

# A line ending like this means the next line continues the same statement
# (assignment/argument/operator context), so a call there is consumed. A
# bare `{` only continues a statement when it opens an initializer list
# (preceded by = , ( or {); a block-opening `) {` does NOT exempt the
# block's first statement.
CONTINUATION_TAIL_RE = re.compile(
    r"([=(,+\-*/<?:]|&&|\|\||return|<<|[=,({[]\s*\{)\s*$")


def collect_status_returning_names(root: str) -> set[str]:
    names: set[str] = set()
    for path in iter_files(root, ["src"], (".h",)):
        with open(path, encoding="utf-8") as f:
            clean = strip_comments(f.read())
        for m in STATUS_DECL_RE.finditer(clean):
            names.add(m.group(1))
    # Factory names that *construct* rather than report; and overly generic
    # names that would drown the signal.
    names -= {"OK", "InvalidArgument", "OutOfRange", "CapacityExceeded",
              "Deferred", "FailedPrecondition", "NotFound", "Internal",
              "status"}
    return names


def check_unconsumed_status(root: str, findings: Findings) -> None:
    names = collect_status_returning_names(root)
    if not names:
        return
    call_re = bare_call_re(names)
    for path in iter_files(root, ["src", "tests", "bench", "examples"],
                           (".cc", ".cpp")):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        lines = text.splitlines()
        clean_lines = strip_comments(text).splitlines()
        for lineno, line in enumerate(clean_lines, start=1):
            m = call_re.match(line)
            if not m:
                continue
            if CONSUMED_HINT_RE.search(line):
                continue
            # Continuation of a statement begun on an earlier line: the
            # value flows into that statement's context.
            prev = ""
            for j in range(lineno - 2, -1, -1):
                if clean_lines[j].strip():
                    prev = clean_lines[j].rstrip()
                    break
            if prev and CONTINUATION_TAIL_RE.search(prev):
                continue
            if allowed(lines, lineno, "unconsumed-status"):
                continue
            findings.report(
                rel, lineno, "unconsumed-status",
                f"result of Status/Result-returning `{m.group(1)}(...)` is "
                "discarded; consume it or cast to void explicitly")


# ---------------------------------------------------------------------------
# Structural facts (shared between the token and AST backends)
# ---------------------------------------------------------------------------


class Field:
    """A class data member relevant to the capability rules."""

    def __init__(self, cls: str, name: str, rel: str, lineno: int,
                 guarded_by: str | None, exempt: bool) -> None:
        self.cls = cls
        self.name = name
        self.rel = rel
        self.lineno = lineno
        self.guarded_by = guarded_by
        self.exempt = exempt


class Facts:
    """Everything the structural rules consume, backend-agnostic."""

    def __init__(self) -> None:
        # (class, field) -> Field
        self.fields: dict[tuple[str, str], Field] = {}
        # (class, field, lock_rel, lock_line, mutex_key)
        self.locked_accesses: list[tuple[str, str, str, int, str]] = []
        # (outer_key, inner_key, rel, lineno) — inner acquired under outer
        self.lock_edges: list[tuple[str, str, str, int]] = []
        # (rel, lineno, description)
        self.hot_allocs: list[tuple[str, int, str]] = []
        # (rel, lineno, container_name) — iteration feeding an output channel
        self.unordered_output_iters: list[tuple[str, int, str]] = []
        # (rel, lineno, kind, name) — raw double param/field with a unit-
        # suffixed name in a public header
        self.unit_suffixed_doubles: list[tuple[str, int, str, str]] = []
        self._unit_seen: set[tuple[str, int, str]] = set()

    def add_field(self, field: Field) -> None:
        self.fields.setdefault((field.cls, field.name), field)

    def add_unit_suffixed(self, rel: str, lineno: int, kind: str,
                          name: str) -> None:
        """Dedup across TUs: a header re-parsed by every includer reports
        each declaration once."""
        key = (rel, lineno, name)
        if key in self._unit_seen:
            return
        self._unit_seen.add(key)
        self.unit_suffixed_doubles.append((rel, lineno, kind, name))


MUTEX_TYPES = ("Mutex", "std::mutex", "CondVar", "std::condition_variable")

# Capture the mutex argument list of a scoped-lock declaration. Skipped when
# the args carry an adopt/defer tag (no acquisition happens at the site).
LOCK_SITE_RE = re.compile(
    r"\b(MutexLock|std::lock_guard(?:\s*<[^>]*>)?|"
    r"std::unique_lock(?:\s*<[^>]*>)?|std::scoped_lock(?:\s*<[^>]*>)?)"
    r"\s+\w+\s*[({]\s*([^;]*?)\s*[)}]\s*;")

GROWTH_METHODS = ("push_back", "emplace_back", "push_front", "emplace",
                  "insert")
GROWTH_RE = re.compile(
    r"([A-Za-z_]\w*(?:\[[^\]]*\])?)\s*(?:\.|->)\s*(" +
    "|".join(GROWTH_METHODS) + r")\s*\(")
NEW_ALLOC_RE = re.compile(
    r"\bnew\b|\bmalloc\s*\(|\bstd::make_unique\s*<|\bstd::make_shared\s*<")
CONTAINER_DECL_RE = re.compile(
    r"\bstd::(?:vector|deque|list|string|map|multimap|set|multiset|"
    r"unordered_map|unordered_set)\b[^;=()]*\s(\w+)\s*[;{(]")
PROF_SCOPE_RE = re.compile(r"\bVODB_PROF_SCOPE\s*\(")

# units-hygiene: identifier tails that name a unit the Quantity layer owns.
# `buffer_bits`, `timeout_seconds`, `peak_bps`, `transfer_rate`, and the
# member-suffixed `max_rate_` / bare `rate` forms all match.
UNIT_SUFFIX_RE = re.compile(r"(?:^|_)(bits|seconds|bps|rate)_?$")
UNIT_ALIAS = {"bits": "Bits", "seconds": "Seconds",
              "bps": "BitsPerSecond", "rate": "BitsPerSecond"}
# A `double` declarator in a header: optional ref, then the identifier.
UNIT_DOUBLE_DECL_RE = re.compile(r"\bdouble\b\s*&?\s*([A-Za-z_]\w*)")

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<.*>\s*&?\s*(\w+)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*:\s*(\w+)\s*\)")
OUTPUT_HINT_RE = re.compile(
    r"<<|\bf?printf\b|\bsnprintf\b|\bToJson\b|\bToCsv\b|\bToString\b|"
    r"\bAppend\b|\bwrite\b|\bEmit\b|\bout\b")

CLASS_HEAD_RE = re.compile(
    r"\b(class|struct)\s+"
    r"(?:VODB_CAPABILITY\s*\([^)]*\)\s*|VODB_SCOPED_CAPABILITY\s+|"
    r"alignas\s*\([^)]*\)\s*|final\s+)*"
    r"([A-Za-z_]\w*)")
FIELD_DECL_RE = re.compile(
    r"^\s*(?P<quals>(?:mutable|static|constexpr|inline|const)\s+)*"
    r"(?P<type>[\w:]+(?:\s*<.*>)?(?:\s+const)?(?:\s*[*&])?)\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*"
    r"(?:VODB_GUARDED_BY\s*\(\s*(?P<mu>[^)]+?)\s*\))?"
    r"\s*(?:=[^;]*|\{[^;()]*\})?;")
METHOD_DEF_RE = re.compile(r"\b([A-Za-z_]\w*)::([A-Za-z_~]\w*)\s*\(")


def mutex_key(arg: str) -> str:
    """Normalize a lock argument to its last member component:
    `shards_[idx]->mu` -> `mu`, `registry.mu_` -> `mu_`."""
    arg = arg.strip()
    arg = re.sub(r"^[*&]+", "", arg)
    part = re.split(r"\.|->", arg)[-1].strip()
    m = re.search(r"([A-Za-z_]\w*)\s*$", part)
    return m.group(1) if m else part


def lock_receiver(arg: str) -> str | None:
    """The qualifying receiver text of a lock argument, or None when the
    mutex is named bare (a member of the enclosing class)."""
    arg = arg.strip()
    arg = re.sub(r"^[*&]+", "", arg)
    parts = re.split(r"(\.|->)", arg)
    if len(parts) <= 1:
        return None
    return "".join(parts[:-2]).strip()


def split_lock_args(kind: str, args: str) -> list[str]:
    """Mutex expressions a scoped-lock declaration acquires; [] when the
    site adopts/defers (no acquisition)."""
    if "adopt_lock" in args or "defer_lock" in args:
        return []
    pieces = [a.strip() for a in args.split(",") if a.strip()]
    if not pieces:
        return []
    if "scoped_lock" in kind:
        return pieces
    return pieces[:1]  # lock_guard/unique_lock/MutexLock: first arg only


# ---------------------------------------------------------------------------
# Token backend
# ---------------------------------------------------------------------------


class TokenAnalyzer:
    """Comment-stripped token/scope analysis. Always available; slightly
    conservative on attribution (see module docstring)."""

    name = "token"

    def __init__(self, root: str) -> None:
        self.root = root

    def collect(self) -> Facts:
        facts = Facts()
        sources = load_sources(self.root, ["src"], (".h", ".cc"))
        for src in sources:
            self._collect_fields(src, facts)
        for src in sources:
            self._collect_lock_regions(src, facts)
            self._collect_hot_allocs(src, facts)
            self._collect_unordered(src, facts)
            self._collect_unit_hygiene(src, facts)
        return facts

    # -- fields ------------------------------------------------------------

    def _class_extents(self, src: SourceFile):
        """Yields (class_name, body_start_line, body_end_line, body_depth)."""
        depths = src.line_start_depths()
        for lineno, line in enumerate(src.clean_lines, start=1):
            m = CLASS_HEAD_RE.search(line)
            if not m:
                continue
            # `enum class` is not a record; a trailing ';' with no '{' on
            # this or the next line is a forward declaration.
            prefix = line[:m.start()]
            if re.search(r"\benum\s*$", prefix):
                continue
            open_line = None
            for ln in range(lineno, min(lineno + 3, len(src.clean_lines) + 1)):
                text = src.clean_lines[ln - 1]
                if "{" in text:
                    open_line = ln
                    break
                if ";" in text:
                    break
            if open_line is None:
                continue
            body_depth = depths[open_line] + 1
            end = src.block_end(open_line + 1) if \
                open_line + 1 <= len(src.lines) else open_line
            yield m.group(2), open_line + 1, end, body_depth

    def _collect_fields(self, src: SourceFile, facts: Facts) -> None:
        depths = src.line_start_depths()
        for cls, start, end, body_depth in self._class_extents(src):
            buf: list[tuple[int, str]] = []
            for lineno in range(start, end + 1):
                line = src.clean_lines[lineno - 1]
                if depths[lineno] != body_depth or \
                        re.match(r"\s*(public|private|protected)\s*:", line):
                    buf = []  # nested body line or access specifier
                    continue
                buf.append((lineno, line))
                if ";" not in line:
                    continue  # declaration continues on the next line
                stmt_lines, buf = buf, []
                stmt = " ".join(t for _, t in stmt_lines)
                fm = FIELD_DECL_RE.match(stmt)
                if not fm:
                    continue
                typ = fm.group("type")
                quals = fm.group("quals") or ""
                if typ in ("using", "typedef", "friend", "return", "delete",
                           "case", "goto", "public", "private", "protected",
                           "else", "new"):
                    continue
                # Method declarations never match FIELD_DECL_RE (a name
                # immediately followed by '(' fails the tail of the regex).
                exempt = ("atomic" in typ or "static" in quals or
                          "constexpr" in quals or "const" in quals or
                          typ.rstrip("*& ").endswith("const") or
                          any(t in typ for t in MUTEX_TYPES) or
                          typ.endswith("&"))
                name = fm.group("name")
                decl_line = next(
                    (ln for ln, t in stmt_lines
                     if re.search(rf"\b{re.escape(name)}\b", t)),
                    stmt_lines[0][0])
                guarded = fm.group("mu")
                facts.add_field(Field(
                    cls, name, src.rel, decl_line,
                    mutex_key(guarded) if guarded else None, exempt))

    # -- lock regions: guarded accesses + lock-order edges ----------------

    def _enclosing_class(self, src: SourceFile, lineno: int) -> str | None:
        """Nearest `Class::Method(` definition head above `lineno`."""
        for ln in range(lineno, 0, -1):
            m = METHOD_DEF_RE.search(src.clean_lines[ln - 1])
            if m:
                return m.group(1)
        return None

    def _collect_lock_regions(self, src: SourceFile, facts: Facts) -> None:
        sites = []  # (lineno, end, keys)
        for lineno, line in enumerate(src.clean_lines, start=1):
            m = LOCK_SITE_RE.search(line)
            if not m:
                continue
            args = split_lock_args(m.group(1), m.group(2))
            if not args:
                continue
            end = src.block_end(lineno)
            keys = [mutex_key(a) for a in args]
            sites.append((lineno, end, keys))
            for arg in args:
                self._attribute_accesses(src, facts, lineno, end, arg)
        # Lock-order edges: site B strictly inside site A's region.
        for a_line, a_end, a_keys in sites:
            for b_line, _, b_keys in sites:
                if b_line <= a_line or b_line > a_end:
                    continue
                for ka in a_keys:
                    for kb in b_keys:
                        if ka != kb:
                            facts.lock_edges.append((ka, kb, src.rel, b_line))

    def _attribute_accesses(self, src: SourceFile, facts: Facts,
                            lineno: int, end: int, arg: str) -> None:
        key = mutex_key(arg)
        recv = lock_receiver(arg)
        region = range(lineno + 1, end + 1)
        if recv is None:
            # Bare mutex member: attribute identifiers to the enclosing
            # Class::Method's class.
            cls = self._enclosing_class(src, lineno)
            if cls is None:
                return
            names = {fname for (c, fname) in facts.fields if c == cls}
            if not names:
                return
            for ln in region:
                for ident in re.findall(r"[A-Za-z_]\w*",
                                        src.clean_lines[ln - 1]):
                    if ident in names:
                        facts.locked_accesses.append(
                            (cls, ident, src.rel, ln, key))
        else:
            # Qualified mutex `recv.mu`: count only `recv.field` accesses,
            # attributed to the unique class owning a mutex member named
            # `key` (exempt is the mutex-member marker: Mutex types are
            # always exempt).
            owners = {c for (c, fname) in facts.fields
                      if fname == key and facts.fields[(c, fname)].exempt}
            access_re = re.compile(
                re.escape(recv) + r"\s*(?:\.|->)\s*([A-Za-z_]\w*)")
            for ln in region:
                for m in access_re.finditer(src.clean_lines[ln - 1]):
                    fname = m.group(1)
                    if fname == key or fname in GROWTH_METHODS:
                        continue
                    candidates = [c for c in owners
                                  if (c, fname) in facts.fields]
                    if len(candidates) == 1:
                        facts.locked_accesses.append(
                            (candidates[0], fname, src.rel, ln, key))

    # -- alloc-in-hot-path -------------------------------------------------

    def _collect_hot_allocs(self, src: SourceFile, facts: Facts) -> None:
        if not src.rel.endswith(".cc"):
            return
        loop_sets = loop_body_depths(src.clean)
        for lineno, line in enumerate(src.clean_lines, start=1):
            if not PROF_SCOPE_RE.search(line):
                continue
            end = src.block_end(lineno)
            reserved: set[str] = set()
            for ln in range(lineno, end + 1):
                text = src.clean_lines[ln - 1]
                for m in re.finditer(
                        r"([A-Za-z_]\w*)(?:\[[^\]]*\])?\s*(?:\.|->)\s*"
                        r"reserve\s*\(", text):
                    reserved.add(m.group(1))
                if not loop_sets[ln - 1]:
                    continue
                if NEW_ALLOC_RE.search(text):
                    facts.hot_allocs.append(
                        (src.rel, ln, "heap allocation (new/malloc/"
                         "make_unique) in a profiled loop"))
                    continue
                cm = CONTAINER_DECL_RE.search(text)
                if cm:
                    facts.hot_allocs.append(
                        (src.rel, ln,
                         f"container `{cm.group(1)}` constructed inside a "
                         "profiled loop; hoist it out and reuse"))
                    continue
                for gm in GROWTH_RE.finditer(text):
                    base = re.match(r"[A-Za-z_]\w*", gm.group(1)).group(0)
                    if base in reserved:
                        continue
                    facts.hot_allocs.append(
                        (src.rel, ln,
                         f"`{gm.group(1)}.{gm.group(2)}(...)` may grow in a "
                         f"profiled loop; reserve `{base}` first"))

    # -- units-hygiene ------------------------------------------------------

    def _collect_unit_hygiene(self, src: SourceFile, facts: Facts) -> None:
        if not src.rel.endswith(".h"):
            return
        # units.h is where the Quantity layer is defined in terms of double.
        if src.rel.endswith(os.path.join("common", "units.h")):
            return
        for lineno, line in enumerate(src.clean_lines, start=1):
            for m in UNIT_DOUBLE_DECL_RE.finditer(line):
                name = m.group(1)
                if not UNIT_SUFFIX_RE.search(name):
                    continue
                # `double rate()` declares a function returning double, not
                # a quantity-carrying parameter or field.
                tail = line[m.end():].lstrip()
                if tail.startswith("("):
                    continue
                facts.add_unit_suffixed(src.rel, lineno, "declaration", name)

    # -- unordered-iteration ----------------------------------------------

    def _collect_unordered(self, src: SourceFile, facts: Facts) -> None:
        names: set[str] = set()
        for line in src.clean_lines:
            for m in UNORDERED_DECL_RE.finditer(line):
                names.add(m.group(1))
        if not names:
            return
        for lineno, line in enumerate(src.clean_lines, start=1):
            fm = RANGE_FOR_RE.search(line)
            if not fm or fm.group(1) not in names:
                continue
            end = src.block_end(lineno + 1) if "{" in line else lineno + 1
            region = src.region_text(lineno, min(end, len(src.lines)))
            if OUTPUT_HINT_RE.search(region):
                facts.unordered_output_iters.append(
                    (src.rel, lineno, fm.group(1)))


# ---------------------------------------------------------------------------
# AST backend (libclang via python3-clang, driven by compile_commands.json)
# ---------------------------------------------------------------------------


class BackendUnavailable(RuntimeError):
    pass


def _load_cindex():
    try:
        from clang import cindex  # type: ignore
    except ImportError as e:
        raise BackendUnavailable(f"python clang bindings not importable: {e}")
    try:
        cindex.Index.create()
        return cindex
    except Exception:
        pass
    # The bindings are present but libclang.so was not found at the default
    # name; scan the usual Debian/Ubuntu install locations.
    import glob
    candidates = sorted(
        glob.glob("/usr/lib/llvm-*/lib/libclang*.so*") +
        glob.glob("/usr/lib/*/libclang-*.so*") +
        glob.glob("/usr/lib/libclang*.so*"))
    for lib in reversed(candidates):
        try:
            cindex.Config.loaded = False
            cindex.Config.set_library_file(lib)
            cindex.Index.create()
            return cindex
        except Exception:
            continue
    raise BackendUnavailable("no loadable libclang shared library found")


def _compdb_args(entry: dict) -> list[str]:
    if "arguments" in entry:
        argv = list(entry["arguments"])
    else:
        argv = shlex.split(entry.get("command", ""))
    out: list[str] = []
    skip = False
    for a in argv[1:]:  # drop the compiler
        if skip:
            skip = False
            continue
        if a in ("-c", "-o"):
            skip = a == "-o"
            continue
        if a == entry.get("file"):
            continue
        out.append(a)
    return out


class ClangAnalyzer:
    """libclang AST analysis over the compilation database. Exact member
    attribution; raises BackendUnavailable when libclang cannot load."""

    name = "ast"

    def __init__(self, root: str, compdb_dir: str) -> None:
        self.root = root
        self.compdb_dir = compdb_dir
        self.ci = _load_cindex()
        path = os.path.join(compdb_dir, "compile_commands.json")
        if not os.path.isfile(path):
            raise BackendUnavailable(
                f"{path} not found; configure a build tree first "
                "(cmake -B build -S .)")
        with open(path, encoding="utf-8") as f:
            self.entries = json.load(f)
        self.parsed_tus = 0

    def _rel(self, location) -> str | None:
        if location.file is None:
            return None
        path = os.path.realpath(str(location.file))
        root = os.path.realpath(self.root)
        if not path.startswith(root + os.sep):
            return None
        rel = os.path.relpath(path, root)
        return rel if rel.split(os.sep)[0] == "src" else None

    def collect(self) -> Facts:
        facts = Facts()
        index = self.ci.Index.create()
        src_cache: dict[str, SourceFile] = {}

        def source(rel: str) -> SourceFile:
            if rel not in src_cache:
                src_cache[rel] = SourceFile(
                    os.path.join(self.root, rel), rel)
            return src_cache[rel]

        for entry in self.entries:
            fpath = os.path.join(entry.get("directory", ""),
                                 entry.get("file", ""))
            fpath = os.path.realpath(fpath)
            rel = os.path.relpath(fpath, os.path.realpath(self.root))
            if rel.split(os.sep)[0] != "src" or not rel.endswith(".cc"):
                continue
            try:
                tu = index.parse(fpath, args=_compdb_args(entry))
            except Exception as e:  # parse failure: token backend covers it
                print(f"vodb-lint: note: AST parse failed for {rel}: {e}",
                      file=sys.stderr)
                continue
            self.parsed_tus += 1
            try:
                self._walk_tu(tu, facts, source)
            except Exception as e:
                print(f"vodb-lint: note: AST walk failed for {rel}: {e}",
                      file=sys.stderr)
        if self.parsed_tus == 0:
            raise BackendUnavailable(
                "libclang parsed no src/ translation units")
        return facts

    def _walk_tu(self, tu, facts: Facts, source) -> None:
        K = self.ci.CursorKind
        lock_regions = []   # (rel, start, end, keys, raw_args)
        compounds = []      # (rel, start, end)
        loops = []          # (rel, start, end)
        functions = []      # (rel, start, end)
        accesses = []       # (cls, field, rel, line)
        allocs = []         # (rel, line, kind, receiver)
        reserves = []       # (rel, line, receiver)
        range_fors = []     # (rel, start, end, container_name)
        lock_vars = []      # cursors, resolved after compounds are known

        for cur in tu.cursor.walk_preorder():
            rel = self._rel(cur.location)
            if rel is None:
                continue
            kind = cur.kind
            if kind == K.FIELD_DECL:
                self._field(cur, rel, facts, source)
                self._unit_hygiene(cur, rel, facts, "field")
            elif kind == K.PARM_DECL:
                self._unit_hygiene(cur, rel, facts, "parameter")
            elif kind == K.COMPOUND_STMT:
                compounds.append(
                    (rel, cur.extent.start.line, cur.extent.end.line))
            elif kind in (K.FOR_STMT, K.WHILE_STMT, K.DO_STMT,
                          K.CXX_FOR_RANGE_STMT):
                loops.append(
                    (rel, cur.extent.start.line, cur.extent.end.line))
                if kind == K.CXX_FOR_RANGE_STMT:
                    name = self._unordered_range_name(cur)
                    if name:
                        range_fors.append(
                            (rel, cur.extent.start.line,
                             cur.extent.end.line, name))
            elif kind in (K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                          K.DESTRUCTOR) and cur.is_definition():
                functions.append(
                    (rel, cur.extent.start.line, cur.extent.end.line))
            elif kind == K.VAR_DECL:
                typ = cur.type.spelling
                if any(t in typ for t in
                       ("MutexLock", "lock_guard", "unique_lock",
                        "scoped_lock")):
                    lock_vars.append((cur, rel, typ))
            elif kind == K.MEMBER_REF_EXPR:
                ref = cur.referenced
                if ref is not None and ref.kind == K.FIELD_DECL and \
                        ref.semantic_parent is not None:
                    accesses.append((ref.semantic_parent.spelling,
                                     ref.spelling, rel, cur.location.line))
            elif kind == K.CXX_NEW_EXPR:
                allocs.append((rel, cur.location.line, "new", None))
            elif kind == K.CALL_EXPR:
                name = cur.spelling
                if name in GROWTH_METHODS or name in (
                        "malloc", "make_unique", "make_shared"):
                    allocs.append((rel, cur.location.line, name,
                                   self._receiver_text(cur, name)))
                elif name == "reserve":
                    recv = self._receiver_text(cur, name)
                    if recv:
                        reserves.append((rel, cur.location.line, recv))

        for cur, rel, typ in lock_vars:
            line = cur.location.line
            args = self._lock_args(cur)
            keys = [mutex_key(a) for a in
                    split_lock_args(typ, ", ".join(args))]
            if not keys:
                continue
            enclosing = [c for c in compounds
                         if c[0] == rel and c[1] <= line <= c[2]]
            end = min((c[2] for c in enclosing), default=line)
            lock_regions.append((rel, line, end, keys))

        self._assemble(facts, lock_regions, accesses, loops, functions,
                       allocs, reserves, range_fors, source)

    # -- cursor helpers ----------------------------------------------------

    def _tokens(self, cur) -> list[str]:
        try:
            return [t.spelling for t in cur.get_tokens()]
        except Exception:
            return []

    def _field(self, cur, rel: str, facts: Facts, source) -> None:
        parent = cur.semantic_parent
        cls = parent.spelling if parent is not None else ""
        typ = cur.type.spelling
        line = cur.location.line
        # The annotation survives in the source line (macro-expanded in the
        # AST); the source text is the most version-stable place to read it.
        src = source(rel)
        text = src.clean_lines[line - 1] if line <= len(src.clean_lines) \
            else ""
        gm = re.search(r"VODB_GUARDED_BY\s*\(\s*([^)]+?)\s*\)", text)
        exempt = ("atomic" in typ or typ.startswith("const ") or
                  any(t in typ for t in MUTEX_TYPES) or typ.endswith("&"))
        facts.add_field(Field(cls, cur.spelling, rel, line,
                              mutex_key(gm.group(1)) if gm else None,
                              exempt))

    def _unit_hygiene(self, cur, rel: str, facts: Facts, kind: str) -> None:
        """units-hygiene, AST side: a double-typed parameter or field in a
        src/ header whose name carries a unit suffix."""
        if not rel.endswith(".h") or \
                rel.endswith(os.path.join("common", "units.h")):
            return
        name = cur.spelling
        if not name or not UNIT_SUFFIX_RE.search(name):
            return
        typ = cur.type.spelling.replace("const", "").replace("&", "").strip()
        if typ != "double":
            return
        facts.add_unit_suffixed(rel, cur.location.line, kind, name)

    def _lock_args(self, cur) -> list[str]:
        toks = self._tokens(cur)
        if "(" in toks:
            start = toks.index("(")
        elif "{" in toks:
            start = toks.index("{")
        else:
            return []
        inner = toks[start + 1:]
        depth, args, curarg = 1, [], []
        closers = {")": "(", "}": "{"}
        for t in inner:
            if t in "({":
                depth += 1
            elif t in closers:
                depth -= 1
                if depth == 0:
                    break
            if depth == 1 and t == ",":
                args.append("".join(curarg))
                curarg = []
            else:
                curarg.append(t)
        if curarg:
            args.append("".join(curarg))
        return [a for a in args if a]

    def _receiver_text(self, cur, method: str) -> str | None:
        toks = self._tokens(cur)
        for i, t in enumerate(toks):
            if t == method and i >= 2 and toks[i - 1] in (".", "->"):
                return toks[i - 2]
        return None

    def _unordered_range_name(self, cur) -> str | None:
        for child in cur.get_children():
            typ = child.type.spelling if child.type else ""
            if "unordered_" in typ:
                toks = self._tokens(child)
                return toks[-1] if toks else None
        return None

    # -- facts assembly ----------------------------------------------------

    def _assemble(self, facts, lock_regions, accesses, loops, functions,
                  allocs, reserves, range_fors, source) -> None:
        for rel, start, end, keys in lock_regions:
            for key in keys:
                for cls, fname, a_rel, a_line in accesses:
                    if a_rel == rel and start < a_line <= end:
                        facts.locked_accesses.append(
                            (cls, fname, rel, a_line, key))
        for rel, start, end, keys in lock_regions:
            for b_rel, b_start, _, b_keys in lock_regions:
                if b_rel != rel or not (start < b_start <= end):
                    continue
                for ka in keys:
                    for kb in b_keys:
                        if ka != kb:
                            facts.lock_edges.append((ka, kb, rel, b_start))

        # Hot functions: definitions containing a VODB_PROF_SCOPE line.
        hot = []
        prof_lines: dict[str, set[int]] = {}
        for rel in {f[0] for f in functions}:
            src = source(rel)
            prof_lines[rel] = {
                ln for ln, line in enumerate(src.clean_lines, start=1)
                if PROF_SCOPE_RE.search(line)}
        for rel, start, end in functions:
            if any(start <= ln <= end for ln in prof_lines.get(rel, ())):
                hot.append((rel, start, end))

        def in_any(spans, rel, line):
            return any(s_rel == rel and s <= line <= e
                       for s_rel, s, e in spans)

        for rel, line, kind, recv in allocs:
            hot_fns = [h for h in hot if h[0] == rel and h[1] <= line <= h[2]]
            if not hot_fns or not in_any(loops, rel, line):
                continue
            if kind in GROWTH_METHODS and recv:
                fn = hot_fns[0]
                if any(r_rel == rel and fn[1] <= r_line < line and
                       r_recv == recv
                       for r_rel, r_line, r_recv in reserves):
                    continue
                facts.hot_allocs.append(
                    (rel, line, f"`{recv}.{kind}(...)` may grow in a "
                     f"profiled loop; reserve `{recv}` first"))
            else:
                facts.hot_allocs.append(
                    (rel, line, "heap allocation (new/malloc/make_unique) "
                     "in a profiled loop"))

        for rel, start, end, name in range_fors:
            src = source(rel)
            region = src.region_text(start, min(end, len(src.lines)))
            if OUTPUT_HINT_RE.search(region):
                facts.unordered_output_iters.append((rel, start, name))


# ---------------------------------------------------------------------------
# Structural rule evaluation (backend-agnostic)
# ---------------------------------------------------------------------------


def evaluate_structural(root: str, facts: Facts, findings: Findings) -> None:
    lines_cache: dict[str, list[str]] = {}

    def file_lines(rel: str) -> list[str]:
        if rel not in lines_cache:
            with open(os.path.join(root, rel), encoding="utf-8") as f:
                lines_cache[rel] = f.read().splitlines()
        return lines_cache[rel]

    # unannotated-shared-state ---------------------------------------------
    for cls, fname, lock_rel, lock_line, key in facts.locked_accesses:
        field = facts.fields.get((cls, fname))
        if field is None or field.exempt or field.guarded_by is not None:
            continue
        if allowed(file_lines(field.rel), field.lineno,
                   "unannotated-shared-state"):
            continue
        findings.report(
            field.rel, field.lineno, "unannotated-shared-state",
            f"field `{cls}::{fname}` is accessed under lock `{key}` "
            f"({lock_rel}:{lock_line}) but carries no VODB_GUARDED_BY "
            "annotation; annotate it (or mark it atomic/const) so Clang "
            "-Wthread-safety can reject unlocked accesses")

    # lock-order ------------------------------------------------------------
    graph: dict[str, set[str]] = {}
    for a, b, _, _ in facts.lock_edges:
        graph.setdefault(a, set()).add(b)

    def reaches(start: str, goal: str) -> bool:
        seen, stack = set(), [start]
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(graph.get(node, ()))
        return False

    reported_pairs: set[tuple[str, str]] = set()
    for a, b, rel, lineno in facts.lock_edges:
        if (a, b) in reported_pairs or not reaches(b, a):
            continue
        reported_pairs.add((a, b))
        if allowed(file_lines(rel), lineno, "lock-order"):
            continue
        findings.report(
            rel, lineno, "lock-order",
            f"acquires `{b}` while holding `{a}`, but another path "
            f"acquires `{a}` while holding `{b}`: inconsistent lock order "
            "can deadlock; pick one order and document it")

    # alloc-in-hot-path ------------------------------------------------------
    for rel, lineno, desc in facts.hot_allocs:
        if allowed(file_lines(rel), lineno, "alloc-in-hot-path"):
            continue
        findings.report(rel, lineno, "alloc-in-hot-path", desc)

    # units-hygiene ----------------------------------------------------------
    for rel, lineno, kind, name in facts.unit_suffixed_doubles:
        if allowed(file_lines(rel), lineno, "units-hygiene"):
            continue
        suffix = UNIT_SUFFIX_RE.search(name).group(1)
        findings.report(
            rel, lineno, "units-hygiene",
            f"raw `double` {kind} `{name}` carries the unit suffix "
            f"`{suffix}` in a public header; declare it "
            f"vod::{UNIT_ALIAS[suffix]} (common/units.h) so the compiler "
            "checks the dimension, or add an allow comment stating why it "
            "is dimensionless")

    # unordered-iteration ----------------------------------------------------
    for rel, lineno, name in facts.unordered_output_iters:
        if allowed(file_lines(rel), lineno, "unordered-iteration"):
            continue
        findings.report(
            rel, lineno, "unordered-iteration",
            f"iteration over unordered container `{name}` feeds an output "
            "channel: hash order is nondeterministic across runs and "
            "library versions; iterate a std::map or sort the keys")


# ---------------------------------------------------------------------------


def run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="vodb repo lint: line rules + structural "
        "concurrency/determinism rules")
    parser.add_argument("root", nargs="?", default=os.getcwd(),
                        help="repository root (default: cwd)")
    parser.add_argument("--ast", action="store_true",
                        help="use the libclang AST backend for the "
                        "structural rules (falls back to the token backend "
                        "unless --require-ast)")
    parser.add_argument("--require-ast", action="store_true",
                        help="fail (exit 2) instead of falling back when "
                        "libclang is unavailable")
    parser.add_argument("--compdb", default=None, metavar="DIR",
                        help="build dir with compile_commands.json "
                        "(default: <root>/build)")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    compdb = os.path.abspath(args.compdb) if args.compdb \
        else os.path.join(root, "build")

    findings = Findings()
    check_raw_double_units(root, findings)
    check_hot_loop_checks(root, findings)
    check_raw_timing(root, findings)
    check_unconsumed_status(root, findings)

    backend = None
    if args.ast:
        try:
            backend = ClangAnalyzer(root, compdb)
        except BackendUnavailable as e:
            if args.require_ast:
                print(f"vodb-lint: AST backend required but unavailable: {e}",
                      file=sys.stderr)
                return 2
            print(f"vodb-lint: note: {e}; using the token backend",
                  file=sys.stderr)
    if backend is None:
        backend = TokenAnalyzer(root)

    try:
        facts = backend.collect()
    except BackendUnavailable as e:
        if args.require_ast:
            print(f"vodb-lint: AST backend required but unavailable: {e}",
                  file=sys.stderr)
            return 2
        print(f"vodb-lint: note: {e}; using the token backend",
              file=sys.stderr)
        backend = TokenAnalyzer(root)
        facts = backend.collect()

    evaluate_structural(root, facts, findings)

    if findings.count:
        print(f"vodb-lint: {findings.count} finding(s) "
              f"[{backend.name} backend]")
        return 1
    print(f"vodb-lint: clean [{backend.name} backend]")
    return 0


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
