#!/usr/bin/env python3
"""Fixture tests for scripts/vodb_lint.py (stdlib unittest only).

Each structural rule gets positive and negative fixtures, an
allow-comment suppression fixture, and — when the libclang bindings are
installed (CI) — an AST-backend pass over the same fixtures driven by a
synthesized compile_commands.json, so both backends are proven to catch
the same defect classes. The legacy line rules get smoke fixtures, and
the CLI fallback / --require-ast contract is pinned.

Run directly:  python3 tests/vodb_lint_test.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "scripts"))

import vodb_lint as V  # noqa: E402


def ast_available() -> bool:
    try:
        V._load_cindex()
        return True
    except V.BackendUnavailable:
        return False


AST_AVAILABLE = ast_available()


class Fixture:
    """A throwaway repo root with src/ fixture files."""

    def __init__(self) -> None:
        self.root = tempfile.mkdtemp(prefix="vodb_lint_fix_")

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def write(self, rel: str, text: str) -> str:
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def write_compdb(self) -> str:
        """Synthesizes build/compile_commands.json over every src/ .cc,
        including the real repo's src/ so common/mutex.h etc. resolve."""
        entries = []
        for dirpath, _, names in os.walk(os.path.join(self.root, "src")):
            for name in sorted(names):
                if not name.endswith(".cc"):
                    continue
                fpath = os.path.join(dirpath, name)
                entries.append({
                    "directory": self.root,
                    "file": fpath,
                    "command": ("c++ -std=c++20 "
                                f"-I{self.root}/src "
                                f"-I{REPO_ROOT}/src "
                                f"-c {fpath}"),
                })
        build = os.path.join(self.root, "build")
        os.makedirs(build, exist_ok=True)
        with open(os.path.join(build, "compile_commands.json"), "w",
                  encoding="utf-8") as f:
            json.dump(entries, f)
        return build


def structural_items(fix: Fixture, backend: str = "token"):
    if backend == "token":
        analyzer = V.TokenAnalyzer(fix.root)
    else:
        analyzer = V.ClangAnalyzer(fix.root, fix.write_compdb())
    facts = analyzer.collect()
    findings = V.Findings()
    with contextlib.redirect_stdout(io.StringIO()):
        V.evaluate_structural(fix.root, facts, findings)
    return findings.items


def rules_of(items) -> set[str]:
    return {rule for _, _, rule, _ in items}


# ---------------------------------------------------------------------------
# Fixture sources
# ---------------------------------------------------------------------------

PRELUDE_H = """#pragma once
#include "common/mutex.h"
#include "common/thread_annotations.h"
"""

UNANNOTATED_H = PRELUDE_H + """
namespace t {
class Counter {
 public:
  void Bump();
  int Get();
 private:
  vod::Mutex mu_;
  int value_ = 0;
};
}  // namespace t
"""

ANNOTATED_H = PRELUDE_H + """
namespace t {
class Counter {
 public:
  void Bump();
  int Get();
 private:
  vod::Mutex mu_;
  int value_ VODB_GUARDED_BY(mu_) = 0;
};
}  // namespace t
"""

ALLOWED_H = PRELUDE_H + """
namespace t {
class Counter {
 public:
  void Bump();
  int Get();
 private:
  vod::Mutex mu_;
  // Synced externally; see design note.
  int value_ = 0;  // vodb-lint: allow(unannotated-shared-state)
};
}  // namespace t
"""

ATOMIC_H = PRELUDE_H + """#include <atomic>
namespace t {
class Counter {
 public:
  void Bump();
  int Get();
 private:
  vod::Mutex mu_;
  std::atomic<int> value_{0};
};
}  // namespace t
"""

COUNTER_CC = """#include "x/counter.h"
namespace t {
void Counter::Bump() {
  vod::MutexLock lock(mu_);
  value_ = value_ + 1;
}
int Counter::Get() {
  vod::MutexLock lock(mu_);
  return value_;
}
}  // namespace t
"""

ATOMIC_CC = """#include "x/counter.h"
namespace t {
void Counter::Bump() {
  vod::MutexLock lock(mu_);
  value_.fetch_add(1);
}
int Counter::Get() {
  vod::MutexLock lock(mu_);
  return value_.load();
}
}  // namespace t
"""

LOCK_ORDER_H = PRELUDE_H + """
namespace t {
class Pair {
 public:
  void Fwd();
  void Rev();
 private:
  vod::Mutex a_;
  vod::Mutex b_;
  int left_ VODB_GUARDED_BY(a_) = 0;
  int right_ VODB_GUARDED_BY(b_) = 0;
};
}  // namespace t
"""

LOCK_ORDER_BAD_CC = """#include "x/pair.h"
namespace t {
void Pair::Fwd() {
  vod::MutexLock la(a_);
  vod::MutexLock lb(b_);
  left_ = right_;
}
void Pair::Rev() {
  vod::MutexLock lb(b_);
  vod::MutexLock la(a_);
  right_ = left_;
}
}  // namespace t
"""

LOCK_ORDER_OK_CC = """#include "x/pair.h"
namespace t {
void Pair::Fwd() {
  vod::MutexLock la(a_);
  vod::MutexLock lb(b_);
  left_ = right_;
}
void Pair::Rev() {
  vod::MutexLock la(a_);
  vod::MutexLock lb(b_);
  right_ = left_;
}
}  // namespace t
"""

HOT_GROWTH_CC = """#include <vector>
#include "obs/profile.h"
namespace t {
std::vector<int> Build(int n) {
  VODB_PROF_SCOPE("t.build");
  std::vector<int> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(i);
  }
  return out;
}
}  // namespace t
"""

HOT_RESERVED_CC = """#include <vector>
#include "obs/profile.h"
namespace t {
std::vector<int> Build(int n) {
  VODB_PROF_SCOPE("t.build");
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(i);
  }
  return out;
}
}  // namespace t
"""

HOT_NEW_CC = """#include <vector>
#include "obs/profile.h"
namespace t {
int Sum(int n) {
  VODB_PROF_SCOPE("t.sum");
  int s = 0;
  for (int i = 0; i < n; ++i) {
    int* p = new int(i);
    s += *p;
    delete p;
  }
  return s;
}
}  // namespace t
"""

COLD_GROWTH_CC = """#include <vector>
namespace t {
std::vector<int> Build(int n) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(i);
  }
  return out;
}
}  // namespace t
"""

HOT_ALLOWED_CC = """#include <deque>
#include "obs/profile.h"
namespace t {
std::deque<int> Build(int n) {
  VODB_PROF_SCOPE("t.build");
  std::deque<int> out;
  for (int i = 0; i < n; ++i) {
    // deque has no reserve; node growth accepted here.
    out.push_back(i);  // vodb-lint: allow(alloc-in-hot-path)
  }
  return out;
}
}  // namespace t
"""

UNORDERED_OUT_CC = """#include <sstream>
#include <string>
#include <unordered_map>
namespace t {
std::string Dump(const std::unordered_map<int, int>& table) {
  std::ostringstream out;
  for (const auto& kv : table) {
    out << kv.first << "," << kv.second << "\\n";
  }
  return out.str();
}
}  // namespace t
"""

UNORDERED_SUM_CC = """#include <unordered_map>
namespace t {
int Sum(const std::unordered_map<int, int>& table) {
  int s = 0;
  for (const auto& kv : table) {
    s += kv.second;
  }
  return s;
}
}  // namespace t
"""

ORDERED_OUT_CC = """#include <map>
#include <sstream>
#include <string>
namespace t {
std::string Dump(const std::map<int, int>& table) {
  std::ostringstream out;
  for (const auto& kv : table) {
    out << kv.first << "," << kv.second << "\\n";
  }
  return out.str();
}
}  // namespace t
"""

UNITS_BAD_H = """#pragma once
namespace t {
struct Config {
  double timeout_seconds = 5.0;
  int max_requests = 8;
};
void SetBudget(double budget_bits);
double PeakRate();
}  // namespace t
"""

UNITS_BAD_CC = """#include "x/units_bad.h"
namespace t {
void SetBudget(double budget_bits) { (void)budget_bits; }
double PeakRate() { return 0.0; }
}  // namespace t
"""

UNITS_OK_H = """#pragma once
namespace t {
struct Config {
  double alpha = 0.5;
  double load_factor = 0.75;
};
void SetBudget(double fraction);
double PeakRate();
}  // namespace t
"""

UNITS_OK_CC = """#include "x/units_ok.h"
namespace t {
void SetBudget(double fraction) { (void)fraction; }
double PeakRate() { return 0.0; }
}  // namespace t
"""

UNITS_ALLOWED_H = """#pragma once
namespace t {
struct Sampler {
  // Events per abstract tick — a distribution parameter, not bits/second.
  double arrival_rate = 1.0;  // vodb-lint: allow(units-hygiene)
};
}  // namespace t
"""

UNITS_ALLOWED_CC = """#include "x/units_allowed.h"
namespace t {
double Peek(const Sampler& s) { return s.arrival_rate; }
}  // namespace t
"""

UNITS_MULTI_ALLOWED_H = """#pragma once
namespace t {
struct Sampler {
  // Events per abstract tick — a distribution parameter, not bits/second.
  double arrival_rate = 1.0;  // vodb-lint: allow(raw-double-unit, units-hygiene)
};
}  // namespace t
"""

UNORDERED_ALLOWED_CC = """#include <sstream>
#include <string>
#include <unordered_map>
namespace t {
std::string Dump(const std::unordered_map<int, int>& table) {
  std::ostringstream out;
  // Debug-only dump; order is irrelevant to consumers.
  for (const auto& kv : table) {  // vodb-lint: allow(unordered-iteration)
    out << kv.first << "\\n";
  }
  return out.str();
}
}  // namespace t
"""


# ---------------------------------------------------------------------------
# Structural rules, token backend
# ---------------------------------------------------------------------------


class StructuralTokenTest(unittest.TestCase):
    def setUp(self) -> None:
        self.fix = Fixture()
        self.addCleanup(self.fix.cleanup)

    def test_unannotated_shared_state_fires(self) -> None:
        self.fix.write("src/x/counter.h", UNANNOTATED_H)
        self.fix.write("src/x/counter.cc", COUNTER_CC)
        items = structural_items(self.fix)
        self.assertIn("unannotated-shared-state", rules_of(items))
        path, lineno, _, msg = next(
            i for i in items if i[2] == "unannotated-shared-state")
        self.assertEqual(path, os.path.join("src", "x", "counter.h"))
        self.assertIn("value_", msg)
        with open(os.path.join(self.fix.root, path), encoding="utf-8") as f:
            self.assertIn("int value_", f.read().splitlines()[lineno - 1])

    def test_annotated_field_is_clean(self) -> None:
        self.fix.write("src/x/counter.h", ANNOTATED_H)
        self.fix.write("src/x/counter.cc", COUNTER_CC)
        self.assertEqual(structural_items(self.fix), [])

    def test_atomic_field_is_exempt(self) -> None:
        self.fix.write("src/x/counter.h", ATOMIC_H)
        self.fix.write("src/x/counter.cc", ATOMIC_CC)
        self.assertEqual(structural_items(self.fix), [])

    def test_allow_comment_suppresses(self) -> None:
        self.fix.write("src/x/counter.h", ALLOWED_H)
        self.fix.write("src/x/counter.cc", COUNTER_CC)
        self.assertEqual(structural_items(self.fix), [])

    def test_lock_order_cycle_fires(self) -> None:
        self.fix.write("src/x/pair.h", LOCK_ORDER_H)
        self.fix.write("src/x/pair.cc", LOCK_ORDER_BAD_CC)
        items = structural_items(self.fix)
        self.assertIn("lock-order", rules_of(items))

    def test_consistent_lock_order_is_clean(self) -> None:
        self.fix.write("src/x/pair.h", LOCK_ORDER_H)
        self.fix.write("src/x/pair.cc", LOCK_ORDER_OK_CC)
        self.assertEqual(structural_items(self.fix), [])

    def test_hot_loop_growth_fires(self) -> None:
        self.fix.write("src/x/hot.cc", HOT_GROWTH_CC)
        items = structural_items(self.fix)
        self.assertEqual(rules_of(items), {"alloc-in-hot-path"})
        self.assertIn("push_back", items[0][3])

    def test_hot_loop_new_fires(self) -> None:
        self.fix.write("src/x/hot.cc", HOT_NEW_CC)
        items = structural_items(self.fix)
        self.assertEqual(rules_of(items), {"alloc-in-hot-path"})

    def test_reserve_escape_is_clean(self) -> None:
        self.fix.write("src/x/hot.cc", HOT_RESERVED_CC)
        self.assertEqual(structural_items(self.fix), [])

    def test_unprofiled_loop_is_clean(self) -> None:
        self.fix.write("src/x/cold.cc", COLD_GROWTH_CC)
        self.assertEqual(structural_items(self.fix), [])

    def test_hot_loop_allow_comment_suppresses(self) -> None:
        self.fix.write("src/x/hot.cc", HOT_ALLOWED_CC)
        self.assertEqual(structural_items(self.fix), [])

    def test_unordered_iteration_into_output_fires(self) -> None:
        self.fix.write("src/x/dump.cc", UNORDERED_OUT_CC)
        items = structural_items(self.fix)
        self.assertEqual(rules_of(items), {"unordered-iteration"})
        self.assertIn("table", items[0][3])

    def test_unordered_accumulation_is_clean(self) -> None:
        self.fix.write("src/x/sum.cc", UNORDERED_SUM_CC)
        self.assertEqual(structural_items(self.fix), [])

    def test_ordered_map_output_is_clean(self) -> None:
        self.fix.write("src/x/dump.cc", ORDERED_OUT_CC)
        self.assertEqual(structural_items(self.fix), [])

    def test_unordered_allow_comment_suppresses(self) -> None:
        self.fix.write("src/x/dump.cc", UNORDERED_ALLOWED_CC)
        self.assertEqual(structural_items(self.fix), [])

    def test_units_hygiene_fires_on_param_and_field(self) -> None:
        self.fix.write("src/x/units_bad.h", UNITS_BAD_H)
        self.fix.write("src/x/units_bad.cc", UNITS_BAD_CC)
        items = structural_items(self.fix)
        self.assertEqual(rules_of(items), {"units-hygiene"})
        names = {msg.split("`")[3] for _, _, _, msg in items}
        self.assertEqual(names, {"timeout_seconds", "budget_bits"})
        # Findings attach to the header, not the .cc definition.
        self.assertTrue(all(p == os.path.join("src", "x", "units_bad.h")
                            for p, _, _, _ in items))
        # The message names the alias to migrate to.
        by_name = {msg.split("`")[3]: msg for _, _, _, msg in items}
        self.assertIn("vod::Seconds", by_name["timeout_seconds"])
        self.assertIn("vod::Bits", by_name["budget_bits"])

    def test_units_hygiene_ignores_unsuffixed_doubles(self) -> None:
        self.fix.write("src/x/units_ok.h", UNITS_OK_H)
        self.fix.write("src/x/units_ok.cc", UNITS_OK_CC)
        self.assertEqual(structural_items(self.fix), [])

    def test_units_hygiene_allow_comment_suppresses(self) -> None:
        self.fix.write("src/x/units_allowed.h", UNITS_ALLOWED_H)
        self.fix.write("src/x/units_allowed.cc", UNITS_ALLOWED_CC)
        self.assertEqual(structural_items(self.fix), [])

    def test_units_hygiene_comma_list_allow_suppresses(self) -> None:
        # One declaration, two rules: allow(<a>, <b>) silences both.
        self.fix.write("src/x/units_allowed.h", UNITS_MULTI_ALLOWED_H)
        self.fix.write("src/x/units_allowed.cc", UNITS_ALLOWED_CC)
        self.assertEqual(structural_items(self.fix), [])


# ---------------------------------------------------------------------------
# Structural rules, AST backend (CI; skipped where libclang is absent)
# ---------------------------------------------------------------------------


@unittest.skipUnless(AST_AVAILABLE, "libclang (python3-clang) not installed")
class StructuralAstTest(unittest.TestCase):
    def setUp(self) -> None:
        self.fix = Fixture()
        self.addCleanup(self.fix.cleanup)

    def test_unannotated_shared_state_fires(self) -> None:
        self.fix.write("src/x/counter.h", UNANNOTATED_H)
        self.fix.write("src/x/counter.cc", COUNTER_CC)
        items = structural_items(self.fix, backend="ast")
        self.assertIn("unannotated-shared-state", rules_of(items))

    def test_annotated_field_is_clean(self) -> None:
        self.fix.write("src/x/counter.h", ANNOTATED_H)
        self.fix.write("src/x/counter.cc", COUNTER_CC)
        self.assertEqual(structural_items(self.fix, backend="ast"), [])

    def test_lock_order_cycle_fires(self) -> None:
        self.fix.write("src/x/pair.h", LOCK_ORDER_H)
        self.fix.write("src/x/pair.cc", LOCK_ORDER_BAD_CC)
        items = structural_items(self.fix, backend="ast")
        self.assertIn("lock-order", rules_of(items))

    def test_hot_loop_growth_fires_and_reserve_escapes(self) -> None:
        self.fix.write("src/x/hot.cc", HOT_GROWTH_CC)
        self.fix.write("src/x/ok.cc", HOT_RESERVED_CC)
        items = structural_items(self.fix, backend="ast")
        self.assertEqual(rules_of(items), {"alloc-in-hot-path"})
        self.assertTrue(
            all(p == os.path.join("src", "x", "hot.cc")
                for p, _, _, _ in items))

    def test_unordered_iteration_into_output_fires(self) -> None:
        self.fix.write("src/x/dump.cc", UNORDERED_OUT_CC)
        self.fix.write("src/x/sum.cc", UNORDERED_SUM_CC)
        items = structural_items(self.fix, backend="ast")
        self.assertEqual(rules_of(items), {"unordered-iteration"})
        self.assertTrue(
            all(p == os.path.join("src", "x", "dump.cc")
                for p, _, _, _ in items))

    def test_units_hygiene_fires_on_param_and_field(self) -> None:
        self.fix.write("src/x/units_bad.h", UNITS_BAD_H)
        self.fix.write("src/x/units_bad.cc", UNITS_BAD_CC)
        items = structural_items(self.fix, backend="ast")
        self.assertEqual(rules_of(items), {"units-hygiene"})
        names = {msg.split("`")[3] for _, _, _, msg in items}
        self.assertEqual(names, {"timeout_seconds", "budget_bits"})
        # The AST backend knows the exact declaration kind.
        kinds = {msg.split("`")[3]: msg.split("`")[2].strip()
                 for _, _, _, msg in items}
        self.assertEqual(kinds["timeout_seconds"], "field")
        self.assertEqual(kinds["budget_bits"], "parameter")

    def test_units_hygiene_clean_and_allowed(self) -> None:
        self.fix.write("src/x/units_ok.h", UNITS_OK_H)
        self.fix.write("src/x/units_ok.cc", UNITS_OK_CC)
        self.fix.write("src/x/units_allowed.h", UNITS_ALLOWED_H)
        self.fix.write("src/x/units_allowed.cc", UNITS_ALLOWED_CC)
        self.assertEqual(structural_items(self.fix, backend="ast"), [])


# Cycle-counter reads, one a line on lines 3-6.
CYCLES_CC = """\
#include <x86intrin.h>
void Reads(unsigned* aux, unsigned long long* t) {
  t[0] = __rdtsc();
  t[1] = __builtin_ia32_rdtsc();
  t[2] = __rdtscp(aux);
  asm volatile("rdtscp" : "=a"(aux[0]) : : "rdx", "rcx");
}
"""


# ---------------------------------------------------------------------------
# Legacy line rules (smoke coverage through the same fixture machinery)
# ---------------------------------------------------------------------------


class LineRulesTest(unittest.TestCase):
    def setUp(self) -> None:
        self.fix = Fixture()
        self.addCleanup(self.fix.cleanup)

    def run_checks(self, fn):
        findings = V.Findings()
        with contextlib.redirect_stdout(io.StringIO()):
            fn(self.fix.root, findings)
        return findings.items

    def test_raw_timing_fires_outside_obs(self) -> None:
        self.fix.write("src/x/t.cc",
                       "#include <chrono>\n"
                       "auto Now() { return std::chrono::steady_clock"
                       "::now(); }\n")
        items = self.run_checks(V.check_raw_timing)
        self.assertEqual(rules_of(items), {"raw-timing"})

    def test_raw_timing_allows_obs(self) -> None:
        self.fix.write("src/obs/t.cc",
                       "#include <chrono>\n"
                       "auto Now() { return std::chrono::steady_clock"
                       "::now(); }\n")
        self.assertEqual(self.run_checks(V.check_raw_timing), [])

    def test_raw_timing_flags_cycle_counter_reads(self) -> None:
        self.fix.write("src/x/cycles.cc", CYCLES_CC)
        items = self.run_checks(V.check_raw_timing)
        self.assertEqual(rules_of(items), {"raw-timing"})
        self.assertEqual(sorted(line for _, line, _, _ in items),
                         [3, 4, 5, 6])

    def test_raw_timing_allows_cycle_counter_in_obs(self) -> None:
        self.fix.write("src/obs/cycles.cc", CYCLES_CC)
        self.assertEqual(self.run_checks(V.check_raw_timing), [])

    def test_raw_timing_ignores_cycle_counter_lookalikes(self) -> None:
        self.fix.write("src/x/lookalike.cc",
                       "// __rdtsc() would be faster; see obs/clock.h.\n"
                       "/* asm(\"rdtsc\") */\n"
                       "int rdtsc_budget = 0;\n"
                       "int my_rdtscp = 0;\n")
        self.assertEqual(self.run_checks(V.check_raw_timing), [])

    def test_raw_timing_allow_comment_suppresses_cycle_counter(self) -> None:
        self.fix.write("src/x/allowed.cc",
                       "#include <x86intrin.h>\n"
                       "unsigned long long Now() {\n"
                       "  return __rdtsc();  // vodb-lint: allow(raw-timing)\n"
                       "}\n")
        self.assertEqual(self.run_checks(V.check_raw_timing), [])

    def test_check_in_hot_loop_fires(self) -> None:
        self.fix.write("src/sim/hot.cc",
                       "void F(int n) {\n"
                       "  for (int i = 0; i < n; ++i) {\n"
                       "    VOD_CHECK(i >= 0);\n"
                       "  }\n"
                       "}\n")
        items = self.run_checks(V.check_hot_loop_checks)
        self.assertEqual(rules_of(items), {"check-in-hot-loop"})

    def test_dcheck_in_hot_loop_is_clean(self) -> None:
        self.fix.write("src/sim/hot.cc",
                       "void F(int n) {\n"
                       "  for (int i = 0; i < n; ++i) {\n"
                       "    VOD_DCHECK(i >= 0);\n"
                       "  }\n"
                       "}\n")
        self.assertEqual(self.run_checks(V.check_hot_loop_checks), [])

    def test_raw_double_unit_fires(self) -> None:
        self.fix.write("src/x/api.h", "struct P { double deadline; };\n")
        items = self.run_checks(V.check_raw_double_units)
        self.assertEqual(rules_of(items), {"raw-double-unit"})

    def test_unconsumed_status_fires(self) -> None:
        self.fix.write("src/x/s.h", "namespace t {\nStatus Persist();\n}\n")
        self.fix.write("src/x/s.cc",
                       "#include \"x/s.h\"\n"
                       "void F() {\n"
                       "  Persist();\n"
                       "}\n")
        items = self.run_checks(V.check_unconsumed_status)
        self.assertEqual(rules_of(items), {"unconsumed-status"})


# ---------------------------------------------------------------------------
# CLI contract: fallback, --require-ast, exit codes
# ---------------------------------------------------------------------------


class CliTest(unittest.TestCase):
    def setUp(self) -> None:
        self.fix = Fixture()
        self.addCleanup(self.fix.cleanup)

    def run_cli(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return V.run(argv)

    def test_clean_fixture_exits_zero(self) -> None:
        self.fix.write("src/x/counter.h", ANNOTATED_H)
        self.fix.write("src/x/counter.cc", COUNTER_CC)
        self.assertEqual(self.run_cli([self.fix.root]), 0)

    def test_findings_exit_one(self) -> None:
        self.fix.write("src/x/counter.h", UNANNOTATED_H)
        self.fix.write("src/x/counter.cc", COUNTER_CC)
        self.assertEqual(self.run_cli([self.fix.root]), 1)

    def test_ast_flag_falls_back_without_compdb(self) -> None:
        # No compile_commands.json: --ast degrades to the token backend
        # and still reports the finding.
        self.fix.write("src/x/counter.h", UNANNOTATED_H)
        self.fix.write("src/x/counter.cc", COUNTER_CC)
        self.assertEqual(
            self.run_cli(["--ast", "--compdb",
                          os.path.join(self.fix.root, "nonexistent"),
                          self.fix.root]), 1)

    def test_require_ast_fails_hard_without_compdb(self) -> None:
        # Whether or not libclang is installed, a missing compilation
        # database makes the AST backend unavailable: exit 2, no silent
        # token fallback.
        self.fix.write("src/x/counter.h", ANNOTATED_H)
        self.fix.write("src/x/counter.cc", COUNTER_CC)
        self.assertEqual(
            self.run_cli(["--ast", "--require-ast", "--compdb",
                          os.path.join(self.fix.root, "nonexistent"),
                          self.fix.root]), 2)

    def test_raw_timing_fires_on_both_backends(self) -> None:
        # A line rule: it must report under the token backend and under
        # --ast alike (the AST run falls back where libclang is absent).
        self.fix.write("src/x/cycles.cc", CYCLES_CC)
        self.assertEqual(self.run_cli([self.fix.root]), 1)
        self.assertEqual(
            self.run_cli(["--ast", "--compdb", self.fix.write_compdb(),
                          self.fix.root]), 1)

    def test_repo_is_clean(self) -> None:
        # The real repository must lint clean with the token backend (the
        # AST pass is enforced separately by the CI lint job).
        self.assertEqual(self.run_cli([REPO_ROOT]), 0)


if __name__ == "__main__":
    unittest.main()
