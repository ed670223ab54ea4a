// Tests for the src/bench_kit microbenchmark harness itself: repetition
// statistics against a deterministic fake clock, iteration auto-scaling,
// optimization-barrier smoke checks, the harness-overhead pin the perf
// suite's `noop` benchmark relies on, and the BENCH_*.json report (emit ->
// parse -> identical re-emit). Also the artifact writers it shares with
// every other JSON document: common/json.h's JsonValue (escaping, number
// text, strict parsing) and common/file.h's WriteFile.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_kit/barriers.h"
#include "bench_kit/harness.h"
#include "bench_kit/report.h"
#include "bench_kit/run_stats.h"
#include "common/file.h"
#include "common/json.h"
#include "gtest/gtest.h"

namespace vod::bench_kit {
namespace {

// --- SampleStats -----------------------------------------------------------

TEST(SampleStatsTest, EmptySampleIsAllZero) {
  const SampleStats s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.median, 0);
  EXPECT_EQ(s.cv, 0);
}

TEST(SampleStatsTest, OddSampleExactOrderStatistics) {
  const SampleStats s = Summarize({5, 1, 9, 3, 7});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 9);
  EXPECT_DOUBLE_EQ(s.median, 5);
  EXPECT_DOUBLE_EQ(s.mean, 5);
  // Sample stddev of {1,3,5,7,9}: sqrt(40/4) = sqrt(10).
  EXPECT_NEAR(s.stddev, 3.1622776601683795, 1e-12);
  EXPECT_NEAR(s.cv, s.stddev / 5.0, 1e-15);
}

TEST(SampleStatsTest, EvenSampleMedianAveragesMiddlePair) {
  const SampleStats s = Summarize({400, 100, 300, 200});
  EXPECT_DOUBLE_EQ(s.median, 250);
  EXPECT_DOUBLE_EQ(s.mean, 250);
  // Sample stddev of {100,200,300,400}: sqrt(50000/3).
  EXPECT_NEAR(s.stddev, 129.09944487358058, 1e-9);
  EXPECT_NEAR(s.cv, 0.51639777949432225, 1e-12);
}

TEST(SampleStatsTest, ConstantSampleHasZeroCv) {
  const SampleStats s = Summarize({42, 42, 42});
  EXPECT_DOUBLE_EQ(s.median, 42);
  EXPECT_DOUBLE_EQ(s.stddev, 0);
  EXPECT_DOUBLE_EQ(s.cv, 0);
}

// --- Harness measurement plumbing (fake clock) -----------------------------

/// Scripted wall clock: returns the next value of `times` per call. The
/// harness makes exactly two calls per measurement (start, stop), so a
/// script fully determines every sample.
TimeFn ScriptedClock(std::vector<std::int64_t> times) {
  auto index = std::make_shared<std::size_t>(0);
  auto values = std::make_shared<std::vector<std::int64_t>>(std::move(times));
  return [index, values]() {
    EXPECT_LT(*index, values->size()) << "fake clock script exhausted";
    return (*values)[(*index)++];
  };
}

HarnessConfig FakeClockConfig(std::vector<std::int64_t> times,
                              std::size_t repetitions) {
  HarnessConfig cfg;
  cfg.repetitions = repetitions;
  cfg.warmup_reps = 0;
  cfg.subtract_loop_overhead = false;
  cfg.wall = ScriptedClock(std::move(times));
  cfg.cycles = [] { return std::uint64_t{0}; };  // Cycles unavailable.
  return cfg;
}

TEST(HarnessTest, FakeClockYieldsExactRunStatistics) {
  // Call pairs: auto-scale probe (0, 50), then four timed repetitions with
  // deltas 100, 200, 300, 400 ns at one iteration each.
  Harness harness(FakeClockConfig(
      {0, 50, 1000, 1100, 2000, 2200, 3000, 3300, 4000, 4400}, 4));
  BenchConfig pin;
  pin.min_rep_ns = 0;  // Auto-scaling accepts the first probe.
  pin.max_iters = 1;
  harness.Register("scripted", [](State& s) {
    for (auto _ : s) static_cast<void>(_);
  }, pin);

  const BenchResult r = harness.Run(harness.benchmarks()[0]);
  EXPECT_EQ(r.iterations, 1u);
  EXPECT_EQ(r.repetitions, 4u);
  EXPECT_DOUBLE_EQ(r.ns_per_iter.min, 100);
  EXPECT_DOUBLE_EQ(r.ns_per_iter.max, 400);
  EXPECT_DOUBLE_EQ(r.ns_per_iter.median, 250);
  EXPECT_DOUBLE_EQ(r.ns_per_iter.mean, 250);
  EXPECT_NEAR(r.ns_per_iter.cv, 0.51639777949432225, 1e-12);
  // Injected zero cycle counter => no cycle stats.
  EXPECT_EQ(r.cycles_per_iter.count, 0u);
}

TEST(HarnessTest, SamplesAreNormalizedPerIteration) {
  // Auto-scaling probes read 30 ns at 1 iteration (below the 40 ns target,
  // so iterations double) then 50 ns at 2 iterations (accepted). The three
  // repetition deltas 100/200/300 ns therefore divide by 2 iterations.
  Harness harness(
      FakeClockConfig({0, 30, 0, 50, 0, 100, 0, 200, 0, 300}, 3));
  BenchConfig cfg;
  cfg.min_rep_ns = 40;
  harness.Register("scripted", [](State& s) {
    for (auto _ : s) static_cast<void>(_);
  }, cfg);
  const BenchResult r = harness.Run(harness.benchmarks()[0]);
  EXPECT_EQ(r.iterations, 2u);
  EXPECT_DOUBLE_EQ(r.ns_per_iter.min, 50);
  EXPECT_DOUBLE_EQ(r.ns_per_iter.median, 100);
  EXPECT_DOUBLE_EQ(r.ns_per_iter.max, 150);
}

TEST(HarnessTest, AutoScalingDoublesUpToTheCap) {
  // Every probe reads a 1 ns delta, far below min_rep_ns, so iterations
  // double 1 -> 2 -> 4 -> 8 -> 16 and stop at the cap. Probes: 5 pairs,
  // then 2 repetitions.
  std::vector<std::int64_t> script;
  for (std::int64_t i = 0; i < 7; ++i) {
    script.push_back(i * 10);
    script.push_back(i * 10 + 1);
  }
  Harness harness(FakeClockConfig(std::move(script), 2));
  BenchConfig cfg;
  cfg.min_rep_ns = 1000;
  cfg.max_iters = 16;
  std::uint64_t seen_iters = 0;
  harness.Register("counting", [&seen_iters](State& s) {
    seen_iters = s.iterations();
    for (auto _ : s) static_cast<void>(_);
  }, cfg);

  const BenchResult r = harness.Run(harness.benchmarks()[0]);
  EXPECT_EQ(r.iterations, 16u);
  EXPECT_EQ(seen_iters, 16u);  // The body really ran at the cap.
  // 1 ns over 16 iterations.
  EXPECT_DOUBLE_EQ(r.ns_per_iter.median, 1.0 / 16.0);
}

TEST(HarnessTest, RunAllFilterMatchesSubstringAndFailsOnNoMatch) {
  HarnessConfig cfg;
  cfg.repetitions = 2;
  cfg.warmup_reps = 0;
  Harness harness(cfg);
  harness.Register("alpha_fast", [](State& s) {
    for (auto _ : s) static_cast<void>(_);
  });
  harness.Register("beta_slow", [](State& s) {
    for (auto _ : s) static_cast<void>(_);
  });

  auto some = harness.RunAll("alpha", nullptr);
  ASSERT_TRUE(some.ok());
  ASSERT_EQ(some->size(), 1u);
  EXPECT_EQ((*some)[0].name, "alpha_fast");

  auto none = harness.RunAll("gamma", nullptr);
  EXPECT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);
}

// --- Barriers + overhead pin (real clock) ----------------------------------

TEST(BarriersTest, DoNotOptimizePreservesValues) {
  int x = 41;
  DoNotOptimize(x);
  x += 1;
  DoNotOptimize(x);
  EXPECT_EQ(x, 42);

  const double y = 2.5;
  DoNotOptimize(y);  // const-ref overload compiles.
  ClobberMemory();
  EXPECT_DOUBLE_EQ(y, 2.5);

  std::vector<int> big(128, 7);  // Non-register-sized falls back to "+m".
  DoNotOptimize(big);
  EXPECT_EQ(big[64], 7);
}

TEST(HarnessOverheadTest, NoopBenchmarkMedianUnder100ns) {
  // The acceptance bar for the whole suite's credibility: an empty body
  // must report (median) under 100 ns/iter on the real clock, proving the
  // timing loop's own cost is subtracted or negligible.
  HarnessConfig cfg;
  cfg.repetitions = 5;
  Harness harness(cfg);
  BenchConfig fast;
  fast.min_rep_ns = 1'000'000;  // 1 ms repetitions keep this test quick.
  harness.Register("noop", [](State& s) {
    for (auto _ : s) static_cast<void>(_);
  }, fast);

  const BenchResult r = harness.Run(harness.benchmarks()[0]);
  EXPECT_EQ(r.repetitions, 5u);
  EXPECT_GE(r.ns_per_iter.median, 0.0);
  EXPECT_LT(r.ns_per_iter.median, 100.0);
}

// --- BENCH_*.json schema round-trip ----------------------------------------

BenchReport MakeReport() {
  BenchReport report;
  report.machine.hostname = "host-1";
  report.machine.cpu_model = "Test CPU @ 2.10GHz";
  report.machine.core_count = 8;
  report.machine.governor = "performance";
  report.git_sha = "deadbeef";
  report.build_type = "Release";
  report.audit = true;

  BenchResult r;
  r.name = "table_lookup";
  r.iterations = 1 << 20;
  r.repetitions = 5;
  r.ns_per_iter = Summarize({6.5, 6.75, 7.0, 7.25, 6.25});
  r.cycles_per_iter = Summarize({13, 14, 15, 14, 13});
  report.results.push_back(r);

  BenchResult r2;
  r2.name = "run_day";
  r2.iterations = 1;
  r2.repetitions = 3;
  r2.ns_per_iter = Summarize({6.1e7, 6.0e7, 6.3e7});
  report.results.push_back(r2);  // No cycle stats: field omitted.
  return report;
}

/// The report's one reader is scripts/bench_compare.py; here the document
/// is read back through JsonValue::Parse, and so is the file WriteReport
/// writes.
TEST(ReportTest, JsonRoundTripPreservesEveryField) {
  const BenchReport report = MakeReport();
  const std::string text = ReportToJson(report).Dump();

  auto doc = JsonValue::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("schema")->AsString(), "vodb-bench-v1");
  EXPECT_EQ(doc->Find("git_sha")->AsString(), "deadbeef");
  EXPECT_EQ(doc->Find("build_type")->AsString(), "Release");
  EXPECT_EQ(doc->Find("audit")->Dump(), JsonValue::Bool(true).Dump());
  const JsonValue* machine = doc->Find("machine");
  ASSERT_NE(machine, nullptr);
  EXPECT_EQ(machine->Find("hostname")->AsString(), "host-1");
  EXPECT_EQ(machine->Find("cpu_model")->AsString(), "Test CPU @ 2.10GHz");
  EXPECT_EQ(machine->Find("core_count")->AsNumber(), 8);
  EXPECT_EQ(machine->Find("governor")->AsString(), "performance");

  const JsonValue* benches = doc->Find("benchmarks");
  ASSERT_NE(benches, nullptr);
  ASSERT_EQ(benches->Items().size(), 2u);
  const JsonValue& a = benches->Items()[0];
  EXPECT_EQ(a.Find("name")->AsString(), "table_lookup");
  EXPECT_EQ(a.Find("iterations")->AsNumber(), 1 << 20);
  EXPECT_EQ(a.Find("repetitions")->AsNumber(), 5);
  const SampleStats& ns = report.results[0].ns_per_iter;
  const JsonValue* a_ns = a.Find("ns_per_iter");
  ASSERT_NE(a_ns, nullptr);
  EXPECT_EQ(a_ns->Find("min")->AsNumber(), ns.min);
  EXPECT_EQ(a_ns->Find("max")->AsNumber(), ns.max);
  EXPECT_EQ(a_ns->Find("mean")->AsNumber(), ns.mean);
  EXPECT_EQ(a_ns->Find("median")->AsNumber(), 6.75);
  EXPECT_EQ(a_ns->Find("stddev")->AsNumber(), ns.stddev);
  EXPECT_EQ(a_ns->Find("cv")->AsNumber(), ns.cv);
  EXPECT_EQ(a.Find("cycles_per_iter")->Find("median")->AsNumber(), 14);
  // No cycle stats: field omitted.
  EXPECT_EQ(benches->Items()[1].Find("cycles_per_iter"), nullptr);

  // Canonical writer: the parsed document re-emits byte-identically.
  EXPECT_EQ(doc->Dump(), text);

  const std::string path = ::testing::TempDir() + "/BENCH_roundtrip.json";
  ASSERT_TRUE(WriteReport(report, path).ok());
  std::ifstream in(path);
  std::ostringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), text);
  std::remove(path.c_str());
}

TEST(ReportTest, DefaultFilenameSanitizesHostname) {
  MachineInfo m;
  m.hostname = "node-3.rack/7";
  EXPECT_EQ(DefaultReportFilename(m), "BENCH_node-3_rack_7.json");
  m.hostname = "";
  EXPECT_EQ(DefaultReportFilename(m), "BENCH_unknown.json");
}

TEST(ReportTest, ProbeMachineAndGitShaAreNonEmpty) {
  const MachineInfo m = ProbeMachine();
  EXPECT_FALSE(m.hostname.empty());
  EXPECT_FALSE(m.cpu_model.empty());
  EXPECT_GE(m.core_count, 1);
  EXPECT_FALSE(m.governor.empty());
  EXPECT_FALSE(GitSha().empty());
  EXPECT_FALSE(BuildType().empty());
#if defined(VODB_AUDIT_ENABLED) && VODB_AUDIT_ENABLED
  EXPECT_TRUE(AuditCompiledIn());
#else
  EXPECT_FALSE(AuditCompiledIn());
#endif
}

// --- JsonValue: the one JSON writer ----------------------------------------

TEST(JsonValueTest, ParseRejectsMalformedDocuments) {
  EXPECT_FALSE(JsonValue::Parse("{not json").ok());
  EXPECT_FALSE(JsonValue::Parse("{} extra").ok());
  EXPECT_TRUE(JsonValue::Parse("{}").ok());
}

TEST(JsonValueTest, ParseRejectsRawControlCharacterInString) {
  // RFC 8259 section 7: a byte below 0x20 must be escaped inside a string.
  EXPECT_FALSE(JsonValue::Parse("\"a\tb\"").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"k\": \"line\nbreak\"}").ok());
  auto escaped = JsonValue::Parse("\"a\\tb\"");
  ASSERT_TRUE(escaped.ok());
  EXPECT_EQ(escaped->AsString(), "a\tb");
}

TEST(JsonValueTest, DumpEscapesEveryControlByteAndRoundTrips) {
  std::string all;
  for (int c = 1; c < 0x20; ++c) all.push_back(static_cast<char>(c));
  all += "\"\\/ plain";
  JsonValue doc = JsonValue::Object();
  doc.Set(all, JsonValue::Str(all));
  const std::string text = doc.Dump();
  for (const char c : text) {
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
        << "raw control byte " << static_cast<int>(c);
  }
  auto back = JsonValue::Parse(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_NE(back->Find(all), nullptr);
  EXPECT_EQ(back->Find(all)->AsString(), all);

  std::string quoted;
  AppendJsonString(&quoted, "a\"b\\c\td\x01");
  EXPECT_EQ(quoted, "\"a\\\"b\\\\c\\td\\u0001\"");
}

TEST(JsonValueTest, NumbersPrintShortestRoundTripText) {
  const auto text = [](double d) {
    std::string s = JsonValue::Number(d).Dump();
    s.pop_back();  // Dump() ends the document with '\n'.
    return s;
  };
  // Integral values within 2^53 print as integers.
  EXPECT_EQ(text(0), "0");
  EXPECT_EQ(text(100000), "100000");
  EXPECT_EQ(text(-42), "-42");
  EXPECT_EQ(text(9007199254740991.0), "9007199254740991");
  // Other finite values: the shortest text that parses back exactly.
  EXPECT_EQ(text(0.1), "0.1");
  EXPECT_EQ(text(0.1234), "0.1234");
  EXPECT_EQ(text(0.327), "0.327");
  EXPECT_EQ(text(1e20), "1e+20");
  // JSON has no inf or NaN.
  EXPECT_EQ(text(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(text(std::nan("")), "null");

  for (const double d : {0.1, 1.0 / 3.0, 2.0 / 3.0, 6.02214076e23, 1e-300,
                         -123.456, 5e-324, 1.7976931348623157e308,
                         9007199254740993.0, 0.30000000000000004}) {
    auto back = JsonValue::Parse(JsonValue::Number(d).Dump());
    ASSERT_TRUE(back.ok()) << d;
    EXPECT_EQ(back->AsNumber(), d) << text(d);
  }
}

// --- WriteFile: the one file writer -----------------------------------------

TEST(WriteFileTest, WritesTextAndFailsOnMissingDirectoryOrFullDevice) {
  const std::string path = ::testing::TempDir() + "/write_file_test.txt";
  ASSERT_TRUE(WriteFile(path, "hello\n").ok());
  std::ifstream in(path);
  std::ostringstream back;
  back << in.rdbuf();
  EXPECT_EQ(back.str(), "hello\n");
  std::remove(path.c_str());

  EXPECT_FALSE(WriteFile(::testing::TempDir() + "/no_such_dir/x.txt", "x")
                   .ok());
  // A full device accepts the open and the buffered write; the failure
  // shows only when the close flushes.
  if (std::FILE* full = std::fopen("/dev/full", "w")) {
    std::fclose(full);
    EXPECT_FALSE(WriteFile("/dev/full", "x").ok());
  } else {
    GTEST_SKIP() << "no /dev/full";
  }
}

}  // namespace
}  // namespace vod::bench_kit
