// Unit tests for the observability layer (src/obs): event-tracer ring
// semantics, histogram bucketing and quantile estimates against a
// sorted-vector reference, the profiler's accumulation, the span tracker's
// lifecycle-derivation rules, the sim-time telemetry recorder's bucketing
// and CSV shape, and the trace exporters' structural guarantees
// (line-per-event JSONL, balanced B/E and ts-monotonic span interleaving in
// Chrome JSON).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <latch>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/clock.h"
#include "obs/event_tracer.h"
#include "obs/histogram.h"
#include "obs/postmortem.h"
#include "obs/profile.h"
#include "obs/progress.h"
#include "obs/span_tracker.h"
#include "obs/timeseries_recorder.h"
#include "obs/trace_export.h"

namespace vod::obs {
namespace {

TraceEvent Ev(TraceEventKind kind, Seconds time, RequestId request,
              std::int32_t disk = 0) {
  TraceEvent ev;
  ev.kind = kind;
  ev.time = time;
  ev.request = request;
  ev.disk = disk;
  return ev;
}

std::size_t CountOccurrences(const std::string& haystack,
                             const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// EventTracer
// ---------------------------------------------------------------------------

TEST(EventTracerTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(EventTracer(1).capacity(), 2u);  // Minimum capacity is 2.
  EXPECT_EQ(EventTracer(2).capacity(), 2u);
  EXPECT_EQ(EventTracer(3).capacity(), 4u);
  EXPECT_EQ(EventTracer(100).capacity(), 128u);
  EXPECT_EQ(EventTracer().capacity(), EventTracer::kDefaultCapacity);
}

TEST(EventTracerTest, RetainsAllEventsBelowCapacity) {
  EventTracer tracer(8);
  for (RequestId id = 1; id <= 5; ++id) {
    tracer.Emit(Ev(TraceEventKind::kAdmit, Seconds(static_cast<double>(id)), id));
  }
  EXPECT_EQ(tracer.size(), 5u);
  EXPECT_EQ(tracer.total_emitted(), 5u);
  EXPECT_EQ(tracer.dropped(), 0u);
  const std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].request, i + 1);  // Oldest first.
  }
}

TEST(EventTracerTest, WraparoundKeepsMostRecentWindowInOrder) {
  EventTracer tracer(8);
  ASSERT_EQ(tracer.capacity(), 8u);
  const std::uint64_t total = 3 * 8 + 5;  // Wraps several times.
  for (std::uint64_t i = 1; i <= total; ++i) {
    tracer.Emit(Ev(TraceEventKind::kServiceStart, Seconds(static_cast<double>(i)), i));
  }
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.total_emitted(), total);
  EXPECT_EQ(tracer.dropped(), total - 8);
  const std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    // The retained window is exactly the last 8 emissions, oldest first.
    EXPECT_EQ(events[i].request, total - 8 + 1 + i);
  }
}

TEST(EventTracerTest, ClearResets) {
  EventTracer tracer(8);
  tracer.Emit(Ev(TraceEventKind::kArrival, Seconds(0.0), 1));
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.total_emitted(), 0u);
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST(TraceEventTest, KindNamesAreStableAndDistinct) {
  EXPECT_EQ(TraceEventKindName(TraceEventKind::kServiceStart),
            "service_start");
  EXPECT_EQ(TraceEventKindName(TraceEventKind::kRejectMemory),
            "reject_memory");
  std::vector<std::string> names;
  for (int i = 0; i < kTraceEventKindCount; ++i) {
    names.emplace_back(TraceEventKindName(static_cast<TraceEventKind>(i)));
    EXPECT_FALSE(names.back().empty());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundariesAreLeftOpenRightClosed) {
  // Bucket 0 = (-inf, 1]; bucket i = (2^(i-1), 2^i].
  Histogram h({.lo = 1.0, .growth = 2.0, .buckets = 8});
  EXPECT_EQ(h.BucketFor(-3.0), 0u);
  EXPECT_EQ(h.BucketFor(0.0), 0u);
  EXPECT_EQ(h.BucketFor(1.0), 0u);   // Exactly lo: inclusive in bucket 0.
  EXPECT_EQ(h.BucketFor(1.5), 1u);
  EXPECT_EQ(h.BucketFor(2.0), 1u);   // Exact boundary: right-closed.
  EXPECT_EQ(h.BucketFor(2.0001), 2u);
  EXPECT_EQ(h.BucketFor(4.0), 2u);
  EXPECT_EQ(h.BucketFor(64.0), 6u);
  EXPECT_EQ(h.BucketFor(64.0001), 7u);  // Overflow bucket.
  EXPECT_EQ(h.BucketFor(1e18), 7u);
  EXPECT_EQ(h.UpperBound(0), 1.0);
  EXPECT_EQ(h.UpperBound(6), 64.0);
  EXPECT_TRUE(std::isinf(h.UpperBound(7)));
}

TEST(HistogramTest, ExactBoundaryValuesSatisfyBucketInvariant) {
  // log() rounding must not misplace exact powers of the growth factor.
  Histogram h({.lo = 1e-3, .growth = 2.0, .buckets = 40});
  for (std::size_t i = 1; i + 1 < 40; ++i) {
    const double ub = h.UpperBound(i);
    EXPECT_EQ(h.BucketFor(ub), i) << "upper bound of bucket " << i;
    const double above = ub * (1.0 + 1e-12);
    EXPECT_EQ(h.BucketFor(above), i + 1) << "just above bucket " << i;
  }
}

TEST(HistogramTest, CountSumMeanMinMaxAreExact) {
  Histogram h({.lo = 1.0, .growth = 2.0, .buckets = 16});
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  h.Add(3.0);
  h.Add(5.0);
  h.Add(100.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.sum(), 108.0);
  EXPECT_EQ(h.mean(), 36.0);
  EXPECT_EQ(h.min(), 3.0);
  EXPECT_EQ(h.max(), 100.0);
}

TEST(HistogramTest, QuantilesMatchSortedVectorReferenceWithinOneBucket) {
  // Log-normal-ish deterministic sample spanning several decades.
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const Histogram::Options opt{.lo = 1e-4, .growth = 1.5, .buckets = 64};
  Histogram h(opt);
  std::vector<double> samples;
  samples.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    const double v = std::exp(8.0 * uniform(rng) - 4.0);  // e^-4 .. e^4.
    samples.push_back(v);
    h.Add(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const double exact = samples[rank - 1];
    const double est = h.Quantile(q);
    // The estimate is the containing bucket's upper bound: never below the
    // true sample quantile, and at most one growth factor above it.
    EXPECT_GE(est, exact) << "q=" << q;
    EXPECT_LE(est, exact * opt.growth * (1.0 + 1e-9)) << "q=" << q;
  }
  EXPECT_EQ(h.Quantile(0.0), samples.front());
  EXPECT_EQ(h.Quantile(1.0), samples.back());
  // The overflow path reports the observed max, not infinity.
  EXPECT_LE(h.Quantile(0.999999), samples.back());
}

TEST(HistogramTest, ConcurrentAddsFromEightThreadsAreAllCounted) {
  Histogram h({.lo = 1.0});
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        h.Add(static_cast<double>(i % 100));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kOpsPerThread);
  // Integer samples: the sum is exact in any order of the atomic adds.
  EXPECT_EQ(h.sum(), kThreads * (kOpsPerThread / 100) * 4950.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 99.0);
}

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

/// The site's row in a fresh snapshot (zero calls when it has none).
ProfSiteStats StatsOf(const std::string& name) {
  for (const ProfSiteStats& s : Profiler::Global().Snapshot()) {
    if (s.name == name) return s;
  }
  ProfSiteStats none;
  none.name = name;
  return none;
}

TEST(ProfilerTest, RegisterIsIdempotentAndScopesAccumulate) {
  Profiler& prof = Profiler::Global();
  ProfSite* site = prof.Register("obs_test.site");
  EXPECT_EQ(site, prof.Register("obs_test.site"));
  const std::int64_t calls_before = StatsOf("obs_test.site").calls;
  for (int i = 0; i < 10; ++i) {
    ProfScope scope(site);
  }
  const ProfSiteStats after = StatsOf("obs_test.site");
  EXPECT_EQ(after.calls, calls_before + 10);
  EXPECT_GE(after.total, Seconds(0.0));

  bool found = false;
  for (const ProfSiteStats& s : prof.Snapshot()) {
    if (s.name == "obs_test.site") {
      found = true;
      EXPECT_GE(s.calls, 10);
      EXPECT_GE(s.total, Seconds(0.0));
    }
  }
  EXPECT_TRUE(found);
  EXPECT_NE(prof.ReportTable().find("obs_test.site"), std::string::npos);
  bool in_json = false;
  const JsonValue json = prof.ToJson();
  for (const JsonValue& site : json.Items()) {
    if (site.Find("name")->AsString() == "obs_test.site") {
      in_json = true;
      EXPECT_GE(site.Find("calls")->AsNumber(), 10);
      EXPECT_GE(site.Find("timed")->AsNumber(), 1);
      EXPECT_GE(site.Find("total_s")->AsNumber(), 0.0);
      EXPECT_NE(site.Find("mean_us"), nullptr);
    }
  }
  EXPECT_TRUE(in_json);
}

// Every thread records into its own block; a snapshot must count the blocks
// of threads that already exited (folded into the retired totals) and of
// threads still alive, exactly, and the count must survive the live
// threads' exit.
TEST(ProfilerTest, CallCountsAreExactAcrossLiveAndExitedThreads) {
  constexpr int kThreads = 4;
  constexpr int kScopes = 10'000;
  ProfSite* site = Profiler::Global().Register("obs_test.threads");
  const std::int64_t before = StatsOf("obs_test.threads").calls;
  std::latch recorded(kThreads);
  std::latch release(1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kScopes; ++i) {
        ProfScope scope(site);
      }
      recorded.count_down();
      if (t >= 2) release.wait();  // Stays alive until after the snapshot.
    });
  }
  recorded.wait();
  threads[0].join();
  threads[1].join();
  EXPECT_EQ(StatsOf("obs_test.threads").calls,
            before + kThreads * kScopes);
  release.count_down();
  threads[2].join();
  threads[3].join();
  EXPECT_EQ(StatsOf("obs_test.threads").calls,
            before + kThreads * kScopes);
}

TEST(ProfilerTest, ResetThenScopesReportsExactlyThoseCalls) {
  Profiler& prof = Profiler::Global();
  ProfSite* site = prof.Register("obs_test.reset");
  for (int i = 0; i < 5; ++i) {
    ProfScope scope(site);
  }
  prof.Reset();
  EXPECT_EQ(StatsOf("obs_test.reset").calls, 0);
  constexpr int kScopes = 37;
  for (int i = 0; i < kScopes; ++i) {
    ProfScope scope(site);
  }
  EXPECT_EQ(StatsOf("obs_test.reset").calls, kScopes);
}

// The tick -> ns conversion: a scope around a busy wait of >= 2 ms of
// MonotonicNanos() must report at least 1 ms, and no more than twice the
// wall time measured around it (a cycle counter read as if it ticked in
// ns would be off by the clock rate, several-fold).
TEST(ProfilerTest, ScopeTimeIsConvertedToWallNanoseconds) {
  ProfSite* site = Profiler::Global().Register("obs_test.busy_wait");
  const Seconds before = StatsOf("obs_test.busy_wait").total;
  const std::int64_t outer_start = MonotonicNanos();
  {
    ProfScope scope(site);
    const std::int64_t start = MonotonicNanos();
    while (MonotonicNanos() - start < 2'000'000) {
    }
  }
  const Seconds outer(static_cast<double>(MonotonicNanos() - outer_start) *
                      1e-9);
  const Seconds timed = StatsOf("obs_test.busy_wait").total - before;
  EXPECT_GE(timed, Seconds(1e-3));
  EXPECT_LE(timed, outer * 2.0);
}

// A site's first kWarmupCalls calls on a thread are all timed, so a coarse
// scope entered a few times reports exact time.
TEST(ProfilerTest, WarmupCallsAreAllTimed) {
  ProfSite* site = Profiler::Global().Register("obs_test.warmup");
  for (std::int64_t i = 0; i < Profiler::kWarmupCalls - 1; ++i) {
    ProfScope scope(site);
  }
  const ProfSiteStats s = StatsOf("obs_test.warmup");
  EXPECT_EQ(s.calls, Profiler::kWarmupCalls - 1);
  EXPECT_EQ(s.timed, s.calls);
}

// After the warm-up only some calls are timed, never more than were made,
// and Reset() makes the baseline of `timed` as of `calls`.
TEST(ProfilerTest, TimedCallsNeverExceedCallsAndResetSubtractsThem) {
  Profiler& prof = Profiler::Global();
  ProfSite* site = prof.Register("obs_test.timed");
  constexpr int kScopes = 10'000;
  for (int i = 0; i < kScopes; ++i) {
    ProfScope scope(site);
  }
  const ProfSiteStats before = StatsOf("obs_test.timed");
  EXPECT_EQ(before.calls, kScopes);
  EXPECT_GT(before.timed, Profiler::kWarmupCalls);
  EXPECT_LT(before.timed, before.calls);
  for (const ProfSiteStats& s : prof.Snapshot()) {
    EXPECT_LE(s.timed, s.calls) << s.name;
  }
  prof.Reset();
  for (int i = 0; i < 3; ++i) {
    ProfScope scope(site);
  }
  const ProfSiteStats after = StatsOf("obs_test.timed");
  EXPECT_EQ(after.calls, 3);
  EXPECT_LE(after.timed, after.calls);
}

// Aliasing guard: the site's calls alternate between an empty body and a
// busy wait of about 2 us. Random gaps time both kinds alike, so the scaled
// total tracks the busy waits' own sum; a fixed even stride would time one
// kind only and read about 0 or 2x.
TEST(ProfilerTest, SampledTotalTracksAlternatingCallKinds) {
  ProfSite* site = Profiler::Global().Register("obs_test.alternating");
  constexpr int kScopes = 20'000;
  std::int64_t busy_ns = 0;
  for (int i = 0; i < kScopes; ++i) {
    ProfScope scope(site);
    if (i % 2 == 1) {
      const std::int64_t start = MonotonicNanos();
      std::int64_t now = start;
      while (now - start < 2'000) now = MonotonicNanos();
      busy_ns += now - start;
    }
  }
  const ProfSiteStats s = StatsOf("obs_test.alternating");
  ASSERT_EQ(s.calls, kScopes);
  EXPECT_LT(s.timed, s.calls);
  const double ratio =
      ToSeconds(s.total) * 1e9 / static_cast<double>(busy_ns);
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.6);
}

// Regression: Snapshot sorts by total descending with a *name* tie-break.
// The original std::sort comparator ordered equal totals arbitrarily
// (std::sort is unstable), so report tables and JSON dumps could differ
// between runs with identical accumulated values.
TEST(ProfilerTest, SnapshotTieBreaksEqualTotalsByName) {
  Profiler& prof = Profiler::Global();
  // Registered out of alphabetical order; identical totals and calls.
  for (const char* name : {"obs_test.tie.c", "obs_test.tie.a",
                           "obs_test.tie.b"}) {
    const ProfSite* site = prof.Register(name);
    for (const std::int64_t ticks : {1'000, 2'000, 4'000}) {
      Profiler::Record(*site, ticks);
    }
  }
  const std::vector<ProfSiteStats> snap = prof.Snapshot();
  auto index_of = [&snap](const std::string& name) {
    for (std::size_t i = 0; i < snap.size(); ++i) {
      if (snap[i].name == name) return i;
    }
    return snap.size();
  };
  const std::size_t a = index_of("obs_test.tie.a");
  const std::size_t b = index_of("obs_test.tie.b");
  const std::size_t c = index_of("obs_test.tie.c");
  ASSERT_LT(a, snap.size());
  ASSERT_LT(b, snap.size());
  ASSERT_LT(c, snap.size());
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  // And twice in a row is byte-identical.
  EXPECT_EQ(prof.ToJson().Dump(), prof.ToJson().Dump());
}

// ---------------------------------------------------------------------------
// ProgressReporter
// ---------------------------------------------------------------------------

TEST(ProgressReporterTest, CountsAndFinishesIdempotently) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  ProgressReporter progress(3, "units", sink, /*min_interval=*/Seconds(0.0));
  progress.OnComplete();
  progress.OnComplete();
  progress.OnComplete();
  progress.OnComplete();  // Over-completion clamps at total.
  EXPECT_EQ(progress.completed(), 3u);
  progress.Finish();
  progress.Finish();
  std::fflush(sink);
  std::rewind(sink);
  std::string text(4096, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), sink));
  std::fclose(sink);
  EXPECT_NE(text.find("units 3/3 (100.0%)"), std::string::npos);
  EXPECT_EQ(CountOccurrences(text, "\n"), 1u);  // Only Finish adds newline.
}

// ---------------------------------------------------------------------------
// Trace export
// ---------------------------------------------------------------------------

std::vector<TraceRun> SampleRuns() {
  TraceRun run;
  run.label = "rr/dynamic/t40/a1/r0";
  run.pid = 0;
  run.events = {
      Ev(TraceEventKind::kArrival, Seconds(0.0), 7),
      Ev(TraceEventKind::kAdmit, Seconds(0.0), 7),
      Ev(TraceEventKind::kAllocation, Seconds(0.0), 7),
      Ev(TraceEventKind::kServiceStart, Seconds(0.1), 7),
      Ev(TraceEventKind::kServiceEnd, Seconds(0.2), 7),
      Ev(TraceEventKind::kServiceStart, Seconds(1.1), 7),
      Ev(TraceEventKind::kServiceEnd, Seconds(1.2), 7),
      Ev(TraceEventKind::kDeparture, Seconds(2.0), 7),
  };
  return {run};
}

TEST(TraceExportTest, JsonlEmitsOneLinePerEvent) {
  const std::vector<TraceRun> runs = SampleRuns();
  const std::string jsonl = ToJsonl(runs);
  EXPECT_EQ(CountOccurrences(jsonl, "\n"), runs[0].events.size());
  EXPECT_EQ(CountOccurrences(jsonl, "{\"run\":0,\"label\":"),
            runs[0].events.size());
  EXPECT_NE(jsonl.find("\"kind\":\"service_start\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"departure\""), std::string::npos);
}

TEST(TraceExportTest, ChromeJsonHasBalancedSlicesAndNamedTracks) {
  const std::string json = ToChromeTraceJson(SampleRuns());
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""),
            CountOccurrences(json, "\"ph\":\"E\""));
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""), 2u);
  // Async request span opened at admit, closed at departure.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"b\""), 1u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"e\""), 1u);
  // Two service slices -> a flow arrow pair (s then terminal f).
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"s\""), 1u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"f\""), 1u);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"disk 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"requests\""), std::string::npos);
}

/// The payload each kind carries, written out here on purpose, apart from
/// kTraceKinds, so that a changed row fails this test.
const std::map<std::string, std::set<std::string>> kDocumentedPayload = {
    {"arrival", {}},
    {"admit", {"n"}},
    {"defer", {"n"}},
    {"reject_capacity", {"n"}},
    {"reject_memory", {"n"}},
    {"reject_invalid", {}},
    {"allocation", {"n", "k", "bits", "usage_period"}},
    {"service_start", {"bits", "seek", "rotation", "transfer"}},
    {"service_end", {"bits", "seek", "rotation", "transfer"}},
    {"starvation", {}},
    {"departure", {}},
    {"cancel", {}},
    {"read_fault", {"seek", "rotation"}},
    {"hiccup", {}},
    {"degraded", {}},
    {"recovered", {}},
};

/// One event of every kind, in enum order, with every payload field set to
/// a value that prints exactly.
std::vector<TraceEvent> OneEventOfEachKind() {
  std::vector<TraceEvent> events;
  for (int i = 0; i < kTraceEventKindCount; ++i) {
    TraceEvent ev = Ev(static_cast<TraceEventKind>(i),
                       Seconds(static_cast<double>(i)), 10);
    ev.n = 3;
    ev.k = 2;
    ev.bits = Bits(1000.5);
    ev.usage_period = Seconds(1.5);
    ev.seek = Seconds(0.25);
    ev.rotation = Seconds(0.125);
    ev.transfer = Seconds(0.0625);
    events.push_back(ev);
  }
  return events;
}

/// Checks that `object` holds exactly the `base` keys and the payload of
/// `kind`'s row, and that each payload value is the field's reading.
void ExpectExactPayload(const JsonValue& object, const TraceEvent& ev,
                        const std::set<std::string>& base,
                        const std::string& where) {
  const std::string name(TraceEventKindName(ev.kind));
  SCOPED_TRACE(where + " " + name);
  std::set<std::string> payload;
  for (const auto& [key, value] : object.Fields()) {
    if (base.count(key) == 0) payload.insert(key);
  }
  std::set<std::string> row;
  for (const TraceFieldRow& f : kTraceFields) {
    if (TraceKindHas(ev.kind, f.field)) {
      row.insert(std::string(f.name));
      const JsonValue* value = object.Find(std::string(f.name));
      ASSERT_NE(value, nullptr) << f.name;
      EXPECT_EQ(value->AsNumber(), f.read(ev)) << f.name;
    }
  }
  EXPECT_EQ(payload, row);
  EXPECT_EQ(payload, kDocumentedPayload.at(name));
}

TEST(TraceExportTest, EveryKindCarriesExactlyItsRowsPayload) {
  TraceRun run;
  run.label = "every kind";
  run.events = OneEventOfEachKind();
  ASSERT_EQ(kDocumentedPayload.size(), run.events.size());

  // JSONL: one line per event, in order.
  std::istringstream lines(ToJsonl({run}));
  std::string line;
  std::size_t i = 0;
  for (; std::getline(lines, line); ++i) {
    ASSERT_LT(i, run.events.size());
    const Result<JsonValue> object = JsonValue::Parse(line);
    ASSERT_TRUE(object.ok()) << line;
    ExpectExactPayload(*object, run.events[i],
                       {"run", "label", "time", "kind", "disk", "request"},
                       "jsonl");
  }
  EXPECT_EQ(i, run.events.size());

  // Chrome: every kind but service_end is an instant named by its kind or
  // the "service" slice a service_start opens, with its payload in args.
  const Result<JsonValue> chrome = JsonValue::Parse(ToChromeTraceJson({run}));
  ASSERT_TRUE(chrome.ok());
  std::set<std::string> seen;
  for (const JsonValue& e : chrome->Find("traceEvents")->Items()) {
    const std::string ph = e.Find("ph")->AsString();
    if (ph != "i" && ph != "B") continue;
    const std::string name =
        ph == "B" ? "service_start" : e.Find("name")->AsString();
    EXPECT_TRUE(seen.insert(name).second) << name;
    for (const TraceEvent& ev : run.events) {
      if (TraceEventKindName(ev.kind) == name) {
        ExpectExactPayload(*e.Find("args"), ev, {"request"}, "chrome");
      }
    }
  }
  EXPECT_EQ(seen.size(), run.events.size() - 1);
  EXPECT_EQ(seen.count("service_end"), 0u);

  // Postmortem tail: the JSONL objects without "run" and "label".
  EventTracer tracer;
  for (const TraceEvent& ev : run.events) tracer.Emit(ev);
  PostmortemSink::Options opt;
  opt.dir = ::testing::TempDir();
  opt.run_label = "every_kind";
  PostmortemSink sink(opt);
  sink.set_tracer(&tracer);
  const Result<std::string> path =
      sink.Capture(PostmortemReason::kExplicit, "every kind", Seconds(16.0));
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  std::ifstream in(path.value());
  std::ostringstream text;
  text << in.rdbuf();
  const Result<JsonValue> dump = JsonValue::Parse(text.str());
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump->Find("schema")->AsString(), "vodb-postmortem-v2");
  const std::vector<JsonValue>& tail =
      dump->Find("ring")->Find("tail")->Items();
  ASSERT_EQ(tail.size(), run.events.size());
  for (std::size_t j = 0; j < tail.size(); ++j) {
    EXPECT_EQ(tail[j].Find("kind")->AsString(),
              TraceEventKindName(run.events[j].kind));
    ExpectExactPayload(tail[j], run.events[j],
                       {"time", "kind", "disk", "request"}, "postmortem");
  }
}

// ---------------------------------------------------------------------------
// SpanTracker
// ---------------------------------------------------------------------------

std::vector<Span> SpansOfKind(const std::vector<Span>& spans, SpanKind kind) {
  std::vector<Span> out;
  for (const Span& s : spans) {
    if (s.kind == kind) out.push_back(s);
  }
  return out;
}

TEST(SpanTrackerTest, KindNamesAreStableAndDistinct) {
  EXPECT_EQ(SpanKindName(SpanKind::kAdmissionWait), "admission_wait");
  EXPECT_EQ(SpanKindName(SpanKind::kService), "service");
  EXPECT_EQ(SpanKindName(SpanKind::kDegradedEpisode), "degraded");
  EXPECT_EQ(SpanKindName(SpanKind::kRetryBurst), "retry_burst");
}

TEST(SpanTrackerTest, AdmissionWaitSpansArrivalToAdmit) {
  const std::vector<TraceEvent> events = {
      Ev(TraceEventKind::kArrival, Seconds(1.0), 7),
      Ev(TraceEventKind::kDefer, Seconds(1.0), 7),  // Deferral keeps it open.
      Ev(TraceEventKind::kAdmit, Seconds(4.0), 7),
  };
  const auto spans = SpanTracker::FromEvents(events, Seconds(10.0));
  const auto waits = SpansOfKind(spans, SpanKind::kAdmissionWait);
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_EQ(waits[0].request, 7u);
  EXPECT_EQ(waits[0].begin, Seconds(1.0));
  EXPECT_EQ(waits[0].end, Seconds(4.0));
}

TEST(SpanTrackerTest, RejectedArrivalProducesNoSpan) {
  const std::vector<TraceEvent> events = {
      Ev(TraceEventKind::kArrival, Seconds(1.0), 7),
      Ev(TraceEventKind::kRejectCapacity, Seconds(1.0), 7),
      Ev(TraceEventKind::kArrival, Seconds(2.0), 8),
      Ev(TraceEventKind::kRejectMemory, Seconds(2.0), 8),
  };
  EXPECT_TRUE(SpanTracker::FromEvents(events, Seconds(10.0)).empty());
}

TEST(SpanTrackerTest, ServiceSpansPairStartToEndAndDropOrphanEnds) {
  const std::vector<TraceEvent> events = {
      Ev(TraceEventKind::kServiceEnd, Seconds(0.5), 9),  // Ring-wrap orphan.
      Ev(TraceEventKind::kServiceStart, Seconds(1.0), 9, /*disk=*/2),
      Ev(TraceEventKind::kServiceEnd, Seconds(1.25), 9, /*disk=*/2),
      Ev(TraceEventKind::kServiceStart, Seconds(2.0), 9, /*disk=*/2),
      Ev(TraceEventKind::kServiceEnd, Seconds(2.25), 9, /*disk=*/2),
  };
  const auto spans = SpanTracker::FromEvents(events, Seconds(10.0));
  const auto services = SpansOfKind(spans, SpanKind::kService);
  ASSERT_EQ(services.size(), 2u);
  EXPECT_EQ(services[0].begin, Seconds(1.0));
  EXPECT_EQ(services[0].end, Seconds(1.25));
  EXPECT_EQ(services[0].disk, 2);
  EXPECT_EQ(services[1].begin, Seconds(2.0));
}

TEST(SpanTrackerTest, DegradedEpisodeClosesOnRecoveryOrFinish) {
  const std::vector<TraceEvent> events = {
      Ev(TraceEventKind::kDegraded, Seconds(1.0), 5),
      Ev(TraceEventKind::kRecovered, Seconds(3.0), 5),
      Ev(TraceEventKind::kDegraded, Seconds(7.0), 6),  // Never recovers.
  };
  const auto spans = SpanTracker::FromEvents(events, Seconds(10.0));
  const auto episodes = SpansOfKind(spans, SpanKind::kDegradedEpisode);
  ASSERT_EQ(episodes.size(), 2u);
  EXPECT_EQ(episodes[0].request, 5u);
  EXPECT_EQ(episodes[0].end, Seconds(3.0));
  EXPECT_EQ(episodes[1].request, 6u);
  EXPECT_EQ(episodes[1].end, Seconds(10.0));  // Clipped at Finish.
}

TEST(SpanTrackerTest, RetryBurstSpansFirstFaultToOutcome) {
  const std::vector<TraceEvent> events = {
      // Burst 1: two faults, recovered by a successful service end.
      Ev(TraceEventKind::kReadFault, Seconds(1.0), 4),
      Ev(TraceEventKind::kReadFault, Seconds(1.2), 4),
      Ev(TraceEventKind::kServiceEnd, Seconds(1.5), 4),
      // Burst 2: budget exhausted -> hiccup closes it.
      Ev(TraceEventKind::kReadFault, Seconds(5.0), 4),
      Ev(TraceEventKind::kHiccup, Seconds(5.4), 4),
  };
  const auto spans = SpanTracker::FromEvents(events, Seconds(10.0));
  const auto bursts = SpansOfKind(spans, SpanKind::kRetryBurst);
  ASSERT_EQ(bursts.size(), 2u);
  EXPECT_EQ(bursts[0].begin, Seconds(1.0));  // First fault, not the second.
  EXPECT_EQ(bursts[0].end, Seconds(1.5));
  EXPECT_EQ(bursts[1].begin, Seconds(5.0));
  EXPECT_EQ(bursts[1].end, Seconds(5.4));
}

TEST(SpanTrackerTest, DepartureClosesOpenDegradedAndBurst) {
  const std::vector<TraceEvent> events = {
      Ev(TraceEventKind::kDegraded, Seconds(1.0), 3),
      Ev(TraceEventKind::kReadFault, Seconds(2.0), 3),
      Ev(TraceEventKind::kDeparture, Seconds(4.0), 3),
  };
  const auto spans = SpanTracker::FromEvents(events, Seconds(10.0));
  ASSERT_EQ(spans.size(), 2u);
  for (const Span& s : spans) {
    EXPECT_EQ(s.end, Seconds(4.0));  // Both clipped at departure, not 10.
  }
}

TEST(SpanTrackerTest, OutputIsSortedAndEverySpanHasNonNegativeDuration) {
  // A busy interleaved stream across three requests.
  std::vector<TraceEvent> events;
  for (int r = 1; r <= 3; ++r) {
    const double base = static_cast<double>(r);
    events.push_back(Ev(TraceEventKind::kArrival, Seconds(base), r));
    events.push_back(Ev(TraceEventKind::kAdmit, Seconds(base + 0.1), r));
    events.push_back(
        Ev(TraceEventKind::kServiceStart, Seconds(base + 0.2), r));
    events.push_back(Ev(TraceEventKind::kServiceEnd, Seconds(base + 0.3), r));
    events.push_back(Ev(TraceEventKind::kDeparture, Seconds(base + 9.0), r));
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.time < b.time;
            });
  const auto spans = SpanTracker::FromEvents(events, Seconds(20.0));
  ASSERT_EQ(spans.size(), 6u);  // 3 waits + 3 services.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].end, spans[i].begin);
    if (i > 0) {
      EXPECT_GE(spans[i].begin, spans[i - 1].begin);  // Sorted.
    }
  }
}

// ---------------------------------------------------------------------------
// TimeseriesRecorder
// ---------------------------------------------------------------------------

TimeseriesSample Sample(double reserved_bits, double busy_s, int active = 1) {
  TimeseriesSample s;
  s.reserved = Bits(reserved_bits);
  s.buffered = Bits(reserved_bits / 2);
  s.queue_depth = 10;
  s.active = active;
  s.degraded = 0;
  s.disk_busy = Seconds(busy_s);
  return s;
}

TEST(TimeseriesRecorderTest, RecordsOnePointPerBucket) {
  TimeseriesRecorder rec({.bucket = Seconds(60.0)});
  EXPECT_TRUE(rec.Due(Seconds(0.0)));  // Bucket 0 has no point yet.
  rec.Record(Seconds(5.0), Sample(100.0, 1.0));
  EXPECT_FALSE(rec.Due(Seconds(30.0)));  // Same bucket: not due.
  rec.Record(Seconds(30.0), Sample(999.0, 2.0));  // Ignored (not due).
  EXPECT_TRUE(rec.Due(Seconds(61.0)));
  rec.Record(Seconds(61.0), Sample(200.0, 2.0));
  ASSERT_EQ(rec.points().size(), 2u);
  EXPECT_EQ(rec.points()[0].time, Seconds(5.0));  // Observation time kept.
  EXPECT_EQ(ToBits(rec.points()[0].reserved), 100.0);
  EXPECT_EQ(rec.points()[1].time, Seconds(61.0));
}

TEST(TimeseriesRecorderTest, SparseEventsSkipEmptyBuckets) {
  TimeseriesRecorder rec({.bucket = Seconds(60.0)});
  rec.Record(Seconds(10.0), Sample(1.0, 0.0));
  // Nothing happened for 10 buckets; the next event lands in bucket 11.
  EXPECT_TRUE(rec.Due(Seconds(700.0)));
  rec.Record(Seconds(700.0), Sample(2.0, 0.0));
  ASSERT_EQ(rec.points().size(), 2u);
  // Then the very next bucket fires normally at 720.
  EXPECT_FALSE(rec.Due(Seconds(719.0)));
  EXPECT_TRUE(rec.Due(Seconds(721.0)));
}

TEST(TimeseriesRecorderTest, BusyFractionIsDeltaOverIntervalClamped) {
  TimeseriesRecorder rec({.bucket = Seconds(60.0)});
  rec.Record(Seconds(0.0), Sample(0.0, 0.0));
  EXPECT_EQ(rec.points()[0].busy_fraction, 0.0);  // No preceding interval.
  // 30 s of busy over a 60 s interval.
  rec.Record(Seconds(60.0), Sample(0.0, 30.0));
  EXPECT_DOUBLE_EQ(rec.points()[1].busy_fraction, 0.5);
  // 90 s of additional busy over 60 s would exceed 1: clamped.
  rec.Record(Seconds(120.0), Sample(0.0, 120.0));
  EXPECT_EQ(rec.points()[2].busy_fraction, 1.0);
  // Cumulative counter stalls: fraction drops to 0.
  rec.Record(Seconds(180.0), Sample(0.0, 120.0));
  EXPECT_EQ(rec.points()[3].busy_fraction, 0.0);
}

TEST(TimeseriesRecorderTest, ClearResets) {
  TimeseriesRecorder rec;
  rec.Record(Seconds(5.0), Sample(1.0, 1.0));
  ASSERT_EQ(rec.points().size(), 1u);
  rec.Clear();
  EXPECT_TRUE(rec.points().empty());
  EXPECT_TRUE(rec.Due(Seconds(0.0)));
}

TEST(TimeseriesCsvTest, HeaderAndRowsAreStable) {
  TimeseriesRecorder rec({.bucket = Seconds(60.0)});
  rec.Record(Seconds(5.0), Sample(8e6, 30.0, /*active=*/3));
  rec.Record(Seconds(65.0), Sample(16e6, 45.0, /*active=*/4));
  TimeseriesRun run;
  run.label = "rr/dynamic/t40/a1/r0";
  run.run = 2;
  run.disk = 0;
  run.recorder = &rec;
  const std::string csv = TimeseriesCsv({run});
  EXPECT_EQ(CountOccurrences(csv, "\n"), 3u);  // Header + 2 rows.
  EXPECT_EQ(csv.find("run,label,disk,time_s,reserved_mbit,buffered_mbit,"
                     "queue_depth,active,degraded,busy_fraction\n"),
            0u);
  EXPECT_NE(csv.find("2,rr/dynamic/t40/a1/r0,0,5.000,8.000,4.000,10,3,0,"),
            std::string::npos);
  EXPECT_NE(csv.find(",16.000,8.000,10,4,0,0.250000"), std::string::npos);
  EXPECT_EQ(csv, TimeseriesCsv({run}));  // Deterministic.
}

// ---------------------------------------------------------------------------
// Trace export
// ---------------------------------------------------------------------------

TEST(TraceExportTest, OrphanServiceEndIsDroppedAfterRingWrap) {
  // Simulates a ring that wrapped mid-service: the end's begin is gone.
  TraceRun run;
  run.label = "wrapped";
  run.pid = 3;
  run.events = {
      Ev(TraceEventKind::kServiceEnd, Seconds(0.2), 9),  // Orphan.
      Ev(TraceEventKind::kServiceStart, Seconds(0.3), 9),
      Ev(TraceEventKind::kServiceEnd, Seconds(0.4), 9),
  };
  run.dropped = 5;  // The overwritten events, the orphan's begin among them.
  const std::string json = ToChromeTraceJson({run});
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""), 1u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"E\""), 1u);
  // The export says it holds only a tail.
  EXPECT_NE(json.find("\"name\":\"process_name\",\"args\":{\"name\":"
                      "\"wrapped\",\"dropped_events\":5}"),
            std::string::npos);
}

TEST(TraceExportTest, SpansOffByDefaultAndOneArgOverloadMatches) {
  const std::vector<TraceRun> runs = SampleRuns();
  const std::string plain = ToChromeTraceJson(runs);
  EXPECT_EQ(CountOccurrences(plain, "\"ph\":\"X\""), 0u);
  EXPECT_EQ(plain, ToChromeTraceJson(runs, TraceExportOptions{}));
}

TEST(TraceExportTest, SpanExportEmitsStreamTracksWithCompleteEvents) {
  TraceExportOptions options;
  options.spans = true;
  const std::string json = ToChromeTraceJson(SampleRuns(), options);
  // SampleRuns: request 7 arrives+admits at t=0 (zero-length wait), two
  // service rounds -> 1 admission_wait + 2 service X events.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""), 3u);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"admission_wait\""), 1u);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"service\",\"cat\":\"span\""),
            2u);
  // The stream's span track is named and sits at kSpanTrackTidBase + id.
  EXPECT_NE(json.find("\"name\":\"stream 7\""), std::string::npos);
  const std::string tid = "\"tid\":" + std::to_string(kSpanTrackTidBase + 7);
  EXPECT_NE(json.find(tid), std::string::npos);
  // Span emission must not disturb the regular event stream.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""), 2u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"b\""), 1u);
}

TEST(TraceExportTest, SpanExportKeepsPerPidTimestampsMonotonic) {
  // Late-beginning spans must be interleaved into the event walk, not
  // appended: a validator-grade scan of ts order per pid.
  TraceRun run;
  run.label = "interleave";
  run.pid = 0;
  run.events = {
      Ev(TraceEventKind::kArrival, Seconds(0.0), 1),
      Ev(TraceEventKind::kAdmit, Seconds(0.5), 1),
      Ev(TraceEventKind::kServiceStart, Seconds(1.0), 1),
      Ev(TraceEventKind::kServiceEnd, Seconds(1.2), 1),
      Ev(TraceEventKind::kArrival, Seconds(2.0), 2),
      Ev(TraceEventKind::kAdmit, Seconds(2.5), 2),
      Ev(TraceEventKind::kServiceStart, Seconds(3.0), 2),
      Ev(TraceEventKind::kServiceEnd, Seconds(3.3), 2),
      Ev(TraceEventKind::kDeparture, Seconds(4.0), 1),
      Ev(TraceEventKind::kDeparture, Seconds(5.0), 2),
  };
  TraceExportOptions options;
  options.spans = true;
  const std::string json = ToChromeTraceJson({run}, options);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""), 4u);
  // Walk the emitted lines in order; every non-metadata ts must be
  // non-decreasing (the exact invariant scripts/validate_trace.py enforces).
  double last_ts = -1.0;
  std::size_t pos = 0;
  std::size_t checked = 0;
  while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
    const double ts = std::strtod(json.c_str() + pos + 5, nullptr);
    EXPECT_GE(ts, last_ts) << "at offset " << pos;
    last_ts = ts;
    ++checked;
    pos += 5;
  }
  EXPECT_GT(checked, 10u);
}

}  // namespace
}  // namespace vod::obs
