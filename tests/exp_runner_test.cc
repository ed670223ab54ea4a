// Tests for the parallel experiment runner (src/exp): ParallelFor
// mechanics, grid expansion/seeding, determinism of fan-out results across
// thread counts (results, aggregates and the registry document), exception
// propagation out of worker tasks, the empty/single-point edge cases, the
// run log's counter keys and escaping, and the table emitters.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/units.h"
#include "exp/day_run.h"
#include "exp/grid.h"
#include "exp/runner.h"
#include "exp/thread_pool.h"

namespace vod::exp {
namespace {

// --- ThreadPool::ParallelFor ---

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  EXPECT_EQ(pool.thread_count(), 8);
  constexpr std::size_t kN = 500;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;

  // A one-thread pool is the caller alone: it runs every index itself.
  ThreadPool solo(1);
  EXPECT_EQ(solo.thread_count(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> solo_hits(kN, 0);
  std::vector<std::thread::id> ran_on(kN);
  solo.ParallelFor(kN, [&](std::size_t i) {
    ++solo_hits[i];
    ran_on[i] = std::this_thread::get_id();
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(solo_hits[i], 1) << i;
    EXPECT_EQ(ran_on[i], caller) << i;
  }
}

TEST(ThreadPoolTest, ParallelForRethrowsWorkerException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.ParallelFor(64, [&](std::size_t i) {
      if (i == 17) throw std::runtime_error("task 17 failed");
      completed.fetch_add(1);
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 17 failed");
  }
  // Every non-throwing task still ran (no abandoned work).
  EXPECT_EQ(completed.load(), 63);
}

// --- Grid ---

TEST(GridTest, ExpansionOrderIsMethodMajorReplicationMinor) {
  DayRunConfig base;
  Grid grid;
  grid.WithBase(base)
      .OverMethods(
          {core::ScheduleMethod::kRoundRobin, core::ScheduleMethod::kSweep})
      .OverSchemes({sim::AllocScheme::kStatic, sim::AllocScheme::kDynamic})
      .WithSeeds({7, 8, 9});
  const auto specs = grid.Expand();
  ASSERT_EQ(specs.size(), 12u);
  ASSERT_EQ(grid.size(), 12u);
  // First block: RR/static with seeds 7,8,9.
  EXPECT_EQ(specs[0].config.method, core::ScheduleMethod::kRoundRobin);
  EXPECT_EQ(specs[0].config.scheme, sim::AllocScheme::kStatic);
  EXPECT_EQ(specs[0].config.seed, 7u);
  EXPECT_EQ(specs[2].config.seed, 9u);
  // Next block switches scheme, then method.
  EXPECT_EQ(specs[3].config.scheme, sim::AllocScheme::kDynamic);
  EXPECT_EQ(specs[6].config.method, core::ScheduleMethod::kSweep);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].index, i);
    EXPECT_EQ(specs[i].replication, static_cast<int>(i % 3));
  }
}

TEST(GridTest, PaperTLogFollowsMethod) {
  Grid grid;
  grid.OverMethods({core::ScheduleMethod::kRoundRobin,
                    core::ScheduleMethod::kSweep, core::ScheduleMethod::kGss})
      .UsePaperTLog()
      .WithReplications(1);
  const auto specs = grid.Expand();
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_DOUBLE_EQ(ToMinutes(specs[0].config.t_log), 40.0);
  EXPECT_DOUBLE_EQ(ToMinutes(specs[1].config.t_log), 20.0);
  EXPECT_DOUBLE_EQ(ToMinutes(specs[2].config.t_log), 20.0);
}

TEST(GridTest, HashedSeedsAreStableDistinctAndPositionIndependent) {
  Grid grid;
  grid.OverMethods(
          {core::ScheduleMethod::kRoundRobin, core::ScheduleMethod::kGss})
      .OverAlphas({1, 2})
      .WithReplications(3);
  const auto a = grid.Expand();
  const auto b = grid.Expand();
  ASSERT_EQ(a.size(), 12u);
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].config.seed, b[i].config.seed) << i;  // Stable.
    seeds.insert(a[i].config.seed);
  }
  EXPECT_EQ(seeds.size(), a.size());  // Distinct per (point, replication).

  // The seed hashes grid *values*, not axis positions: extending an axis
  // must not change the seeds of pre-existing points.
  Grid wider;
  wider.OverMethods({core::ScheduleMethod::kRoundRobin,
                     core::ScheduleMethod::kGss, core::ScheduleMethod::kSweep})
      .OverAlphas({1, 2})
      .WithReplications(3);
  const auto w = wider.Expand();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(w[i].config.seed, a[i].config.seed) << i;
  }
}

TEST(GridTest, EmptyGrids) {
  EXPECT_EQ(Grid().WithSeeds({}).size(), 0u);
  EXPECT_TRUE(Grid().WithSeeds({}).Expand().empty());
  EXPECT_EQ(Grid().WithReplications(0).size(), 0u);
  EXPECT_TRUE(Grid().WithReplications(0).Expand().empty());
}

// --- Runner ---

/// Fast fake day: metrics derived arithmetically from the config, so tests
/// exercise fan-out/ordering without second-long simulations.
sim::SimMetrics FakeDay(const RunSpec& spec) {
  const DayRunConfig& cfg = spec.config;
  sim::SimMetrics m;
  m.arrivals = static_cast<long>(cfg.seed % 1000);
  m.admitted = static_cast<long>(cfg.alpha);
  m.initial_latency.Add(static_cast<double>(cfg.seed % 97) + cfg.theta);
  return m;
}

TEST(RunnerTest, EmptyGridReturnsEmptyResults) {
  Runner runner({.threads = 4});
  const auto results = runner.Run(Grid().WithSeeds({}), FakeDay);
  EXPECT_TRUE(results.empty());
}

TEST(RunnerTest, SinglePointMatchesDirectCall) {
  DayRunConfig base;
  base.duration = Minutes(40);
  base.total_arrivals = 20;
  base.t_log = Minutes(10);
  Grid grid;
  grid.WithBase(base).WithSeeds({3});

  Runner runner({.threads = 2});
  const auto results = runner.Run(grid);
  ASSERT_EQ(results.size(), 1u);
  DayRunConfig direct = base;
  direct.seed = 3;
  const sim::SimMetrics expected = RunDay(direct);
  EXPECT_EQ(results[0].metrics.arrivals, expected.arrivals);
  EXPECT_EQ(results[0].metrics.admitted, expected.admitted);
  EXPECT_EQ(results[0].metrics.services, expected.services);
  EXPECT_DOUBLE_EQ(results[0].metrics.initial_latency.mean(),
                   expected.initial_latency.mean());
}

TEST(RunnerTest, ExceptionInRunFnPropagates) {
  // The contract holds at every thread count: every run finishes, and the
  // exception from the lowest grid index wins.
  Grid grid;
  grid.WithReplications(8);
  for (int threads : {1, 4}) {
    Runner runner({.threads = threads});
    std::atomic<int> calls{0};
    try {
      runner.Run(grid, [&calls](const RunSpec& spec) {
        calls.fetch_add(1);
        if (spec.index == 2 || spec.index == 5) {
          throw std::runtime_error(std::to_string(spec.index));
        }
        return FakeDay(spec);
      });
      ADD_FAILURE() << "expected an exception, threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "2") << "threads=" << threads;
    }
    EXPECT_EQ(calls.load(), 8) << "threads=" << threads;
  }
}

/// Same grid at 1, 2, and 8 threads: real simulations, results and
/// aggregates must be identical (not just close) — per-run seeding is a
/// pure function of the grid point and collection is index-ordered.
TEST(RunnerTest, RealRunsIdenticalAt1And2And8Threads) {
  DayRunConfig base;
  base.duration = Minutes(60);
  base.total_arrivals = 30;
  base.t_log = Minutes(10);
  Grid grid;
  grid.WithBase(base)
      .OverMethods(
          {core::ScheduleMethod::kRoundRobin, core::ScheduleMethod::kGss})
      .OverSchemes({sim::AllocScheme::kStatic, sim::AllocScheme::kDynamic})
      .WithReplications(2);

  std::vector<std::vector<RunResult>> by_threads;
  for (int threads : {1, 2, 8}) {
    Runner runner({.threads = threads});
    by_threads.push_back(runner.Run(grid));
  }
  const auto& ref = by_threads[0];
  ASSERT_EQ(ref.size(), grid.size());
  for (std::size_t t = 1; t < by_threads.size(); ++t) {
    const auto& got = by_threads[t];
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].spec.index, ref[i].spec.index);
      EXPECT_EQ(got[i].spec.config.seed, ref[i].spec.config.seed);
      EXPECT_EQ(got[i].metrics.arrivals, ref[i].metrics.arrivals);
      EXPECT_EQ(got[i].metrics.admitted, ref[i].metrics.admitted);
      EXPECT_EQ(got[i].metrics.services, ref[i].metrics.services);
      EXPECT_EQ(got[i].metrics.initial_latency.count(),
                ref[i].metrics.initial_latency.count());
      // Bit-identical, not approximately equal.
      EXPECT_EQ(got[i].metrics.initial_latency.mean(),
                ref[i].metrics.initial_latency.mean());
      EXPECT_EQ(got[i].metrics.memory_usage.max_value(),
                ref[i].metrics.memory_usage.max_value());
    }
    // Aggregated summaries identical too (same accumulation order).
    const auto agg_ref = AggregateReplications(
        ref, grid.replications(),
        [](const RunResult& r) { return r.metrics.initial_latency.mean(); });
    const auto agg_got = AggregateReplications(
        got, grid.replications(),
        [](const RunResult& r) { return r.metrics.initial_latency.mean(); });
    ASSERT_EQ(agg_got.size(), agg_ref.size());
    for (std::size_t i = 0; i < agg_ref.size(); ++i) {
      EXPECT_EQ(agg_got[i].summary.mean, agg_ref[i].summary.mean);
      EXPECT_EQ(agg_got[i].summary.stddev, agg_ref[i].summary.stddev);
    }
  }
}

/// A sweep's --metrics registry dumps byte-identically at 1 and 4 threads:
/// JsonValue sorts its keys, and the runs are summed in grid order whatever
/// thread ran them.
TEST(RunnerTest, RegistryDocumentIsByteIdenticalAt1And4Threads) {
  DayRunConfig base;
  base.duration = Minutes(60);
  base.total_arrivals = 30;
  base.t_log = Minutes(10);
  Grid grid;
  grid.WithBase(base)
      .OverMethods(
          {core::ScheduleMethod::kRoundRobin, core::ScheduleMethod::kSweep})
      .OverSchemes({sim::AllocScheme::kStatic, sim::AllocScheme::kDynamic});
  const auto registry = [&grid](int threads) {
    const std::vector<RunResult> results =
        Runner({.threads = threads}).Run(grid);
    std::vector<const sim::SimMetrics*> runs;
    for (const RunResult& r : results) runs.push_back(&r.metrics);
    return sim::SweepMetricsJson(runs).Dump();
  };
  const std::string serial = registry(1);
  EXPECT_NE(serial.find("\"sim.services\""), std::string::npos);
  EXPECT_NE(serial.find("\"sim.alloc.buffer_mbit\""), std::string::npos);
  EXPECT_EQ(registry(4), serial);
}

/// A faulted sweep — same --fault-seed, grid expanded over an OverFaults
/// axis — serialises to a byte-identical CSV at 1 and 8 threads. Fault
/// injection draws from a per-run injector seeded off the fault spec and
/// seed alone, so worker scheduling can't leak into the results.
TEST(RunnerTest, FaultedSweepCsvIsByteIdenticalAcrossThreadCounts) {
  DayRunConfig base;
  base.duration = Minutes(60);
  base.total_arrivals = 30;
  base.t_log = Minutes(10);
  base.fault_seed = 1234;
  Grid grid;
  grid.WithBase(base)
      .OverMethods({core::ScheduleMethod::kRoundRobin})
      .OverSchemes({sim::AllocScheme::kStatic, sim::AllocScheme::kDynamic})
      .OverFaults({"none",
                   "eio:start=300,end=1800,p=0.4,retries=2,backoff=0.05",
                   "latency:start=0,end=3600,factor=3,extra=0.02"});

  const auto to_csv = [](const std::vector<RunResult>& results) {
    std::string csv = "index,fault,admitted,faults,hiccups,latency,peak\n";
    for (const RunResult& r : results) {
      char row[160];
      std::snprintf(row, sizeof(row), "%zu,%d,%ld,%ld,%ld,%.9f,%.9e\n",
                    r.spec.index, r.spec.fault_index, r.metrics.admitted,
                    r.metrics.read_faults, r.metrics.hiccup_events,
                    r.metrics.initial_latency.mean(),
                    r.metrics.memory_usage.max_value());
      csv += row;
    }
    return csv;
  };

  Runner serial({.threads = 1});
  Runner wide({.threads = 8});
  const std::vector<RunResult> a = serial.Run(grid);
  const std::vector<RunResult> b = wide.Run(grid);
  ASSERT_EQ(a.size(), grid.size());
  EXPECT_EQ(to_csv(a), to_csv(b));

  long total_faults = 0;
  for (const RunResult& r : a) total_faults += r.metrics.read_faults;
  EXPECT_GT(total_faults, 0);  // The eio axis actually fired.
}

// --- Aggregation & tables ---

TEST(AggregateTest, SummaryMatchesHandComputation) {
  std::vector<RunResult> results(4);
  const double vals[] = {1.0, 3.0, 10.0, 20.0};
  for (int i = 0; i < 4; ++i) {
    results[static_cast<std::size_t>(i)].spec.index =
        static_cast<std::size_t>(i);
    results[static_cast<std::size_t>(i)].spec.replication = i % 2;
    results[static_cast<std::size_t>(i)].metrics.initial_latency.Add(vals[i]);
  }
  const auto rows = AggregateReplications(
      results, 2,
      [](const RunResult& r) { return r.metrics.initial_latency.mean(); });
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].summary.mean, 2.0);
  EXPECT_DOUBLE_EQ(rows[1].summary.mean, 15.0);
  EXPECT_EQ(rows[0].summary.runs, 2u);
  // Sample stddev of {1,3} is sqrt(2); ci95 = 1.96*sqrt(2)/sqrt(2) = 1.96.
  EXPECT_NEAR(rows[0].summary.stddev, std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(rows[0].summary.ci95_half, 1.96, 1e-12);
  EXPECT_DOUBLE_EQ(rows[0].summary.min, 1.0);
  EXPECT_DOUBLE_EQ(rows[0].summary.max, 3.0);
}

TEST(RunLogTest, HoldsEveryCounterUnderItsTableName) {
  // A distinct value per counter, so a swapped or dropped key shows.
  RunResult r;
  long value = 1;
  for (const sim::SimCounter& c : sim::kSimCounters) {
    r.metrics.*c.field = value++;
  }
  const auto log = JsonValue::Parse(RunLogJson({r}).Dump());
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_EQ(log->Items().size(), 1u);
  const JsonValue& run = log->Items()[0];
  value = 1;
  for (const sim::SimCounter& c : sim::kSimCounters) {
    const JsonValue* logged = run.Find(std::string(c.name));
    ASSERT_NE(logged, nullptr) << c.name;
    EXPECT_EQ(logged->AsNumber(), static_cast<double>(value++)) << c.name;
  }
  // No dumps, no pointer field.
  EXPECT_EQ(run.Find("postmortems"), nullptr);
}

/// A postmortem path is caller-supplied: a tab or a quote in its directory
/// must come out escaped, so the log still parses as strict JSON.
TEST(RunLogTest, PostmortemPathWithControlCharactersRoundTrips) {
  RunResult r;
  r.spec.index = 3;
  const std::string path = "pm\tdir/\"q\"/postmortem_run3_hiccup.json";
  const auto log = JsonValue::Parse(RunLogJson({r}, {{3, {path}}}).Dump());
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  const JsonValue* paths = log->Items()[0].Find("postmortems");
  ASSERT_NE(paths, nullptr);
  ASSERT_EQ(paths->Items().size(), 1u);
  EXPECT_EQ(paths->Items()[0].AsString(), path);
}

TEST(TableTest, CsvAndJsonEmission) {
  Table t({"method", "n", "latency_s"});
  t.AddRow({"RoundRobin", "8", "0.1234"});
  t.AddRow({"GSS*", "16", "0.5"});
  EXPECT_EQ(t.ToCsv(),
            "method,n,latency_s\nRoundRobin,8,0.1234\nGSS*,16,0.5\n");
  EXPECT_EQ(t.ToJson(),
            "[\n"
            "  {\n"
            "    \"latency_s\": 0.1234,\n"
            "    \"method\": \"RoundRobin\",\n"
            "    \"n\": 8\n"
            "  },\n"
            "  {\n"
            "    \"latency_s\": 0.5,\n"
            "    \"method\": \"GSS*\",\n"
            "    \"n\": 16\n"
            "  }\n"
            "]\n");
}

}  // namespace
}  // namespace vod::exp
