// Golden-metrics regression suite: pins the reproduced paper numbers for
// all 3 scheduling methods × 2 allocation schemes from fixed-seed RunDay
// runs, with tolerance bands, so performance refactors (parallel runners,
// scheduler rewrites, allocator caching, ...) cannot silently change the
// figures the repo claims to reproduce.
//
// The scenario is a scaled-down Fig. 11-style day (4 h, ~120 arrivals,
// θ = 0.5, paper T_log, α = 1, seed 1): partial load — the regime the
// paper's dynamic-scheme claims are about — small enough for CI, busy
// enough to exercise admission, estimation, and memory tracking.
//
// Regenerating after an *intentional* behaviour change:
//   VODB_GOLDEN_DUMP=1 ./build/tests/golden_metrics_test
// prints a replacement kGolden table; paste it below and justify the change
// in the commit message.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/units.h"
#include "exp/day_run.h"
#include "obs/event_tracer.h"
#include "obs/postmortem.h"
#include "obs/timeseries_recorder.h"
#include "sim/metrics.h"

namespace vod::exp {
namespace {

struct GoldenRow {
  core::ScheduleMethod method;
  sim::AllocScheme scheme;
  long admitted;           ///< Exact (integer outcome of a fixed-seed day).
  double avg_latency_s;    ///< initial_latency.mean(), ±2 % relative.
  double success_ratio;    ///< Estimation success, ±0.01 absolute.
  double peak_memory_mb;   ///< memory_usage peak, ±2 % relative.
};

// Golden values measured at the seed of this suite (fixed-seed runs are
// deterministic; the bands absorb libm/platform noise only).
constexpr GoldenRow kGolden[] = {
    {core::ScheduleMethod::kRoundRobin, sim::AllocScheme::kStatic,
     110, 1.902953, 0.397326, 639.402085},
    {core::ScheduleMethod::kRoundRobin, sim::AllocScheme::kDynamic,
     110, 0.094357, 1.000000, 80.886119},
    {core::ScheduleMethod::kSweep, sim::AllocScheme::kStatic,
     110, 43.929769, 0.621075, 916.291913},
    {core::ScheduleMethod::kSweep, sim::AllocScheme::kDynamic,
     110, 1.561462, 1.000000, 62.305418},
    {core::ScheduleMethod::kGss, sim::AllocScheme::kStatic,
     110, 8.285000, 0.536635, 1375.252030},
    {core::ScheduleMethod::kGss, sim::AllocScheme::kDynamic,
     110, 0.457367, 1.000000, 50.331293},
};

DayRunConfig GoldenConfig(core::ScheduleMethod method,
                          sim::AllocScheme scheme) {
  DayRunConfig cfg;
  cfg.method = method;
  cfg.scheme = scheme;
  cfg.t_log = PaperTLog(method);
  cfg.alpha = 1;
  cfg.theta = 0.5;
  cfg.duration = Hours(4);
  cfg.total_arrivals = 120;
  cfg.seed = 1;
  return cfg;
}

TEST(GoldenMetricsTest, AllMethodSchemeCombinationsMatchGoldenValues) {
  const bool dump = std::getenv("VODB_GOLDEN_DUMP") != nullptr;
  for (const GoldenRow& golden : kGolden) {
    const DayRunConfig cfg = GoldenConfig(golden.method, golden.scheme);
    const sim::SimMetrics m = RunDay(cfg);
    const double peak_mb = ToMebibytes(Bits(m.memory_usage.max_value()));
    if (dump) {
      const char* method_token =
          golden.method == core::ScheduleMethod::kRoundRobin ? "kRoundRobin"
          : golden.method == core::ScheduleMethod::kSweep    ? "kSweep"
                                                             : "kGss";
      std::printf("    {core::ScheduleMethod::%s, sim::AllocScheme::k%s,\n"
                  "     %ld, %.6f, %.6f, %.6f},  // starvation=%ld\n",
                  method_token,
                  golden.scheme == sim::AllocScheme::kStatic ? "Static"
                                                             : "Dynamic",
                  m.admitted, m.initial_latency.mean(),
                  m.SuccessProbability(), peak_mb, m.starvation_events);
      continue;
    }
    SCOPED_TRACE(std::string(core::ScheduleMethodName(golden.method)) + "/" +
                 std::string(sim::AllocSchemeName(golden.scheme)));
    EXPECT_EQ(m.admitted, golden.admitted);
    EXPECT_NEAR(m.initial_latency.mean(), golden.avg_latency_s,
                0.02 * golden.avg_latency_s);
    EXPECT_NEAR(m.SuccessProbability(), golden.success_ratio, 0.01);
    EXPECT_NEAR(peak_mb, golden.peak_memory_mb, 0.02 * golden.peak_memory_mb);
    // Structural sanity riding along: starvation stays within the
    // documented sub-percent physical-model residual, and the dynamic
    // scheme's estimation machinery actually ran.
    EXPECT_LE(m.starvation_events, std::max<long>(5, m.services / 100));
    if (golden.scheme == sim::AllocScheme::kDynamic) {
      EXPECT_GT(m.estimation_checks, 0);
    }
  }
}

/// Attaching an event tracer must not change a single metric: the tracer is
/// a pure observer. Exact equality, not bands — any drift means an emission
/// site leaked into simulation behaviour, which would also break the golden
/// CSVs' byte-stability guarantee. The trace in turn agrees with the
/// metrics: each kind mirrors one counter, and each service emits an
/// allocation, a start and an end.
TEST(GoldenMetricsTest, TracerIsPureObserver) {
  const DayRunConfig base =
      GoldenConfig(core::ScheduleMethod::kSweep, sim::AllocScheme::kDynamic);
  const sim::SimMetrics plain = RunDay(base);

  obs::EventTracer tracer;
  DayRunConfig traced_cfg = base;
  traced_cfg.tracer = &tracer;
  const sim::SimMetrics traced = RunDay(traced_cfg);

  EXPECT_EQ(plain.arrivals, traced.arrivals);
  EXPECT_EQ(plain.admitted, traced.admitted);
  EXPECT_EQ(plain.rejected, traced.rejected);
  EXPECT_EQ(plain.rejected_capacity, traced.rejected_capacity);
  EXPECT_EQ(plain.rejected_memory, traced.rejected_memory);
  EXPECT_EQ(plain.rejected_invalid, traced.rejected_invalid);
  EXPECT_EQ(plain.deferred_admissions, traced.deferred_admissions);
  EXPECT_EQ(plain.completed, traced.completed);
  EXPECT_EQ(plain.services, traced.services);
  EXPECT_EQ(plain.starvation_events, traced.starvation_events);
  EXPECT_EQ(plain.initial_latency.mean(), traced.initial_latency.mean());
  EXPECT_EQ(plain.memory_usage.max_value(), traced.memory_usage.max_value());
  EXPECT_EQ(plain.allocations.size(), traced.allocations.size());

  const long implied = traced.arrivals + traced.admitted +
                       traced.deferred_admissions + traced.rejected +
                       3 * traced.services + traced.starvation_events +
                       traced.completed + traced.cancelled;
  EXPECT_GT(implied, 0);
  EXPECT_EQ(tracer.total_emitted(), static_cast<std::uint64_t>(implied));
}

/// `rejected` is documented as the exact sum of the per-cause counters.
TEST(GoldenMetricsTest, RejectionBreakdownSumsToTotal) {
  for (const GoldenRow& golden : kGolden) {
    const DayRunConfig cfg = GoldenConfig(golden.method, golden.scheme);
    const sim::SimMetrics m = RunDay(cfg);
    SCOPED_TRACE(std::string(core::ScheduleMethodName(golden.method)) + "/" +
                 std::string(sim::AllocSchemeName(golden.scheme)));
    EXPECT_EQ(m.rejected,
              m.rejected_capacity + m.rejected_memory + m.rejected_invalid);
  }
}

/// The full observer stack at once — tracer, postmortem black box (with a
/// live hiccup threshold), and sim-time telemetry recorder — must also
/// leave every metric untouched. Exact equality again: this is the
/// "all-observers" guarantee the bench flags (--trace --spans --timeseries
/// --postmortem-dir) rely on for byte-identical stdout.
TEST(GoldenMetricsTest, AllObserversTogetherArePureObservers) {
  const DayRunConfig base =
      GoldenConfig(core::ScheduleMethod::kGss, sim::AllocScheme::kDynamic);
  const sim::SimMetrics plain = RunDay(base);

  obs::EventTracer tracer;
  obs::TimeseriesRecorder recorder;
  obs::PostmortemSink::Options popt;
  popt.dir = ::testing::TempDir();
  popt.hiccup_threshold = 1;  // Armed, but a fault-free run never fires it.
  obs::PostmortemSink sink(popt);
  sink.set_tracer(&tracer);

  DayRunConfig observed_cfg = base;
  observed_cfg.tracer = &tracer;
  observed_cfg.timeseries = &recorder;
  observed_cfg.postmortem = &sink;
  const sim::SimMetrics observed = RunDay(observed_cfg);

  EXPECT_EQ(plain.arrivals, observed.arrivals);
  EXPECT_EQ(plain.admitted, observed.admitted);
  EXPECT_EQ(plain.rejected, observed.rejected);
  EXPECT_EQ(plain.deferred_admissions, observed.deferred_admissions);
  EXPECT_EQ(plain.completed, observed.completed);
  EXPECT_EQ(plain.cancelled, observed.cancelled);
  EXPECT_EQ(plain.services, observed.services);
  EXPECT_EQ(plain.starvation_events, observed.starvation_events);
  EXPECT_EQ(plain.initial_latency.mean(), observed.initial_latency.mean());
  EXPECT_EQ(plain.initial_latency.max(), observed.initial_latency.max());
  EXPECT_EQ(plain.memory_usage.max_value(), observed.memory_usage.max_value());
  EXPECT_EQ(plain.disk_busy_time, observed.disk_busy_time);
  EXPECT_EQ(plain.estimated_k.mean(), observed.estimated_k.mean());
  EXPECT_EQ(plain.buffer_bits_allocated, observed.buffer_bits_allocated);
  EXPECT_EQ(plain.buffer_bits_released, observed.buffer_bits_released);
  EXPECT_EQ(plain.allocations.size(), observed.allocations.size());

  // The observers actually observed: telemetry sampled the day at its 60 s
  // grain (one point per bucket, strictly increasing times; the run drains
  // past the nominal duration, so only a lower bound is pinned), and the
  // black box stayed silent (nothing anomalous).
  EXPECT_GT(recorder.points().size(), 100u);
  for (std::size_t i = 1; i < recorder.points().size(); ++i) {
    EXPECT_LT(recorder.points()[i - 1].time, recorder.points()[i].time);
  }
  EXPECT_FALSE(sink.triggered());
}

/// The published-name contract that dashboards and the --metrics artifact
/// consumers key on: the sweep writer must publish exactly this documented
/// name set. The list is written out here on purpose, apart from
/// sim::kSimCounters, so a renamed or dropped row fails this test.
TEST(GoldenMetricsTest, PublishToRegistersTheExactDocumentedNameSet) {
  const DayRunConfig cfg =
      GoldenConfig(core::ScheduleMethod::kSweep, sim::AllocScheme::kDynamic);
  const sim::SimMetrics m = RunDay(cfg);
  const JsonValue json = sim::SweepMetricsJson({&m});

  const char* counters[] = {
      "arrivals", "admitted", "rejected", "rejected_capacity",
      "rejected_memory", "rejected_invalid", "deferred_admissions",
      "completed", "cancelled", "starvation_events", "services",
      "fault.read_faults", "fault.read_retries", "fault.hiccups",
      "fault.degraded_entries", "fault.degraded_streams", "fault.recoveries",
      "fault.delayed_reads", "estimation_checks", "estimation_successes",
  };
  const char* histograms[] = {
      "alloc.buffer_mbit", "alloc.usage_period_s", "alloc.k",
      "run.initial_latency_mean_s", "run.peak_memory_mb",
      "run.peak_concurrency", "run.buffer_gbit_allocated",
      "run.buffer_gbit_released",
  };
  const JsonValue* counter_section = json.Find("counters");
  const JsonValue* histogram_section = json.Find("histograms");
  ASSERT_NE(counter_section, nullptr);
  ASSERT_NE(histogram_section, nullptr);
  for (const char* name : counters) {
    EXPECT_NE(counter_section->Find("sim." + std::string(name)), nullptr)
        << name;
  }
  for (const char* name : histograms) {
    EXPECT_NE(histogram_section->Find("sim." + std::string(name)), nullptr)
        << name;
  }
  // And nothing else: every published key is in the documented set.
  EXPECT_EQ(json.Fields().size(), 2u);
  EXPECT_EQ(counter_section->Fields().size(), std::size(counters));
  EXPECT_EQ(histogram_section->Fields().size(), std::size(histograms));

  // The new ledger histograms carry the run's real values (not just
  // registered-but-empty).
  const sim::SimMetrics zero;
  EXPECT_GT(ToBits(m.buffer_bits_allocated), 0.0);
  EXPECT_EQ(ToBits(zero.buffer_bits_allocated), 0.0);
}

/// The golden scenario itself must be deterministic, or the bands above
/// would pin noise instead of behaviour.
TEST(GoldenMetricsTest, GoldenScenarioIsDeterministic) {
  const DayRunConfig cfg =
      GoldenConfig(core::ScheduleMethod::kGss, sim::AllocScheme::kDynamic);
  const sim::SimMetrics a = RunDay(cfg);
  const sim::SimMetrics b = RunDay(cfg);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.services, b.services);
  EXPECT_EQ(a.initial_latency.mean(), b.initial_latency.mean());
  EXPECT_EQ(a.memory_usage.max_value(), b.memory_usage.max_value());
}

}  // namespace
}  // namespace vod::exp
