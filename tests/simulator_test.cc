#include "sim/vod_simulator.h"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "core/static_alloc.h"
#include "sim/workload.h"

namespace vod::sim {
namespace {

using core::ScheduleMethod;

SimConfig MakeConfig(ScheduleMethod method, AllocScheme scheme) {
  SimConfig cfg;
  cfg.method = method;
  cfg.scheme = scheme;
  cfg.t_log =
      method == ScheduleMethod::kRoundRobin ? Minutes(40) : Minutes(20);
  return cfg;
}

Result<std::vector<ArrivalEvent>> ModerateWorkload(std::uint64_t seed,
                                                   double total = 120,
                                                   Seconds duration =
                                                       Hours(2)) {
  WorkloadConfig w;
  w.duration = duration;
  w.total_expected_arrivals = total;
  w.theta = 0.5;
  w.peak_time = duration / 2;
  w.seed = seed;
  return GenerateWorkload(w);
}

class SimulatorInvariants
    : public ::testing::TestWithParam<std::tuple<ScheduleMethod, AllocScheme>> {
};

TEST_P(SimulatorInvariants, FullRunConservesRequestsAndContinuity) {
  const auto [method, scheme] = GetParam();
  auto arr = ModerateWorkload(21);
  ASSERT_TRUE(arr.ok());
  auto sim = VodSimulator::Create(MakeConfig(method, scheme), nullptr);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  ASSERT_TRUE((*sim)->AddArrivals(*arr).ok());
  (*sim)->RunToCompletion();
  (*sim)->Finalize();

  const SimMetrics& m = (*sim)->metrics();
  // Conservation: every arrival is admitted or rejected, every admitted
  // request completes, nothing remains active.
  EXPECT_EQ(m.arrivals, static_cast<long>(arr->size()));
  EXPECT_EQ(m.admitted + m.rejected, m.arrivals);
  EXPECT_EQ(m.completed, m.admitted);
  EXPECT_EQ((*sim)->active_count(), 0);

  // Continuity: starvation is (at most) a rare physical-model residual.
  EXPECT_LE(m.starvation_events, std::max<long>(5, m.services / 100))
      << "services=" << m.services;

  // Every allocation is within the model's domain. (k itself is uncapped —
  // Fig. 5 — but the size saturates at the fully loaded BS(N).)
  const int n_max = (*sim)->alloc_params().n_max;
  const Bits bs_full =
      core::StaticSchemeBufferSize((*sim)->alloc_params()).value();
  for (const AllocationRecord& rec : m.allocations) {
    EXPECT_GE(rec.n, 1);
    EXPECT_LE(rec.n, n_max);
    EXPECT_GE(rec.k, 0);
    EXPECT_GT(rec.buffer_size, Bits(0));
    EXPECT_LE(rec.buffer_size, bs_full * (1 + 1e-9));
    EXPECT_NEAR(ToSeconds(rec.usage_period),
                ToSeconds(rec.buffer_size / (*sim)->alloc_params().cr), 1e-9);
  }

  // Concurrency never exceeds N.
  EXPECT_LE(m.peak_concurrency, n_max);

  // The static scheme never estimates; the dynamic scheme always has k>=1
  // below full load.
  if (scheme == AllocScheme::kStatic) {
    EXPECT_DOUBLE_EQ(m.estimated_k.mean(), 0.0);
  } else {
    EXPECT_GT(m.estimated_k.mean(), 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsAndSchemes, SimulatorInvariants,
    ::testing::Combine(::testing::Values(ScheduleMethod::kRoundRobin,
                                         ScheduleMethod::kSweep,
                                         ScheduleMethod::kGss),
                       ::testing::Values(AllocScheme::kStatic,
                                         AllocScheme::kDynamic)),
    [](const auto& info) {
      std::string name(
          core::ScheduleMethodName(std::get<0>(info.param)));
      name.erase(std::remove(name.begin(), name.end(), '*'), name.end());
      name += std::get<1>(info.param) == AllocScheme::kStatic ? "_static"
                                                              : "_dynamic";
      return name;
    });

TEST(SimulatorTest, DynamicLatencyBeatsStaticAtLowLoad) {
  // A lightly loaded server: the paper's headline effect. The dynamic
  // scheme's buffers (hence first-fill latencies) are tiny.
  for (ScheduleMethod method : {ScheduleMethod::kRoundRobin,
                                ScheduleMethod::kSweep, ScheduleMethod::kGss}) {
    double mean_il[2] = {0, 0};
    for (AllocScheme scheme : {AllocScheme::kStatic, AllocScheme::kDynamic}) {
      auto arr = ModerateWorkload(33, /*total=*/25, Hours(2));
      ASSERT_TRUE(arr.ok());
      auto sim = VodSimulator::Create(MakeConfig(method, scheme), nullptr);
      ASSERT_TRUE(sim.ok());
      ASSERT_TRUE((*sim)->AddArrivals(*arr).ok());
      (*sim)->RunToCompletion();
      mean_il[scheme == AllocScheme::kDynamic ? 1 : 0] =
          (*sim)->metrics().initial_latency.mean();
    }
    EXPECT_LT(mean_il[1], mean_il[0])
        << core::ScheduleMethodName(method)
        << ": dynamic should beat static at low load";
    EXPECT_LT(mean_il[1], mean_il[0] / 3.0)
        << core::ScheduleMethodName(method);
  }
}

TEST(SimulatorTest, EstimationSuccessHighAtDefaultKnobs) {
  auto arr = ModerateWorkload(55);
  ASSERT_TRUE(arr.ok());
  auto sim = VodSimulator::Create(
      MakeConfig(ScheduleMethod::kRoundRobin, AllocScheme::kDynamic),
      nullptr);
  ASSERT_TRUE(sim.ok());
  ASSERT_TRUE((*sim)->AddArrivals(*arr).ok());
  (*sim)->RunToCompletion();
  (*sim)->Finalize();
  EXPECT_GT((*sim)->metrics().SuccessProbability(), 0.95);
}

TEST(SimulatorTest, WorstCaseRotationStillFeasible) {
  // Even with every rotational delay forced to θ the schedule must hold
  // (the sizing uses worst-case latency throughout).
  auto arr = ModerateWorkload(77, /*total=*/60);
  ASSERT_TRUE(arr.ok());
  SimConfig cfg = MakeConfig(ScheduleMethod::kRoundRobin,
                             AllocScheme::kDynamic);
  cfg.worst_case_rotation = true;
  auto sim = VodSimulator::Create(cfg, nullptr);
  ASSERT_TRUE(sim.ok());
  ASSERT_TRUE((*sim)->AddArrivals(*arr).ok());
  (*sim)->RunToCompletion();
  const SimMetrics& m = (*sim)->metrics();
  EXPECT_LE(m.starvation_events, std::max<long>(5, m.services / 100));
}

TEST(SimulatorTest, FailureInjectionShowsWhatEnforcementPrevents) {
  // A burst far beyond the inertia assumptions. With admission control
  // enabled the excess is deferred; with it disabled more requests slip in
  // immediately (no deferrals) — the enforcement mechanism is what spreads
  // the burst out.
  std::vector<ArrivalEvent> burst;
  for (int i = 0; i < 50; ++i) {
    ArrivalEvent ev;
    ev.time = Seconds(10.0 + i * 0.01);  // 50 requests within half a second.
    ev.video = i % 6;
    ev.viewing_time = Minutes(30);
    burst.push_back(ev);
  }
  SimConfig enforced = MakeConfig(ScheduleMethod::kRoundRobin,
                                  AllocScheme::kDynamic);
  SimConfig unenforced = enforced;
  unenforced.disable_admission_control = true;

  auto sim1 = VodSimulator::Create(enforced, nullptr);
  ASSERT_TRUE(sim1.ok());
  ASSERT_TRUE((*sim1)->AddArrivals(burst).ok());
  (*sim1)->RunToCompletion();

  auto sim2 = VodSimulator::Create(unenforced, nullptr);
  ASSERT_TRUE(sim2.ok());
  ASSERT_TRUE((*sim2)->AddArrivals(burst).ok());
  (*sim2)->RunToCompletion();

  EXPECT_GT((*sim1)->metrics().deferred_admissions, 0);
  EXPECT_EQ((*sim2)->metrics().deferred_admissions, 0);
  // Both complete everyone eventually.
  EXPECT_EQ((*sim1)->metrics().completed, (*sim1)->metrics().admitted);
  EXPECT_EQ((*sim2)->metrics().completed, (*sim2)->metrics().admitted);
}

TEST(SimulatorTest, RejectsAtFullLoad) {
  // More offered load than N = 79 can hold → rejections happen.
  WorkloadConfig w;
  w.duration = Hours(3);
  w.total_expected_arrivals = 500;
  w.theta = 1.0;
  w.seed = 99;
  auto arr = GenerateWorkload(w);
  ASSERT_TRUE(arr.ok());
  auto sim = VodSimulator::Create(
      MakeConfig(ScheduleMethod::kRoundRobin, AllocScheme::kStatic), nullptr);
  ASSERT_TRUE(sim.ok());
  ASSERT_TRUE((*sim)->AddArrivals(*arr).ok());
  (*sim)->RunToCompletion();
  const SimMetrics& m = (*sim)->metrics();
  EXPECT_GT(m.rejected, 0);
  EXPECT_EQ(m.peak_concurrency, 79);
}

TEST(SimulatorTest, StepAndRunUntilAdvanceTheClock) {
  auto arr = ModerateWorkload(1, /*total=*/10, Hours(1));
  ASSERT_TRUE(arr.ok());
  ASSERT_FALSE(arr->empty());
  auto sim = VodSimulator::Create(
      MakeConfig(ScheduleMethod::kRoundRobin, AllocScheme::kDynamic),
      nullptr);
  ASSERT_TRUE(sim.ok());
  ASSERT_TRUE((*sim)->AddArrivals(*arr).ok());
  const Seconds first = (*sim)->NextEventTime();
  EXPECT_DOUBLE_EQ(ToSeconds(first), ToSeconds(arr->front().time));
  EXPECT_TRUE((*sim)->Step());
  EXPECT_GE((*sim)->now(), first);
  (*sim)->RunUntil(Hours(1));
  EXPECT_GE((*sim)->NextEventTime(), Hours(1));
}

TEST(SimulatorTest, AddArrivalsValidates) {
  auto sim = VodSimulator::Create(
      MakeConfig(ScheduleMethod::kRoundRobin, AllocScheme::kDynamic),
      nullptr);
  ASSERT_TRUE(sim.ok());
  ArrivalEvent bad;
  bad.time = Seconds(1.0);
  bad.video = 999;
  bad.viewing_time = Seconds(60);
  EXPECT_FALSE((*sim)->AddArrivals({bad}).ok());

  // All or nothing: a valid arrival ahead of the invalid one is not queued.
  ArrivalEvent good = bad;
  good.video = 0;
  EXPECT_FALSE((*sim)->AddArrivals({good, bad}).ok());
  EXPECT_EQ((*sim)->event_count(), 0u);
  EXPECT_EQ((*sim)->NextEventTime(), Seconds::Infinity());

  // SubmitNow makes the same check: strictly nothing before now(), and only
  // videos of this disk. A refused arrival is not counted.
  ASSERT_TRUE((*sim)->AddArrivals({good}).ok());
  (*sim)->RunUntil(Seconds(1.0));
  ASSERT_EQ((*sim)->now(), Seconds(1.0));
  ArrivalEvent late = good;
  late.time = (*sim)->now() - Seconds(1e-12);
  EXPECT_EQ((*sim)->SubmitNow(late).status().code(),
            StatusCode::kInvalidArgument);
  ArrivalEvent unknown = bad;
  unknown.time = (*sim)->now();
  EXPECT_EQ((*sim)->SubmitNow(unknown).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*sim)->metrics().arrivals, 1);
}

TEST(SimulatorTest, ConfigValidation) {
  SimConfig cfg;
  cfg.alpha = 0;
  EXPECT_FALSE(VodSimulator::Create(cfg, nullptr).ok());
  cfg = SimConfig{};
  cfg.t_log = Seconds(0);
  EXPECT_FALSE(VodSimulator::Create(cfg, nullptr).ok());
  cfg = SimConfig{};
  cfg.video_count = 100;  // Does not fit the disk.
  EXPECT_FALSE(VodSimulator::Create(cfg, nullptr).ok());
}

TEST(SimulatorTest, RefusesAnotherConfigurationsTable) {
  const SimConfig cfg =
      MakeConfig(ScheduleMethod::kRoundRobin, AllocScheme::kDynamic);
  SimConfig other_method = cfg;
  other_method.method = ScheduleMethod::kSweep;
  SimConfig other_alpha = cfg;
  other_alpha.alpha = 2;
  SimConfig other_rate = cfg;
  other_rate.consumption_rate = Mbps(3.0);
  for (const SimConfig& other : {other_method, other_alpha, other_rate}) {
    auto table = BufferSizeTableFor(other);
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(VodSimulator::Create(cfg, nullptr, *table).status().code(),
              StatusCode::kInvalidArgument);
  }
  // GSS* with g = N sizes every row at Sweep*'s fully-loaded DL, so its
  // table has Sweep*'s params but not its per-row DL(n).
  const SimConfig sweep =
      MakeConfig(ScheduleMethod::kSweep, AllocScheme::kDynamic);
  SimConfig gss_n = sweep;
  gss_n.method = ScheduleMethod::kGss;
  gss_n.gss_group_size = AllocParamsFor(sweep)->n_max;
  ASSERT_EQ(AllocParamsFor(gss_n).value(), AllocParamsFor(sweep).value());
  auto gss_table = BufferSizeTableFor(gss_n);
  ASSERT_TRUE(gss_table.ok());
  EXPECT_EQ(VodSimulator::Create(sweep, nullptr, *gss_table).status().code(),
            StatusCode::kInvalidArgument);
  // Its own configuration's table is taken as given, not rebuilt.
  auto own = BufferSizeTableFor(cfg);
  ASSERT_TRUE(own.ok());
  auto sim = VodSimulator::Create(cfg, nullptr, *own);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  EXPECT_EQ((*sim)->buffer_size_table(), own->get());
  // The static scheme sizes buffers without one.
  SimConfig static_cfg = cfg;
  static_cfg.scheme = AllocScheme::kStatic;
  EXPECT_EQ(VodSimulator::Create(static_cfg, nullptr, *own).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SimulatorTest, MemoryUsageTrackedAndBounded) {
  auto arr = ModerateWorkload(42, /*total=*/60);
  ASSERT_TRUE(arr.ok());
  auto sim = VodSimulator::Create(
      MakeConfig(ScheduleMethod::kRoundRobin, AllocScheme::kDynamic),
      nullptr);
  ASSERT_TRUE(sim.ok());
  ASSERT_TRUE((*sim)->AddArrivals(*arr).ok());
  (*sim)->RunToCompletion();
  const SimMetrics& m = (*sim)->metrics();
  EXPECT_FALSE(m.memory_usage.empty());
  EXPECT_GT(m.memory_usage.max_value(), 0.0);
  // A loose upper bound: nothing should ever exceed N fully loaded buffers.
  const double cap = ToBits(79.0 * Megabits(206) * 2);
  EXPECT_LT(m.memory_usage.max_value(), cap);
}

TEST(MergeStepSeriesTest, SumsStepFunctions) {
  StepTimeSeries a, b;
  a.Record(0.0, 1.0);
  a.Record(10.0, 3.0);
  b.Record(5.0, 2.0);
  StepTimeSeries sum = MergeStepSeriesSum({&a, &b});
  const std::vector<std::pair<double, double>> expected = {
      {0.0, 1.0}, {5.0, 3.0}, {10.0, 5.0}};
  EXPECT_EQ(sum.points(), expected);
  EXPECT_DOUBLE_EQ(sum.max_value(), 5.0);
}

}  // namespace
}  // namespace vod::sim
