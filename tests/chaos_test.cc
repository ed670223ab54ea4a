// Chaos suite: scripted fault schedules through the full simulator, with
// golden degraded-metrics rows pinning how the system bends (not breaks)
// under each fault class, plus the properties that make fault injection
// trustworthy:
//
//   * observer effect: a zero-fault injector ("none") leaves every metric of
//     the golden-metrics baseline scenario bit-identical — attaching the
//     fault machinery without faults changes nothing;
//   * under any scripted fault schedule the run audits clean (the runtime
//     invariant auditor stays silent), buffer accounting conserves
//     (allocated == released at drain), and the broker ends empty;
//   * after the fault window closes the simulator converges back to
//     fault-free steady state: every admitted stream completes and a window
//     that closes before any disk activity leaves zero residue.
//
// Regenerating the golden rows after an *intentional* behaviour change:
//   VODB_GOLDEN_DUMP=1 ./build/tests/chaos_test
// prints a replacement kChaosGolden table; paste it below and justify the
// change in the commit message.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/units.h"
#include "core/params.h"
#include "exp/day_run.h"
#include "fault/fault_spec.h"
#include "fault/injector.h"
#include "sim/invariant_auditor.h"
#include "sim/memory_broker.h"
#include "sim/metrics.h"
#include "sim/vod_simulator.h"
#include "sim/workload.h"

namespace vod::exp {
namespace {

/// Collects violations instead of aborting.
class Recorder {
 public:
  sim::InvariantAuditor::Handler handler() {
    return [this](const sim::InvariantViolation& v) {
      violations_.push_back(v);
    };
  }
  const std::vector<sim::InvariantViolation>& violations() const {
    return violations_;
  }

 private:
  std::vector<sim::InvariantViolation> violations_;
};

// ---------------------------------------------------------------------------
// Golden degraded metrics
// ---------------------------------------------------------------------------

// The chaos day: a 3 h Fig. 11-style scenario (θ = 0.5, Sweep*, paper
// T_log, α = 1, seed 1, ~100 arrivals) with a one-hour fault window
// [1800 s, 5400 s) opening half an hour in — long enough that streams are
// admitted before, during, and after the window.
struct ChaosScenario {
  const char* name;
  const char* faults;
  Bits memory_capacity;  ///< 0 = unlimited (no broker).
};

const ChaosScenario kScenarios[] = {
    {"latency", "latency:start=1800,end=5400,factor=4,extra=0.01", Bits(0)},
    {"eio", "eio:start=1800,end=5400,p=0.3,retries=3,backoff=0.05", Bits(0)},
    {"memsqueeze", "memsqueeze:start=1800,end=5400,scale=0.1",
     Mebibytes(150)},
};

struct ChaosRow {
  const char* scenario;
  sim::AllocScheme scheme;
  long admitted;         ///< Exact (fixed seed + fixed fault seed).
  long read_faults;      ///< Exact.
  long read_retries;     ///< Exact.
  long hiccups;          ///< Exact.
  long degraded_streams; ///< Exact.
  long delayed_reads;    ///< Exact.
  double avg_latency_s;  ///< initial_latency.mean(), ±2 % relative.
  double peak_memory_mb; ///< memory_usage peak, ±2 % relative.
};

// Golden values measured at the fixed seeds of this suite (deterministic;
// bands on the float columns absorb libm/platform noise only).
constexpr ChaosRow kChaosGolden[] = {
    {"latency", sim::AllocScheme::kStatic,
     96, 0, 0, 0, 43, 870, 68.699762, 820.293414},
    {"latency", sim::AllocScheme::kDynamic,
     96, 0, 0, 0, 55, 35798, 9.688661, 405.716814},
    {"eio", sim::AllocScheme::kStatic,
     96, 492, 481, 11, 48, 0, 46.041906, 799.100683},
    {"eio", sim::AllocScheme::kDynamic,
     96, 26026, 25547, 479, 57, 0, 3.640078, 295.437971},
    {"memsqueeze", sim::AllocScheme::kStatic,
     33, 0, 0, 0, 1, 0, 39.326113, 310.716979},
    {"memsqueeze", sim::AllocScheme::kDynamic,
     87, 0, 0, 0, 9, 0, 1.923912, 133.637158},
};

const ChaosScenario& ScenarioByName(const char* name) {
  for (const ChaosScenario& s : kScenarios) {
    if (std::string(s.name) == name) return s;
  }
  ADD_FAILURE() << "unknown scenario " << name;
  return kScenarios[0];
}

DayRunConfig ChaosConfig(const ChaosScenario& s, sim::AllocScheme scheme) {
  DayRunConfig cfg;
  cfg.method = core::ScheduleMethod::kSweep;
  cfg.scheme = scheme;
  cfg.t_log = PaperTLog(cfg.method);
  cfg.alpha = 1;
  cfg.theta = 0.5;
  cfg.duration = Hours(3);
  cfg.total_arrivals = 100;
  cfg.seed = 1;
  cfg.faults = s.faults;
  cfg.fault_seed = 7;  // Pinned, not derived: rows replay exactly.
  cfg.memory_capacity = s.memory_capacity;
  return cfg;
}

TEST(ChaosGoldenTest, ScriptedFaultSchedulesMatchGoldenDegradedMetrics) {
  const bool dump = std::getenv("VODB_GOLDEN_DUMP") != nullptr;
  for (const ChaosRow& golden : kChaosGolden) {
    const ChaosScenario& scenario = ScenarioByName(golden.scenario);
    const DayRunConfig cfg = ChaosConfig(scenario, golden.scheme);
    const sim::SimMetrics m = RunDay(cfg);
    const double peak_mb = ToMebibytes(Bits(m.memory_usage.max_value()));
    if (dump) {
      std::printf("    {\"%s\", sim::AllocScheme::k%s,\n"
                  "     %ld, %ld, %ld, %ld, %ld, %ld, %.6f, %.6f},\n",
                  golden.scenario,
                  golden.scheme == sim::AllocScheme::kStatic ? "Static"
                                                             : "Dynamic",
                  m.admitted, m.read_faults, m.read_retries, m.hiccup_events,
                  m.degraded_streams, m.delayed_reads,
                  m.initial_latency.mean(), peak_mb);
      continue;
    }
    SCOPED_TRACE(std::string(golden.scenario) + "/" +
                 std::string(sim::AllocSchemeName(golden.scheme)));
    EXPECT_EQ(m.admitted, golden.admitted);
    EXPECT_EQ(m.read_faults, golden.read_faults);
    EXPECT_EQ(m.read_retries, golden.read_retries);
    EXPECT_EQ(m.hiccup_events, golden.hiccups);
    EXPECT_EQ(m.degraded_streams, golden.degraded_streams);
    EXPECT_EQ(m.delayed_reads, golden.delayed_reads);
    EXPECT_NEAR(m.initial_latency.mean(), golden.avg_latency_s,
                0.02 * golden.avg_latency_s);
    EXPECT_NEAR(peak_mb, golden.peak_memory_mb, 0.02 * golden.peak_memory_mb);
    // Structural expectations per fault class (non-vacuity).
    const std::string name = golden.scenario;
    if (name == "latency") {
      EXPECT_GT(m.delayed_reads, 0);
      EXPECT_EQ(m.read_faults, 0);
    } else if (name == "eio") {
      EXPECT_GT(m.read_faults, 0);
      EXPECT_GT(m.read_retries, 0);
      EXPECT_EQ(m.delayed_reads, 0);
    } else if (name == "memsqueeze") {
      EXPECT_GT(m.rejected_memory, 0);
      EXPECT_EQ(m.read_faults, 0);
    }
    // Degradation never corrupts the books: whatever the fault did, the
    // rejection breakdown still sums and the run drained.
    EXPECT_EQ(m.rejected,
              m.rejected_capacity + m.rejected_memory + m.rejected_invalid);
    // The two ledger sides sum the same deliveries in different orders, so
    // only fp association noise separates them.
    EXPECT_NEAR(ToBits(m.buffer_bits_allocated), ToBits(m.buffer_bits_released),
                1e-9 * std::max(ToBits(m.buffer_bits_allocated), 1.0));
  }
}

// ---------------------------------------------------------------------------
// Observer effect: zero faults == no injector, bit for bit
// ---------------------------------------------------------------------------

/// The golden-metrics baseline scenario (tests/golden_metrics_test.cc) run
/// with faults="none" — which constructs a real fault::Injector with an
/// empty schedule and threads it through the whole stack — must be
/// bit-identical to the plain run the golden suite pins. Exact equality on
/// every float: any drift means the fault machinery perturbs fault-free
/// behaviour, which would silently invalidate every pre-fault baseline.
TEST(ChaosGoldenTest, ZeroFaultInjectorIsBitIdenticalToBaseline) {
  const core::ScheduleMethod methods[] = {core::ScheduleMethod::kRoundRobin,
                                          core::ScheduleMethod::kSweep,
                                          core::ScheduleMethod::kGss};
  const sim::AllocScheme schemes[] = {sim::AllocScheme::kStatic,
                                      sim::AllocScheme::kDynamic};
  for (const core::ScheduleMethod method : methods) {
    for (const sim::AllocScheme scheme : schemes) {
      SCOPED_TRACE(std::string(core::ScheduleMethodName(method)) + "/" +
                   std::string(sim::AllocSchemeName(scheme)));
      // Mirrors GoldenConfig in golden_metrics_test.cc.
      DayRunConfig cfg;
      cfg.method = method;
      cfg.scheme = scheme;
      cfg.t_log = PaperTLog(method);
      cfg.alpha = 1;
      cfg.theta = 0.5;
      cfg.duration = Hours(4);
      cfg.total_arrivals = 120;
      cfg.seed = 1;
      const sim::SimMetrics plain = RunDay(cfg);

      DayRunConfig with_injector = cfg;
      with_injector.faults = "none";
      with_injector.fault_seed = 123;  // Must be irrelevant: nothing fires.
      const sim::SimMetrics injected = RunDay(with_injector);

      EXPECT_EQ(plain.arrivals, injected.arrivals);
      EXPECT_EQ(plain.admitted, injected.admitted);
      EXPECT_EQ(plain.rejected, injected.rejected);
      EXPECT_EQ(plain.completed, injected.completed);
      EXPECT_EQ(plain.services, injected.services);
      EXPECT_EQ(plain.starvation_events, injected.starvation_events);
      EXPECT_EQ(plain.deferred_admissions, injected.deferred_admissions);
      EXPECT_EQ(plain.initial_latency.mean(), injected.initial_latency.mean());
      EXPECT_EQ(plain.initial_latency.max(), injected.initial_latency.max());
      EXPECT_EQ(plain.memory_usage.max_value(),
                injected.memory_usage.max_value());
      EXPECT_EQ(plain.disk_busy_time, injected.disk_busy_time);
      EXPECT_EQ(plain.estimated_k.mean(), injected.estimated_k.mean());
      EXPECT_EQ(plain.buffer_bits_allocated, injected.buffer_bits_allocated);
      EXPECT_EQ(plain.buffer_bits_released, injected.buffer_bits_released);
      // And the injector path reported nothing.
      EXPECT_EQ(injected.read_faults, 0);
      EXPECT_EQ(injected.read_retries, 0);
      EXPECT_EQ(injected.hiccup_events, 0);
      EXPECT_EQ(injected.degraded_entries, 0);
      EXPECT_EQ(injected.degraded_streams, 0);
      EXPECT_EQ(injected.fault_recoveries, 0);
      EXPECT_EQ(injected.delayed_reads, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Chaos properties (direct simulator, auditor armed)
// ---------------------------------------------------------------------------

struct ChaosOutcome {
  sim::SimMetrics metrics;
  std::vector<sim::InvariantViolation> violations;
  int final_active = 0;
  Bits final_reserved;
  long audit_checks = 0;
};

/// Runs a 2 h, ~60-arrival day through a directly constructed simulator
/// with the auditor collecting (not aborting), an analytic broker, and the
/// given fault schedule.
ChaosOutcome RunChaosDay(const std::string& faults, std::uint64_t fault_seed,
                         core::ScheduleMethod method) {
  sim::SimConfig sc;
  sc.method = method;
  sc.scheme = sim::AllocScheme::kDynamic;
  sc.t_log = Minutes(20);
  sc.seed = 3;

  auto spec = fault::ParseFaultSpec(faults);
  VOD_CHECK(spec.ok());
  fault::Injector injector(spec.value(), fault_seed);
  sc.injector = &injector;

  const Result<core::AllocParams> params = sim::AllocParamsFor(sc);
  VOD_CHECK(params.ok());
  sim::AnalyticMemoryBroker broker(
      *params, sc.method, /*use_dynamic=*/true, sc.gss_group_size,
      /*disk_count=*/1, Mebibytes(400));
  broker.AttachInjector(&injector);

  auto simulator = sim::VodSimulator::Create(sc, &broker);
  VOD_CHECK(simulator.ok());
  Recorder rec;
  (*simulator)->auditor().set_handler(rec.handler());

  sim::WorkloadConfig w;
  w.duration = Hours(2);
  w.total_expected_arrivals = 60;
  w.theta = 0.5;
  w.peak_time = Hours(2) * 9.0 / 24.0;
  w.seed = 9;
  auto arrivals = sim::GenerateWorkload(w);
  VOD_CHECK(arrivals.ok());
  sim::ApplyFaultBursts(injector, &arrivals.value());

  VOD_CHECK((*simulator)->AddArrivals(*arrivals).ok());
  (*simulator)->RunToCompletion();
  (*simulator)->Finalize();

  ChaosOutcome out;
  out.metrics = (*simulator)->metrics();
  out.violations = rec.violations();
  out.final_active = (*simulator)->active_count();
  out.final_reserved = broker.ReservedMemory();
  out.audit_checks = (*simulator)->auditor().checks();
  return out;
}

/// Under any of the scripted fault schedules — including a compound storm
/// of EIO + latency + a flash crowd + a squeeze — the simulator never
/// corrupts its accounting: the invariant auditor stays silent, the buffer
/// ledger conserves (every bit allocated is released), the broker drains to
/// zero, and every admitted stream eventually completes (convergence back
/// to steady state after the windows close).
TEST(ChaosPropertyTest, FaultSchedulesNeverCorruptAccounting) {
  const char* schedules[] = {
      "latency:start=600,end=2400,factor=5,extra=0.02",
      "eio:start=600,end=2400,p=0.4,retries=3,backoff=0.05",
      "memsqueeze:start=600,end=2400,scale=0.25",
      "outage:start=900,end=1200",
      // Compound storm: everything at once, overlapping windows.
      "eio:start=600,end=2400,p=0.3,retries=2,backoff=0.1;"
      "latency:start=1200,end=3000,factor=3;"
      "memsqueeze:start=900,end=2700,scale=0.5;"
      "burst:at=700,count=12,video=1,spread=120,viewing=900",
  };
  for (const char* faults : schedules) {
    for (const core::ScheduleMethod method :
         {core::ScheduleMethod::kRoundRobin, core::ScheduleMethod::kSweep,
          core::ScheduleMethod::kGss}) {
      SCOPED_TRACE(std::string(faults) + " / " +
                   std::string(core::ScheduleMethodName(method)));
      const ChaosOutcome out = RunChaosDay(faults, 11, method);
      for (const sim::InvariantViolation& v : out.violations) {
        ADD_FAILURE() << "invariant " << v.invariant << " at t=" << v.time.value()
                      << ": " << v.detail;
      }
      EXPECT_GT(out.audit_checks, 0);
      // Convergence: the run drained — no stream is stuck behind a closed
      // fault window.
      EXPECT_EQ(out.final_active, 0);
      EXPECT_EQ(ToBits(out.final_reserved), 0.0);
      EXPECT_EQ(out.metrics.completed + out.metrics.cancelled,
                out.metrics.admitted);
      // Conservation: use-it-and-toss-it still holds under degradation
      // (relative tolerance: the sides sum deliveries in different orders).
      EXPECT_NEAR(ToBits(out.metrics.buffer_bits_allocated),
                  ToBits(out.metrics.buffer_bits_released),
                  1e-9 * std::max(ToBits(out.metrics.buffer_bits_allocated), 1.0));
    }
  }
}

/// Determinism/replay: the same (schedule, fault seed) reproduces the chaos
/// run exactly; a different fault seed perturbs it (for probabilistic
/// schedules) while leaving the books clean either way.
TEST(ChaosPropertyTest, ChaosRunsReplayFromFaultSeed) {
  const char* faults = "eio:start=600,end=2400,p=0.4,retries=3,backoff=0.05";
  const ChaosOutcome a = RunChaosDay(faults, 11, core::ScheduleMethod::kGss);
  const ChaosOutcome b = RunChaosDay(faults, 11, core::ScheduleMethod::kGss);
  EXPECT_EQ(a.metrics.read_faults, b.metrics.read_faults);
  EXPECT_EQ(a.metrics.hiccup_events, b.metrics.hiccup_events);
  EXPECT_EQ(a.metrics.services, b.metrics.services);
  EXPECT_EQ(a.metrics.initial_latency.mean(),
            b.metrics.initial_latency.mean());
  EXPECT_EQ(a.metrics.buffer_bits_allocated, b.metrics.buffer_bits_allocated);

  const ChaosOutcome c = RunChaosDay(faults, 12, core::ScheduleMethod::kGss);
  EXPECT_NE(a.metrics.read_faults, c.metrics.read_faults);
  EXPECT_TRUE(c.violations.empty());
}

/// A fault window that opens and closes before any disk activity leaves
/// zero residue: behavioural metrics are identical to the fault-free run.
/// (The arrivals below start at t = 50 s; the windows close at t = 40 s.)
TEST(ChaosPropertyTest, ClosedFaultWindowLeavesNoResidue) {
  auto run = [](const char* faults) {
    sim::SimConfig sc;
    sc.method = core::ScheduleMethod::kGss;
    sc.scheme = sim::AllocScheme::kDynamic;
    sc.t_log = Minutes(20);
    sc.seed = 5;
    auto spec = fault::ParseFaultSpec(faults);
    VOD_CHECK(spec.ok());
    fault::Injector injector(spec.value(), 77);
    sc.injector = &injector;
    auto simulator = sim::VodSimulator::Create(sc, nullptr);
    VOD_CHECK(simulator.ok());
    std::vector<sim::ArrivalEvent> arrivals;
    for (int i = 0; i < 20; ++i) {
      sim::ArrivalEvent ev;
      ev.time = Seconds(50.0 + 30.0 * i);
      ev.video = i % 4;
      ev.viewing_time = Seconds(600.0);
      arrivals.push_back(ev);
    }
    VOD_CHECK((*simulator)->AddArrivals(arrivals).ok());
    (*simulator)->RunToCompletion();
    (*simulator)->Finalize();
    return (*simulator)->metrics();
  };

  const sim::SimMetrics faulted = run(
      "eio:start=0,end=40,p=0.5;latency:start=10,end=40,factor=8;"
      "outage:start=0,end=30");
  const sim::SimMetrics clean = run("none");
  EXPECT_EQ(faulted.read_faults, 0);
  EXPECT_EQ(faulted.admitted, clean.admitted);
  EXPECT_EQ(faulted.services, clean.services);
  EXPECT_EQ(faulted.starvation_events, clean.starvation_events);
  EXPECT_EQ(faulted.initial_latency.mean(), clean.initial_latency.mean());
  EXPECT_EQ(faulted.memory_usage.max_value(), clean.memory_usage.max_value());
  EXPECT_EQ(faulted.disk_busy_time, clean.disk_busy_time);
}

/// Streams degraded inside the window recover after it closes: recoveries
/// are observed, and at drain nothing is still degraded (metrics count
/// entries vs. recoveries; a stream may also depart while degraded, so
/// recoveries never exceed entries).
TEST(ChaosPropertyTest, StreamsRecoverAfterTheWindowCloses) {
  const ChaosOutcome out =
      RunChaosDay("eio:start=600,end=1800,p=0.6,retries=2,backoff=0.05", 21,
                  core::ScheduleMethod::kSweep);
  EXPECT_GT(out.metrics.read_faults, 0);
  EXPECT_GT(out.metrics.fault_recoveries, 0);
  EXPECT_LE(out.metrics.fault_recoveries, out.metrics.degraded_entries);
  EXPECT_EQ(out.final_active, 0);
  EXPECT_TRUE(out.violations.empty());
}

}  // namespace
}  // namespace vod::exp
