#include "exp/day_run.h"

#include <memory>

#include "common/check.h"
#include "fault/fault_spec.h"
#include "fault/injector.h"
#include "obs/profile.h"
#include "sim/memory_broker.h"
#include "sim/rng.h"
#include "sim/workload.h"

namespace vod::exp {

Seconds PaperTLog(core::ScheduleMethod method) {
  return method == core::ScheduleMethod::kRoundRobin ? Minutes(40)
                                                     : Minutes(20);
}

int PaperK(core::ScheduleMethod method) {
  return method == core::ScheduleMethod::kRoundRobin ? 4 : 3;
}

namespace {

/// Derives the injector seed when the config leaves it at 0: a hash of the
/// spec text and the run seed, so each grid point faults the same way on
/// every execution (and differently from its replication siblings).
std::uint64_t DeriveFaultSeed(const DayRunConfig& cfg) {
  if (cfg.fault_seed != 0) return cfg.fault_seed;
  std::uint64_t h = 0x0fa17c0ffee5eedULL;  // Arbitrary domain tag.
  for (const char c : cfg.faults) {
    h = sim::MixSeed(h, static_cast<unsigned char>(c));
  }
  return sim::MixSeed(h, cfg.seed);
}

}  // namespace

sim::SimMetrics RunDay(const DayRunConfig& cfg) {
  VODB_PROF_SCOPE("exp.run");
  sim::SimConfig sc;
  sc.method = cfg.method;
  sc.scheme = cfg.scheme;
  sc.t_log = cfg.t_log;
  sc.alpha = cfg.alpha;
  sc.seed = cfg.seed;

  sim::WorkloadConfig w;
  w.duration = cfg.duration;
  w.theta = cfg.theta;
  w.peak_time = cfg.duration * 9.0 / 24.0;  // Peak after 9 of 24 "hours".
  w.total_expected_arrivals = cfg.total_arrivals;
  w.seed = cfg.seed * 7919 + 13;

  auto arrivals = sim::GenerateWorkload(w);
  VOD_CHECK(arrivals.ok());

  std::unique_ptr<fault::Injector> injector;
  if (!cfg.faults.empty()) {
    Result<fault::FaultSpec> spec = fault::ParseFaultSpec(cfg.faults);
    VOD_CHECK(spec.ok());
    injector =
        std::make_unique<fault::Injector>(spec.value(), DeriveFaultSeed(cfg));
    sc.injector = injector.get();
    sim::ApplyFaultBursts(*injector, &arrivals.value());
  }

  std::unique_ptr<sim::AnalyticMemoryBroker> broker;
  if (cfg.memory_capacity > Bits(0)) {
    Result<std::unique_ptr<sim::AnalyticMemoryBroker>> made =
        sim::MakeBroker(sc, /*disk_count=*/1, cfg.memory_capacity);
    VOD_CHECK(made.ok());
    broker = std::move(made).value();
  }

  auto simulator = sim::VodSimulator::Create(sc, broker.get());
  VOD_CHECK(simulator.ok());
  (*simulator)->set_tracer(cfg.tracer);
  (*simulator)->set_postmortem(cfg.postmortem);
  (*simulator)->set_timeseries(cfg.timeseries);
  VOD_CHECK((*simulator)->AddArrivals(*arrivals).ok());
  (*simulator)->RunToCompletion();
  (*simulator)->Finalize();
  return (*simulator)->metrics();
}

}  // namespace vod::exp
