#ifndef VODB_EXP_DAY_RUN_H_
#define VODB_EXP_DAY_RUN_H_

#include <cstdint>
#include <string>

#include "common/units.h"
#include "core/params.h"
#include "sim/metrics.h"
#include "sim/vod_simulator.h"

namespace vod::obs {
class EventTracer;
class PostmortemSink;
class TimeseriesRecorder;
}  // namespace vod::obs

namespace vod::exp {

/// The paper's per-method T_log choices (Sec. 5.1): 40 min for Round-Robin,
/// 20 min for Sweep*/GSS*.
Seconds PaperTLog(core::ScheduleMethod method);

/// The paper's per-method worst-average k (fn. 9): 4 for Round-Robin,
/// 3 for Sweep*/GSS*.
int PaperK(core::ScheduleMethod method);

/// One single-disk simulated day: the unit of work every figure/table sweep
/// fans out over. A config fully determines its run — RunDay is a pure
/// function (no global state), so configs can execute on any thread in any
/// order and still produce identical metrics.
struct DayRunConfig {
  core::ScheduleMethod method = core::ScheduleMethod::kRoundRobin;
  sim::AllocScheme scheme = sim::AllocScheme::kDynamic;
  Seconds t_log = Minutes(40);
  int alpha = 1;
  double theta = 0.5;
  Seconds duration = Hours(24);
  double total_arrivals = 1200;
  std::uint64_t seed = 1;
  /// Optional structured event tracer attached to the run's simulator (one
  /// tracer per run — the tracer is single-producer). Pure observer: results
  /// are identical with or without it. Excluded from grid seeding (seeds
  /// hash simulation parameters by value, never this pointer).
  obs::EventTracer* tracer = nullptr;
  /// Optional postmortem black box (obs/postmortem.h). The run's simulator
  /// arms the auditor's capture-then-fail observer and the fault-layer
  /// degradation thresholds against it. Pure observer, excluded from grid
  /// seeding like the tracer.
  obs::PostmortemSink* postmortem = nullptr;
  /// Optional sim-time telemetry recorder (one per run, single-producer
  /// like the tracer). Pure observer, excluded from grid seeding.
  obs::TimeseriesRecorder* timeseries = nullptr;
  /// Fault-injection schedule (fault/fault_spec.h grammar). "" skips the
  /// injector entirely; "none"/"off" builds an *inactive* injector (handy
  /// for observer-effect tests — metrics must stay bit-identical either
  /// way). Excluded from grid seeding, so faulted and fault-free runs of
  /// the same grid point replay the same workload (paired comparisons).
  std::string faults;
  /// Seed for the injector's own RNG streams; 0 derives one from the spec
  /// text and the run seed (still fully deterministic).
  std::uint64_t fault_seed = 0;
  /// When > 0, the run is gated by an AnalyticMemoryBroker with this
  /// capacity in bits — required for memsqueeze clauses to have any effect
  /// on a single-disk run (no broker ⇒ unlimited memory).
  Bits memory_capacity;
};

/// Runs one simulated day and returns the finalized metrics.
sim::SimMetrics RunDay(const DayRunConfig& cfg);

}  // namespace vod::exp

#endif  // VODB_EXP_DAY_RUN_H_
