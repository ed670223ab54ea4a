#ifndef VODB_SIM_METRICS_H_
#define VODB_SIM_METRICS_H_

#include <cstddef>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/units.h"

namespace vod::sim {

/// One buffer allocation the simulator performed (for Figs. 7–8 and the
/// assumption-invariant tests).
struct AllocationRecord {
  Seconds time;
  RequestId request = 0;
  int n = 0;
  int k = 0;
  Bits buffer_size;
  Seconds usage_period;
};

/// Every count a run keeps. Each field has one row in kSimCounters below,
/// which names it for every emitter; a new counter is one field plus one
/// row.
struct SimCounters {
  // --- Requests ---
  long arrivals = 0;
  long admitted = 0;
  /// Turned away, total. Always the sum of the three cause counters below
  /// (kept as its own field so legacy consumers and golden CSVs are
  /// untouched by the breakdown).
  long rejected = 0;
  long rejected_capacity = 0;  ///< Cause: fully loaded disk (n == N).
  long rejected_memory = 0;    ///< Cause: shared memory budget exhausted.
  long rejected_invalid = 0;   ///< Cause: nothing to play at that position.
  long deferred_admissions = 0;  ///< Assumption-1 deferrals that later got in.
  long completed = 0;
  long cancelled = 0;  ///< VCR cancellations (Sec. 1: reposition = cancel+new).

  // --- Continuity ---
  long starvation_events = 0;  ///< Buffer underflows (must be 0 normally).

  // --- Disk accounting ---
  long services = 0;

  // --- Fault injection & graceful degradation (all 0 without faults) ---
  long read_faults = 0;     ///< Disk reads that failed (injected EIO).
  long read_retries = 0;    ///< Re-issued reads after a same-round failure.
  long hiccup_events = 0;   ///< Rounds abandoned: retry budget exhausted.
  long degraded_entries = 0;  ///< Normal -> Degraded transitions.
  long degraded_streams = 0;  ///< Distinct streams that ever degraded.
  long fault_recoveries = 0;  ///< Degraded -> Normal (successful refill).
  long delayed_reads = 0;   ///< Reads stretched by an injected latency fault.

  // --- Estimation (Figs. 7-8): filled by SimMetrics::ResolveEstimation ---
  long estimation_checks = 0;
  long estimation_successes = 0;
};

/// One counter: the name it is published under (after a `sim.` prefix in
/// the --metrics artifact and postmortem dumps) and its field.
struct SimCounter {
  std::string_view name;
  long SimCounters::*field;
};

/// The counters in publication order: the run log lists them in this order,
/// the --metrics artifact and postmortem dumps sorted by name.
inline constexpr SimCounter kSimCounters[] = {
    {"arrivals", &SimCounters::arrivals},
    {"admitted", &SimCounters::admitted},
    {"rejected", &SimCounters::rejected},
    {"rejected_capacity", &SimCounters::rejected_capacity},
    {"rejected_memory", &SimCounters::rejected_memory},
    {"rejected_invalid", &SimCounters::rejected_invalid},
    {"deferred_admissions", &SimCounters::deferred_admissions},
    {"completed", &SimCounters::completed},
    {"cancelled", &SimCounters::cancelled},
    {"starvation_events", &SimCounters::starvation_events},
    {"services", &SimCounters::services},
    {"fault.read_faults", &SimCounters::read_faults},
    {"fault.read_retries", &SimCounters::read_retries},
    {"fault.hiccups", &SimCounters::hiccup_events},
    {"fault.degraded_entries", &SimCounters::degraded_entries},
    {"fault.degraded_streams", &SimCounters::degraded_streams},
    {"fault.recoveries", &SimCounters::fault_recoveries},
    {"fault.delayed_reads", &SimCounters::delayed_reads},
    {"estimation_checks", &SimCounters::estimation_checks},
    {"estimation_successes", &SimCounters::estimation_successes},
};

/// True when no field and no name has two rows.
constexpr bool SimCountersAreDistinct() {
  for (std::size_t i = 0; i < std::size(kSimCounters); ++i) {
    for (std::size_t j = i + 1; j < std::size(kSimCounters); ++j) {
      if (kSimCounters[i].field == kSimCounters[j].field ||
          kSimCounters[i].name == kSimCounters[j].name) {
        return false;
      }
    }
  }
  return true;
}

// One row per field: as many rows as SimCounters holds longs, none twice.
static_assert(std::size(kSimCounters) * sizeof(long) == sizeof(SimCounters),
              "every SimCounters field needs one kSimCounters row");
static_assert(SimCountersAreDistinct(),
              "a kSimCounters field or name appears twice");

/// Everything a simulation run measures. Collected per disk; MultiDisk runs
/// merge them.
struct SimMetrics : SimCounters {
  /// Initial latency (arrival -> first data in memory), per admitted
  /// request, bucketed by the number of requests in service at the moment
  /// the request was admitted (Fig. 11's x axis). Index 0 unused.
  std::vector<RunningStats> initial_latency_by_n;
  RunningStats initial_latency;  ///< All admitted requests together.

  // --- Allocations / estimation (Figs. 7-8) ---
  std::vector<AllocationRecord> allocations;
  RunningStats estimated_k;

  /// Buffer byte ledger for the conservation property: every bit a disk
  /// read delivers into a stream buffer is eventually tossed back by
  /// use-it-and-toss-it consumption (departure) or cancellation. At the end
  /// of a drained run allocated == released exactly, faults or not.
  Bits buffer_bits_allocated;
  Bits buffer_bits_released;

  // --- Resource usage over time ---
  StepTimeSeries concurrency;
  StepTimeSeries memory_usage;      ///< Actual buffered bits, sampled.
  StepTimeSeries memory_reserved;   ///< Analytic reservation (broker view).
  int peak_concurrency = 0;

  // --- Disk accounting ---
  Seconds disk_busy_time;

  /// Resolves estimation success for all allocation records given the full
  /// sorted arrival-time log: success iff the number of arrivals in
  /// (t, t + usage_period] is <= k. Call once after the run.
  void ResolveEstimation(const std::vector<Seconds>& sorted_arrival_times);

  double SuccessProbability() const {
    return estimation_checks > 0
               ? static_cast<double>(estimation_successes) /
                     static_cast<double>(estimation_checks)
               : 1.0;
  }
};

/// {"sim.<name>": value, ...} for every counter: a postmortem dump's
/// `metrics.counters`.
JsonValue CountersJson(const SimCounters& counters);

/// The --metrics artifact's "registry" section for a sweep's runs:
/// {"counters": {...}, "histograms": {...}}. Each counter is summed over
/// the runs as `sim.<name>`; the per-allocation records feed log-bucketed
/// histograms (`sim.alloc.buffer_mbit`, `sim.alloc.usage_period_s`,
/// `sim.alloc.k`), and each run adds one sample to the `sim.run.*`
/// histograms (mean initial latency, peak memory, peak concurrency, the
/// buffer ledger). Each histogram is {count, mean, p50, p95, p99, max}.
/// No runs, empty sections.
JsonValue SweepMetricsJson(const std::vector<const SimMetrics*>& runs);

}  // namespace vod::sim

#endif  // VODB_SIM_METRICS_H_
