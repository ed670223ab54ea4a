#ifndef VODB_BENCH_BENCH_COMMON_H_
#define VODB_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/params.h"
#include "exp/day_run.h"
#include "exp/runner.h"
#include "obs/event_tracer.h"
#include "obs/postmortem.h"
#include "obs/timeseries_recorder.h"
#include "sim/vod_simulator.h"
#include "sim/workload.h"

namespace vod::bench {

/// The flag groups of the shared command line (BenchOptions), one bit each.
/// A harness passes the groups it reads to Parse, which rejects a flag of
/// any other group.
enum BenchFlag : unsigned {
  kFlagFull = 1u << 0,        ///< --full
  kFlagSeeds = 1u << 1,       ///< --seeds
  kFlagThreads = 1u << 2,     ///< --threads
  kFlagJson = 1u << 3,        ///< --json
  kFlagMetrics = 1u << 4,     ///< --metrics
  kFlagProgress = 1u << 5,    ///< --progress
  kFlagFaults = 1u << 6,      ///< --faults, --fault-seed
  /// --trace, --spans, --timeseries, --postmortem-dir (ObsSession).
  kFlagObservers = 1u << 7,
  /// Everything: the runner-based harnesses (fig07, fig08, fig11).
  kFlagsAll = (1u << 8) - 1,
};

/// Shared command-line handling for the figure/table harnesses. The flags
/// (each harness reads the subset it passes to Parse):
///   --full          paper-scale sweep (24 h days, 5 seeds, full grids)
///   --seeds=K       override the seed count
///   --threads=N     threads that run the experiment runner's sweep, the
///                   calling thread included, so N = 1 starts none
///                   (default hardware_concurrency; output is byte-identical
///                   at any N)
///   --json          emit JSON instead of CSV (runner-based harnesses)
///   --trace=FILE    write a structured event trace of every run (.jsonl =
///                   line-delimited records; anything else = Chrome
///                   trace-event JSON loadable in Perfetto)
///   --metrics=FILE  write a JSON metrics dump: per-run log (seed + grid
///                   coordinates + counters + headline metrics), the
///                   sweep's summed counters and histograms, and the
///                   profiling table
///   --progress      live stderr progress line (completed/total, runs/s, ETA)
///   --faults=SPEC   fault-injection schedule for every run (grammar in
///                   fault/fault_spec.h, e.g.
///                   "eio:start=3600,end=7200,p=0.2,retries=3"); "none"
///                   builds an inactive injector, unset skips it entirely
///   --fault-seed=S  injector RNG seed (default derives from spec + run
///                   seed; either way fully deterministic)
///   --spans         add per-stream lifecycle span tracks (admission_wait /
///                   service / degraded / retry_burst) to the --trace file;
///                   requires --trace
///   --timeseries=FILE  write a sim-time telemetry CSV (broker reservation,
///                   buffered bits, queue depth, active/degraded streams,
///                   disk busy fraction, one row per 60 s sim-time bucket);
///                   scripts/plot_timeseries.py renders it
///   --postmortem-dir=DIR  arm a per-run postmortem black box writing
///                   postmortem_<run>_<reason>.json dumps into DIR on
///                   invariant violations / fault-layer hiccups (with
///                   --faults, the first hiccup triggers a dump)
/// Default configurations are scaled to finish in seconds-to-a-minute.
/// All observability flags are pure observers: the stdout CSV/JSON is
/// byte-identical with or without them. --faults is NOT an observer — it is
/// the one flag meant to change results (though "none" and unset are
/// bit-identical to each other).
struct BenchOptions {
  bool full = false;
  int seeds = 0;    ///< 0 = per-bench default.
  int threads = 0;  ///< 0 = hardware_concurrency.
  bool json = false;
  std::string trace;    ///< Empty = no trace file.
  std::string metrics;  ///< Empty = no metrics dump.
  bool progress = false;
  std::string faults;   ///< Empty = no injector.
  std::uint64_t fault_seed = 0;  ///< 0 = derived.
  bool spans = false;        ///< Span tracks in the --trace file.
  std::string timeseries;    ///< Empty = no telemetry CSV.
  std::string postmortem_dir;  ///< Empty = no black box.

  /// Strict parse: rejects unknown options, flags outside `accepted` (a
  /// BenchFlag mask: the flags the harness reads) and malformed values
  /// (non-numeric or out-of-range --seeds/--threads/--fault-seed, empty
  /// --trace=/--metrics=/--timeseries=/--postmortem-dir= paths, --spans
  /// without --trace) instead of silently ignoring them.
  static Result<BenchOptions> TryParse(int argc, char** argv,
                                       unsigned accepted);

  /// TryParse that prints the error + the accepted flags' usage and
  /// exits(2) on failure — the harness main() entry point.
  static BenchOptions Parse(int argc, char** argv, unsigned accepted);

  /// Copies the fault options into a grid base config.
  void ApplyFaultsTo(exp::DayRunConfig* cfg) const;
};

/// The day-run unit and the paper's per-method constants now live in the
/// exp library (src/exp/day_run.h) so the parallel runner and the tests can
/// use them without linking bench code; aliased here for the harnesses.
using exp::DayRunConfig;
using exp::PaperK;
using exp::PaperTLog;
using exp::RunDay;

/// Short run label for trace tracks: "rr/dynamic/t40/a1/r0", with a
/// "/f<index>" segment appended when the run sits on a fault axis.
std::string SpecLabel(const exp::RunSpec& spec);

/// Writes the --metrics JSON artifact: {"runs": [...], "registry": {...},
/// "profile": [...]}, i.e. exp::RunLogJson, sim::SweepMetricsJson over the
/// results and obs::Profiler::ToJson, and prints the profiling table to
/// stderr. `postmortems` (grid index -> dump paths) adds per-run postmortem
/// pointers to the log.
Status WriteMetricsArtifacts(
    const std::string& path, const std::vector<exp::RunResult>& results,
    const std::map<std::size_t, std::vector<std::string>>& postmortems = {});

/// Observability wiring shared by the runner-based harnesses: one
/// EventTracer per run when --trace, --spans, or --postmortem-dir is set
/// (the tracer is single-producer, so parallel sweeps need per-run
/// instances — and the postmortem black box dumps the ring tail), one
/// TimeseriesRecorder per run when --timeseries is set, one PostmortemSink
/// per run when --postmortem-dir is set, a spec-aware RunDay wrapper that
/// attaches them, and artifact writing after the sweep.
class ObsSession {
 public:
  ObsSession(const BenchOptions& opt, std::size_t total_runs);

  /// RunDay wrapper for Runner::Run that attaches this session's observers
  /// for the run's grid index.
  exp::Runner::RunSpecFn MakeRunFn() const;

  /// Writes the --trace / --timeseries / --metrics artifacts (no-ops for
  /// unset flags) and reports any postmortem dumps on stderr. Every failed
  /// write is reported on stderr, a --postmortem-dir that could not be
  /// created and each sink's failed dump among them; the first one is
  /// returned, and the harness exits 1 on it.
  Status Finish(const std::vector<exp::RunResult>& results) const;

  /// Dump files written so far, keyed by grid index (for RunLogJson).
  std::map<std::size_t, std::vector<std::string>> PostmortemPaths() const;

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::string timeseries_path_;
  bool spans_ = false;
  Status postmortem_dir_status_;  ///< Creating --postmortem-dir.
  std::vector<std::unique_ptr<obs::EventTracer>> tracers_;
  std::vector<std::unique_ptr<obs::TimeseriesRecorder>> recorders_;
  std::vector<std::unique_ptr<obs::PostmortemSink>> sinks_;
};

/// Prints a CSV header + rows helper.
void PrintCsvHeader(const std::string& columns);

/// A harness's exit status once its results are printed: 1 when `ok` is
/// false or stdout cannot be written (FlushStream; reported on stderr),
/// else 0. Every harness returns through it.
int ExitStatus(bool ok = true);

}  // namespace vod::bench

#endif  // VODB_BENCH_BENCH_COMMON_H_
