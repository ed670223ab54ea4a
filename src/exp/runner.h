#ifndef VODB_EXP_RUNNER_H_
#define VODB_EXP_RUNNER_H_

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/stats.h"
#include "exp/day_run.h"
#include "exp/grid.h"
#include "sim/metrics.h"

namespace vod::exp {

struct RunnerOptions {
  /// Threads that run the sweep, the calling thread included; <= 0 selects
  /// ThreadPool::DefaultThreads() (hardware_concurrency).
  int threads = 0;
  /// Live stderr progress line (completed/total, runs/s, ETA) while the
  /// sweep executes. Purely cosmetic: results are identical either way.
  bool progress = false;
};

/// One completed run: the spec that produced it plus its metrics.
struct RunResult {
  RunSpec spec;
  sim::SimMetrics metrics;
  Seconds wall_seconds;  ///< Host wall time this run took.
};

/// Fans a grid's runs out across a fork-join thread pool and returns the
/// results ordered by RunSpec::index — i.e. in the grid's deterministic
/// expansion order, regardless of which thread finished which run when.
/// Combined with per-run seeding (a pure function of the grid point), the
/// returned vector is bit-identical at any thread count.
class Runner {
 public:
  explicit Runner(const RunnerOptions& options = {});

  /// Runs one grid point. It is handed the whole RunSpec, so it can key
  /// per-run side channels (e.g. one EventTracer per spec.index) off the
  /// grid coordinates.
  using RunSpecFn = std::function<sim::SimMetrics(const RunSpec&)>;

  /// Executes every grid point through `fn`; an empty `fn` runs RunDay of
  /// the spec's config. An exception thrown by `fn` propagates to the
  /// caller after all other runs finish (lowest grid index wins when
  /// several throw).
  std::vector<RunResult> Run(const Grid& grid,
                             const RunSpecFn& fn = {}) const;

  int threads() const { return threads_; }

 private:
  RunnerOptions options_;
  int threads_;
};

/// Per-run JSON log: an array with one object per RunResult carrying the
/// grid coordinates (index, method, scheme, t_log_min, alpha, replication),
/// the derived seed (a string: a uint64 does not fit a double), the host
/// wall time (wall_ms), every counter of sim::kSimCounters under its name,
/// and the run's headline figures (avg_latency_s, success_prob,
/// peak_memory_mb, peak_concurrency). `postmortems` maps a run's grid index
/// (RunSpec::index) to the postmortem dumps its black box wrote; a run with
/// an entry gains a "postmortems": [paths...] field, so a dump is joinable
/// back to the grid point that produced it. Deterministic except for
/// wall_ms.
JsonValue RunLogJson(
    const std::vector<RunResult>& results,
    const std::map<std::size_t, std::vector<std::string>>& postmortems = {});

/// Mean/stddev/CI summary of one metric across a grid point's replications.
/// ci95_half is the normal-approximation half-width 1.96·s/√n (0 for a
/// single replication).
struct MetricSummary {
  std::size_t runs = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double ci95_half = 0.0;
  double min = 0.0;
  double max = 0.0;

  static MetricSummary FromStats(const RunningStats& stats);
};

/// One aggregated grid point: the replication-0 spec (for labeling) plus the
/// summary of `metric` over its replications.
struct AggregateRow {
  RunSpec spec;
  MetricSummary summary;
};

/// Collapses the replication axis: consecutive groups of `replications`
/// results (the innermost axis of Grid expansion) are summarized via
/// common/stats. `results` must be in expansion order, i.e. exactly what
/// Runner::Run returned. Replications are accumulated in expansion order,
/// so the floating-point reduction is deterministic too.
std::vector<AggregateRow> AggregateReplications(
    const std::vector<RunResult>& results, int replications,
    const std::function<double(const RunResult&)>& metric);

/// Column-labeled result table with CSV and JSON emitters. Cells are
/// preformatted strings so harnesses control the exact numeric formatting
/// (the legacy byte-stable CSV layouts).
class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  /// `cells.size()` must equal the column count.
  void AddRow(std::vector<std::string> cells);

  /// Header line + one line per row, comma-separated.
  std::string ToCsv() const;
  /// JSON array with one object per row, keyed by column; a cell that
  /// parses fully as a number is a number, any other a string.
  std::string ToJson() const;

  /// Writes CSV (or JSON when `json`) to `out` and flushes it; fails when
  /// the stream does (common/file.h WriteStream).
  Status Write(std::FILE* out, bool json) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace vod::exp

#endif  // VODB_EXP_RUNNER_H_
