#include "exp/runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "common/check.h"
#include "exp/thread_pool.h"
#include "obs/clock.h"
#include "obs/progress.h"

namespace vod::exp {

Runner::Runner(const RunnerOptions& options)
    : options_(options),
      threads_(options.threads > 0 ? options.threads
                                   : ThreadPool::DefaultThreads()) {}

std::vector<RunResult> Runner::Run(const Grid& grid,
                                   const RunSpecFn& fn) const {
  const std::vector<RunSpec> specs = grid.Expand();
  std::vector<RunResult> results(specs.size());
  if (specs.empty()) return results;

  std::unique_ptr<obs::ProgressReporter> progress;
  if (options_.progress) {
    progress = std::make_unique<obs::ProgressReporter>(specs.size(), "runs");
  }
  const auto run_one = [&](std::size_t i) {
    const obs::Stopwatch watch;
    results[i].spec = specs[i];
    results[i].metrics = fn ? fn(specs[i]) : RunDay(specs[i].config);
    results[i].wall_seconds = watch.Elapsed();
    if (progress != nullptr) progress->OnComplete();
  };

  // No more threads than grid points: a one-point grid runs on the caller
  // and starts no thread.
  ThreadPool pool(static_cast<int>(
      std::min(specs.size(), static_cast<std::size_t>(threads_))));
  pool.ParallelFor(specs.size(), run_one);
  if (progress != nullptr) progress->Finish();
  return results;
}

JsonValue RunLogJson(
    const std::vector<RunResult>& results,
    const std::map<std::size_t, std::vector<std::string>>& postmortems) {
  JsonValue log = JsonValue::Array();
  for (const RunResult& r : results) {
    const DayRunConfig& cfg = r.spec.config;
    const sim::SimMetrics& m = r.metrics;
    JsonValue run = JsonValue::Object();
    run.Set("index", JsonValue::Number(static_cast<double>(r.spec.index)));
    run.Set("method", JsonValue::Str(std::string(
                          core::ScheduleMethodName(cfg.method))));
    run.Set("scheme",
            JsonValue::Str(std::string(sim::AllocSchemeName(cfg.scheme))));
    run.Set("t_log_min", JsonValue::Number(ToMinutes(cfg.t_log)));
    run.Set("alpha", JsonValue::Number(cfg.alpha));
    run.Set("replication", JsonValue::Number(r.spec.replication));
    run.Set("seed", JsonValue::Str(std::to_string(cfg.seed)));
    run.Set("wall_ms", JsonValue::Number(ToMilliseconds(r.wall_seconds)));
    for (const sim::SimCounter& c : sim::kSimCounters) {
      run.Set(std::string(c.name),
              JsonValue::Number(static_cast<double>(m.*c.field)));
    }
    run.Set("avg_latency_s", JsonValue::Number(m.initial_latency.mean()));
    run.Set("success_prob", JsonValue::Number(m.SuccessProbability()));
    run.Set("peak_memory_mb",
            JsonValue::Number(ToMebibytes(Bits(m.memory_usage.max_value()))));
    run.Set("peak_concurrency", JsonValue::Number(m.peak_concurrency));
    const auto pm = postmortems.find(r.spec.index);
    if (pm != postmortems.end() && !pm->second.empty()) {
      JsonValue paths = JsonValue::Array();
      for (const std::string& path : pm->second) {
        paths.Append(JsonValue::Str(path));
      }
      run.Set("postmortems", std::move(paths));
    }
    log.Append(std::move(run));
  }
  return log;
}

MetricSummary MetricSummary::FromStats(const RunningStats& stats) {
  MetricSummary s;
  s.runs = stats.count();
  s.mean = stats.mean();
  s.stddev = stats.stddev();
  s.ci95_half = stats.count() > 1
                    ? 1.96 * stats.stddev() /
                          std::sqrt(static_cast<double>(stats.count()))
                    : 0.0;
  s.min = stats.min();
  s.max = stats.max();
  return s;
}

std::vector<AggregateRow> AggregateReplications(
    const std::vector<RunResult>& results, int replications,
    const std::function<double(const RunResult&)>& metric) {
  VOD_CHECK(replications > 0);
  VOD_CHECK(results.size() % static_cast<std::size_t>(replications) == 0);
  std::vector<AggregateRow> rows;
  rows.reserve(results.size() / static_cast<std::size_t>(replications));
  for (std::size_t base = 0; base < results.size();
       base += static_cast<std::size_t>(replications)) {
    RunningStats stats;
    for (int r = 0; r < replications; ++r) {
      stats.Add(metric(results[base + static_cast<std::size_t>(r)]));
    }
    rows.push_back({results[base].spec, MetricSummary::FromStats(stats)});
  }
  return rows;
}

Table::Table(std::vector<std::string> columns)
    : columns_(std::move(columns)) {}

void Table::AddRow(std::vector<std::string> cells) {
  VOD_CHECK(cells.size() == columns_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::ToCsv() const {
  std::string out;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (c > 0) out += ',';
    out += columns_[c];
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ',';
      out += row[c];
    }
    out += '\n';
  }
  return out;
}

std::string Table::ToJson() const {
  JsonValue json = JsonValue::Array();
  for (const auto& row : rows_) {
    JsonValue object = JsonValue::Object();
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      const std::string& cell = row[c];
      char* end = nullptr;
      const double number = std::strtod(cell.c_str(), &end);
      const bool numeric = !cell.empty() && end == cell.c_str() + cell.size();
      object.Set(columns_[c],
                 numeric ? JsonValue::Number(number) : JsonValue::Str(cell));
    }
    json.Append(std::move(object));
  }
  return json.Dump();
}

void Table::Write(std::FILE* out, bool json) const {
  const std::string text = json ? ToJson() : ToCsv();
  std::fwrite(text.data(), 1, text.size(), out);
}

}  // namespace vod::exp
