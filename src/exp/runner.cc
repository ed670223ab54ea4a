#include "exp/runner.h"

#include <algorithm>
#include <cinttypes>
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

std::vector<RunResult> Runner::Run(const Grid& grid) const {
  return Run(grid, [](const DayRunConfig& cfg) { return RunDay(cfg); });
}

std::vector<RunResult> Runner::Run(const Grid& grid, const RunFn& fn) const {
  return RunWithSpecs(grid,
                      [&fn](const RunSpec& spec) { return fn(spec.config); });
}

std::vector<RunResult> Runner::RunWithSpecs(const Grid& grid,
                                            const RunSpecFn& fn) const {
  const std::vector<RunSpec> specs = grid.Expand();
  std::vector<RunResult> results(specs.size());
  if (specs.empty()) return results;

  std::unique_ptr<obs::ProgressReporter> progress;
  if (options_.progress) {
    progress = std::make_unique<obs::ProgressReporter>(
        specs.size(), options_.progress_label);
  }
  const auto run_one = [&](std::size_t i) {
    const obs::Stopwatch watch;
    results[i].spec = specs[i];
    results[i].metrics = fn(specs[i]);
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

std::string RunLogJson(const std::vector<RunResult>& results) {
  return RunLogJson(results, {});
}

std::string RunLogJson(
    const std::vector<RunResult>& results,
    const std::map<std::size_t, std::vector<std::string>>& postmortems) {
  std::string out = "[\n";
  char buf[512];
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    const sim::SimMetrics& m = r.metrics;
    std::snprintf(
        buf, sizeof(buf),
        "  {\"index\": %zu, \"method\": \"%s\", \"scheme\": \"%s\", "
        "\"t_log_min\": %.3f, \"alpha\": %d, \"replication\": %d, "
        "\"seed\": \"%" PRIu64 "\", \"wall_ms\": %.3f,",
        r.spec.index,
        std::string(core::ScheduleMethodName(r.spec.config.method)).c_str(),
        std::string(sim::AllocSchemeName(r.spec.config.scheme)).c_str(),
        ToMinutes(r.spec.config.t_log), r.spec.config.alpha,
        r.spec.replication,
        r.spec.config.seed, ToMilliseconds(r.wall_seconds));
    out += buf;
    for (const sim::SimCounter& c : sim::kSimCounters) {
      out += " \"" + std::string(c.name) + "\": " +
             std::to_string(m.*c.field) + ",";
    }
    std::snprintf(buf, sizeof(buf),
                  " \"avg_latency_s\": %.6f, \"success_prob\": %.6f, "
                  "\"peak_memory_mb\": %.3f, \"peak_concurrency\": %d",
                  m.initial_latency.mean(), m.SuccessProbability(),
                  ToMebibytes(Bits(m.memory_usage.max_value())),
                  m.peak_concurrency);
    out += buf;
    const auto pm = postmortems.find(r.spec.index);
    if (pm != postmortems.end() && !pm->second.empty()) {
      out += ", \"postmortems\": [";
      for (std::size_t j = 0; j < pm->second.size(); ++j) {
        if (j > 0) out += ", ";
        out += '"';
        // Filenames are sanitized at write time, but the directory part is
        // caller-supplied — escape the two JSON-hostile characters.
        for (const char c : pm->second[j]) {
          if (c == '"' || c == '\\') out += '\\';
          out += c;
        }
        out += '"';
      }
      out += ']';
    }
    out += '}';
    out += i + 1 < results.size() ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
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

namespace {

bool IsNumeric(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  out += '"';
}

}  // namespace

std::string Table::ToJson() const {
  std::string out = "[\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out += "  {";
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out += ", ";
      AppendJsonString(out, columns_[c]);
      out += ": ";
      if (IsNumeric(rows_[r][c])) {
        out += rows_[r][c];
      } else {
        AppendJsonString(out, rows_[r][c]);
      }
    }
    out += r + 1 < rows_.size() ? "},\n" : "}\n";
  }
  out += "]\n";
  return out;
}

void Table::Write(std::FILE* out, bool json) const {
  const std::string text = json ? ToJson() : ToCsv();
  std::fwrite(text.data(), 1, text.size(), out);
}

}  // namespace vod::exp
