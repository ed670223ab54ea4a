#include "bench/bench_common.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "bench_kit/report.h"
#include "common/file.h"
#include "common/json.h"
#include "obs/profile.h"
#include "obs/trace_export.h"
#include "sim/metrics.h"

namespace vod::bench {

namespace {

/// Whole-string strictly-positive-int parse; rejects "", "12x", "-3".
Result<int> ParseCount(const char* flag, const char* text, int lo, int hi) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < lo || v > hi) {
    return Status::InvalidArgument(std::string(flag) + " wants an integer in [" +
                                   std::to_string(lo) + ", " +
                                   std::to_string(hi) + "], got \"" + text +
                                   "\"");
  }
  return static_cast<int>(v);
}

}  // namespace

Result<BenchOptions> BenchOptions::TryParse(int argc, char** argv,
                                            unsigned accepted) {
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    unsigned flag = 0;  // The argument's BenchFlag group.
    if (std::strcmp(argv[i], "--full") == 0) {
      flag = kFlagFull;
      opt.full = true;
    } else if (std::strncmp(argv[i], "--seeds=", 8) == 0) {
      flag = kFlagSeeds;
      auto v = ParseCount("--seeds", argv[i] + 8, 1, 10000);
      if (!v.ok()) return v.status();
      opt.seeds = v.value();
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      flag = kFlagThreads;
      auto v = ParseCount("--threads", argv[i] + 10, 1, 4096);
      if (!v.ok()) return v.status();
      opt.threads = v.value();
    } else if (std::strcmp(argv[i], "--json") == 0) {
      flag = kFlagJson;
      opt.json = true;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      flag = kFlagObservers;
      opt.trace = argv[i] + 8;
      if (opt.trace.empty()) {
        return Status::InvalidArgument("--trace= wants a file path");
      }
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      flag = kFlagObservers;
      opt.trace = "trace.json";
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      flag = kFlagMetrics;
      opt.metrics = argv[i] + 10;
      if (opt.metrics.empty()) {
        return Status::InvalidArgument("--metrics= wants a file path");
      }
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      flag = kFlagProgress;
      opt.progress = true;
    } else if (std::strncmp(argv[i], "--faults=", 9) == 0) {
      // Spec-grammar validation happens where the injector is built
      // (fault/fault_spec.h); here only the flag shape is checked.
      flag = kFlagFaults;
      opt.faults = argv[i] + 9;
      if (opt.faults.empty()) {
        return Status::InvalidArgument(
            "--faults= wants a spec (or \"none\")");
      }
    } else if (std::strncmp(argv[i], "--fault-seed=", 13) == 0) {
      flag = kFlagFaults;
      const char* text = argv[i] + 13;
      char* end = nullptr;
      const unsigned long long v = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0' || std::strchr(text, '-') != nullptr) {
        return Status::InvalidArgument(
            std::string("--fault-seed wants an unsigned integer, got \"") +
            text + "\"");
      }
      opt.fault_seed = v;
    } else if (std::strcmp(argv[i], "--spans") == 0) {
      flag = kFlagObservers;
      opt.spans = true;
    } else if (std::strncmp(argv[i], "--timeseries=", 13) == 0) {
      flag = kFlagObservers;
      opt.timeseries = argv[i] + 13;
      if (opt.timeseries.empty()) {
        return Status::InvalidArgument("--timeseries= wants a file path");
      }
    } else if (std::strncmp(argv[i], "--postmortem-dir=", 17) == 0) {
      flag = kFlagObservers;
      opt.postmortem_dir = argv[i] + 17;
      if (opt.postmortem_dir.empty()) {
        return Status::InvalidArgument(
            "--postmortem-dir= wants a directory path");
      }
    }
    if (flag == 0) {
      return Status::InvalidArgument(std::string("unknown option \"") +
                                     argv[i] + "\"");
    }
    // Accepting a flag the harness does not read would print results that
    // silently ignore it.
    if ((flag & accepted) == 0) {
      return Status::InvalidArgument(std::string("this harness does not "
                                                 "read \"") +
                                     argv[i] + "\"");
    }
  }
  // Spans render inside the trace file; without one they would vanish
  // silently — reject instead (flags may appear in either order, so this
  // check must run after the loop).
  if (opt.spans && opt.trace.empty()) {
    return Status::InvalidArgument("--spans needs --trace[=FILE]");
  }
  return opt;
}

BenchOptions BenchOptions::Parse(int argc, char** argv, unsigned accepted) {
  auto opt = TryParse(argc, argv, accepted);
  if (!opt.ok()) {
    static constexpr struct {
      unsigned flag;
      const char* usage;
    } kUsage[] = {
        {kFlagFull, " [--full]"},
        {kFlagSeeds, " [--seeds=K]"},
        {kFlagThreads, " [--threads=N]"},
        {kFlagJson, " [--json]"},
        {kFlagObservers, " [--trace[=FILE]] [--spans] [--timeseries=FILE]"
                         " [--postmortem-dir=DIR]"},
        {kFlagMetrics, " [--metrics=FILE]"},
        {kFlagProgress, " [--progress]"},
        {kFlagFaults, " [--faults=SPEC] [--fault-seed=S]"},
    };
    std::string usage = "usage:";
    for (const auto& u : kUsage) {
      if ((u.flag & accepted) != 0) usage += u.usage;
    }
    if (accepted == 0) usage += " (no options)";
    std::fprintf(stderr, "%s: %s\n%s\n", argc > 0 ? argv[0] : "bench",
                 opt.status().ToString().c_str(), usage.c_str());
    std::exit(2);
  }
  return opt.value();
}

void BenchOptions::ApplyFaultsTo(exp::DayRunConfig* cfg) const {
  cfg->faults = faults;
  cfg->fault_seed = fault_seed;
}

std::string SpecLabel(const exp::RunSpec& spec) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s/%s/t%.0f/a%d/r%d",
                std::string(core::ScheduleMethodName(spec.config.method))
                    .c_str(),
                std::string(sim::AllocSchemeName(spec.config.scheme)).c_str(),
                ToMinutes(spec.config.t_log), spec.config.alpha,
                spec.replication);
  std::string label = buf;
  // Only faulted runs grow a segment, keeping legacy labels stable.
  if (!spec.config.faults.empty()) {
    label += "/f" + std::to_string(spec.fault_index);
  }
  return label;
}

Status WriteMetricsArtifacts(
    const std::string& path, const std::vector<exp::RunResult>& results,
    const std::map<std::size_t, std::vector<std::string>>& postmortems) {
  std::vector<const sim::SimMetrics*> runs;
  runs.reserve(results.size());
  for (const exp::RunResult& r : results) runs.push_back(&r.metrics);

  JsonValue doc = JsonValue::Object();
  doc.Set("runs", exp::RunLogJson(results, postmortems));
  doc.Set("registry", sim::SweepMetricsJson(runs));
  doc.Set("profile", obs::Profiler::Global().ToJson());
  const Status st = WriteFile(path, doc.Dump());

  const std::string table = obs::Profiler::Global().ReportTable();
  if (!table.empty()) std::fprintf(stderr, "%s", table.c_str());
  return st;
}

namespace {

/// The run configuration embedded in a postmortem dump: grid coordinates,
/// seeds, fault spec, and provenance (git SHA via bench_kit). Everything a
/// postmortem reader needs to replay the exact run that died.
JsonValue PostmortemConfig(const exp::RunSpec& spec) {
  JsonValue cfg = JsonValue::Object();
  cfg.Set("label", JsonValue::Str(SpecLabel(spec)));
  cfg.Set("index", JsonValue::Number(static_cast<double>(spec.index)));
  cfg.Set("method", JsonValue::Str(std::string(
                        core::ScheduleMethodName(spec.config.method))));
  cfg.Set("scheme", JsonValue::Str(std::string(
                        sim::AllocSchemeName(spec.config.scheme))));
  cfg.Set("t_log_min", JsonValue::Number(ToMinutes(spec.config.t_log)));
  cfg.Set("alpha", JsonValue::Number(spec.config.alpha));
  cfg.Set("theta", JsonValue::Number(spec.config.theta));
  cfg.Set("replication", JsonValue::Number(spec.replication));
  cfg.Set("seed", JsonValue::Number(static_cast<double>(spec.config.seed)));
  cfg.Set("faults", JsonValue::Str(spec.config.faults));
  cfg.Set("fault_seed",
          JsonValue::Number(static_cast<double>(spec.config.fault_seed)));
  cfg.Set("git_sha", JsonValue::Str(bench_kit::GitSha()));
  return cfg;
}

}  // namespace

ObsSession::ObsSession(const BenchOptions& opt, std::size_t total_runs)
    : trace_path_(opt.trace),
      metrics_path_(opt.metrics),
      timeseries_path_(opt.timeseries),
      spans_(opt.spans) {
  // Tracers feed the trace file, the span derivation, *and* the postmortem
  // ring tail — any of the three wants per-run rings.
  const bool want_tracers = !trace_path_.empty() || !opt.postmortem_dir.empty();
  if (want_tracers) {
    tracers_.reserve(total_runs);
    for (std::size_t i = 0; i < total_runs; ++i) {
      tracers_.push_back(std::make_unique<obs::EventTracer>());
    }
  }
  if (!timeseries_path_.empty()) {
    recorders_.reserve(total_runs);
    for (std::size_t i = 0; i < total_runs; ++i) {
      recorders_.push_back(std::make_unique<obs::TimeseriesRecorder>());
    }
  }
  if (!opt.postmortem_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.postmortem_dir, ec);
    if (ec) {
      postmortem_dir_status_ = Status::InvalidArgument(
          "cannot create --postmortem-dir " + opt.postmortem_dir + ": " +
          ec.message());
    }
    obs::PostmortemSink::Options po;
    po.dir = opt.postmortem_dir;
    // Under fault injection the first lost round is already the anomaly a
    // flight recorder exists for; fault-free runs keep thresholds disabled
    // (invariant violations still trigger).
    if (!opt.faults.empty()) po.hiccup_threshold = 1;
    sinks_.reserve(total_runs);
    for (std::size_t i = 0; i < total_runs; ++i) {
      // Per-run label: the grid index keys dump filenames, so parallel runs
      // never collide (the config JSON inside carries the human label).
      po.run_label = "run" + std::to_string(i);
      sinks_.push_back(std::make_unique<obs::PostmortemSink>(po));
    }
  }
}

exp::Runner::RunSpecFn ObsSession::MakeRunFn() const {
  return [this](const exp::RunSpec& spec) {
    exp::DayRunConfig cfg = spec.config;
    if (!tracers_.empty()) cfg.tracer = tracers_[spec.index].get();
    if (!recorders_.empty()) cfg.timeseries = recorders_[spec.index].get();
    if (!sinks_.empty()) {
      obs::PostmortemSink* sink = sinks_[spec.index].get();
      // Mutating the per-run sink here is safe: one run owns one sink, and
      // the runner never executes the same index twice.
      sink->set_config(PostmortemConfig(spec));
      cfg.postmortem = sink;
    }
    return exp::RunDay(cfg);
  };
}

std::map<std::size_t, std::vector<std::string>> ObsSession::PostmortemPaths()
    const {
  std::map<std::size_t, std::vector<std::string>> paths;
  for (std::size_t i = 0; i < sinks_.size(); ++i) {
    if (sinks_[i]->triggered()) paths[i] = sinks_[i]->paths();
  }
  return paths;
}

Status ObsSession::Finish(const std::vector<exp::RunResult>& results) const {
  Status first = Status::OK();
  const auto check = [&first](const Status& st) {
    if (st.ok()) return;
    std::fprintf(stderr, "artifact write failed: %s\n", st.ToString().c_str());
    if (first.ok()) first = st;
  };
  if (!trace_path_.empty()) {
    std::vector<obs::TraceRun> runs;
    runs.reserve(results.size());
    for (const exp::RunResult& r : results) {
      obs::TraceRun tr;
      tr.label = SpecLabel(r.spec);
      tr.pid = static_cast<int>(r.spec.index);
      const obs::EventTracer& tracer = *tracers_[r.spec.index];
      tr.events = tracer.Snapshot();
      tr.dropped = tracer.dropped();
      if (tr.dropped > 0) {
        std::fprintf(stderr,
                     "trace: %s kept the last %zu of %" PRIu64 " events\n",
                     tr.label.c_str(), tr.events.size(),
                     tracer.total_emitted());
      }
      runs.push_back(std::move(tr));
    }
    obs::TraceExportOptions topt;
    topt.spans = spans_;
    check(obs::WriteTraceFile(trace_path_, runs, topt));
  }
  if (!timeseries_path_.empty()) {
    std::vector<obs::TimeseriesRun> runs;
    runs.reserve(results.size());
    for (const exp::RunResult& r : results) {
      obs::TimeseriesRun tr;
      tr.label = SpecLabel(r.spec);
      tr.run = static_cast<int>(r.spec.index);
      tr.recorder = recorders_[r.spec.index].get();
      runs.push_back(std::move(tr));
    }
    check(obs::WriteTimeseriesCsv(timeseries_path_, runs));
  }
  check(postmortem_dir_status_);
  for (const auto& sink : sinks_) check(sink->write_status());
  const auto postmortems = PostmortemPaths();
  for (const auto& [index, paths] : postmortems) {
    for (const std::string& p : paths) {
      std::fprintf(stderr, "postmortem: run %zu dumped %s\n", index,
                   p.c_str());
    }
  }
  if (!metrics_path_.empty()) {
    check(WriteMetricsArtifacts(metrics_path_, results, postmortems));
  }
  return first;
}

void PrintCsvHeader(const std::string& columns) {
  std::printf("%s\n", columns.c_str());
}

int ExitStatus(bool ok) {
  const Status flushed = FlushStream(stdout);
  if (!flushed.ok()) {
    std::fprintf(stderr, "stdout: %s\n", flushed.ToString().c_str());
  }
  return ok && flushed.ok() ? 0 : 1;
}

}  // namespace vod::bench
