// daybench: runs one workload for a time budget and prints one JSON report.
//
//   daybench --workload <one_disk_day|ten_disk_budget|wide_sharded_churn>
//            --seed <n> --seconds <s> --trace <0|1> [--spans <file.tsv>]
//            [--min-passes <n>]
//
// A run draws kDraws days from its seed; pass p simulates the workload's
// days of draw p % kDraws, so a run measures the same days for a given seed
// however fast the host is. --trace 0 runs passes until the budget is spent
// (at least --min-passes, default kDraws), each after a few timed set-ups
// of its days and as many runs of a fixed reference job. Host times are the
// mean over the draws of each draw's median; run_per_reference and setup_s
// divide them by the reference job's median. Simulated outcomes and peak
// memory cover the first kDraws passes, one per draw. --trace 1 runs pairs
// of passes over the same draw: untraced (read through the profiler) and
// traced (spans around each call into a layer), checks that both produced
// the same digests (and, for single-disk days, the digests exp::RunDay
// produces), and reports the per-layer metrics. Every pass's outputs are
// checked in both modes; the last stdout line is the report. Exit 0 when
// every check held, 1 when one failed, 2 on bad usage.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "daybench.h"
#include "exp/day_run.h"
#include "obs/clock.h"
#include "obs/profile.h"

namespace {

using daybench::DayResult;
using daybench::PassResult;

struct Args {
  daybench::Workload workload = daybench::Workload::kOneDiskDay;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans;
  int min_passes = daybench::kDraws;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "daybench: %s\n"
               "usage: daybench --workload <one_disk_day|ten_disk_budget|"
               "wide_sharded_churn> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <file.tsv>] [--min-passes <n>]\n",
               why);
  return 2;
}

std::optional<Args> Parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    errno = 0;
    if (key == "--workload") {
      const auto w = daybench::ParseWorkload(val);
      if (!w) return std::nullopt;
      a.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      if (errno != 0 || end == val || *end != '\0') return std::nullopt;
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (errno != 0 || end == val || *end != '\0' || !(a.seconds > 0)) {
        return std::nullopt;
      }
      have_seconds = true;
    } else if (key == "--trace") {
      const std::string t = val;
      if (t != "0" && t != "1") return std::nullopt;
      a.trace = t == "1";
      have_trace = true;
    } else if (key == "--spans") {
      a.spans = val;
    } else if (key == "--min-passes") {
      const long n = std::strtol(val, &end, 10);
      if (errno != 0 || end == val || *end != '\0' || n < 1 || n > 1000) {
        return std::nullopt;
      }
      a.min_passes = int(n);
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace) {
    return std::nullopt;
  }
  return a;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double SecondsSince(std::int64_t t0) {
  return static_cast<double>(vod::obs::MonotonicNanos() - t0) * 1e-9;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string q = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    q += c;
  }
  return q + "\"";
}

std::string NumArray(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + Num(v[i]);
  return s + "]";
}

std::vector<std::string> Failures(const std::vector<PassResult>& passes) {
  std::vector<std::string> failures;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    for (const std::string& f : passes[p].failures()) {
      failures.push_back("pass " + std::to_string(p) + " " + f);
    }
  }
  return failures;
}

/// exp::RunDay must reproduce each single-disk day of the pass bit for bit:
/// the benchmark measures what the figure harnesses run.
void CheckAgainstRunDay(daybench::Workload w, std::uint64_t day_seed,
                        const PassResult& pass,
                        std::vector<std::string>* failures) {
  const std::vector<daybench::DaySpec> days = daybench::DaysOf(w, day_seed);
  for (std::size_t i = 0; i < days.size(); ++i) {
    if (days[i].kind != daybench::DaySpec::Kind::kSingleDisk) continue;
    const std::uint64_t want =
        daybench::DigestOf(vod::exp::RunDay(days[i].day));
    if (pass.days[i].digests.size() != 1 || pass.days[i].digests[0] != want) {
      failures->push_back("pass 0 " + days[i].name +
                          " disk 0: digest differs from exp::RunDay (" +
                          daybench::Hex(want) + ")");
    }
  }
}

void PrintDigests(const PassResult& pass) {
  for (const std::string& line : pass.DigestLines()) {
    std::printf("digest pass 0 %s\n", line.c_str());
  }
}

struct Totals {
  long attempted = 0;
  long failed = 0;
};

/// One operation is one disk simulated for one day and checked.
void Count(const std::vector<PassResult>& passes, Totals* t) {
  for (const PassResult& p : passes) {
    t->attempted += p.Sum(&DayResult::disks);
    t->failed += p.Sum(&DayResult::failed_checks);
  }
}

void PrintReport(const Args& a, const char* mode, int passes,
                 const std::vector<std::string>& failures, const Totals& t,
                 const std::map<std::string, double>& metrics,
                 const std::string& extra) {
  for (const std::string& f : failures) {
    std::fprintf(stderr, "daybench: check failed: %s\n", f.c_str());
  }
  std::string s = "{\"workload\": " +
                  Quote(std::string(daybench::WorkloadName(a.workload))) +
                  ", \"seed\": " + std::to_string(a.seed) + ", \"mode\": \"" +
                  mode + "\", \"passes\": " + std::to_string(passes) +
                  ", \"correct\": " + (failures.empty() ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(t.attempted) +
                  ", \"failed\": " + std::to_string(t.failed) +
                  ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    s += (i ? ", " : "") + Quote(failures[i]);
  }
  s += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    s += (first ? "" : ", ") + Quote(name) + ": " + Num(value);
    first = false;
  }
  s += "}, \"fingerprint\": {" + daybench::BuildFingerprintJson() + "}" +
       extra + "}";
  std::printf("%s\n", s.c_str());
}

constexpr int kSetupRepeats = 3;

int Measure(const Args& a, vod::exp::ThreadPool* pool) {
  const std::int64_t t0 = vod::obs::MonotonicNanos();
  std::vector<std::vector<double>> setup(daybench::kDraws);
  std::vector<double> reference;
  std::vector<PassResult> passes;
  double peak_rss_mib = 0;
  while (int(passes.size()) < a.min_passes || SecondsSince(t0) < a.seconds) {
    const int draw = int(passes.size()) % daybench::kDraws;
    const std::uint64_t day_seed = daybench::DaySeed(a.seed, draw);
    // Sampled before every pass, so the set-up and reference samples span
    // the run as the passes do rather than one stretch of the host's speed.
    const std::vector<daybench::DaySpec> days =
        daybench::DaysOf(a.workload, day_seed);
    for (int r = 0; r < kSetupRepeats; ++r) {
      double s = 0;
      for (const daybench::DaySpec& spec : days) {
        s += daybench::SetupSeconds(spec);
      }
      setup[std::size_t(draw)].push_back(s);
      reference.push_back(daybench::ReferenceSeconds());
    }
    passes.push_back(daybench::RunPass(a.workload, day_seed, pool, nullptr));
    // ru_maxrss only grows: read it once every draw has run, so it covers
    // the same days however many passes follow.
    if (passes.size() == daybench::kDraws) peak_rss_mib = PeakRssMib();
  }
  if (passes.size() < daybench::kDraws) peak_rss_mib = PeakRssMib();

  const std::vector<std::string> failures = Failures(passes);
  PrintDigests(passes.front());

  // Host times: grouped by draw, so each draw weighs the same. Simulated
  // outcomes: the first pass of each draw.
  std::vector<std::vector<double>> run(daybench::kDraws);
  std::vector<double> run_per_pass;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    run_per_pass.push_back(passes[p].Sum(&DayResult::run_s));
    run[p % daybench::kDraws].push_back(run_per_pass.back());
  }
  const double run_s = daybench::MeanOfMedians(run);
  const std::size_t draws =
      std::min(passes.size(), std::size_t{daybench::kDraws});
  long arrivals = 0, admitted = 0, rejected = 0, services = 0,
       starvations = 0;
  vod::RunningStats latency;
  for (std::size_t p = 0; p < draws; ++p) {
    const PassResult& r = passes[p];
    arrivals += r.Sum(&DayResult::arrivals);
    admitted += r.Sum(&DayResult::admitted);
    rejected += r.Sum(&DayResult::rejected);
    services += r.Sum(&DayResult::services);
    starvations += r.Sum(&DayResult::starvations);
    latency.Merge(r.latency());
  }
  std::map<std::string, double> m;
  // The host's speed drifts by more than the bounds over minutes on a
  // shared machine; the reference job slows with it, so times divided by
  // it hold.
  m["reference_s"] = daybench::Median(reference);
  m["setup_wall_s"] = daybench::MeanOfMedians(setup);
  m["setup_s"] = daybench::Ratio(m["setup_wall_s"], m["reference_s"]) *
                 daybench::kReferenceNominalSeconds;
  m["run_s"] = run_s;
  m["run_per_reference"] = daybench::Ratio(run_s, m["reference_s"]);
  m["services_per_s"] =
      daybench::Ratio(double(services) / double(draws), run_s);
  m["peak_rss_mib"] = peak_rss_mib;
  m["admit_ratio"] = daybench::Ratio(double(admitted), double(arrivals));
  m["reject_ratio"] = daybench::Ratio(double(rejected), double(arrivals));
  m["starvations"] = double(starvations);
  m["starvations_per_service"] =
      daybench::Ratio(double(starvations), double(services));
  m["initial_latency_mean_s"] = latency.mean();
  m["initial_latency_max_s"] = latency.max();
  m["arrivals"] = double(arrivals);
  m["admitted"] = double(admitted);
  m["services"] = double(services);
  std::vector<double> setup_flat;
  for (const std::vector<double>& d : setup) {
    setup_flat.insert(setup_flat.end(), d.begin(), d.end());
  }
  const std::string extra = ", \"samples\": {\"setup_s\": " +
                            NumArray(setup_flat) + ", \"reference_s\": " +
                            NumArray(reference) + ", \"run_s\": " +
                            NumArray(run_per_pass) + "}";
  Totals t;
  Count(passes, &t);
  PrintReport(a, "measure", int(passes.size()), failures, t, m, extra);
  return failures.empty() ? 0 : 1;
}

int Trace(const Args& a, vod::exp::ThreadPool* pool) {
  std::vector<PassResult> untraced, traced;
  std::map<std::string, double> prof;  // site -> ns over untraced passes
  daybench::Trace trace;
  std::vector<std::string> failures;
  const std::int64_t t0 = vod::obs::MonotonicNanos();
  // Pairs of passes over the same draw: untraced (read through the
  // profiler), then traced, which must reproduce its digests.
  while (untraced.empty() || SecondsSince(t0) < a.seconds) {
    const int p = int(untraced.size());
    const std::uint64_t day_seed =
        daybench::DaySeed(a.seed, p % daybench::kDraws);
    vod::obs::Profiler::Global().Reset();
    untraced.push_back(daybench::RunPass(a.workload, day_seed, pool, nullptr));
    for (const vod::obs::ProfSiteStats& s :
         vod::obs::Profiler::Global().Snapshot()) {
      prof[s.name] += vod::ToSeconds(s.total) * 1e9;
    }
    traced.push_back(daybench::RunPass(a.workload, day_seed, pool, &trace));
    if (traced.back().DigestLines() != untraced.back().DigestLines()) {
      failures.push_back("pass " + std::to_string(p) +
                         ": traced digests differ from untraced digests");
    }
  }
  for (const std::string& f : Failures(untraced)) failures.push_back(f);
  for (const std::string& f : Failures(traced)) failures.push_back(f);
  CheckAgainstRunDay(a.workload, daybench::DaySeed(a.seed, 0),
                     untraced.front(), &failures);
  PrintDigests(traced.front());

  std::vector<double> run_untraced, run_traced, overhead;
  for (std::size_t p = 0; p < traced.size(); ++p) {
    run_untraced.push_back(untraced[p].Sum(&DayResult::run_s));
    run_traced.push_back(traced[p].Sum(&DayResult::run_s));
    overhead.push_back(
        daybench::Ratio(run_traced.back(), run_untraced.back()));
  }
  const std::map<std::string, double> m = daybench::LayerMetrics(
      trace, int(traced.size()), prof, daybench::Median(overhead));
  if (!a.spans.empty() && !trace.spans.WriteTsv(a.spans)) {
    failures.push_back("cannot write spans to " + a.spans);
  }
  const std::string extra = ", \"samples\": {\"run_s_untraced\": " +
                            NumArray(run_untraced) + ", \"run_s_traced\": " +
                            NumArray(run_traced) + "}";
  Totals t;
  Count(untraced, &t);
  Count(traced, &t);
  PrintReport(a, "trace", int(traced.size()), failures, t, m, extra);
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = Parse(argc, argv);
  if (!args) return Usage("bad or missing arguments");
  std::unique_ptr<vod::exp::ThreadPool> pool;
  if (args->workload == daybench::Workload::kWideShardedChurn) {
    pool = std::make_unique<vod::exp::ThreadPool>(daybench::kShardedWorkers);
  }
  return args->trace ? Trace(*args, pool.get()) : Measure(*args, pool.get());
}
