// Fig. 12 — minimum memory requirement vs n (analysis), static vs dynamic,
// per scheduling method: Theorems 2–4 against the static instantiation.
//
// Analysis-only (no simulation), but the three per-method curves are
// independent, so they evaluate concurrently on the exp::ThreadPool and
// print in method order — output is byte-identical to the serial harness.
//
// Paper reference: dynamic requirements are far below static at small n and
// converge at n = N; Sweep* needs roughly twice the memory of GSS*.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/units.h"
#include "exp/runner.h"
#include "exp/thread_pool.h"
#include "vod/analysis.h"

using namespace vod;         // NOLINT(build/namespaces)
using namespace vod::bench;  // NOLINT(build/namespaces)

namespace {

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = BenchOptions::Parse(
      argc, argv, kFlagThreads | kFlagJson | kFlagMetrics);
  const std::vector<core::ScheduleMethod> methods = {
      core::ScheduleMethod::kRoundRobin, core::ScheduleMethod::kSweep,
      core::ScheduleMethod::kGss};

  std::vector<std::optional<Result<std::vector<SchemeComparisonPoint>>>>
      curves(methods.size());
  {
    exp::ThreadPool pool(opt.threads);
    pool.ParallelFor(methods.size(), [&](std::size_t i) {
      AnalysisConfig cfg;
      cfg.method = methods[i];
      cfg.k = PaperK(methods[i]);
      curves[i] = MemoryRequirementCurve(cfg);
    });
  }

  exp::Table table({"method", "n", "static_mb", "dynamic_mb"});
  for (std::size_t i = 0; i < methods.size(); ++i) {
    if (!curves[i]->ok()) {
      std::fprintf(stderr, "%s\n", curves[i]->status().ToString().c_str());
      return 1;
    }
    for (const auto& pt : **curves[i]) {
      table.AddRow({std::string(core::ScheduleMethodName(methods[i])),
                    std::to_string(pt.n), Fmt("%.3f", ToMebibytes(Bits(pt.stat))),
                    Fmt("%.3f", ToMebibytes(Bits(pt.dynamic)))});
    }
  }
  if (!opt.json) {
    std::printf(
        "# Fig. 12: minimum memory requirement (MB) vs n, per method\n");
  }
  const bool written = table.Write(stdout, opt.json).ok();
  if (!opt.metrics.empty()) {
    const Status st = WriteMetricsArtifacts(opt.metrics, {});
    if (!st.ok()) {
      std::fprintf(stderr, "artifact write failed: %s\n",
                   st.ToString().c_str());
      return ExitStatus(false);
    }
  }
  return ExitStatus(written);
}
