// Fig. 11 — average initial latency vs the number of requests in service,
// measured by simulation, static vs dynamic, per scheduling method.
//
// Runs on the parallel experiment runner (src/exp): the method × scheme ×
// seed grid (2 × 3 × K day-long simulations) fans out across --threads
// workers. Results come back in grid order, and the per-bucket aggregation
// below consumes them in that order, so the CSV is byte-identical at any
// thread count — and identical to the legacy serial harness.
//
// Latencies are bucketed by the in-service count at each request's
// admission and averaged across seeds (paper: 5 seeds). Buckets are coarsed
// to groups of 8 so every row has samples.
//
// Paper reference (Fig. 11 / Table 4): dynamic is below static at every n;
// the per-n reduction ratio averages ~1/11 (RR), ~1/20 (Sweep*),
// ~1/28 (GSS*).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/stats.h"
#include "common/units.h"
#include "exp/grid.h"
#include "exp/runner.h"

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
  const BenchOptions opt = BenchOptions::Parse(argc, argv, kFlagsAll);
  const int seeds = opt.seeds > 0 ? opt.seeds : (opt.full ? 5 : 2);
  constexpr int kBucket = 8;

  DayRunConfig base;
  base.duration = opt.full ? Hours(24) : Hours(8);
  base.total_arrivals = opt.full ? 1200 : 400;
  base.theta = 0.5;
  opt.ApplyFaultsTo(&base);

  std::vector<std::uint64_t> seed_list;
  for (int s = 1; s <= seeds; ++s) {
    seed_list.push_back(static_cast<std::uint64_t>(s));
  }

  const std::vector<core::ScheduleMethod> methods = {
      core::ScheduleMethod::kRoundRobin, core::ScheduleMethod::kSweep,
      core::ScheduleMethod::kGss};
  exp::Grid grid;
  grid.WithBase(base)
      .OverMethods(methods)
      .OverSchemes({sim::AllocScheme::kStatic, sim::AllocScheme::kDynamic})
      .UsePaperTLog()
      .WithSeeds(seed_list);

  const ObsSession obs_session(opt, grid.size());
  const exp::Runner runner({.threads = opt.threads, .progress = opt.progress});
  const std::vector<exp::RunResult> results =
      runner.Run(grid, obs_session.MakeRunFn());

  exp::Table table({"method", "n_bucket", "static_s", "dynamic_s", "samples"});
  // Per method, the grid's slice is scheme-major / seed-minor — the same
  // order the legacy serial loops accumulated buckets in.
  const std::size_t per_method = 2 * static_cast<std::size_t>(seeds);
  for (std::size_t mi = 0; mi < methods.size(); ++mi) {
    // il[scheme][bucket]
    std::vector<RunningStats> il[2];
    il[0].resize(80 / kBucket + 1);
    il[1].resize(80 / kBucket + 1);
    for (std::size_t j = 0; j < per_method; ++j) {
      const exp::RunResult& r = results[mi * per_method + j];
      const int scheme = r.spec.scheme_index;
      const sim::SimMetrics& m = r.metrics;
      for (std::size_t n = 1; n < m.initial_latency_by_n.size(); ++n) {
        const RunningStats& s = m.initial_latency_by_n[n];
        if (s.count() > 0) {
          for (std::size_t c = 0; c < s.count(); ++c) {
            il[scheme][n / kBucket].Add(s.mean());
          }
        }
      }
    }
    for (std::size_t b = 0; b < il[0].size(); ++b) {
      if (il[0][b].count() == 0 || il[1][b].count() == 0) continue;
      table.AddRow({std::string(core::ScheduleMethodName(methods[mi])),
                    std::to_string(b * kBucket) + "-" +
                        std::to_string(b * kBucket + kBucket - 1),
                    Fmt("%.4f", il[0][b].mean()), Fmt("%.4f", il[1][b].mean()),
                    std::to_string(il[0][b].count() + il[1][b].count())});
    }
  }
  if (!opt.json) {
    std::printf("# Fig. 11: average initial latency (s) vs n (simulation, %d "
                "seeds)\n", seeds);
  }
  table.Write(stdout, opt.json);
  return obs_session.Finish(results).ok() ? 0 : 1;
}
