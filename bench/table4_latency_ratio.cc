// Table 4 — the average reduction ratio of the average initial latency for
// the dynamic scheme over the static one, per scheduling method and Zipf
// parameter θ. The ratio is averaged over the per-n latency ratios
// (static/dynamic) across in-service counts, exactly as the paper averages
// Fig. 11 over n.
//
// Paper reference: ~1/11 (Round-Robin), ~1/19.5–19.7 (Sweep*),
// ~1/28–29.4 (GSS*). Shapes (ordering and magnitudes across methods) are
// the reproduction target; absolute values depend on workload calibration.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/stats.h"
#include "common/units.h"

using namespace vod;         // NOLINT(build/namespaces)
using namespace vod::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  const BenchOptions opt =
      BenchOptions::Parse(argc, argv, kFlagFull | kFlagSeeds);
  const int seeds = opt.seeds > 0 ? opt.seeds : (opt.full ? 5 : 2);
  const Seconds duration = opt.full ? Hours(24) : Hours(8);
  const double arrivals = opt.full ? 1200 : 400;

  std::printf("# Table 4: average reduction ratio of initial latency "
              "(static/dynamic, averaged over n)\n");
  PrintCsvHeader("theta,method,avg_reduction_ratio");
  for (double theta : {0.0, 0.5, 1.0}) {
    for (core::ScheduleMethod method :
         {core::ScheduleMethod::kRoundRobin, core::ScheduleMethod::kSweep,
          core::ScheduleMethod::kGss}) {
      // Per-n mean latency for each scheme, pooled across seeds.
      std::vector<RunningStats> il[2];
      il[0].resize(80);
      il[1].resize(80);
      for (int scheme = 0; scheme < 2; ++scheme) {
        for (int seed = 1; seed <= seeds; ++seed) {
          DayRunConfig cfg;
          cfg.method = method;
          cfg.scheme = scheme == 0 ? sim::AllocScheme::kStatic
                                   : sim::AllocScheme::kDynamic;
          cfg.t_log = PaperTLog(method);
          cfg.duration = duration;
          cfg.total_arrivals = arrivals;
          cfg.theta = theta;
          cfg.seed = static_cast<std::uint64_t>(seed);
          const sim::SimMetrics m = RunDay(cfg);
          for (std::size_t n = 1;
               n < m.initial_latency_by_n.size() && n < 80; ++n) {
            if (m.initial_latency_by_n[n].count() > 0) {
              il[scheme][n].Add(m.initial_latency_by_n[n].mean());
            }
          }
        }
      }
      RunningStats ratio;
      for (std::size_t n = 1; n < 80; ++n) {
        if (il[0][n].count() > 0 && il[1][n].count() > 0 &&
            il[1][n].mean() > 0) {
          ratio.Add(il[0][n].mean() / il[1][n].mean());
        }
      }
      std::printf("%.1f,%s,%.2f\n", theta,
                  core::ScheduleMethodName(method).data(), ratio.mean());
      std::fflush(stdout);
    }
  }
  return ExitStatus();
}
