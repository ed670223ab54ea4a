// Table 5 — the average improvement ratio of the number of concurrent user
// requests for the dynamic scheme over the static one, per disk-load Zipf
// θ, averaged over memory sizes.
//
// Paper reference: 2.36 (θ=0.0), 2.78 (θ=0.5), 3.25 (θ=1.0). This harness
// derives the ratios from the *analysis* capacity curve (fast, exact); run
// bench/fig14_capacity_sim for the simulated counterpart.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/units.h"
#include "vod/analysis.h"

using namespace vod;         // NOLINT(build/namespaces)
using namespace vod::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  BenchOptions::Parse(argc, argv, /*accepted=*/0);  // Reads no flag.
  std::vector<Bits> memories;
  for (double gb = 1.0; gb <= 11.0; gb += 1.0) {
    memories.push_back(Gibibytes(gb));
  }

  std::printf("# Table 5: average improvement ratio of concurrent requests "
              "(dynamic/static, averaged over 1-11 GB)\n");
  PrintCsvHeader("theta,avg_improvement_ratio");
  for (double theta : {0.0, 0.5, 1.0}) {
    AnalysisConfig cfg;
    cfg.method = core::ScheduleMethod::kRoundRobin;
    cfg.k = PaperK(cfg.method);
    auto curve = CapacityVsMemoryCurve(cfg, 10, theta, memories);
    if (!curve.ok()) {
      std::fprintf(stderr, "%s\n", curve.status().ToString().c_str());
      return 1;
    }
    double ratio_sum = 0;
    int count = 0;
    for (const auto& pt : *curve) {
      if (pt.stat > 0) {
        ratio_sum += static_cast<double>(pt.dynamic) / pt.stat;
        ++count;
      }
    }
    std::printf("%.1f,%.2f\n", theta, count ? ratio_sum / count : 0.0);
  }
  return ExitStatus();
}
