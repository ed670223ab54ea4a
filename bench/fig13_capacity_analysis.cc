// Fig. 13 — the number of concurrent user requests a 10-disk server can
// support vs the amount of memory available (analysis), for disk-load
// Zipf θ ∈ {0.0, 0.5, 1.0}, static vs dynamic.
//
// Paper reference: dynamic supports more requests at every memory size and
// both schemes meet at ~11 GB where the disks (10 × N = 790) become the
// binding constraint.

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

  std::printf("# Fig. 13: concurrent requests vs memory (analysis, 10 disks,"
              " Round-Robin)\n");
  PrintCsvHeader("theta,memory_gb,static_requests,dynamic_requests");
  for (double theta : {0.0, 0.5, 1.0}) {
    AnalysisConfig cfg;
    cfg.method = core::ScheduleMethod::kRoundRobin;
    cfg.k = PaperK(cfg.method);
    auto curve = CapacityVsMemoryCurve(cfg, /*disk_count=*/10, theta,
                                       memories);
    if (!curve.ok()) {
      std::fprintf(stderr, "%s\n", curve.status().ToString().c_str());
      return 1;
    }
    for (const auto& pt : *curve) {
      std::printf("%.1f,%.0f,%d,%d\n", theta, ToGibibytes(pt.memory),
                  pt.stat, pt.dynamic);
    }
  }
  return 0;
}
