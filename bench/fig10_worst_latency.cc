// Fig. 10 — worst initial latency vs n (analysis), static vs dynamic, per
// scheduling method: Eqs. (2)–(4) applied to each scheme's buffer size.
//
// Paper reference: static RR flat at ~1.76 s; dynamic curves rise from
// milliseconds toward the static line at n = N.

#include <cstdio>

#include "bench/bench_common.h"
#include "common/units.h"
#include "vod/analysis.h"

using namespace vod;         // NOLINT(build/namespaces)
using namespace vod::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  BenchOptions::Parse(argc, argv, /*accepted=*/0);  // Reads no flag.
  std::printf("# Fig. 10: worst initial latency (s) vs n, per method\n");
  PrintCsvHeader("method,n,static_s,dynamic_s");
  for (core::ScheduleMethod method :
       {core::ScheduleMethod::kRoundRobin, core::ScheduleMethod::kSweep,
        core::ScheduleMethod::kGss}) {
    AnalysisConfig cfg;
    cfg.method = method;
    cfg.k = PaperK(method);
    auto curve = WorstLatencyCurve(cfg);
    if (!curve.ok()) {
      std::fprintf(stderr, "%s\n", curve.status().ToString().c_str());
      return 1;
    }
    for (const auto& pt : *curve) {
      std::printf("%s,%d,%.4f,%.4f\n",
                  core::ScheduleMethodName(method).data(), pt.n, pt.stat,
                  pt.dynamic);
    }
  }
  return 0;
}
