// Fig. 6 — "The number of concurrent user requests that the system must
// service when the arrival rate λ follows the Zipf distribution with θ."
//
// Prints, for θ ∈ {0.0, 0.5, 1.0}, the offered concurrency (capped at
// N = 79, the admission limit) sampled every 30 minutes over the day, plus
// the rejection counts. The shape to compare with the paper: θ <= 0.5 piles
// load between hours 7 and 13 and saturates N; θ = 1.0 is flat.

#include <cstdio>

#include "bench/bench_common.h"
#include "common/units.h"
#include "sim/workload.h"

using namespace vod;          // NOLINT(build/namespaces)
using namespace vod::bench;   // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  const BenchOptions opt = BenchOptions::Parse(argc, argv, kFlagFull);
  const int cap = 79;
  std::printf("# Fig. 6: offered concurrency over the day (cap N=%d)\n", cap);
  PrintCsvHeader("theta,hour,concurrent_requests");

  for (double theta : {0.0, 0.5, 1.0}) {
    sim::WorkloadConfig w;
    w.duration = Hours(24);
    w.theta = theta;
    w.peak_time = Hours(9);
    w.total_expected_arrivals = opt.full ? 1500 : 1200;
    w.seed = 42;
    auto arrivals = sim::GenerateWorkload(w);
    if (!arrivals.ok()) {
      std::fprintf(stderr, "workload: %s\n",
                   arrivals.status().ToString().c_str());
      return 1;
    }
    sim::OfferedLoad load = sim::ComputeOfferedLoad(*arrivals, cap);

    // Sample the step series every 30 minutes.
    std::size_t idx = 0;
    int current = 0;
    for (Seconds t = Seconds(0); t <= Hours(24); t += Minutes(30)) {
      while (idx < load.concurrency.size() &&
             load.concurrency[idx].first <= t) {
        current = load.concurrency[idx].second;
        ++idx;
      }
      std::printf("%.1f,%.1f,%d\n", theta, ToHours(t), current);
    }
    std::printf("# theta=%.1f: arrivals=%zu rejected=%d peak=%d\n", theta,
                arrivals->size(), load.rejected, load.peak);
  }
  return 0;
}
