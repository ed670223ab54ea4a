// Fig. 14 — the number of concurrent user requests served by a 10-disk
// server vs the amount of memory (simulation): the offered load far exceeds
// capacity, the shared AnalyticMemoryBroker gates admission, and the metric
// is the peak system-wide concurrency reached.
//
// Paper reference: the simulated curves track the Fig. 13 analysis; the
// dynamic scheme serves ~2.4–3.3× the static one's viewers averaged over
// memory sizes (Table 5).

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/check.h"
#include "common/units.h"
#include "sim/multi_disk.h"

using namespace vod;         // NOLINT(build/namespaces)
using namespace vod::bench;  // NOLINT(build/namespaces)

int RunCapacitySim(sim::AllocScheme scheme, double disk_theta, Bits memory,
                   Seconds duration, double arrivals) {
  sim::SimConfig base;
  base.method = core::ScheduleMethod::kRoundRobin;
  base.scheme = scheme;
  base.t_log = PaperTLog(base.method);
  base.seed = 3;
  auto md = sim::MultiDiskSimulator::Create(base, /*disk_count=*/10, memory);
  VOD_CHECK(md.ok());

  sim::WorkloadConfig w;
  w.duration = duration;
  w.theta = 0.0;  // Strongly peaked day: probes the capacity ceiling.
  w.peak_time = duration / 2;
  w.total_expected_arrivals = arrivals;
  w.disk_count = 10;
  w.disk_theta = disk_theta;
  w.seed = 11;
  auto arr = sim::GenerateWorkload(w);
  VOD_CHECK(arr.ok());
  VOD_CHECK((*md)->AddArrivals(*arr).ok());
  (*md)->RunToCompletion();
  return (*md)->PeakConcurrency();
}

int main(int argc, char** argv) {
  const BenchOptions opt = BenchOptions::Parse(argc, argv, kFlagFull);
  std::vector<double> memories_gb;
  if (opt.full) {
    for (double gb = 1.0; gb <= 11.0; gb += 1.0) memories_gb.push_back(gb);
  } else {
    memories_gb = {1.0, 3.0, 6.0, 11.0};
  }
  const Seconds duration = opt.full ? Hours(8) : Hours(3);
  const double arrivals = opt.full ? 4000 : 1800;

  std::printf("# Fig. 14: peak concurrent requests vs memory (simulation, "
              "10 disks, Round-Robin)\n");
  PrintCsvHeader("theta,memory_gb,static_requests,dynamic_requests");
  for (double theta : {0.0, 0.5, 1.0}) {
    for (double gb : memories_gb) {
      const int stat = RunCapacitySim(sim::AllocScheme::kStatic, theta,
                                      Gibibytes(gb), duration, arrivals);
      const int dyn = RunCapacitySim(sim::AllocScheme::kDynamic, theta,
                                     Gibibytes(gb), duration, arrivals);
      std::printf("%.1f,%.0f,%d,%d\n", theta, gb, stat, dyn);
      std::fflush(stdout);
    }
  }
  return ExitStatus();
}
