// Fig. 9 — buffer size vs the number of requests in service, static vs
// dynamic allocation, for each scheduling method (three panels). Also
// prints Table 3 (the disk specification) with --spec.
//
// Paper reference: static lines are flat (BS(N)); dynamic curves start near
// zero and join them at n = N = 79. The per-method DL instantiation is
// Table 2.

#include <cstdio>
#include <cstring>

#include "bench/bench_common.h"
#include "common/units.h"
#include "disk/disk_profile.h"
#include "vod/analysis.h"

using namespace vod;         // NOLINT(build/namespaces)
using namespace vod::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  // --spec is the one flag; the shared BenchOptions flags mean nothing here.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--spec") != 0) {
      std::fprintf(stderr, "%s: unknown option \"%s\"\nusage: [--spec]\n",
                   argv[0], argv[i]);
      return 2;
    }
  }
  if (argc > 1) {
    const disk::DiskProfile p = disk::SeagateBarracuda9LP();
    std::printf("# Table 3: %s\n", p.name.c_str());
    std::printf("capacity_gb,%.2f\n", ToGibibytes(p.capacity));
    std::printf("transfer_rate_mbps,%.0f\n", ToMbps(p.transfer_rate));
    std::printf("rpm,%.0f\n", p.rpm);
    std::printf("max_rotational_latency_ms,%.2f\n",
                ToMilliseconds(p.max_rotational_latency));
    std::printf("max_seek_ms,%.2f\n", ToMilliseconds(p.MaxSeekTime()));
    std::printf("cylinders,%ld\n", p.cylinders);
    std::printf("N,%d\n",
                core::MaxConcurrentRequests(p.transfer_rate, Mbps(1.5)));
    return 0;
  }

  std::printf("# Fig. 9: buffer size (Mbit) vs n, per method\n");
  PrintCsvHeader("method,n,static_mbit,dynamic_mbit");
  for (core::ScheduleMethod method :
       {core::ScheduleMethod::kRoundRobin, core::ScheduleMethod::kSweep,
        core::ScheduleMethod::kGss}) {
    AnalysisConfig cfg;
    cfg.method = method;
    cfg.k = PaperK(method);
    auto curve = BufferSizeCurve(cfg);
    if (!curve.ok()) {
      std::fprintf(stderr, "%s\n", curve.status().ToString().c_str());
      return 1;
    }
    for (const auto& pt : *curve) {
      std::printf("%s,%d,%.4f,%.4f\n",
                  core::ScheduleMethodName(method).data(), pt.n,
                  ToMegabits(Bits(pt.stat)), ToMegabits(Bits(pt.dynamic)));
    }
  }
  return 0;
}
