// Ablation — the α trade-off the paper discusses in Sec. 3.1: larger α
// adapts faster to arrival-rate growth but inflates buffers and memory.
// Prints, per α, the dynamic buffer size and memory requirement at
// representative loads (analysis), quantifying why the paper settles on
// α = 1.

#include <cstdio>

#include "bench/bench_common.h"
#include "common/units.h"
#include "core/closed_form.h"
#include "core/memory_model.h"
#include "disk/disk_profile.h"

using namespace vod;         // NOLINT(build/namespaces)
using namespace vod::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  BenchOptions::Parse(argc, argv, /*accepted=*/0);  // Reads no flag.
  std::printf("# Ablation: alpha vs buffer size / memory requirement "
              "(Round-Robin, k=4)\n");
  PrintCsvHeader("alpha,n,buffer_mbit,memory_mb");
  for (int alpha : {1, 2, 3, 5, 8}) {
    auto pr = core::MakeAllocParams(disk::SeagateBarracuda9LP(), Mbps(1.5),
                                    core::ScheduleMethod::kRoundRobin, 0,
                                    alpha);
    if (!pr.ok()) {
      std::fprintf(stderr, "%s\n", pr.status().ToString().c_str());
      return 1;
    }
    for (int n : {1, 10, 20, 40, 60}) {
      const int k = std::min(4, pr->n_max - n);
      auto bs = core::DynamicBufferSize(*pr, n, k);
      auto mem = core::DynamicMemoryRequirement(
          *pr, core::ScheduleMethod::kRoundRobin, n, k, 8);
      if (!bs.ok() || !mem.ok()) return 1;
      std::printf("%d,%d,%.4f,%.3f\n", alpha, n, ToMegabits(*bs),
                  ToMebibytes(*mem));
    }
  }
  return 0;
}
