#include "bench_kit/timer.h"

#include "obs/clock.h"

namespace vod::bench_kit {

std::int64_t WallNanos() { return obs::MonotonicNanos(); }

std::uint64_t CycleNow() {
#if defined(__x86_64__)
  return static_cast<std::uint64_t>(obs::ProfTicks());  // The TSC.
#elif defined(__aarch64__)
  std::uint64_t v = 0;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return 0;
#endif
}

bool CyclesAvailable() {
#if defined(__x86_64__) || defined(__aarch64__)
  return true;
#else
  return false;
#endif
}

}  // namespace vod::bench_kit
