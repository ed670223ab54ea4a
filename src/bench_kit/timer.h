#ifndef VODB_BENCH_KIT_TIMER_H_
#define VODB_BENCH_KIT_TIMER_H_

#include <cstdint>
#include <functional>

namespace vod::bench_kit {

/// Wall-clock source for the harness: monotonic nanoseconds since an
/// arbitrary epoch. Injectable so the harness itself is testable against a
/// deterministic fake clock (tests script the values each call returns).
/// The default routes through obs::MonotonicNanos() — the repo's single
/// sanctioned host-clock site (see the raw-timing lint rule).
using TimeFn = std::function<std::int64_t()>;

/// The production clock: obs::MonotonicNanos.
std::int64_t WallNanos();

/// Cycle counter read (the TSC through obs::ProfTicks() on x86-64,
/// cntvct_el0 on aarch64). Returns 0 on architectures without an accessible
/// counter — callers must treat a zero delta as "cycles unavailable". Not
/// serializing: suitable for timing loops of thousands of iterations, not
/// single instructions.
std::uint64_t CycleNow();

/// True when CycleNow() reads a real counter on this build.
bool CyclesAvailable();

}  // namespace vod::bench_kit

#endif  // VODB_BENCH_KIT_TIMER_H_
