#ifndef VODB_OBS_CLOCK_H_
#define VODB_OBS_CLOCK_H_

#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "common/units.h"

namespace vod::obs {

/// Host wall-clock access for the observability layer. This header and its
/// implementation are the ONE place the library reads std::chrono or the
/// cycle counter (enforced by the `raw-timing` vodb-lint rule): simulation
/// code measures *simulated* time and must never touch the host clock, and
/// every host-side measurement (profiling scopes, runner progress/ETA,
/// per-run timing) goes through the helpers below so it can be found,
/// audited, and mocked in one place.

/// Monotonic nanoseconds since an arbitrary fixed epoch.
std::int64_t MonotonicNanos();

/// The profiler's tick source, in arbitrary units that advance at a constant
/// rate: the x86-64 time-stamp counter (about half the cost of a
/// steady_clock read), MonotonicNanos() on other targets. Only differences
/// mean anything; obs::Profiler converts them to nanoseconds.
inline std::int64_t ProfTicks() {
#if defined(__x86_64__)
  return static_cast<std::int64_t>(__rdtsc());
#else
  return MonotonicNanos();
#endif
}

/// Interval timer over the monotonic clock, started at construction.
class Stopwatch {
 public:
  Stopwatch() : start_(MonotonicNanos()) {}

  std::int64_t ElapsedNanos() const { return MonotonicNanos() - start_; }
  Seconds Elapsed() const {
    return Seconds(static_cast<double>(ElapsedNanos()) * 1e-9);
  }

 private:
  std::int64_t start_;
};

}  // namespace vod::obs

#endif  // VODB_OBS_CLOCK_H_
