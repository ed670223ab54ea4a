#include "obs/clock.h"

#include <chrono>

namespace vod::obs {

std::int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace vod::obs
