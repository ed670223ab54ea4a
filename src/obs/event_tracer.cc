#include "obs/event_tracer.h"

namespace vod::obs {

namespace {

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

EventTracer::EventTracer(std::size_t capacity)
    : ring_(RoundUpPow2(capacity < 2 ? 2 : capacity)),
      mask_(ring_.size() - 1) {}

std::vector<TraceEvent> EventTracer::Snapshot() const {
  std::vector<TraceEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t first = head_ - n;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(first + i) & mask_]);
  }
  return out;
}

}  // namespace vod::obs
