#ifndef VODB_SIM_EVENT_QUEUE_H_
#define VODB_SIM_EVENT_QUEUE_H_

// The simulator's event spine: a binary heap that pops in ascending
// (time, seq) order — seq is the simulator's FIFO tiebreak for events at
// equal timestamps. That total order is what makes every downstream metric
// reproducible bit for bit.
//
// A per-disk queue holds that disk's undispatched arrivals plus a few
// events per admitted stream: too shallow for a calendar queue's O(1)
// bound to beat the heap's O(log n) (DESIGN.md §9 has the measurements).

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "common/types.h"
#include "common/units.h"

namespace vod::sim {

/// What a scheduled simulator event does when it fires.
enum class SimEventKind : std::uint8_t {
  kArrival,
  kServiceComplete,
  kDeparture,
  kWakeup,
};

/// One scheduled event. `seq` is assigned by the producer in push order and
/// breaks ties between events at the same timestamp (FIFO).
struct SimEvent {
  Seconds time;
  std::uint64_t seq = 0;
  SimEventKind kind = SimEventKind::kArrival;
  RequestId request = kInvalidRequestId;
  std::size_t arrival_index = 0;
};

/// Strict total order the queue pops in: ascending (time, seq).
inline bool EventBefore(const SimEvent& a, const SimEvent& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

/// EventBefore reversed, so std::priority_queue's max-heap pops the
/// earliest event first.
struct EventAfter {
  bool operator()(const SimEvent& a, const SimEvent& b) const {
    return EventBefore(b, a);
  }
};

using EventQueue =
    std::priority_queue<SimEvent, std::vector<SimEvent>, EventAfter>;

}  // namespace vod::sim

#endif  // VODB_SIM_EVENT_QUEUE_H_
