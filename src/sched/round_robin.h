#ifndef VODB_SCHED_ROUND_ROBIN_H_
#define VODB_SCHED_ROUND_ROBIN_H_

#include <deque>

#include "sched/scheduler.h"

namespace vod::sched {

/// Round-Robin scheduling with BubbleUp [1]: buffers are serviced cyclically
/// in allocation order, but a newly admitted request is serviced immediately
/// after the service in progress completes ("bubbles up" past the ring).
/// This is what gives Eq. (2)'s two-slot worst initial latency.
class RoundRobinScheduler final : public BufferScheduler {
 public:
  void Add(RequestId id, Seconds now) override;
  void Remove(RequestId id) override;
  bool AdmitsMidPeriod() const override { return true; }
  const std::vector<RequestId>& ServiceSequence(const SchedulerContext& ctx,
                                                Seconds now) override;
  void OnServiceComplete(RequestId id, Seconds now) override;

 private:
  std::deque<RequestId> fresh_;  ///< Admitted, never serviced; FIFO.
  /// Ring order; front is next to service. A deque, so rotating the
  /// serviced front to the back allocates nothing per service.
  std::deque<RequestId> ring_;
};

}  // namespace vod::sched

#endif  // VODB_SCHED_ROUND_ROBIN_H_
