#ifndef VODB_SCHED_SWEEP_H_
#define VODB_SCHED_SWEEP_H_

#include <set>

#include "sched/scheduler.h"

namespace vod::sched {

/// Sweep* scheduling [5]: within each service period the buffers are
/// serviced in disk-position order (minimizing total seek time), each as
/// late as safely possible (maximizing memory sharing — the * refinement).
/// Newly arriving requests are not serviced within the current period
/// (AdmitsNow() holds only between periods): in the worst case a request
/// arriving just after a period begins is serviced at the end of the *next*
/// period, which is Eq. (3)'s (2n+1)-slot initial latency.
class SweepScheduler final : public BufferScheduler {
 public:
  void Add(RequestId id, Seconds now) override;
  void Remove(RequestId id) override;
  /// True when the current period has finished.
  bool AdmitsNow() const override { return roster_.empty(); }
  const std::vector<RequestId>& ServiceSequence(const SchedulerContext& ctx,
                                                Seconds now) override;
  void OnServiceComplete(RequestId id, Seconds now) override;

  /// Number of completed service periods (for tests).
  long periods_started() const { return periods_started_; }

 private:
  std::set<RequestId> members_;
  /// Requests of the current period not yet serviced, in sweep order
  /// (front = next).
  std::vector<RequestId> roster_;
  long periods_started_ = 0;
};

}  // namespace vod::sched

#endif  // VODB_SCHED_SWEEP_H_
