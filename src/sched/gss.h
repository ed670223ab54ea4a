#ifndef VODB_SCHED_GSS_H_
#define VODB_SCHED_GSS_H_

#include <deque>
#include <vector>

#include "sched/scheduler.h"

namespace vod::sched {

/// Extended GSS* scheduling [6], [8]: requests are partitioned into groups
/// of at most g buffers; groups are serviced cyclically with BubbleUp (a
/// new request's group is serviced right after the current group — Eq. (4)'s
/// 2g-slot worst initial latency), and buffers inside a group are serviced
/// in disk-position order, as late as safely possible (Sweep*).
///
/// With g = 1 this degenerates to Round-Robin; with g >= n to Sweep*.
///
/// Each group keeps its ids in cylinder order between sorts and is re-sorted
/// only when that order may have changed: a member joined, a member was
/// serviced out of turn, or the group's own turn finished. That relies on
/// SchedulerContext's contract that a cylinder moves only when its request
/// completes a service.
class GssScheduler final : public BufferScheduler {
 public:
  /// `group_size` is g; the paper uses g = 8 (the memory-minimizing size
  /// for the Barracuda 9LP configuration).
  explicit GssScheduler(int group_size);

  void Add(RequestId id, Seconds now) override;
  void Remove(RequestId id) override;
  bool AdmitsMidPeriod() const override { return true; }
  const std::vector<RequestId>& ServiceSequence(const SchedulerContext& ctx,
                                                Seconds now) override;
  void OnServiceComplete(RequestId id, Seconds now) override;

  int group_size() const { return group_size_; }
  int group_count() const { return static_cast<int>(groups_.size()); }

 private:
  struct Group {
    std::vector<RequestId> ids;
    /// Whether `ids` is in (cylinder, id) order, the sweep order.
    bool sorted = false;
  };

  /// Sorts `group` by (cylinder, id) unless it is already sorted.
  static void EnsureSorted(const SchedulerContext& ctx, Group* group);

  /// Moves the front group to the back of the cycle after its turn; its
  /// members were serviced, so their cylinders moved.
  void RotateFinishedGroup();

  int group_size_;
  /// Groups in cyclic service order; front() is the group being serviced.
  std::deque<Group> groups_;
  /// Members of the front group not yet serviced this turn, sweep-ordered.
  std::vector<RequestId> current_roster_;
  bool roster_active_ = false;
};

}  // namespace vod::sched

#endif  // VODB_SCHED_GSS_H_
