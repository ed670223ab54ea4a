#include "sched/sweep.h"

#include <algorithm>

#include "common/check.h"
#include "obs/profile.h"

namespace vod::sched {

void SweepScheduler::Add(RequestId id, Seconds /*now*/) {
  members_.insert(id);
}

void SweepScheduler::Remove(RequestId id) {
  members_.erase(id);
  auto it = std::find(roster_.begin(), roster_.end(), id);
  if (it != roster_.end()) roster_.erase(it);
}

const std::vector<RequestId>& SweepScheduler::ServiceSequence(
    const SchedulerContext& ctx, Seconds /*now*/) {
  VODB_PROF_SCOPE("sched.sweep.sequence");
  if (roster_.empty()) {
    // Start a new period: every member, in cylinder order (one-directional
    // scan; the data positions advance monotonically so consecutive periods
    // naturally sweep forward).
    roster_.assign(members_.begin(), members_.end());
    std::sort(roster_.begin(), roster_.end(),
              [&ctx](RequestId a, RequestId b) {
                const double ca = ctx.CurrentCylinder(a);
                const double cb = ctx.CurrentCylinder(b);
                if (ca != cb) return ca < cb;
                return a < b;
              });
    if (!roster_.empty()) ++periods_started_;
  }
  seq_ = roster_;
  return seq_;
}

void SweepScheduler::OnServiceComplete(RequestId id, Seconds /*now*/) {
  auto it = std::find(roster_.begin(), roster_.end(), id);
  VOD_CHECK(it != roster_.end());
  roster_.erase(it);
}

}  // namespace vod::sched
