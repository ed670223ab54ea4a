#include "sched/round_robin.h"

#include <algorithm>

#include "common/check.h"
#include "obs/profile.h"

namespace vod::sched {

void RoundRobinScheduler::Add(RequestId id, Seconds /*now*/) {
  fresh_.push_back(id);
}

void RoundRobinScheduler::Remove(RequestId id) {
  auto fit = std::find(fresh_.begin(), fresh_.end(), id);
  if (fit != fresh_.end()) {
    fresh_.erase(fit);
    return;
  }
  auto rit = std::find(ring_.begin(), ring_.end(), id);
  if (rit != ring_.end()) ring_.erase(rit);
}

const std::vector<RequestId>& RoundRobinScheduler::ServiceSequence(
    const SchedulerContext& /*ctx*/, Seconds /*now*/) {
  VODB_PROF_SCOPE("sched.round_robin.sequence");
  seq_.assign(fresh_.begin(), fresh_.end());
  seq_.insert(seq_.end(), ring_.begin(), ring_.end());
  return seq_;
}

void RoundRobinScheduler::OnServiceComplete(RequestId id, Seconds /*now*/) {
  // A newcomer may be serviced out of FIFO order when the no-displacement
  // rule skipped past it temporarily, so search the whole fresh queue.
  auto fit = std::find(fresh_.begin(), fresh_.end(), id);
  if (fit != fresh_.end()) {
    fresh_.erase(fit);
    ring_.push_back(id);
    return;
  }
  // Rotate the serviced request to the back of the ring.
  auto it = std::find(ring_.begin(), ring_.end(), id);
  VOD_CHECK(it != ring_.end());
  ring_.erase(it);
  ring_.push_back(id);
}

}  // namespace vod::sched
