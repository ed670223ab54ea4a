#include "sched/gss.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/profile.h"

namespace vod::sched {

GssScheduler::GssScheduler(int group_size) : group_size_(group_size) {
  VOD_CHECK(group_size >= 1);
}

void GssScheduler::EnsureSorted(const SchedulerContext& ctx, Group* group) {
  if (group->sorted) return;
  std::sort(group->ids.begin(), group->ids.end(),
            [&ctx](RequestId a, RequestId b) {
              const double ca = ctx.CurrentCylinder(a);
              const double cb = ctx.CurrentCylinder(b);
              if (ca != cb) return ca < cb;
              return a < b;
            });
  group->sorted = true;
}

void GssScheduler::RotateFinishedGroup() {
  groups_.front().sorted = false;
  groups_.push_back(std::move(groups_.front()));
  groups_.pop_front();
}

void GssScheduler::Add(RequestId id, Seconds /*now*/) {
  // BubbleUp at group granularity: join the first *upcoming* group with
  // space so the newcomer is serviced right after the group currently in
  // service. While the front group's turn is active (roster_active_), it is
  // "in service" and skipped; otherwise the front group is itself upcoming.
  const std::size_t first_upcoming = roster_active_ && !groups_.empty() ? 1 : 0;
  for (std::size_t i = first_upcoming; i < groups_.size(); ++i) {
    if (static_cast<int>(groups_[i].ids.size()) < group_size_) {
      groups_[i].ids.push_back(id);
      groups_[i].sorted = false;
      return;
    }
  }
  // No upcoming group has space: open a new group positioned right after
  // the front group (the one in service, or next to be served), so the
  // newcomer is reached after at most one group turn — Eq. (4)'s 2g slots.
  const std::size_t pos = groups_.empty() ? 0 : 1;
  Group fresh;
  fresh.ids.push_back(id);
  groups_.insert(groups_.begin() + static_cast<std::ptrdiff_t>(pos),
                 std::move(fresh));
}

void GssScheduler::Remove(RequestId id) {
  bool removed_front_group = false;
  for (auto git = groups_.begin(); git != groups_.end(); ++git) {
    auto it = std::find(git->ids.begin(), git->ids.end(), id);
    if (it == git->ids.end()) continue;
    git->ids.erase(it);  // Keeps the remaining members' order.
    if (git->ids.empty()) {
      removed_front_group = git == groups_.begin();
      groups_.erase(git);
    }
    break;
  }
  auto rit = std::find(current_roster_.begin(), current_roster_.end(), id);
  if (rit != current_roster_.end()) current_roster_.erase(rit);

  if (roster_active_ && current_roster_.empty()) {
    // The in-service group's turn ended with this departure. If the group
    // still exists (wasn't erased as empty), rotate it to the back.
    if (!removed_front_group && !groups_.empty()) RotateFinishedGroup();
    roster_active_ = false;
  }
}

const std::vector<RequestId>& GssScheduler::ServiceSequence(
    const SchedulerContext& ctx, Seconds /*now*/) {
  VODB_PROF_SCOPE("sched.gss.sequence");
  if (!roster_active_ && !groups_.empty()) {
    // Open the front group's turn. Groups are erased when they empty, so
    // every group has members to serve.
    EnsureSorted(ctx, &groups_.front());
    current_roster_ = groups_.front().ids;
    roster_active_ = true;
  }
  seq_.clear();
  seq_.reserve(current_roster_.size());
  seq_.insert(seq_.end(), current_roster_.begin(), current_roster_.end());
  // Flatten the remaining groups in cyclic order for deadline lookahead.
  // Each keeps its sweep order between decisions, so only a group whose
  // order went stale since the last call is sorted again.
  for (std::size_t i = 1; i < groups_.size(); ++i) {
    EnsureSorted(ctx, &groups_[i]);
    seq_.insert(seq_.end(), groups_[i].ids.begin(), groups_[i].ids.end());
  }
  return seq_;
}

void GssScheduler::OnServiceComplete(RequestId id, Seconds /*now*/) {
  auto it = std::find(current_roster_.begin(), current_roster_.end(), id);
  if (it == current_roster_.end()) {
    // Serviced out of turn (the no-displacement rule reached past the
    // in-service group under overload). Its own group's turn still stands
    // and nothing rotates, but its cylinder moved, so its group's sweep
    // order must be rebuilt.
    for (Group& group : groups_) {
      if (std::find(group.ids.begin(), group.ids.end(), id) !=
          group.ids.end()) {
        group.sorted = false;
        break;
      }
    }
    return;
  }
  current_roster_.erase(it);
  if (current_roster_.empty()) {
    // Group turn complete: rotate it to the back of the cycle.
    VOD_CHECK(!groups_.empty());
    RotateFinishedGroup();
    roster_active_ = false;
  }
}

}  // namespace vod::sched
