#include "core/arrival_estimator.h"

#include <algorithm>

#include "common/check.h"

namespace vod::core {

ArrivalEstimator::ArrivalEstimator(Seconds t_log) : t_log_(t_log) {
  VOD_CHECK(t_log > Seconds(0));
}

void ArrivalEstimator::RecordArrival(Seconds now) {
  VOD_DCHECK(arrivals_.empty() || now >= arrivals_.back());
  arrivals_.push_back(now);
  ++recorded_;
  Prune(now);
}

void ArrivalEstimator::Prune(Seconds now) { DropBefore(now - t_log_); }

void ArrivalEstimator::DropBefore(Seconds horizon) const {
  while (!arrivals_.empty() && arrivals_.front() < horizon) {
    arrivals_.pop_front();
    ++dropped_;
  }
}

int ArrivalEstimator::KLog(Seconds now, Seconds service_period) const {
  if (service_period <= Seconds(0)) return 0;
  DropBefore(now - t_log_);
  if (last_sweep_.has_value() && last_sweep_->recorded == recorded_ &&
      last_sweep_->dropped == dropped_ &&
      last_sweep_->service_period == service_period) {
    return last_sweep_->k_log;
  }
  // Max count of arrivals in any half-open window [a_i, a_i + sp): windows
  // anchored at arrivals dominate, so a two-pointer sweep suffices.
  int best = 0;
  std::size_t j = 0;
  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    if (j < i) j = i;
    while (j < arrivals_.size() &&
           arrivals_[j] < arrivals_[i] + service_period) {
      ++j;
    }
    best = std::max(best, static_cast<int>(j - i));
  }
  last_sweep_ = Sweep{recorded_, dropped_, service_period, best};
  return best;
}

}  // namespace vod::core
