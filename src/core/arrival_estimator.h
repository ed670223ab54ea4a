#ifndef VODB_CORE_ARRIVAL_ESTIMATOR_H_
#define VODB_CORE_ARRIVAL_ESTIMATOR_H_

#include <cstdint>
#include <deque>
#include <optional>

#include "common/status.h"
#include "common/units.h"

namespace vod::core {

/// Tracks recent request arrivals and measures k_log — "the maximum number
/// of additional requests arriving during the time T_log" (Table 1), i.e.
/// the peak count of arrivals inside any window of one service period that
/// lies within the last T_log. The dynamic scheme sets the estimate
/// k_c = min(k_log + α, min_i(k_i + α)) at each allocation (Fig. 5, step 4).
class ArrivalEstimator {
 public:
  /// `t_log` must be positive (the paper uses 40 min for Round-Robin,
  /// 20 min for Sweep*/GSS*).
  explicit ArrivalEstimator(Seconds t_log);

  /// Records an arrival at time `now`. Times must be non-decreasing.
  void RecordArrival(Seconds now);

  /// k_log at time `now`, with windows of length `service_period`.
  /// O(w) in the number of logged arrivals (two-pointer sweep); a repeat
  /// over the same window contents and period returns the memoized answer.
  int KLog(Seconds now, Seconds service_period) const;

  /// Drops arrivals older than now − T_log. Called internally by
  /// RecordArrival/KLog; exposed for tests.
  void Prune(Seconds now);

  Seconds t_log() const { return t_log_; }
  std::size_t logged_count() const { return arrivals_.size(); }

 private:
  /// KLog's last answer and the sweep it came from. The window always
  /// holds arrivals [dropped, recorded) of everything ever recorded, so the
  /// two counts pin its contents; its size alone does not (one arrival can
  /// age out as another arrives).
  struct Sweep {
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
    Seconds service_period;
    int k_log = 0;
  };

  void DropBefore(Seconds horizon) const;

  Seconds t_log_;
  mutable std::deque<Seconds> arrivals_;
  std::uint64_t recorded_ = 0;
  mutable std::uint64_t dropped_ = 0;
  mutable std::optional<Sweep> last_sweep_;
};

}  // namespace vod::core

#endif  // VODB_CORE_ARRIVAL_ESTIMATOR_H_
