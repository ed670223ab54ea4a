#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace vod {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::Reset() { *this = RunningStats(); }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void StepTimeSeries::Record(double t, double value) {
  VOD_DCHECK(points_.empty() || t >= points_.back().first);
  if (points_.empty()) {
    max_value_ = value;
  } else {
    max_value_ = std::max(max_value_, value);
  }
  points_.emplace_back(t, value);
}

double StepTimeSeries::TimeWeightedMean(double end) const {
  if (points_.empty()) return 0.0;
  double area = 0.0;
  for (std::size_t i = 0; i + 1 < points_.size(); ++i) {
    area += points_[i].second * (points_[i + 1].first - points_[i].first);
  }
  area += points_.back().second * (end - points_.back().first);
  const double span = end - points_.front().first;
  return span > 0.0 ? area / span : points_.front().second;
}

double StepTimeSeries::ValueAt(double t) const {
  if (points_.empty() || t < points_.front().first) return 0.0;
  // Binary search for the last point with time <= t.
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](double lhs, const std::pair<double, double>& p) {
        return lhs < p.first;
      });
  return std::prev(it)->second;
}

double StepTimeSeries::MaxInWindow(double t0, double t1) const {
  if (points_.empty()) return 0.0;
  double best = ValueAt(t0);
  auto it = std::lower_bound(
      points_.begin(), points_.end(), t0,
      [](const std::pair<double, double>& p, double rhs) {
        return p.first < rhs;
      });
  for (; it != points_.end() && it->first < t1; ++it) {
    best = std::max(best, it->second);
  }
  return best;
}

}  // namespace vod
