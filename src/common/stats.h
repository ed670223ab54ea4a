#ifndef VODB_COMMON_STATS_H_
#define VODB_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace vod {

/// Streaming summary statistics (Welford's algorithm). Numerically stable
/// for long simulation runs where naive sum-of-squares would lose precision.
class RunningStats {
 public:
  RunningStats() = default;

  void Add(double x);
  /// Merges another accumulator into this one (parallel reduction).
  void Merge(const RunningStats& other);
  void Reset();

  std::size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 if fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Piecewise-constant time series sampler: records (time, value) points and
/// keeps their running maximum. Used to track concurrency and memory usage
/// over a simulated day.
class StepTimeSeries {
 public:
  /// Records that the tracked value became `value` at time `t`. Times must
  /// be non-decreasing.
  void Record(double t, double value);

  bool empty() const { return points_.empty(); }
  double max_value() const { return max_value_; }
  const std::vector<std::pair<double, double>>& points() const {
    return points_;
  }

 private:
  std::vector<std::pair<double, double>> points_;
  double max_value_ = 0.0;
};

}  // namespace vod

#endif  // VODB_COMMON_STATS_H_
