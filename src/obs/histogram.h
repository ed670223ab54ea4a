#ifndef VODB_OBS_HISTOGRAM_H_
#define VODB_OBS_HISTOGRAM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace vod::obs {

/// Log-bucketed histogram with lock-free concurrent Add.
///
/// Bucket 0 holds values ≤ `lo` (and any non-positive/NaN input); bucket i
/// (1 ≤ i < buckets−1) holds (lo·g^(i−1), lo·g^i]; the last bucket is the
/// overflow. Quantiles are bucket upper bounds, so an estimate overshoots
/// the true sample quantile by at most one growth factor — the right
/// trade-off for latency percentiles spanning microseconds to minutes.
class Histogram {
 public:
  struct Options {
    double lo = 1e-6;         ///< Upper bound of the first bucket.
    double growth = 2.0;      ///< Geometric bucket growth factor (> 1).
    std::size_t buckets = 64; ///< Total buckets including under/overflow.
  };

  // Two overloads (not one defaulted argument): GCC cannot use the nested
  // aggregate's member initializers in a default argument inside this class.
  Histogram() : Histogram(Options()) {}
  explicit Histogram(const Options& options);

  void Add(double v);

  std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  double min() const;
  double max() const;

  /// q in [0,1]. Returns the upper bound of the bucket containing the
  /// rank-⌈q·count⌉ sample (the exact observed max for the overflow bucket
  /// and for q = 1). Returns 0 when empty.
  double Quantile(double q) const;
  double p50() const { return Quantile(0.50); }
  double p95() const { return Quantile(0.95); }
  double p99() const { return Quantile(0.99); }

  /// Inclusive upper bound of bucket `i` (+inf for the overflow bucket).
  double UpperBound(std::size_t i) const;
  /// Which bucket `v` lands in.
  std::size_t BucketFor(double v) const;
  std::vector<std::int64_t> BucketCounts() const;
  const Options& options() const { return opt_; }

 private:
  Options opt_;
  double log_growth_;
  std::unique_ptr<std::atomic<std::int64_t>[]> counts_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

}  // namespace vod::obs

#endif  // VODB_OBS_HISTOGRAM_H_
