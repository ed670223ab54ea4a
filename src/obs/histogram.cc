#include "obs/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vod::obs {

namespace {

void AtomicMin(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicAdd(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(const Options& options)
    : opt_(options),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  if (opt_.buckets < 2) opt_.buckets = 2;
  if (!(opt_.growth > 1.0)) opt_.growth = 2.0;
  if (!(opt_.lo > 0.0)) opt_.lo = 1e-6;
  log_growth_ = std::log(opt_.growth);
  counts_ = std::make_unique<std::atomic<std::int64_t>[]>(opt_.buckets);
  for (std::size_t i = 0; i < opt_.buckets; ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

double Histogram::UpperBound(std::size_t i) const {
  if (i + 1 >= opt_.buckets) {
    return std::numeric_limits<double>::infinity();
  }
  return opt_.lo * std::pow(opt_.growth, static_cast<double>(i));
}

std::size_t Histogram::BucketFor(double v) const {
  if (!(v > opt_.lo)) return 0;  // Also catches NaN and non-positives.
  const double r = std::log(v / opt_.lo) / log_growth_;
  std::size_t i = static_cast<std::size_t>(std::floor(r)) + 1;
  if (i >= opt_.buckets) return opt_.buckets - 1;
  // log() rounding can misplace exact boundary values by one bucket; nudge
  // until the bucket invariant UpperBound(i-1) < v <= UpperBound(i) holds.
  while (i + 1 < opt_.buckets && v > UpperBound(i)) ++i;
  while (i > 1 && v <= UpperBound(i - 1)) --i;
  return i;
}

void Histogram::Add(double v) {
  counts_[BucketFor(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(sum_, v);
  AtomicMin(min_, v);
  AtomicMax(max_, v);
}

double Histogram::mean() const {
  const std::int64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::min() const {
  return count() > 0 ? min_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::max() const {
  return count() > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::Quantile(double q) const {
  const std::int64_t n = count();
  if (n <= 0) return 0.0;
  if (q <= 0.0) return min();
  if (q >= 1.0) return max();
  const auto rank = static_cast<std::int64_t>(
      std::ceil(q * static_cast<double>(n)));
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < opt_.buckets; ++i) {
    seen += counts_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // The overflow bucket has no finite upper bound; report the observed
      // max. Likewise never report beyond the observed max.
      const double ub = UpperBound(i);
      return std::min(ub, max());
    }
  }
  return max();
}

}  // namespace vod::obs
