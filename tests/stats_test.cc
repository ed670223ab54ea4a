#include "common/stats.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace vod {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStatsTest, MeanMinMax) {
  RunningStats s;
  for (double x : {3.0, 1.0, 4.0, 1.0, 5.0}) s.Add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.8);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 14.0);
}

TEST(RunningStatsTest, VarianceMatchesTwoPass) {
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats s;
  for (double x : xs) s.Add(x);
  double mean = 0;
  for (double x : xs) mean += x;
  mean /= xs.size();
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= (xs.size() - 1);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
}

TEST(RunningStatsTest, MergeEqualsCombinedStream) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10;
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmptySides) {
  RunningStats a, b;
  a.Add(1.0);
  a.Merge(b);  // Empty other.
  EXPECT_EQ(a.count(), 1u);
  b.Merge(a);  // Empty self.
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(RunningStatsTest, ResetClears) {
  RunningStats s;
  s.Add(5.0);
  s.Reset();
  EXPECT_EQ(s.count(), 0u);
}

TEST(StepTimeSeriesTest, MaxValue) {
  StepTimeSeries ts;
  ts.Record(0.0, 1.0);
  ts.Record(10.0, 3.0);
  ts.Record(20.0, 2.0);
  EXPECT_DOUBLE_EQ(ts.max_value(), 3.0);
}

TEST(StepTimeSeriesTest, EmptySeries) {
  StepTimeSeries ts;
  EXPECT_TRUE(ts.empty());
}

}  // namespace
}  // namespace vod
