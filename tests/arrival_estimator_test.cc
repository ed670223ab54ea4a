#include "core/arrival_estimator.h"

#include <algorithm>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "sim/rng.h"

namespace vod::core {
namespace {

TEST(ArrivalEstimatorTest, EmptyLogGivesZero) {
  ArrivalEstimator est(Minutes(40));
  EXPECT_EQ(est.KLog(Seconds(100.0), Seconds(10.0)), 0);
}

TEST(ArrivalEstimatorTest, SingleArrivalGivesOne) {
  ArrivalEstimator est(Minutes(40));
  est.RecordArrival(Seconds(10.0));
  EXPECT_EQ(est.KLog(Seconds(11.0), Seconds(5.0)), 1);
}

TEST(ArrivalEstimatorTest, CountsWithinWindow) {
  ArrivalEstimator est(Minutes(40));
  // Three arrivals within 2 s, one far away.
  est.RecordArrival(Seconds(10.0));
  est.RecordArrival(Seconds(10.5));
  est.RecordArrival(Seconds(11.5));
  est.RecordArrival(Seconds(100.0));
  EXPECT_EQ(est.KLog(Seconds(101.0), Seconds(2.0)), 3);
  EXPECT_EQ(est.KLog(Seconds(101.0), Seconds(0.8)), 2);  // Only {10.0, 10.5} fit.
  EXPECT_EQ(est.KLog(Seconds(101.0), Seconds(0.2)), 1);
}

TEST(ArrivalEstimatorTest, PrunesBeyondTLog) {
  ArrivalEstimator est(Seconds(60.0));  // T_log = 1 min.
  est.RecordArrival(Seconds(0.0));
  est.RecordArrival(Seconds(1.0));
  est.RecordArrival(Seconds(100.0));
  // At t=130, arrivals at 0 and 1 are out of the log.
  EXPECT_EQ(est.KLog(Seconds(130.0), Seconds(10.0)), 1);
  EXPECT_EQ(est.logged_count(), 1u);
}

TEST(ArrivalEstimatorTest, ZeroPeriodGivesZero) {
  ArrivalEstimator est(Seconds(60.0));
  est.RecordArrival(Seconds(1.0));
  EXPECT_EQ(est.KLog(Seconds(2.0), Seconds(0.0)), 0);
}

/// k_log by brute force: the most arrivals in any window [a_i, a_i + sp)
/// among the arrivals at or after now − T_log.
int BruteKLog(const std::vector<double>& times, double now, double t_log,
              double sp) {
  int brute = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i] < now - t_log) continue;
    int cnt = 0;
    for (std::size_t j = i; j < times.size(); ++j) {
      if (times[j] < times[i] + sp) ++cnt;
    }
    brute = std::max(brute, cnt);
  }
  return brute;
}

TEST(ArrivalEstimatorTest, MatchesBruteForceOnRandomStreams) {
  // Property: the two-pointer sweep, and the memo that lets repeated calls
  // skip it, equal a quadratic brute force for arrival-anchored windows.
  // Each trial interleaves arrivals, prunes and runs of KLog calls while
  // the clock advances; a run repeats the period or changes it. T_log holds
  // ~15 arrivals, so arrivals age out all the time — often as another
  // arrives, leaving the window's size unchanged but not its contents.
  constexpr double kTLog = 30.0;
  sim::Rng rng(123);
  for (int trial = 0; trial < 30; ++trial) {
    ArrivalEstimator est{Seconds(kTLog)};
    std::vector<double> times;
    double t = 0;
    double sp = rng.Uniform(0.5, 20.0);
    for (int i = 0; i < 80; ++i) {
      t += rng.Exponential(0.5);
      times.push_back(t);
      est.RecordArrival(Seconds(t));
      if (rng.NextBelow(4) == 0) {
        t += rng.Uniform(0.0, 1.0);
        est.Prune(Seconds(t));
      }
      const int calls = static_cast<int>(rng.NextBelow(4));
      for (int c = 0; c < calls; ++c) {
        if (rng.NextBelow(3) == 0) sp = rng.Uniform(0.5, 20.0);
        t += rng.Uniform(0.0, 0.5);
        EXPECT_EQ(est.KLog(Seconds(t), Seconds(sp)),
                  BruteKLog(times, t, kTLog, sp))
            << "trial=" << trial << " i=" << i << " t=" << t << " sp=" << sp;
      }
    }
  }
}

TEST(ArrivalEstimatorTest, KLogSeesAnArrivalReplaceAnAgedOutOne) {
  // The window keeps its size, {0, 5} -> {5, 10.5}, but not its contents:
  // a memo keyed on the window size would repeat the stale 2.
  ArrivalEstimator est(Seconds(10.0));
  est.RecordArrival(Seconds(0.0));
  est.RecordArrival(Seconds(5.0));
  EXPECT_EQ(est.KLog(Seconds(6.0), Seconds(5.2)), 2);
  est.RecordArrival(Seconds(10.5));  // Ages out the arrival at 0.
  EXPECT_EQ(est.logged_count(), 2u);
  EXPECT_EQ(est.KLog(Seconds(10.5), Seconds(5.2)), 1);
}

TEST(ArrivalEstimatorTest, KLogGrowsWithWindow) {
  ArrivalEstimator est(Minutes(40));
  for (int i = 0; i < 20; ++i) est.RecordArrival(Seconds(i * 1.0));
  int prev = 0;
  for (double sp : {0.5, 1.5, 3.5, 7.5, 25.0}) {
    const int k = est.KLog(Seconds(20.0), Seconds(sp));
    EXPECT_GE(k, prev);
    prev = k;
  }
}

TEST(ArrivalEstimatorTest, RequiresPositiveTLog) {
  EXPECT_DEATH(ArrivalEstimator(Seconds(-1.0)), "t_log");
}

}  // namespace
}  // namespace vod::core
