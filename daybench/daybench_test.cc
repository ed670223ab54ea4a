// Tests of the benchmark's own code: the broker decorator is a pure
// pass-through, the ratio and percentile arithmetic, seeds drive the
// arrivals, and the output check catches a broken ledger.

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "daybench.h"

namespace daybench {
namespace {

using vod::sim::AllocScheme;

/// A short serial three-disk day whose budget binds, so the decorator sees
/// refusals as well as admissions.
DaySpec ShortBudgetDay(AllocScheme scheme) {
  DaySpec d = DaysOf(Workload::kTenDiskBudget, 5).front();
  d.kind = DaySpec::Kind::kSerialMultiDisk;
  d.base.scheme = scheme;
  d.disks = 3;
  d.capacity = vod::Mebibytes(96);
  d.workload.duration = vod::Hours(0.1);
  d.workload.slot_length = d.workload.duration;
  d.workload.peak_time = d.workload.duration / 2;
  d.workload.total_expected_arrivals = 120;
  d.workload.max_viewing_time = vod::Minutes(10);
  d.workload.disk_count = d.disks;
  return d;
}

TEST(TimedBrokerTest, DecoratedRunDigestEqualsUndecoratedRun) {
  for (AllocScheme scheme : {AllocScheme::kStatic, AllocScheme::kDynamic}) {
    const DaySpec spec = ShortBudgetDay(scheme);
    const DayResult plain = RunSpec(spec, nullptr, nullptr);
    Trace trace;
    const DayResult decorated = RunSpec(spec, nullptr, &trace);
    EXPECT_TRUE(plain.failures.empty());
    EXPECT_TRUE(decorated.failures.empty());
    ASSERT_EQ(plain.digests.size(), 3u);
    EXPECT_EQ(plain.digests, decorated.digests);
    // The decorator really sat in the path, and the budget really bound.
    EXPECT_GT(trace.can_admit_calls, 0);
    EXPECT_LT(trace.can_admit_yes, trace.can_admit_calls);
    EXPECT_GT(plain.rejected, 0);
    EXPECT_EQ(decorated.events, trace.events);
  }
}

TEST(TraceTest, TracedSingleDiskAndShardedDaysMatchUntraced) {
  DaySpec one = DaysOf(Workload::kOneDiskDay, 3).front();
  one.workload.duration = vod::Hours(1);
  one.workload.peak_time = vod::Hours(0.5);
  one.workload.total_expected_arrivals = 60;
  Trace t1;
  EXPECT_EQ(RunSpec(one, nullptr, nullptr).digests,
            RunSpec(one, nullptr, &t1).digests);
  EXPECT_GT(t1.klog_calls, 0);

  DaySpec wide = DaysOf(Workload::kWideShardedChurn, 3).front();
  wide.disks = 6;
  wide.workload.disk_count = 6;
  wide.workload.duration = vod::Minutes(2);
  wide.workload.slot_length = wide.workload.duration;
  wide.workload.peak_time = vod::Minutes(1);
  wide.workload.total_expected_arrivals = 300;
  vod::exp::ThreadPool pool(2);
  Trace t2;
  const DayResult plain = RunSpec(wide, &pool, nullptr);
  const DayResult traced = RunSpec(wide, &pool, &t2);
  EXPECT_TRUE(plain.failures.empty());
  EXPECT_EQ(plain.digests, traced.digests);
  EXPECT_GT(t2.epochs, 0);
}

TEST(ArithmeticTest, MedianAndRatio) {
  EXPECT_EQ(Median({}), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Ratio(3, 4), 0.75);
  EXPECT_EQ(Ratio(3, 0), 0);
}

TEST(ArithmeticTest, MeanOfMediansWeighsEveryGroupAlike) {
  EXPECT_EQ(MeanOfMedians({}), 0);
  EXPECT_EQ(MeanOfMedians({{}, {}}), 0);
  // Medians 2 and 10; the group with three samples weighs no more.
  EXPECT_EQ(MeanOfMedians({{1, 2, 30}, {10}}), 6);
  EXPECT_EQ(MeanOfMedians({{4, 2}, {}, {5}}), 4);
}

TEST(ArithmeticTest, PassSumsOneFieldOverItsDays) {
  PassResult p;
  p.days.resize(2);
  p.days[0].run_s = 1.5;
  p.days[1].run_s = 2.0;
  p.days[0].disks = 1;
  p.days[1].disks = 10;
  EXPECT_EQ(p.Sum(&DayResult::run_s), 3.5);
  EXPECT_EQ(p.Sum(&DayResult::disks), 11);
}

TEST(ArithmeticTest, TailPercentileLeavesTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), 50);
  EXPECT_EQ(TailPercentile(99), 50);
  EXPECT_EQ(TailPercentile(100), 90);
  EXPECT_EQ(TailPercentile(999), 90);
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_DOUBLE_EQ(TailPercentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(TailPercentile(1310000), 99.999);
}

TEST(ArithmeticTest, NearestRankPercentile) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 90), 90);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  std::vector<double> w = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(w, 50), 3);
  EXPECT_EQ(Percentile(w, 90), 5);
  std::vector<double> empty;
  EXPECT_EQ(Percentile(empty, 50), 0);
}

TEST(WorkloadTest, SeedDrivesTheArrivals) {
  for (Workload w : {Workload::kOneDiskDay, Workload::kTenDiskBudget,
                     Workload::kWideShardedChurn}) {
    const auto a = ArrivalsOf(DaysOf(w, 1).front());
    const auto again = ArrivalsOf(DaysOf(w, 1).front());
    const auto b = ArrivalsOf(DaysOf(w, 2).front());
    ASSERT_TRUE(a.ok() && again.ok() && b.ok());
    ASSERT_FALSE(a->empty());
    auto times = [](const std::vector<vod::sim::ArrivalEvent>& v) {
      std::vector<double> t;
      for (const auto& e : v) t.push_back(vod::ToSeconds(e.time));
      return t;
    };
    EXPECT_EQ(times(*a), times(*again)) << WorkloadName(w);
    EXPECT_NE(times(*a), times(*b)) << WorkloadName(w);
  }
}

TEST(WorkloadTest, NamesRoundTrip) {
  for (Workload w : {Workload::kOneDiskDay, Workload::kTenDiskBudget,
                     Workload::kWideShardedChurn}) {
    EXPECT_EQ(ParseWorkload(WorkloadName(w)), w);
  }
  EXPECT_FALSE(ParseWorkload("hit").has_value());
}

vod::sim::SimMetrics ConsistentLedger() {
  vod::sim::SimMetrics m;
  m.arrivals = 10;
  m.admitted = 7;
  m.rejected = 3;
  m.rejected_capacity = 1;
  m.rejected_memory = 2;
  m.completed = 6;
  m.cancelled = 1;
  m.buffer_bits_allocated = vod::Bits(1e12);
  m.buffer_bits_released = vod::Bits(1e12);
  return m;
}

TEST(CheckDiskTest, ConsistentLedgerPasses) {
  const vod::sim::SimMetrics m = ConsistentLedger();
  EXPECT_TRUE(CheckDisk(DiskOutcome{0, &m, 0, 0}).empty());
}

TEST(CheckDiskTest, PlantedBufferLedgerMismatchFailsNamingDiskAndCheck) {
  vod::sim::SimMetrics m = ConsistentLedger();
  m.buffer_bits_released = vod::Bits(1e12 - 8e3);  // 1 kB never released
  const std::vector<std::string> f = CheckDisk(DiskOutcome{7, &m, 0, 0});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_NE(f[0].find("disk 7"), std::string::npos) << f[0];
  EXPECT_NE(f[0].find("buffer_bits_allocated == buffer_bits_released"),
            std::string::npos)
      << f[0];
}

TEST(CheckDiskTest, EachIdentityIsChecked) {
  vod::sim::SimMetrics m = ConsistentLedger();
  m.rejected_invalid = 1;  // causes no longer sum to `rejected`
  m.cancelled = 0;         // completed + cancelled != admitted
  const std::vector<std::string> f = CheckDisk(DiskOutcome{2, &m, 1, 4});
  ASSERT_EQ(f.size(), 4u);
  EXPECT_NE(f[0].find("rejected == rejected_capacity"), std::string::npos);
  EXPECT_NE(f[1].find("completed + cancelled == admitted"), std::string::npos);
  EXPECT_NE(f[2].find("active_count() == 0"), std::string::npos);
  EXPECT_NE(f[3].find("event_count() == 0"), std::string::npos);
}

}  // namespace
}  // namespace daybench
