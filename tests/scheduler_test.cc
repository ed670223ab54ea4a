#include "sched/scheduler.h"

#include <limits>
#include <map>

#include <gtest/gtest.h>

#include "sched/gss.h"
#include "sched/round_robin.h"
#include "sched/sweep.h"

namespace vod::sched {
namespace {

constexpr Seconds kInf = Seconds::Infinity();

/// Scriptable context: tests set each request's deadline, cylinder, and
/// service-time directly.
class FakeContext : public SchedulerContext {
 public:
  struct Entry {
    Seconds deadline = kInf;
    double cylinder = 0;
    bool needs_service = true;
    bool fresh = false;
    Seconds service_time = Seconds(1.0);
  };

  Entry& Set(RequestId id) { return entries_[id]; }

  Seconds BufferDeadline(RequestId id) const override {
    return entries_.at(id).fresh ? kInf : entries_.at(id).deadline;
  }
  bool NeverServiced(RequestId id) const override {
    return entries_.at(id).fresh;
  }
  double CurrentCylinder(RequestId id) const override {
    return entries_.at(id).cylinder;
  }
  bool NeedsService(RequestId id) const override {
    return entries_.at(id).needs_service;
  }
  Seconds WorstServiceTime(RequestId id) const override {
    return entries_.at(id).service_time;
  }
  Seconds NewcomerReserve() const override { return reserve_; }

  void set_reserve(Seconds r) { reserve_ = r; }

 private:
  std::map<RequestId, Entry> entries_;
  Seconds reserve_ = Seconds(1.0);
};

// --- LatestSafeStart ---

/// LatestSafeStart over the facts `ctx` reports for `seq`.
Seconds LatestSafeStartOf(const SchedulerContext& ctx,
                          const std::vector<RequestId>& seq) {
  std::vector<RequestFacts> facts;
  ctx.Facts(seq, &facts);
  return LatestSafeStart(facts);
}

TEST(LatestSafeStartTest, EmptySequenceIsUnconstrained) {
  FakeContext ctx;
  EXPECT_EQ(LatestSafeStartOf(ctx, {}), kInf);
}

TEST(LatestSafeStartTest, SingleRequest) {
  FakeContext ctx;
  ctx.Set(1).deadline = Seconds(10.0);
  ctx.Set(1).service_time = Seconds(2.0);
  EXPECT_DOUBLE_EQ(ToSeconds(LatestSafeStartOf(ctx, {1})), 8.0);
}

TEST(LatestSafeStartTest, PrefixSumsBindTightestMember) {
  FakeContext ctx;
  ctx.Set(1).deadline = Seconds(10.0);
  ctx.Set(1).service_time = Seconds(2.0);
  ctx.Set(2).deadline = Seconds(11.0);  // Needs start by 11 − (2+3) = 6: binding.
  ctx.Set(2).service_time = Seconds(3.0);
  EXPECT_DOUBLE_EQ(ToSeconds(LatestSafeStartOf(ctx, {1, 2})), 6.0);
}

// --- RoundRobinScheduler ---

TEST(RoundRobinTest, ServicesInRingOrderAndRotates) {
  RoundRobinScheduler rr;
  FakeContext ctx;
  for (RequestId id : {1, 2, 3}) {
    ctx.Set(id).deadline = Seconds(100.0);
    rr.Add(id, Seconds(0.0));
    rr.OnServiceComplete(id, Seconds(0.0));  // Move out of the fresh queue.
  }
  EXPECT_EQ(rr.ServiceSequence(ctx, Seconds(0.0)), (std::vector<RequestId>{1, 2, 3}));
  rr.OnServiceComplete(1, Seconds(1.0));
  EXPECT_EQ(rr.ServiceSequence(ctx, Seconds(1.0)), (std::vector<RequestId>{2, 3, 1}));
}

TEST(RoundRobinTest, FreshRequestsComeFirst) {
  RoundRobinScheduler rr;
  FakeContext ctx;
  ctx.Set(1).deadline = Seconds(100.0);
  rr.Add(1, Seconds(0.0));
  rr.OnServiceComplete(1, Seconds(0.0));
  ctx.Set(9).fresh = true;
  rr.Add(9, Seconds(1.0));
  EXPECT_EQ(rr.ServiceSequence(ctx, Seconds(1.0)), (std::vector<RequestId>{9, 1}));
}

TEST(RoundRobinTest, RemoveWorksInBothQueues) {
  RoundRobinScheduler rr;
  FakeContext ctx;
  ctx.Set(1).deadline = Seconds(100.0);
  ctx.Set(2).fresh = true;
  rr.Add(1, Seconds(0.0));
  rr.OnServiceComplete(1, Seconds(0.0));
  rr.Add(2, Seconds(0.0));
  rr.Remove(2);
  rr.Remove(1);
  EXPECT_TRUE(rr.ServiceSequence(ctx, Seconds(0.0)).empty());
}

TEST(RoundRobinTest, FiltersRequestsNotNeedingService) {
  RoundRobinScheduler rr;
  FakeContext ctx;
  ctx.Set(1).deadline = Seconds(100.0);
  ctx.Set(1).needs_service = false;
  rr.Add(1, Seconds(0.0));
  rr.OnServiceComplete(1, Seconds(0.0));
  EXPECT_TRUE(rr.ServiceSequence(ctx, Seconds(0.0)).empty());
}

TEST(RoundRobinTest, NextIsLazyWithoutFresh) {
  RoundRobinScheduler rr;
  FakeContext ctx;
  ctx.set_reserve(Seconds(1.0));
  ctx.Set(1).deadline = Seconds(50.0);
  ctx.Set(1).service_time = Seconds(2.0);
  rr.Add(1, Seconds(0.0));
  rr.OnServiceComplete(1, Seconds(0.0));
  auto d = rr.Next(ctx, Seconds(0.0));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->id, 1u);
  // Latest safe start 48, minus one newcomer reserve slot.
  EXPECT_DOUBLE_EQ(ToSeconds(d->not_before), 47.0);
}

TEST(RoundRobinTest, NextIsEagerWithFresh) {
  RoundRobinScheduler rr;
  FakeContext ctx;
  ctx.Set(1).deadline = Seconds(50.0);
  rr.Add(1, Seconds(0.0));
  rr.OnServiceComplete(1, Seconds(0.0));
  ctx.Set(2).fresh = true;
  rr.Add(2, Seconds(1.0));
  auto d = rr.Next(ctx, Seconds(1.0));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->id, 2u);  // Newcomer first (BubbleUp).
  EXPECT_DOUBLE_EQ(ToSeconds(d->not_before), 1.0);
}

TEST(RoundRobinTest, NewcomerDisplacementGuard) {
  RoundRobinScheduler rr;
  FakeContext ctx;
  // Established request due almost immediately: serving the fresh first
  // (1s) plus the established (1s) would overrun its deadline at t=1.5.
  ctx.Set(1).deadline = Seconds(1.5);
  ctx.Set(1).service_time = Seconds(1.0);
  rr.Add(1, Seconds(0.0));
  rr.OnServiceComplete(1, Seconds(0.0));
  ctx.Set(2).fresh = true;
  ctx.Set(2).service_time = Seconds(1.0);
  rr.Add(2, Seconds(0.0));
  auto d = rr.Next(ctx, Seconds(0.0));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->id, 1u);  // Catch the established buffer up first.
  EXPECT_DOUBLE_EQ(ToSeconds(d->not_before), 0.0);
}

TEST(RoundRobinTest, NoneLeftReturnsNullopt) {
  RoundRobinScheduler rr;
  FakeContext ctx;
  EXPECT_FALSE(rr.Next(ctx, Seconds(0.0)).has_value());
}

// --- SweepScheduler ---

TEST(SweepTest, PeriodRosterSortedByCylinder) {
  SweepScheduler sw;
  FakeContext ctx;
  ctx.Set(1).cylinder = 500;
  ctx.Set(2).cylinder = 100;
  ctx.Set(3).cylinder = 900;
  for (RequestId id : {1, 2, 3}) sw.Add(id, Seconds(0.0));
  EXPECT_EQ(sw.ServiceSequence(ctx, Seconds(0.0)), (std::vector<RequestId>{2, 1, 3}));
}

TEST(SweepTest, RosterStableWithinPeriod) {
  SweepScheduler sw;
  FakeContext ctx;
  ctx.Set(1).cylinder = 500;
  ctx.Set(2).cylinder = 100;
  for (RequestId id : {1, 2}) sw.Add(id, Seconds(0.0));
  ASSERT_EQ(sw.ServiceSequence(ctx, Seconds(0.0)), (std::vector<RequestId>{2, 1}));
  // Cylinder changes mid-period do not reshuffle the roster.
  ctx.Set(2).cylinder = 800;
  EXPECT_EQ(sw.ServiceSequence(ctx, Seconds(0.1)), (std::vector<RequestId>{2, 1}));
}

TEST(SweepTest, NewPeriodStartsWhenRosterDrains) {
  SweepScheduler sw;
  FakeContext ctx;
  ctx.Set(1).cylinder = 500;
  ctx.Set(2).cylinder = 100;
  for (RequestId id : {1, 2}) sw.Add(id, Seconds(0.0));
  EXPECT_TRUE(sw.AdmitsNow());  // Roster forms lazily.
  sw.ServiceSequence(ctx, Seconds(0.0));
  EXPECT_FALSE(sw.AdmitsNow());
  sw.OnServiceComplete(2, Seconds(1.0));
  sw.OnServiceComplete(1, Seconds(2.0));
  EXPECT_TRUE(sw.AdmitsNow());
  EXPECT_EQ(sw.periods_started(), 1);
  // New period re-sorts with fresh positions.
  ctx.Set(1).cylinder = 50;
  EXPECT_EQ(sw.ServiceSequence(ctx, Seconds(3.0)), (std::vector<RequestId>{1, 2}));
  EXPECT_EQ(sw.periods_started(), 2);
}

TEST(SweepTest, DoesNotAdmitMidPeriod) {
  SweepScheduler sw;
  FakeContext ctx;
  ctx.Set(1).cylinder = 100;
  sw.Add(1, Seconds(0.0));
  sw.ServiceSequence(ctx, Seconds(0.0));
  EXPECT_FALSE(sw.AdmitsNow());
}

TEST(SweepTest, RemoveMidPeriod) {
  SweepScheduler sw;
  FakeContext ctx;
  for (RequestId id : {1, 2, 3}) {
    ctx.Set(id).cylinder = id * 100.0;
    sw.Add(id, Seconds(0.0));
  }
  sw.ServiceSequence(ctx, Seconds(0.0));
  sw.Remove(2);
  EXPECT_EQ(sw.ServiceSequence(ctx, Seconds(0.1)), (std::vector<RequestId>{1, 3}));
}

// --- GssScheduler ---

TEST(GssTest, GroupsOfAtMostG) {
  GssScheduler gss(2);
  FakeContext ctx;
  for (RequestId id : {1, 2, 3, 4, 5}) {
    ctx.Set(id).cylinder = id * 10.0;
    gss.Add(id, Seconds(0.0));
  }
  EXPECT_EQ(gss.group_count(), 3);
}

TEST(GssTest, ServicesCurrentGroupInCylinderOrder) {
  GssScheduler gss(2);
  FakeContext ctx;
  ctx.Set(1).cylinder = 900;
  ctx.Set(2).cylinder = 100;
  gss.Add(1, Seconds(0.0));
  gss.Add(2, Seconds(0.0));
  auto seq = gss.ServiceSequence(ctx, Seconds(0.0));
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_EQ(seq[0], 2u);  // Sweep order inside the group.
  EXPECT_EQ(seq[1], 1u);
}

TEST(GssTest, GroupRotatesAfterItsTurn) {
  GssScheduler gss(2);
  FakeContext ctx;
  for (RequestId id : {1, 2, 3, 4}) {
    ctx.Set(id).cylinder = id * 10.0;
    gss.Add(id, Seconds(0.0));
  }
  // Turn 1: group {1,2}.
  auto seq = gss.ServiceSequence(ctx, Seconds(0.0));
  EXPECT_EQ(seq[0], 1u);
  gss.OnServiceComplete(1, Seconds(0.5));
  gss.OnServiceComplete(2, Seconds(1.0));
  // Turn 2: group {3,4}.
  seq = gss.ServiceSequence(ctx, Seconds(1.0));
  EXPECT_EQ(seq[0], 3u);
  gss.OnServiceComplete(3, Seconds(1.5));
  gss.OnServiceComplete(4, Seconds(2.0));
  // Back to group {1,2}.
  seq = gss.ServiceSequence(ctx, Seconds(2.0));
  EXPECT_EQ(seq[0], 1u);
}

TEST(GssTest, NewcomerJoinsUpcomingGroup) {
  GssScheduler gss(2);
  FakeContext ctx;
  for (RequestId id : {1, 2, 3}) {
    ctx.Set(id).cylinder = id * 10.0;
    gss.Add(id, Seconds(0.0));
  }
  // Open group {1,2}'s turn.
  gss.ServiceSequence(ctx, Seconds(0.0));
  // Newcomer joins the upcoming group {3} (has space) — serviced right
  // after the current group.
  ctx.Set(9).fresh = true;
  ctx.Set(9).cylinder = 5;
  gss.Add(9, Seconds(0.1));
  gss.OnServiceComplete(1, Seconds(0.5));
  gss.OnServiceComplete(2, Seconds(1.0));
  auto seq = gss.ServiceSequence(ctx, Seconds(1.0));
  ASSERT_GE(seq.size(), 2u);
  EXPECT_EQ(seq[0], 9u);  // Cylinder 5 sorts before 30 within the group.
  EXPECT_EQ(seq[1], 3u);
}

TEST(GssTest, NewGroupInsertedWhenUpcomingFull) {
  GssScheduler gss(1);  // Every group is a single request.
  FakeContext ctx;
  for (RequestId id : {1, 2}) {
    ctx.Set(id).cylinder = id * 10.0;
    gss.Add(id, Seconds(0.0));
  }
  gss.ServiceSequence(ctx, Seconds(0.0));  // Group {1} in service.
  ctx.Set(9).fresh = true;
  gss.Add(9, Seconds(0.1));
  EXPECT_EQ(gss.group_count(), 3);
  gss.OnServiceComplete(1, Seconds(0.5));
  // The newcomer's group is next.
  auto seq = gss.ServiceSequence(ctx, Seconds(0.5));
  EXPECT_EQ(seq[0], 9u);
}

TEST(GssTest, RemoveDropsEmptyGroups) {
  GssScheduler gss(2);
  FakeContext ctx;
  for (RequestId id : {1, 2, 3}) {
    ctx.Set(id).cylinder = id * 10.0;
    gss.Add(id, Seconds(0.0));
  }
  EXPECT_EQ(gss.group_count(), 2);
  gss.Remove(3);
  EXPECT_EQ(gss.group_count(), 1);
  gss.Remove(1);
  gss.Remove(2);
  EXPECT_EQ(gss.group_count(), 0);
  EXPECT_TRUE(gss.ServiceSequence(ctx, Seconds(1.0)).empty());
}

TEST(GssTest, SkipsDutyFreeGroups) {
  GssScheduler gss(2);
  FakeContext ctx;
  ctx.Set(1).cylinder = 10;
  ctx.Set(1).needs_service = false;  // Fully delivered.
  ctx.Set(2).cylinder = 20;
  gss.Add(1, Seconds(0.0));
  gss.Add(2, Seconds(0.0));
  // Group {1,2}: only 2 needs service.
  auto seq = gss.ServiceSequence(ctx, Seconds(0.0));
  ASSERT_EQ(seq.size(), 1u);
  EXPECT_EQ(seq[0], 2u);
}

TEST(GssTest, OutOfTurnServiceResortsItsGroup) {
  GssScheduler gss(2);
  FakeContext ctx;
  for (RequestId id : {1, 2, 3, 4}) {
    ctx.Set(id).cylinder = id * 10.0;
    gss.Add(id, Seconds(0.0));
  }
  // Group {1,2} in service; upcoming group {3,4} sorted for the lookahead.
  ASSERT_EQ(gss.ServiceSequence(ctx, Seconds(0.0)),
            (std::vector<RequestId>{1, 2, 3, 4}));
  // The no-displacement rule services 3 out of turn; its fill moves its
  // read position past 4's.
  ctx.Set(3).cylinder = 50;
  gss.OnServiceComplete(3, Seconds(0.5));
  EXPECT_EQ(gss.ServiceSequence(ctx, Seconds(0.5)),
            (std::vector<RequestId>{1, 2, 4, 3}));
}

TEST(GssTest, FinishedGroupResortsAfterRotation) {
  GssScheduler gss(2);
  FakeContext ctx;
  for (RequestId id : {1, 2, 3, 4}) {
    ctx.Set(id).cylinder = id * 10.0;
    gss.Add(id, Seconds(0.0));
  }
  ASSERT_EQ(gss.ServiceSequence(ctx, Seconds(0.0)),
            (std::vector<RequestId>{1, 2, 3, 4}));
  // Group {1,2}'s turn leaves their cylinders reversed.
  ctx.Set(1).cylinder = 200;
  gss.OnServiceComplete(1, Seconds(0.5));
  ctx.Set(2).cylinder = 100;
  gss.OnServiceComplete(2, Seconds(1.0));
  // Group {3,4} is in service; the rotated group is looked ahead in its
  // new sweep order.
  EXPECT_EQ(gss.ServiceSequence(ctx, Seconds(1.0)),
            (std::vector<RequestId>{3, 4, 2, 1}));
}

TEST(GssTest, AdmitsMidPeriod) {
  GssScheduler gss(8);
  FakeContext ctx;
  ctx.Set(1).cylinder = 100;
  gss.Add(1, Seconds(0.0));
  gss.ServiceSequence(ctx, Seconds(0.0));
  EXPECT_TRUE(gss.AdmitsNow());
}

}  // namespace
}  // namespace vod::sched
