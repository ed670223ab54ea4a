// Tests for sim::InvariantAuditor: a clean simulation run audits clean, and
// deliberately corrupted accounting — broker ledgers, event ordering,
// buffer sizes, service decisions — fires the matching invariant.

#include "sim/invariant_auditor.h"

#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/closed_form.h"
#include "core/params.h"
#include "core/static_alloc.h"
#include "disk/disk_profile.h"
#include "sim/vod_simulator.h"
#include "sim/workload.h"

namespace vod::sim {
namespace {

constexpr Seconds kInf = Seconds::Infinity();

/// Collects violations instead of aborting.
class Recorder {
 public:
  InvariantAuditor::Handler handler() {
    return [this](const InvariantViolation& v) { violations_.push_back(v); };
  }
  const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  bool Fired(const std::string& invariant) const {
    for (const InvariantViolation& v : violations_) {
      if (v.invariant == invariant) return true;
    }
    return false;
  }

 private:
  std::vector<InvariantViolation> violations_;
};

/// Scriptable scheduler context (mirrors the one in scheduler_test).
class FakeContext : public sched::SchedulerContext {
 public:
  struct Entry {
    Seconds deadline = kInf;
    double cylinder = 0;
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
  Seconds WorstServiceTime(RequestId id) const override {
    return entries_.at(id).service_time;
  }
  Seconds NewcomerReserve() const override { return reserve_; }

  void set_reserve(Seconds r) { reserve_ = r; }

 private:
  std::map<RequestId, Entry> entries_;
  Seconds reserve_ = Seconds(1.0);
};

core::AllocParams TestParams(core::ScheduleMethod method) {
  const disk::DiskProfile profile = disk::SeagateBarracuda9LP();
  const int n = core::MaxConcurrentRequests(profile.transfer_rate, Mbps(1.5));
  auto params = core::MakeAllocParams(profile, Mbps(1.5), method, n, 1);
  VOD_CHECK(params.ok());
  return *params;
}

// --- Event-time monotonicity ---

TEST(InvariantAuditorTest, AcceptsMonotoneEventTimes) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  auditor.CheckEventTime(Seconds(0.0));
  auditor.CheckEventTime(Seconds(1.0));
  auditor.CheckEventTime(Seconds(1.0));  // Equal times are fine (FIFO tiebreak).
  auditor.CheckEventTime(Seconds(2.5));
  EXPECT_TRUE(rec.violations().empty());
  EXPECT_EQ(auditor.checks(), 4);
}

TEST(InvariantAuditorTest, FlagsBackwardsEventTime) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  auditor.CheckEventTime(Seconds(10.0));
  auditor.CheckEventTime(Seconds(5.0));
  ASSERT_EQ(rec.violations().size(), 1u);
  EXPECT_EQ(rec.violations()[0].invariant, "event-time-monotonicity");
  EXPECT_EQ(auditor.violations(), 1);
}

TEST(InvariantAuditorTest, ToleratesZeroLengthRetryStepsAtLargeClocks) {
  // Retry/backoff wakeups rescheduled at (almost) the current time can land
  // an ulp short of the last event at day-scale clocks. The monotonicity
  // check is relative — tolerance 1e-9 · |last| — so those zero-length
  // steps pass while a genuine step backwards still fires.
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  auditor.CheckEventTime(Seconds(1e6));
  auditor.CheckEventTime(Seconds(1e6 - 1e-5));  // Within 1e-9 * 1e6 = 1e-3: fine.
  EXPECT_TRUE(rec.violations().empty());
  auditor.CheckEventTime(Seconds(1e6 - 1.0));  // Way past the tolerance.
  ASSERT_EQ(rec.violations().size(), 1u);
  EXPECT_EQ(rec.violations()[0].invariant, "event-time-monotonicity");
}

// --- Memory conservation ---

TEST(InvariantAuditorTest, AcceptsBalancedMemoryLedger) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  auditor.CheckMemoryConservation(Seconds(1.0), Megabits(300), Megabits(700),
                                  Megabits(1000));
  auditor.CheckMemoryConservation(Seconds(2.0), Bits(0), Megabits(1000), Megabits(1000));
  auditor.CheckMemoryConservation(Seconds(3.0), Megabits(1000), Bits(0), Megabits(1000));
  EXPECT_TRUE(rec.violations().empty());
}

TEST(InvariantAuditorTest, FlagsCorruptMemoryLedger) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  // Over-reservation: the free share has gone negative.
  auditor.CheckMemoryConservation(Seconds(1.0), Megabits(1200), Megabits(-200),
                                  Megabits(1000));
  // Leak: the two shares no longer sum to the total.
  auditor.CheckMemoryConservation(Seconds(2.0), Megabits(300), Megabits(300),
                                  Megabits(1000));
  // Negative allocation.
  auditor.CheckMemoryConservation(Seconds(3.0), Megabits(-1), Megabits(1001),
                                  Megabits(1000));
  EXPECT_EQ(rec.violations().size(), 3u);
  EXPECT_TRUE(rec.Fired("memory-conservation"));
}

TEST(InvariantAuditorTest, BrokerOvershootToleratedBetweenAdmissions) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  // Between admissions the k estimate drifts and analytic repricing may
  // exceed capacity; only an admission-point partition is enforced.
  auditor.CheckBrokerReservation(Seconds(1.0), Megabits(1200), Megabits(1000),
                                 /*capacity_enforced=*/false);
  EXPECT_TRUE(rec.violations().empty());
  auditor.CheckBrokerReservation(Seconds(2.0), Megabits(1200), Megabits(1000),
                                 /*capacity_enforced=*/true);
  EXPECT_TRUE(rec.Fired("memory-conservation"));
}

TEST(InvariantAuditorTest, FlagsNegativeBrokerReservation) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  auditor.CheckBrokerReservation(Seconds(1.0), Megabits(-5), Megabits(1000),
                                 /*capacity_enforced=*/false);
  EXPECT_TRUE(rec.Fired("memory-conservation"));
}

// --- Request accounting ---

TEST(InvariantAuditorTest, FlagsConsumptionBeyondDelivery) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  auditor.CheckRequestAccounting(Seconds(1.0), 7, Megabits(10), Megabits(4));
  EXPECT_TRUE(rec.violations().empty());
  auditor.CheckRequestAccounting(Seconds(2.0), 7, Megabits(10), Megabits(11));
  ASSERT_EQ(rec.violations().size(), 1u);
  EXPECT_EQ(rec.violations()[0].invariant, "request-accounting");
}

TEST(InvariantAuditorTest, FlagsLedgerRunningBackwards) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  auditor.CheckRequestAccounting(Seconds(1.0), 7, Megabits(10), Megabits(4));
  auditor.CheckRequestAccounting(Seconds(2.0), 7, Megabits(8), Megabits(4));
  EXPECT_TRUE(rec.Fired("request-accounting"));
}

TEST(InvariantAuditorTest, ForgetResetsTheLedger) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  auditor.CheckRequestAccounting(Seconds(1.0), 7, Megabits(10), Megabits(4));
  auditor.ForgetRequest(7);
  // Same id reused from zero: not a regression.
  auditor.CheckRequestAccounting(Seconds(2.0), 7, Megabits(1), Megabits(0));
  EXPECT_TRUE(rec.violations().empty());
}

// --- Theorem 1 buffer sizes ---

TEST(InvariantAuditorTest, AcceptsClosedFormAllocation) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  const core::AllocParams params = TestParams(core::ScheduleMethod::kRoundRobin);

  AllocationRecord record;
  record.time = Seconds(1.0);
  record.n = 5;
  record.k = 3;
  record.buffer_size = core::DynamicBufferSize(params, 5, 3).value();
  record.usage_period = record.buffer_size / params.cr;
  auditor.CheckAllocation(params, core::ScheduleMethod::kRoundRobin,
                          disk::SeagateBarracuda9LP(), /*dynamic_scheme=*/true,
                          record);
  EXPECT_TRUE(rec.violations().empty());
}

TEST(InvariantAuditorTest, FlagsCorruptDynamicBufferSize) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  const core::AllocParams params = TestParams(core::ScheduleMethod::kRoundRobin);

  AllocationRecord record;
  record.time = Seconds(1.0);
  record.n = 5;
  record.k = 3;
  record.buffer_size = core::DynamicBufferSize(params, 5, 3).value() * 1.01;
  record.usage_period = record.buffer_size / params.cr;
  auditor.CheckAllocation(params, core::ScheduleMethod::kRoundRobin,
                          disk::SeagateBarracuda9LP(), /*dynamic_scheme=*/true,
                          record);
  ASSERT_EQ(rec.violations().size(), 1u);
  EXPECT_EQ(rec.violations()[0].invariant, "theorem1-buffer-size");
}

TEST(InvariantAuditorTest, FlagsUsagePeriodMismatch) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  const core::AllocParams params = TestParams(core::ScheduleMethod::kRoundRobin);

  AllocationRecord record;
  record.time = Seconds(1.0);
  record.n = 5;
  record.k = 3;
  record.buffer_size = core::DynamicBufferSize(params, 5, 3).value();
  record.usage_period = record.buffer_size / params.cr * 2;  // Eq. (8) broken.
  auditor.CheckAllocation(params, core::ScheduleMethod::kRoundRobin,
                          disk::SeagateBarracuda9LP(), /*dynamic_scheme=*/true,
                          record);
  EXPECT_TRUE(rec.Fired("usage-period"));
}

TEST(InvariantAuditorTest, AcceptsStaticSchemeAllocation) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  const core::AllocParams params = TestParams(core::ScheduleMethod::kRoundRobin);

  AllocationRecord record;
  record.time = Seconds(1.0);
  record.n = 3;
  record.k = 0;
  record.buffer_size = core::StaticSchemeBufferSize(params).value();
  record.usage_period = record.buffer_size / params.cr;
  auditor.CheckAllocation(params, core::ScheduleMethod::kRoundRobin,
                          disk::SeagateBarracuda9LP(),
                          /*dynamic_scheme=*/false, record);
  EXPECT_TRUE(rec.violations().empty());

  record.buffer_size *= 0.5;  // Static scheme must always hand out BS(N).
  record.usage_period = record.buffer_size / params.cr;
  auditor.CheckAllocation(params, core::ScheduleMethod::kRoundRobin,
                          disk::SeagateBarracuda9LP(),
                          /*dynamic_scheme=*/false, record);
  EXPECT_TRUE(rec.Fired("theorem1-buffer-size"));
}

// --- Service sequence / BubbleUp ordering ---

/// A request table as CheckServiceSequence's predicate reads one: an id
/// needs service when the table holds it with bits left to deliver.
class FakeTable {
 public:
  void Set(RequestId id, bool bits_left) { bits_left_[id] = bits_left; }
  std::function<bool(RequestId)> needs_service() const {
    return [this](RequestId id) {
      auto it = bits_left_.find(id);
      return it != bits_left_.end() && it->second;
    };
  }

 private:
  std::map<RequestId, bool> bits_left_;
};

TEST(InvariantAuditorTest, FlagsDuplicateInServiceSequence) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  FakeTable table;
  table.Set(1, true);
  table.Set(2, true);
  auditor.CheckServiceSequence({1, 2, 1}, Seconds(0.0), table.needs_service());
  EXPECT_TRUE(rec.Fired("service-sequence"));
}

TEST(InvariantAuditorTest, FlagsSatisfiedRequestInSequence) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  FakeTable table;
  table.Set(1, false);  // Fully delivered: the scheduler should have dropped it.
  auditor.CheckServiceSequence({1}, Seconds(0.0), table.needs_service());
  EXPECT_TRUE(rec.Fired("service-sequence"));
}

TEST(InvariantAuditorTest, FlagsIdTheTableDoesNotHold) {
  // A member that departed without leaving the scheduler: reported, not
  // aborted on.
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  FakeTable table;
  table.Set(1, true);
  auditor.CheckServiceSequence({1, 7}, Seconds(0.0), table.needs_service());
  ASSERT_EQ(rec.violations().size(), 1u);
  EXPECT_EQ(rec.violations()[0].invariant, "service-sequence");
  EXPECT_NE(rec.violations()[0].detail.find("request 7"), std::string::npos);
}

TEST(InvariantAuditorTest, AcceptsSafeNewcomerDecision) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  FakeContext ctx;
  ctx.Set(1).fresh = true;
  ctx.Set(1).service_time = Seconds(1.0);
  ctx.Set(2).deadline = Seconds(10.0);  // Far away: the newcomer displaces nothing.
  ctx.Set(2).service_time = Seconds(1.0);
  sched::ServiceDecision d{1, Seconds(0.0)};
  auditor.CheckServiceDecision(ctx, {1, 2}, d, Seconds(0.0));
  EXPECT_TRUE(rec.violations().empty());
}

TEST(InvariantAuditorTest, FlagsNewcomerDisplacingTightDeadline) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  FakeContext ctx;
  ctx.Set(1).fresh = true;
  ctx.Set(1).service_time = Seconds(5.0);
  ctx.Set(2).deadline = Seconds(3.0);  // Serving the newcomer first misses this.
  ctx.Set(2).service_time = Seconds(1.0);
  // A correct scheduler would catch request 2 up first; serving the
  // newcomer anyway is an ordering violation.
  sched::ServiceDecision d{1, Seconds(0.0)};
  auditor.CheckServiceDecision(ctx, {1, 2}, d, Seconds(0.0));
  EXPECT_TRUE(rec.Fired("bubbleup-ordering"));
}

TEST(InvariantAuditorTest, FlagsLazyStartPastSafePoint) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  FakeContext ctx;
  ctx.set_reserve(Seconds(1.0));
  ctx.Set(1).deadline = Seconds(10.0);
  ctx.Set(1).service_time = Seconds(2.0);
  // Latest safe start is 10 − 2 = 8; minus the newcomer reserve → 7.
  sched::ServiceDecision late{1, Seconds(8.5)};
  auditor.CheckServiceDecision(ctx, {1}, late, Seconds(0.0));
  EXPECT_TRUE(rec.Fired("bubbleup-ordering"));

  Recorder rec2;
  auditor.set_handler(rec2.handler());
  sched::ServiceDecision on_time{1, Seconds(7.0)};
  auditor.CheckServiceDecision(ctx, {1}, on_time, Seconds(0.0));
  EXPECT_TRUE(rec2.violations().empty());
}

TEST(InvariantAuditorTest, FlagsDecisionOutsideSequence) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  FakeContext ctx;
  ctx.Set(1);
  sched::ServiceDecision d{99, Seconds(0.0)};
  auditor.CheckServiceDecision(ctx, {1}, d, Seconds(0.0));
  EXPECT_TRUE(rec.Fired("bubbleup-ordering"));
}

// --- Batched scheduler facts ---

/// A context whose batched Facts misreports the second entry's deadline
/// while its per-request reads stay correct.
class MisreportingContext : public FakeContext {
 public:
  void Facts(const std::vector<RequestId>& seq,
             std::vector<sched::RequestFacts>* out) const override {
    FakeContext::Facts(seq, out);
    if (out->size() > 1) (*out)[1].deadline += Seconds(0.5);
  }
};

TEST(InvariantAuditorTest, InheritedSchedulerFactsAuditClean) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  FakeContext ctx;
  ctx.Set(1).deadline = Seconds(4.0);
  ctx.Set(2).fresh = true;  // +inf deadline: equal to itself, no violation.
  ctx.Set(3).deadline = Seconds(9.0);
  ctx.Set(3).service_time = Seconds(2.0);
  auditor.CheckSchedulerFacts(ctx, {1, 2, 3}, Seconds(0.0));
  EXPECT_TRUE(rec.violations().empty());
  EXPECT_EQ(auditor.checks(), 1);
}

TEST(InvariantAuditorTest, FlagsMisreportedSchedulerFacts) {
  Recorder rec;
  InvariantAuditor auditor(rec.handler());
  MisreportingContext ctx;
  ctx.Set(1).deadline = Seconds(4.0);
  ctx.Set(2).deadline = Seconds(6.0);
  auditor.CheckSchedulerFacts(ctx, {1}, Seconds(0.0));
  EXPECT_TRUE(rec.violations().empty());  // Entry 0 is reported correctly.
  auditor.CheckSchedulerFacts(ctx, {1, 2}, Seconds(0.0));
  ASSERT_EQ(rec.violations().size(), 1u);
  EXPECT_EQ(rec.violations()[0].invariant, "scheduler-facts");
}

#if VODB_AUDIT_ENABLED

// --- End-to-end: the simulator's compiled-in hooks ---

Result<std::vector<ArrivalEvent>> SmallWorkload(std::uint64_t seed) {
  WorkloadConfig w;
  w.duration = Hours(1);
  w.total_expected_arrivals = 60;
  w.theta = 0.5;
  w.peak_time = w.duration / 2;
  w.seed = seed;
  return GenerateWorkload(w);
}

TEST(InvariantAuditorSimulationTest, CleanRunAuditsClean) {
  for (const auto method :
       {core::ScheduleMethod::kRoundRobin, core::ScheduleMethod::kSweep,
        core::ScheduleMethod::kGss}) {
    SimConfig cfg;
    cfg.method = method;
    cfg.scheme = AllocScheme::kDynamic;
    cfg.t_log =
        method == core::ScheduleMethod::kRoundRobin ? Minutes(40) : Minutes(20);
    auto arr = SmallWorkload(5);
    ASSERT_TRUE(arr.ok());
    auto sim = VodSimulator::Create(cfg, nullptr);
    ASSERT_TRUE(sim.ok()) << sim.status().ToString();

    Recorder rec;
    (*sim)->auditor().set_handler(rec.handler());
    ASSERT_TRUE((*sim)->AddArrivals(*arr).ok());
    (*sim)->RunToCompletion();
    (*sim)->Finalize();

    EXPECT_GT((*sim)->auditor().checks(), 0)
        << core::ScheduleMethodName(method);
    EXPECT_EQ((*sim)->auditor().violations(), 0)
        << core::ScheduleMethodName(method) << ": first violation: "
        << (rec.violations().empty() ? "-" : rec.violations()[0].detail);
  }
}

/// A broker whose incremental ledger is deliberately broken: it admits
/// everything but reports more reserved memory than its capacity.
class CorruptBroker final : public MemoryBroker {
 public:
  [[nodiscard]] bool CanAdmit(int, int, int) const override { return true; }
  void OnState(int, int n, int) override { n_ = n; }
  [[nodiscard]] Bits ReservedMemory() const override {
    // "Leaks" 2 capacities' worth as soon as anything is admitted.
    return n_ > 0 ? 3 * kCapacity : Bits(0);
  }
  [[nodiscard]] Bits Capacity() const override { return kCapacity; }

  static constexpr Bits kCapacity = Gigabits(1);

 private:
  int n_ = 0;
};

TEST(InvariantAuditorSimulationTest, CorruptBrokerAccountingFires) {
  SimConfig cfg;
  CorruptBroker broker;
  auto arr = SmallWorkload(7);
  ASSERT_TRUE(arr.ok());
  auto sim = VodSimulator::Create(cfg, &broker);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();

  Recorder rec;
  (*sim)->auditor().set_handler(rec.handler());
  ASSERT_TRUE((*sim)->AddArrivals(*arr).ok());
  (*sim)->RunToCompletion();

  EXPECT_TRUE(rec.Fired("memory-conservation"));
  EXPECT_GT((*sim)->auditor().violations(), 0);
}

#endif  // VODB_AUDIT_ENABLED

}  // namespace
}  // namespace vod::sim
