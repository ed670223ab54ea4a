#include "core/allocator.h"

#include <algorithm>
#include <climits>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "core/arrival_estimator.h"
#include "core/buffer_size_table.h"
#include "core/closed_form.h"
#include "core/static_alloc.h"
#include "disk/disk_profile.h"

namespace vod::core {
namespace {

AllocParams SmallParams() {
  auto p = MakeAllocParams(disk::SmallTestDisk(), Mbps(1.5),
                           ScheduleMethod::kRoundRobin, 0, 1);
  EXPECT_TRUE(p.ok());
  return p.value();  // N = 19.
}

/// A dynamic allocator over a table of its own, DL constant at p.dl.
Result<std::unique_ptr<DynamicBufferAllocator>> MakeDynamic(
    const AllocParams& p, Seconds t_log) {
  Result<BufferSizeTable> table = BufferSizeTable::Build(p);
  if (!table.ok()) return table.status();
  return DynamicBufferAllocator::Create(
      std::make_shared<const BufferSizeTable>(std::move(table).value()),
      t_log);
}

// --- StaticBufferAllocator ---

TEST(StaticAllocatorTest, AlwaysHandsOutFullyLoadedSize) {
  auto a = StaticBufferAllocator::Create(SmallParams());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE((*a)->Admit().ok());
  Snapshot s;
  const AllocationDecision d = (*a)->Allocate(Seconds(0.0), &s);
  EXPECT_DOUBLE_EQ(ToBits(d.buffer_size),
                   ToBits(StaticSchemeBufferSize(SmallParams()).value()));
  EXPECT_EQ(d.k, 0);
  EXPECT_EQ(d.n, 1);
  EXPECT_FALSE(s.allocated);  // The static scheme records no inertia.
}

TEST(StaticAllocatorTest, AdmitsUpToNThenRejects) {
  const AllocParams p = SmallParams();
  auto a = StaticBufferAllocator::Create(p);
  ASSERT_TRUE(a.ok());
  for (int i = 1; i <= p.n_max; ++i) {
    EXPECT_TRUE((*a)->Admit().ok()) << i;
  }
  EXPECT_EQ((*a)->Admit().code(), StatusCode::kCapacityExceeded);
  EXPECT_EQ((*a)->active_count(), p.n_max);
}

TEST(StaticAllocatorTest, RemoveFreesCapacity) {
  const AllocParams p = SmallParams();
  auto a = StaticBufferAllocator::Create(p);
  ASSERT_TRUE(a.ok());
  for (int i = 1; i <= p.n_max; ++i) {
    ASSERT_TRUE((*a)->Admit().ok());
  }
  (*a)->Remove(Snapshot{});
  EXPECT_EQ((*a)->active_count(), p.n_max - 1);
  EXPECT_TRUE((*a)->Admit().ok());
}

// --- DynamicBufferAllocator ---

TEST(DynamicAllocatorTest, FirstAllocationUsesAlphaEstimate) {
  const AllocParams p = SmallParams();
  auto a = MakeDynamic(p, Minutes(40));
  ASSERT_TRUE(a.ok());
  (*a)->NoteArrival(Seconds(0.0));
  ASSERT_TRUE((*a)->Admit().ok());
  Snapshot s;
  const AllocationDecision d = (*a)->Allocate(Seconds(0.0), &s);
  EXPECT_EQ(d.n, 1);
  // k_log = 1 (its own arrival is in the log) → k_c = k_log + α = 2.
  EXPECT_EQ(d.k, 2);
  EXPECT_DOUBLE_EQ(ToBits(d.buffer_size), ToBits(DynamicBufferSize(p, 1, 2).value()));
  // The caller's snapshot records the decision.
  EXPECT_TRUE(s.allocated);
  EXPECT_EQ(s.n, 1);
  EXPECT_EQ(s.k, 2);
}

TEST(DynamicAllocatorTest, BufferSizeTracksLoad) {
  const AllocParams p = SmallParams();
  auto a = MakeDynamic(p, Minutes(40));
  ASSERT_TRUE(a.ok());
  std::vector<Snapshot> snapshots;
  Bits prev = Bits(0.0);
  for (int i = 1; i <= 10; ++i) {
    const Seconds t = Seconds(i * 1.0);
    ASSERT_TRUE((*a)->Admit().ok());
    snapshots.emplace_back();
    // One service round so the inertia snapshots track the new load.
    AllocationDecision last{};
    for (Snapshot& s : snapshots) last = (*a)->Allocate(t, &s);
    EXPECT_EQ(last.n, i);
    EXPECT_GE(last.buffer_size, prev) << "round " << i;
    prev = last.buffer_size;
  }
}

TEST(DynamicAllocatorTest, Assumption2BoundsEstimateGrowth) {
  // k_c <= min_i(k_i) + α at every allocation.
  const AllocParams p = SmallParams();
  auto a = MakeDynamic(p, Minutes(40));
  ASSERT_TRUE(a.ok());
  // Create a burst so k_log would be large.
  for (int i = 0; i < 12; ++i) (*a)->NoteArrival(Seconds(i * 0.01));
  Snapshot s1;
  Snapshot s2;
  ASSERT_TRUE((*a)->Admit().ok());
  const AllocationDecision first = (*a)->Allocate(Seconds(0.2), &s1);
  ASSERT_TRUE((*a)->Admit().ok());
  const AllocationDecision second = (*a)->Allocate(Seconds(0.3), &s2);
  EXPECT_LE(second.k, first.k + p.alpha);
}

TEST(DynamicAllocatorTest, Assumption1DefersOverAdmission) {
  const AllocParams p = SmallParams();
  auto a = MakeDynamic(p, Minutes(40));
  ASSERT_TRUE(a.ok());
  // One serviced request with a small snapshot: n_1 = 1, k_1 = α = 1
  // (empty log → k_log = 0 → k_c = 1): n_1 + k_1 = 2.
  Snapshot s1;
  Snapshot s2;
  ASSERT_TRUE((*a)->Admit().ok());
  (*a)->Allocate(Seconds(0.0), &s1);
  ASSERT_TRUE(s1.allocated);
  ASSERT_EQ(s1.n + s1.k, 2);
  // Second admission is fine (n+1 = 2 <= 2), third must defer (3 > 2).
  EXPECT_TRUE((*a)->Admit().ok());
  EXPECT_EQ((*a)->Admit().code(), StatusCode::kDeferred);
  // After request 1 is re-allocated at the higher load, its snapshot
  // loosens and the deferred admission proceeds.
  (*a)->Allocate(Seconds(0.3), &s1);
  (*a)->Allocate(Seconds(0.35), &s2);
  EXPECT_TRUE((*a)->Admit().ok());
}

TEST(DynamicAllocatorTest, EnforcementCanBeDisabled) {
  const AllocParams p = SmallParams();
  auto a = MakeDynamic(p, Minutes(40));
  ASSERT_TRUE(a.ok());
  (*a)->set_enforce_assumptions(false);
  Snapshot s1;
  ASSERT_TRUE((*a)->Admit().ok());
  (*a)->Allocate(Seconds(0.0), &s1);
  EXPECT_TRUE((*a)->Admit().ok());
  EXPECT_TRUE((*a)->Admit().ok());  // Would defer when enforcing.
  EXPECT_TRUE((*a)->Admit().ok());
}

TEST(DynamicAllocatorTest, MarkDrainedRetiresSnapshot) {
  const AllocParams p = SmallParams();
  auto a = MakeDynamic(p, Minutes(40));
  ASSERT_TRUE(a.ok());
  Snapshot s1;
  ASSERT_TRUE((*a)->Admit().ok());
  (*a)->Allocate(Seconds(0.0), &s1);
  ASSERT_TRUE((*a)->Admit().ok());
  EXPECT_EQ((*a)->Admit().code(), StatusCode::kDeferred);
  // Draining request 1 removes its tight snapshot; admission unblocks,
  // while n still counts the drained request.
  (*a)->MarkDrained(&s1);
  EXPECT_FALSE(s1.allocated);
  EXPECT_EQ((*a)->active_count(), 2);
  EXPECT_TRUE((*a)->Admit().ok());
}

/// Admits requests 1..target, re-allocating every admitted request after
/// each admission (one service round), so the inertia snapshots track the
/// new load and admission can keep growing — the same refresh the scheduler
/// performs in a real run. Returns the snapshots, one per admitted request.
std::vector<Snapshot> FillToLoad(DynamicBufferAllocator* a, int target) {
  std::vector<Snapshot> snapshots;
  for (int i = 1; i <= target; ++i) {
    const Seconds t = Seconds(i * 0.1);
    EXPECT_TRUE(a->Admit().ok()) << i;
    snapshots.emplace_back();
    for (Snapshot& s : snapshots) a->Allocate(t, &s);
  }
  return snapshots;
}

TEST(DynamicAllocatorTest, FullLoadRejects) {
  const AllocParams p = SmallParams();
  auto a = MakeDynamic(p, Minutes(40));
  ASSERT_TRUE(a.ok());
  FillToLoad(a->get(), p.n_max);
  EXPECT_EQ((*a)->Admit().code(), StatusCode::kCapacityExceeded);
}

TEST(DynamicAllocatorTest, FullLoadAllocatesStaticSize) {
  const AllocParams p = SmallParams();
  auto a = MakeDynamic(p, Minutes(40));
  ASSERT_TRUE(a.ok());
  std::vector<Snapshot> snapshots = FillToLoad(a->get(), p.n_max);
  const AllocationDecision d = (*a)->Allocate(Seconds(10.0), &snapshots[0]);
  EXPECT_EQ(d.n, p.n_max);
  // k is not capped (Fig. 5), but the size saturates at BS(N).
  EXPECT_DOUBLE_EQ(ToBits(d.buffer_size), ToBits(StaticSchemeBufferSize(p).value()));
}

TEST(DynamicAllocatorTest, PreviewMatchesAllocateAndIsPure) {
  const AllocParams p = SmallParams();
  auto a = MakeDynamic(p, Minutes(40));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE((*a)->Admit().ok());
  const AllocationDecision preview1 = (*a)->Preview(Seconds(0.0));
  const AllocationDecision preview2 = (*a)->Preview(Seconds(0.0));
  EXPECT_DOUBLE_EQ(ToBits(preview1.buffer_size), ToBits(preview2.buffer_size));
  Snapshot s;
  const AllocationDecision d = (*a)->Allocate(Seconds(0.0), &s);
  EXPECT_DOUBLE_EQ(ToBits(d.buffer_size), ToBits(preview1.buffer_size));
}

/// The inertia minima by brute force over the live requests' snapshots:
/// {min k_i, min (n_i + k_i)} over the allocated ones, INT_MAX when none.
std::pair<int, int> BruteForceMinima(const std::vector<Snapshot>& live) {
  int min_k = INT_MAX;
  int min_nk = INT_MAX;
  for (const Snapshot& s : live) {
    if (!s.allocated) continue;
    min_k = std::min(min_k, s.k);
    min_nk = std::min(min_nk, s.n + s.k);
  }
  return {min_k, min_nk};
}

TEST(DynamicAllocatorTest, MinimaTrackAdmitAllocateDrainRemove) {
  // A seeded random mix of every operation that changes a snapshot. After
  // each step, Preview's k and Admit's verdict must follow the minima of a
  // brute-force scan over the snapshots the test holds. Arrival bursts grow
  // over the run, so k_log keeps rising past older snapshots' k_i and
  // min k_i is what bounds k_c.
  const AllocParams p = SmallParams();
  const Seconds t_log = Minutes(40);
  auto created = MakeDynamic(p, t_log);
  ASSERT_TRUE(created.ok());
  DynamicBufferAllocator& a = **created;
  auto table = BufferSizeTable::Build(p);
  ASSERT_TRUE(table.ok());
  ArrivalEstimator shadow(t_log);  // Fed the same arrivals as `a`.
  Seconds last_usage_period = table->GetUnchecked(1, p.alpha) / p.cr;

  std::mt19937 rng(20011);
  std::vector<Snapshot> live;
  int deferred = 0;
  int admitted = 0;
  int min_ki_bound = 0;
  Seconds now;
  for (int step = 0; step < 600; ++step) {
    now += Seconds(0.25);
    const int min_nk = BruteForceMinima(live).second;
    const auto pick = [&] { return rng() % live.size(); };
    switch (rng() % 6) {
      case 0: {
        const int burst = 1 + step / 60;
        for (int i = 0; i < burst; ++i) {
          a.NoteArrival(now);
          shadow.RecordArrival(now);
        }
        break;
      }
      case 1:
      case 2: {
        const int n = static_cast<int>(live.size());
        const Status st = a.Admit();
        if (n >= p.n_max) {
          EXPECT_EQ(st.code(), StatusCode::kCapacityExceeded) << step;
        } else if (n + 1 > min_nk) {
          EXPECT_EQ(st.code(), StatusCode::kDeferred) << step;
          ++deferred;
        } else {
          EXPECT_TRUE(st.ok()) << step << ": " << st.ToString();
          ++admitted;
        }
        if (st.ok()) live.emplace_back();
        break;
      }
      case 3: {
        if (live.empty()) break;
        const AllocationDecision d = a.Allocate(now, &live[pick()]);
        last_usage_period = d.usage_period;
        break;
      }
      case 4:
        if (!live.empty()) a.MarkDrained(&live[pick()]);
        break;
      case 5: {
        if (live.empty()) break;
        const std::size_t i = pick();
        a.Remove(live[i]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    ASSERT_EQ(a.active_count(), static_cast<int>(live.size())) << step;
    const int min_k = BruteForceMinima(live).first;
    const int k_log_term = shadow.KLog(now, last_usage_period) + p.alpha;
    int expected_k = k_log_term;
    if (min_k != INT_MAX && min_k + p.alpha < k_log_term) {
      expected_k = min_k + p.alpha;
      ++min_ki_bound;
    }
    expected_k = std::max(expected_k, 0);
    ASSERT_EQ(a.Preview(now).k, expected_k) << "step " << step;
  }
  // The run exercised both admission verdicts and a binding min k_i.
  EXPECT_GT(deferred, 0);
  EXPECT_GT(admitted, 0);
  EXPECT_GT(min_ki_bound, 0);
}

TEST(DynamicAllocatorTest, CreateValidatesTLog) {
  EXPECT_FALSE(MakeDynamic(SmallParams(), Seconds(0.0)).ok());
  EXPECT_FALSE(DynamicBufferAllocator::Create(nullptr, Minutes(40)).ok());
}

}  // namespace
}  // namespace vod::core
