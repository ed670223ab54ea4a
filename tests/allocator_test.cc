#include "core/allocator.h"

#include <algorithm>
#include <climits>
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

// --- StaticBufferAllocator ---

TEST(StaticAllocatorTest, AlwaysHandsOutFullyLoadedSize) {
  auto a = StaticBufferAllocator::Create(SmallParams());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE((*a)->Admit(1, Seconds(0.0)).ok());
  auto d = (*a)->Allocate(1, Seconds(0.0));
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(ToBits(d->buffer_size),
                   ToBits(StaticSchemeBufferSize(SmallParams()).value()));
  EXPECT_EQ(d->k, 0);
  EXPECT_EQ(d->n, 1);
}

TEST(StaticAllocatorTest, AdmitsUpToNThenRejects) {
  const AllocParams p = SmallParams();
  auto a = StaticBufferAllocator::Create(p);
  ASSERT_TRUE(a.ok());
  for (int i = 1; i <= p.n_max; ++i) {
    EXPECT_TRUE((*a)->Admit(static_cast<RequestId>(i), Seconds(0.0)).ok()) << i;
  }
  EXPECT_EQ((*a)->Admit(1000, Seconds(0.0)).code(), StatusCode::kCapacityExceeded);
  EXPECT_EQ((*a)->active_count(), p.n_max);
}

TEST(StaticAllocatorTest, RemoveFreesCapacity) {
  const AllocParams p = SmallParams();
  auto a = StaticBufferAllocator::Create(p);
  ASSERT_TRUE(a.ok());
  for (int i = 1; i <= p.n_max; ++i) {
    ASSERT_TRUE((*a)->Admit(static_cast<RequestId>(i), Seconds(0.0)).ok());
  }
  (*a)->Remove(3);
  EXPECT_EQ((*a)->active_count(), p.n_max - 1);
  EXPECT_TRUE((*a)->Admit(1000, Seconds(0.0)).ok());
}

TEST(StaticAllocatorTest, DoubleAdmitFails) {
  auto a = StaticBufferAllocator::Create(SmallParams());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE((*a)->Admit(1, Seconds(0.0)).ok());
  EXPECT_EQ((*a)->Admit(1, Seconds(0.0)).code(), StatusCode::kFailedPrecondition);
}

TEST(StaticAllocatorTest, AllocateUnknownRequestFails) {
  auto a = StaticBufferAllocator::Create(SmallParams());
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)->Allocate(9, Seconds(0.0)).status().code(), StatusCode::kNotFound);
}

// --- DynamicBufferAllocator ---

TEST(DynamicAllocatorTest, FirstAllocationUsesAlphaEstimate) {
  const AllocParams p = SmallParams();
  auto a = DynamicBufferAllocator::Create(p, Minutes(40));
  ASSERT_TRUE(a.ok());
  (*a)->NoteArrival(Seconds(0.0));
  ASSERT_TRUE((*a)->Admit(1, Seconds(0.0)).ok());
  auto d = (*a)->Allocate(1, Seconds(0.0));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->n, 1);
  // k_log = 1 (its own arrival is in the log) → k_c = k_log + α = 2.
  EXPECT_EQ(d->k, 2);
  EXPECT_DOUBLE_EQ(ToBits(d->buffer_size), ToBits(DynamicBufferSize(p, 1, 2).value()));
}

TEST(DynamicAllocatorTest, BufferSizeTracksLoad) {
  const AllocParams p = SmallParams();
  auto a = DynamicBufferAllocator::Create(p, Minutes(40));
  ASSERT_TRUE(a.ok());
  Bits prev = Bits(0.0);
  for (int i = 1; i <= 10; ++i) {
    const Seconds t = Seconds(i * 1.0);
    ASSERT_TRUE((*a)->Admit(static_cast<RequestId>(i), t).ok());
    // One service round so the inertia snapshots track the new load.
    core::AllocationDecision last{};
    for (int j = 1; j <= i; ++j) {
      auto d = (*a)->Allocate(static_cast<RequestId>(j), t);
      ASSERT_TRUE(d.ok());
      last = d.value();
    }
    EXPECT_EQ(last.n, i);
    EXPECT_GE(last.buffer_size, prev) << "round " << i;
    prev = last.buffer_size;
  }
}

TEST(DynamicAllocatorTest, Assumption2BoundsEstimateGrowth) {
  // k_c <= min_i(k_i) + α at every allocation.
  const AllocParams p = SmallParams();
  auto a = DynamicBufferAllocator::Create(p, Minutes(40));
  ASSERT_TRUE(a.ok());
  // Create a burst so k_log would be large.
  for (int i = 0; i < 12; ++i) (*a)->NoteArrival(Seconds(i * 0.01));
  ASSERT_TRUE((*a)->Admit(1, Seconds(0.2)).ok());
  auto first = (*a)->Allocate(1, Seconds(0.2));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*a)->Admit(2, Seconds(0.3)).ok());
  auto second = (*a)->Allocate(2, Seconds(0.3));
  ASSERT_TRUE(second.ok());
  EXPECT_LE(second->k, first->k + p.alpha);
}

TEST(DynamicAllocatorTest, Assumption1DefersOverAdmission) {
  const AllocParams p = SmallParams();
  auto a = DynamicBufferAllocator::Create(p, Minutes(40));
  ASSERT_TRUE(a.ok());
  // One serviced request with a small snapshot: n_1 = 1, k_1 = α = 1
  // (empty log → k_log = 0 → k_c = 1): n_1 + k_1 = 2.
  ASSERT_TRUE((*a)->Admit(1, Seconds(0.0)).ok());
  ASSERT_TRUE((*a)->Allocate(1, Seconds(0.0)).ok());
  auto snap = (*a)->snapshot(1);
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->n + snap->k, 2);
  // Second admission is fine (n+1 = 2 <= 2), third must defer (3 > 2).
  EXPECT_TRUE((*a)->Admit(2, Seconds(0.1)).ok());
  EXPECT_EQ((*a)->Admit(3, Seconds(0.2)).code(), StatusCode::kDeferred);
  // After request 1 is re-allocated at the higher load, its snapshot
  // loosens and the deferred admission proceeds.
  ASSERT_TRUE((*a)->Allocate(1, Seconds(0.3)).ok());
  ASSERT_TRUE((*a)->Allocate(2, Seconds(0.35)).ok());
  EXPECT_TRUE((*a)->Admit(3, Seconds(0.4)).ok());
}

TEST(DynamicAllocatorTest, EnforcementCanBeDisabled) {
  const AllocParams p = SmallParams();
  auto a = DynamicBufferAllocator::Create(p, Minutes(40));
  ASSERT_TRUE(a.ok());
  (*a)->set_enforce_assumptions(false);
  ASSERT_TRUE((*a)->Admit(1, Seconds(0.0)).ok());
  ASSERT_TRUE((*a)->Allocate(1, Seconds(0.0)).ok());
  EXPECT_TRUE((*a)->Admit(2, Seconds(0.1)).ok());
  EXPECT_TRUE((*a)->Admit(3, Seconds(0.2)).ok());  // Would defer when enforcing.
  EXPECT_TRUE((*a)->Admit(4, Seconds(0.3)).ok());
}

TEST(DynamicAllocatorTest, MarkDrainedRetiresSnapshot) {
  const AllocParams p = SmallParams();
  auto a = DynamicBufferAllocator::Create(p, Minutes(40));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE((*a)->Admit(1, Seconds(0.0)).ok());
  ASSERT_TRUE((*a)->Allocate(1, Seconds(0.0)).ok());
  ASSERT_TRUE((*a)->Admit(2, Seconds(0.1)).ok());
  EXPECT_EQ((*a)->Admit(3, Seconds(0.2)).code(), StatusCode::kDeferred);
  // Draining request 1 removes its tight snapshot; admission unblocks,
  // while n still counts the drained request.
  (*a)->MarkDrained(1);
  EXPECT_EQ((*a)->active_count(), 2);
  EXPECT_TRUE((*a)->Admit(3, Seconds(0.3)).ok());
}

/// Admits request i then re-allocates every admitted request (one service
/// round), so the inertia snapshots track the new load and admission can
/// keep growing — the same refresh the scheduler performs in a real run.
void FillToLoad(DynamicBufferAllocator* a, int target) {
  for (int i = 1; i <= target; ++i) {
    const Seconds t = Seconds(i * 0.1);
    ASSERT_TRUE(a->Admit(static_cast<RequestId>(i), t).ok()) << i;
    for (int j = 1; j <= i; ++j) {
      ASSERT_TRUE(a->Allocate(static_cast<RequestId>(j), t).ok()) << j;
    }
  }
}

TEST(DynamicAllocatorTest, FullLoadRejects) {
  const AllocParams p = SmallParams();
  auto a = DynamicBufferAllocator::Create(p, Minutes(40));
  ASSERT_TRUE(a.ok());
  FillToLoad(a->get(), p.n_max);
  EXPECT_EQ((*a)->Admit(999, Seconds(100.0)).code(), StatusCode::kCapacityExceeded);
}

TEST(DynamicAllocatorTest, FullLoadAllocatesStaticSize) {
  const AllocParams p = SmallParams();
  auto a = DynamicBufferAllocator::Create(p, Minutes(40));
  ASSERT_TRUE(a.ok());
  FillToLoad(a->get(), p.n_max);
  auto d = (*a)->Allocate(1, Seconds(10.0));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->n, p.n_max);
  // k is not capped (Fig. 5), but the size saturates at BS(N).
  EXPECT_DOUBLE_EQ(ToBits(d->buffer_size), ToBits(StaticSchemeBufferSize(p).value()));
}

TEST(DynamicAllocatorTest, PreviewMatchesAllocateAndIsPure) {
  const AllocParams p = SmallParams();
  auto a = DynamicBufferAllocator::Create(p, Minutes(40));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE((*a)->Admit(1, Seconds(0.0)).ok());
  auto preview1 = (*a)->Preview(Seconds(0.0));
  auto preview2 = (*a)->Preview(Seconds(0.0));
  ASSERT_TRUE(preview1.ok());
  ASSERT_TRUE(preview2.ok());
  EXPECT_DOUBLE_EQ(ToBits(preview1->buffer_size), ToBits(preview2->buffer_size));
  auto d = (*a)->Allocate(1, Seconds(0.0));
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(ToBits(d->buffer_size), ToBits(preview1->buffer_size));
}

/// The inertia minima by brute force over the live ids' snapshots:
/// {min k_i, min (n_i + k_i)} over the allocated ones, INT_MAX when none.
std::pair<int, int> BruteForceMinima(const DynamicBufferAllocator& a,
                                     const std::vector<RequestId>& live) {
  int min_k = INT_MAX;
  int min_nk = INT_MAX;
  for (RequestId id : live) {
    auto s = a.snapshot(id);
    EXPECT_TRUE(s.ok()) << id;
    if (!s.ok() || !s->allocated) continue;
    min_k = std::min(min_k, s->k);
    min_nk = std::min(min_nk, s->n + s->k);
  }
  return {min_k, min_nk};
}

TEST(DynamicAllocatorTest, MinimaTrackAdmitAllocateDrainRemove) {
  // A seeded random mix of every operation that changes a snapshot. After
  // each step, Preview's k and Admit's verdict must follow the minima of a
  // brute-force scan. Arrival bursts grow over the run, so k_log keeps
  // rising past older snapshots' k_i and min k_i is what bounds k_c.
  const AllocParams p = SmallParams();
  const Seconds t_log = Minutes(40);
  auto created = DynamicBufferAllocator::Create(p, t_log);
  ASSERT_TRUE(created.ok());
  DynamicBufferAllocator& a = **created;
  auto table = BufferSizeTable::Build(p);
  ASSERT_TRUE(table.ok());
  ArrivalEstimator shadow(t_log);  // Fed the same arrivals as `a`.
  Seconds last_usage_period = table->GetUnchecked(1, p.alpha) / p.cr;

  std::mt19937 rng(20011);
  std::vector<RequestId> live;
  RequestId next_id = 1;
  int deferred = 0;
  int admitted = 0;
  int min_ki_bound = 0;
  Seconds now;
  for (int step = 0; step < 600; ++step) {
    now += Seconds(0.25);
    const int min_nk = BruteForceMinima(a, live).second;
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
        const Status st = a.Admit(next_id, now);
        if (n >= p.n_max) {
          EXPECT_EQ(st.code(), StatusCode::kCapacityExceeded) << step;
        } else if (n + 1 > min_nk) {
          EXPECT_EQ(st.code(), StatusCode::kDeferred) << step;
          ++deferred;
        } else {
          EXPECT_TRUE(st.ok()) << step << ": " << st.ToString();
          ++admitted;
        }
        if (st.ok()) live.push_back(next_id);
        ++next_id;
        break;
      }
      case 3: {
        if (live.empty()) break;
        auto d = a.Allocate(live[pick()], now);
        ASSERT_TRUE(d.ok());
        last_usage_period = d->usage_period;
        break;
      }
      case 4:
        if (!live.empty()) a.MarkDrained(live[pick()]);
        break;
      case 5: {
        if (live.empty()) break;
        const std::size_t i = pick();
        a.Remove(live[i]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    const int min_k = BruteForceMinima(a, live).first;
    const int k_log_term = shadow.KLog(now, last_usage_period) + p.alpha;
    int expected_k = k_log_term;
    if (min_k != INT_MAX && min_k + p.alpha < k_log_term) {
      expected_k = min_k + p.alpha;
      ++min_ki_bound;
    }
    expected_k = std::max(expected_k, 0);
    auto preview = a.Preview(now);
    ASSERT_TRUE(preview.ok());
    ASSERT_EQ(preview->k, expected_k) << "step " << step;
  }
  // The run exercised both admission verdicts and a binding min k_i.
  EXPECT_GT(deferred, 0);
  EXPECT_GT(admitted, 0);
  EXPECT_GT(min_ki_bound, 0);
}

TEST(DynamicAllocatorTest, AllocateUnknownRequestFails) {
  auto a = DynamicBufferAllocator::Create(SmallParams(), Minutes(40));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)->Allocate(77, Seconds(0.0)).status().code(), StatusCode::kNotFound);
}

TEST(DynamicAllocatorTest, CreateValidatesTLog) {
  EXPECT_FALSE(DynamicBufferAllocator::Create(SmallParams(), Seconds(0.0)).ok());
}

}  // namespace
}  // namespace vod::core
