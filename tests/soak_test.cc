// Soak test: a full 24 h day on the paper's 10-disk server under heavy
// churn — 100k arrivals fighting for a budget that admits only a fraction
// of them — run through the sharded epoch loop on a real thread pool with
// the invariant auditor armed (VODB_AUDIT=ON is the default build). This
// is deliberately far past the tier-1 scenarios in both duration and
// churn volume: it exists to shake out slow-burn state corruption (leaked
// reservations, drifting ledgers, stuck wakeup chains) and, under the
// nightly TSan configuration, cross-thread races in the epoch machinery.
//
// Registered with ctest label "soak" and excluded from default runs (the
// verify scripts pass -LE soak); the nightly CI job runs `ctest -L soak`
// in the TSan tree.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "exp/sharded.h"
#include "exp/thread_pool.h"
#include "sim/multi_disk.h"
#include "sim/workload.h"

namespace vod::sim {
namespace {

constexpr int kDisks = 10;          // The paper's Fig. 13/14 server.
constexpr double kArrivals = 100000; // Churn volume: most are turned away.

TEST(SoakTest, TenDiskDayUnderChurnKeepsEveryInvariant) {
  SimConfig base;
  base.method = core::ScheduleMethod::kRoundRobin;
  base.scheme = AllocScheme::kDynamic;
  base.t_log = Minutes(40);
  base.seed = 97;

  WorkloadConfig w;
  w.duration = Hours(24);
  w.total_expected_arrivals = kArrivals;
  w.disk_count = kDisks;
  w.disk_theta = 0.5;
  w.seed = 29;
  auto arrivals = GenerateWorkload(w);
  ASSERT_TRUE(arrivals.ok());

  // Binding but serviceable: enough memory that streams flow on every
  // disk, little enough that the admission gate works all day long.
  auto md = MultiDiskSimulator::Create(base, kDisks, Mebibytes(120));
  ASSERT_TRUE(md.ok()) << md.status().ToString();
  auto server = std::move(md.value());
  ASSERT_TRUE(server->AddArrivals(*arrivals).ok());

  // Default: one thread per hardware thread, the caller included.
  exp::ThreadPool pool;
  exp::RunShardedToCompletion(*server, pool);
  server->Finalize();

  for (int d = 0; d < kDisks; ++d) {
    SCOPED_TRACE("disk " + std::to_string(d));
    const VodSimulator& s = server->sim(d);
    const SimMetrics& m = s.metrics();
    // Drained: no active streams, no queued events left behind.
    EXPECT_EQ(s.active_count(), 0);
    EXPECT_EQ(s.event_count(), 0u);
    // Books balance.
    EXPECT_EQ(m.admitted + m.rejected, m.arrivals);
    EXPECT_EQ(m.rejected,
              m.rejected_capacity + m.rejected_memory + m.rejected_invalid);
    // Every stream that entered also left.
    EXPECT_EQ(m.completed + m.cancelled, m.admitted);
    // Buffer-bit conservation to fp association noise.
    EXPECT_NEAR(ToBits(m.buffer_bits_allocated),
                ToBits(m.buffer_bits_released),
                1e-9 * std::max(ToBits(m.buffer_bits_allocated), 1.0));
    // A day of real traffic reached this disk.
    EXPECT_GT(m.admitted, 0);
    EXPECT_GT(m.services, 0);
    // Starvation stays within the documented sub-percent residual.
    EXPECT_LE(m.starvation_events, std::max<long>(5, m.services / 100));
  }
  // The run was a soak, not a smoke: the churn produced both heavy
  // admission traffic and heavy rejection traffic.
  const SimCounters total = server->Totals();
  EXPECT_GT(total.admitted, 1000);
  EXPECT_GT(total.rejected, 1000);
  EXPECT_GT(total.services, 100000);
  // Every reservation was returned to the shared pool.
  EXPECT_DOUBLE_EQ(ToBits(server->broker().ReservedMemory()), 0.0);
}

}  // namespace
}  // namespace vod::sim
