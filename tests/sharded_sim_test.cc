// Sharded MultiDiskSimulator determinism suite. The headline property: a
// sharded run is a pure function of its configuration — byte-identical at
// ANY worker count (1, 2, 8), because each epoch's parallel phase runs
// every disk against a frozen ShardBrokerView snapshot and the merge is a
// serial ascending-disk-order publish. The signature compared below
// (metrics_signature.h) folds the raw bits of every per-disk counter, every
// exactly-accumulated double, every allocation record and every (time,
// value) point of the step series into per-disk FNV-1a digests, so one
// flipped bit anywhere flips a digest.
//
// Also pinned: with memory unconstrained the admission schedule never
// depends on sibling disks, so the sharded run must equal the serial
// interleaved run exactly — except the memory_reserved series, which by
// design records epoch-snapshot pricing (a frozen view reports sibling
// reservations as of epoch start, the serial run reports them live).

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "exp/sharded.h"
#include "exp/thread_pool.h"
#include "metrics_signature.h"
#include "sim/multi_disk.h"
#include "sim/workload.h"

namespace vod::sim {
namespace {

SimConfig BaseConfig() {
  SimConfig base;
  base.method = core::ScheduleMethod::kRoundRobin;
  base.scheme = AllocScheme::kDynamic;
  base.t_log = Minutes(40);
  base.seed = 11;
  return base;
}

std::vector<ArrivalEvent> Workload(int disks, double arrivals,
                                   std::uint64_t seed) {
  WorkloadConfig w;
  w.duration = Hours(1);
  w.total_expected_arrivals = arrivals;
  w.disk_count = disks;
  w.disk_theta = 0.5;
  w.seed = seed;
  auto arr = GenerateWorkload(w);
  EXPECT_TRUE(arr.ok());
  return *arr;
}

/// Every disk's metrics signature plus the broker's final reservation, bit
/// for bit. Two runs with equal signatures made bit-identical metrics.
std::string Signature(const MultiDiskSimulator& md,
                      ReservedSeries reserved = ReservedSeries::kInclude) {
  std::vector<const SimMetrics*> disks;
  for (int d = 0; d < md.disk_count(); ++d) {
    disks.push_back(&md.sim(d).metrics());
  }
  char line[64];
  std::snprintf(line, sizeof line, "broker reserved=%a\n",
                ToBits(md.broker().ReservedMemory()));
  return MetricsSignature(disks, reserved) + line;
}

std::unique_ptr<MultiDiskSimulator> MakeServer(
    const SimConfig& base, int disks, Bits capacity,
    const std::vector<ArrivalEvent>& arrivals) {
  auto md = MultiDiskSimulator::Create(base, disks, capacity);
  EXPECT_TRUE(md.ok()) << md.status().ToString();
  EXPECT_TRUE((*md)->AddArrivals(arrivals).ok());
  return std::move(md.value());
}

std::string RunSharded(const SimConfig& base, int disks, Bits capacity,
                       const std::vector<ArrivalEvent>& arrivals, int threads,
                       Seconds epoch = Seconds(1.0),
                       ReservedSeries reserved = ReservedSeries::kInclude) {
  auto md = MakeServer(base, disks, capacity, arrivals);
  exp::ThreadPool pool(threads);
  exp::RunShardedToCompletion(*md, pool, epoch);
  md->Finalize();
  // Sanity: the run actually drained and admitted work.
  for (int d = 0; d < disks; ++d) {
    EXPECT_EQ(md->sim(d).active_count(), 0) << "disk " << d;
  }
  const SimCounters total = md->Totals();
  EXPECT_EQ(total.admitted + total.rejected, total.arrivals);
  EXPECT_GT(total.admitted, 0);
  return Signature(*md, reserved);
}

// --- The headline: worker count never changes a bit. ---

TEST(ShardedSimTest, BitIdenticalAtOneTwoAndEightWorkers) {
  const SimConfig base = BaseConfig();
  const auto arrivals = Workload(/*disks=*/4, /*arrivals=*/90, /*seed=*/21);
  // Tight enough that the broker actually rejects some arrivals (the
  // admission path, not just the independent-disk path, is under test —
  // ~25 MiB per disk is where this workload starts bouncing).
  const Bits capacity = Mebibytes(40);

  const std::string one = RunSharded(base, 4, capacity, arrivals, 1);
  const std::string two = RunSharded(base, 4, capacity, arrivals, 2);
  const std::string eight = RunSharded(base, 4, capacity, arrivals, 8);
  // The digest covers a real run: an idle disk folds exactly the fixed
  // scalars, one that saw traffic folds thousands of series points too.
  EXPECT_EQ(one.find("fields=" + std::to_string(kSignatureFixedFields) + " "),
            std::string::npos)
      << one;
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(ShardedSimTest, BitIdenticalAcrossRepeatsAndEpochGrain) {
  // Same pool size, run twice -> identical; and an epoch of 0.25 s vs 1 s
  // is each internally deterministic (epoch grain IS part of the
  // configuration, so the two grains need not match each other).
  const SimConfig base = BaseConfig();
  const auto arrivals = Workload(3, 60, 33);
  const Bits capacity = Mebibytes(30);
  EXPECT_EQ(RunSharded(base, 3, capacity, arrivals, 2),
            RunSharded(base, 3, capacity, arrivals, 2));
  EXPECT_EQ(RunSharded(base, 3, capacity, arrivals, 2, Seconds(0.25)),
            RunSharded(base, 3, capacity, arrivals, 8, Seconds(0.25)));
}

// --- Differential against the serial reference. ---

TEST(ShardedSimTest, MatchesSerialExactlyWhenMemoryUnconstrained) {
  // With a budget no admission can dent, the broker never gates and the
  // disks schedule fully independently: the sharded run must reproduce the
  // serial interleaved run bit for bit — every admission, allocation,
  // latency sample, and buffer-bit ledger entry. The one deliberate
  // exception is the memory_reserved observability series: a frozen view
  // reports sibling reservations as of epoch start while the serial run
  // reports them live, so that series is excluded from this cross-mode
  // comparison (it stays inside the thread-count comparisons above).
  const SimConfig base = BaseConfig();
  const auto arrivals = Workload(4, 80, 55);
  const Bits capacity = Gibibytes(64);

  auto serial = MakeServer(base, 4, capacity, arrivals);
  serial->RunToCompletion();
  serial->Finalize();

  EXPECT_EQ(Signature(*serial, ReservedSeries::kExclude),
            RunSharded(base, 4, capacity, arrivals, 8, Seconds(1.0),
                       ReservedSeries::kExclude));
}

TEST(ShardedSimTest, TightMemoryShardedRunStaysSane) {
  // Under a binding budget the sharded schedule is its own (deterministic)
  // reference — it prices admission against epoch-start snapshots — but
  // the physical invariants hold regardless.
  const SimConfig base = BaseConfig();
  const auto arrivals = Workload(2, 80, 77);
  auto md = MakeServer(base, 2, Mebibytes(25), arrivals);
  exp::ThreadPool pool(4);
  exp::RunShardedToCompletion(*md, pool);
  md->Finalize();
  const SimCounters total = md->Totals();
  EXPECT_GT(total.rejected, 0);  // The budget actually bound.
  EXPECT_GT(total.admitted, 0);
  for (int d = 0; d < 2; ++d) {
    const SimMetrics& m = md->sim(d).metrics();
    // Buffer-bit conservation: everything allocated was released. The two
    // ledgers sum the same bits in different chunk order, so compare to
    // relative 1e-9 (the property_test convention), not bit equality.
    EXPECT_NEAR(ToBits(m.buffer_bits_allocated),
                ToBits(m.buffer_bits_released),
                1e-9 * ToBits(m.buffer_bits_allocated));
  }
  EXPECT_DOUBLE_EQ(ToBits(md->broker().ReservedMemory()), 0.0);
}

TEST(ShardedSimTest, SerialPathUnchangedByViewIndirection) {
  // The per-disk ShardBrokerView is pass-through outside epochs: a serial
  // run through the views must match a config-identical serial run exactly
  // (this is what keeps the pre-sharding goldens byte-stable).
  const SimConfig base = BaseConfig();
  const auto arrivals = Workload(3, 60, 13);
  auto a = MakeServer(base, 3, Mebibytes(30), arrivals);
  auto b = MakeServer(base, 3, Mebibytes(30), arrivals);
  a->RunToCompletion();
  a->Finalize();
  b->RunToCompletion();
  b->Finalize();
  EXPECT_EQ(Signature(*a), Signature(*b));
}

}  // namespace
}  // namespace vod::sim
