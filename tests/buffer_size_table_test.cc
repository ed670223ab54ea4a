#include "core/buffer_size_table.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "core/closed_form.h"
#include "core/params.h"
#include "disk/disk_profile.h"

namespace vod::core {
namespace {

AllocParams SmallParams() {
  auto p = MakeAllocParams(disk::SmallTestDisk(), Mbps(1.5),
                           ScheduleMethod::kRoundRobin, 0, 1);
  EXPECT_TRUE(p.ok());
  return p.value();
}

/// Every (n, k) entry of `table` equals Theorem 1's closed form exactly,
/// at row n's DL, with k clamped to N − n: the table is a cache of the
/// closed form, not an approximation of it.
void ExpectExactlyClosedForm(const BufferSizeTable& table,
                             const BufferSizeTable::DlForN& dl_for_n) {
  const AllocParams& p = table.params();
  for (int n = 1; n <= p.n_max; ++n) {
    AllocParams row = p;
    row.dl = dl_for_n(n);
    for (int k = 0; k <= p.n_max + 1; ++k) {
      const Bits expected =
          DynamicBufferSize(row, n, std::min(k, p.n_max - n)).value();
      ASSERT_EQ(ToBits(table.Get(n, k).value()), ToBits(expected))
          << "n=" << n << " k=" << k << " DL=" << ToSeconds(row.dl)
          << " CR=" << ToMbps(p.cr) << " alpha=" << p.alpha;
    }
  }
}

/// The paper's disk at two consumption rates and α ∈ {1, 2, 3}.
std::vector<AllocParams> PaperGrid(ScheduleMethod method) {
  std::vector<AllocParams> grid;
  const disk::DiskProfile profile = disk::SeagateBarracuda9LP();
  for (const double mbps : {1.5, 4.0}) {
    for (const int alpha : {1, 2, 3}) {
      const int n_max =
          MaxConcurrentRequests(profile.transfer_rate, Mbps(mbps));
      auto p = MakeAllocParams(profile, Mbps(mbps), method,
                               method == ScheduleMethod::kGss ? 8 : n_max,
                               alpha);
      EXPECT_TRUE(p.ok());
      grid.push_back(p.value());
    }
  }
  return grid;
}

TEST(BufferSizeTableTest, MatchesClosedFormEverywhere) {
  // Round-Robin and GSS* size at a DL constant in n.
  std::vector<AllocParams> grid = {SmallParams()};
  for (ScheduleMethod m : {ScheduleMethod::kRoundRobin, ScheduleMethod::kGss}) {
    for (const AllocParams& p : PaperGrid(m)) grid.push_back(p);
  }
  for (const AllocParams& p : grid) {
    auto table = BufferSizeTable::Build(p);
    ASSERT_TRUE(table.ok());
    ExpectExactlyClosedForm(*table, [&p](int) { return p.dl; });
  }
}

TEST(BufferSizeTableTest, FootprintIsOofNSquared) {
  const AllocParams p = SmallParams();
  auto table = BufferSizeTable::Build(p);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->entry_count(),
            static_cast<std::size_t>(p.n_max) *
                static_cast<std::size_t>(p.n_max + 1));
}

TEST(BufferSizeTableTest, SharedTableOwnsItsCacheLines) {
  // Every sharded worker reads the one shared table: neither the object
  // nor its entries may share a cache line with anything a worker writes.
  constexpr std::size_t kLine = table_internal::kLineBytes;
  static_assert(alignof(BufferSizeTable) == kLine);
  static_assert(sizeof(BufferSizeTable) % kLine == 0);
  auto built = BufferSizeTable::Build(SmallParams());
  ASSERT_TRUE(built.ok());
  const auto shared =
      std::make_shared<const BufferSizeTable>(std::move(built).value());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(shared.get()) % kLine, 0u);

  // The entries' allocator hands out whole, aligned lines.
  using Lines = table_internal::LineAllocator<Bits>;
  const std::size_t n = shared->entry_count();
  Lines lines;
  Bits* entries = lines.allocate(n);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(entries) % kLine, 0u);
  EXPECT_EQ(Lines::Bytes(n) % kLine, 0u);
  EXPECT_GE(Lines::Bytes(n), n * sizeof(Bits));
  lines.deallocate(entries, n);
}

TEST(BufferSizeTableTest, ClampsOversizedK) {
  const AllocParams p = SmallParams();
  auto table = BufferSizeTable::Build(p);
  ASSERT_TRUE(table.ok());
  EXPECT_DOUBLE_EQ(ToBits(table->Get(5, 1000).value()),
                   ToBits(table->Get(5, p.n_max).value()));
}

TEST(BufferSizeTableTest, RejectsOutOfRange) {
  const AllocParams p = SmallParams();
  auto table = BufferSizeTable::Build(p);
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE(table->Get(0, 0).ok());
  EXPECT_FALSE(table->Get(p.n_max + 1, 0).ok());
  EXPECT_FALSE(table->Get(1, -1).ok());
}

TEST(BufferSizeTableTest, PerRowDlVariation) {
  // Sweep's table uses DL(n) = γ(Cyln/n) + θ per row (Table 2).
  const disk::DiskProfile profile = disk::SeagateBarracuda9LP();
  auto dl_for_n = [&profile](int n) {
    return WorstDiskLatency(profile, ScheduleMethod::kSweep, n);
  };
  for (const AllocParams& p : PaperGrid(ScheduleMethod::kSweep)) {
    auto table = BufferSizeTable::Build(p, dl_for_n);
    ASSERT_TRUE(table.ok());
    ExpectExactlyClosedForm(*table, dl_for_n);
    // The rows really vary: below N a sweep stops fewer times, so each
    // seek and every buffer is longer than at the fully-loaded DL the
    // params carry; row N is that DL.
    auto flat = BufferSizeTable::Build(p);
    ASSERT_TRUE(flat.ok());
    for (int n = 1; n < p.n_max; ++n) {
      EXPECT_GT(ToBits(table->GetUnchecked(n, 0)),
                ToBits(flat->GetUnchecked(n, 0)))
          << "n=" << n;
    }
    EXPECT_EQ(ToBits(table->GetUnchecked(p.n_max, 0)),
              ToBits(flat->GetUnchecked(p.n_max, 0)));
  }
}

TEST(BufferSizeTableTest, GetUncheckedAgreesWithGet) {
  const AllocParams p = SmallParams();
  auto table = BufferSizeTable::Build(p);
  ASSERT_TRUE(table.ok());
  EXPECT_DOUBLE_EQ(ToBits(table->GetUnchecked(3, 2)), ToBits(table->Get(3, 2).value()));
}

}  // namespace
}  // namespace vod::core
