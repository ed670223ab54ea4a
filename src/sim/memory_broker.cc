#include "sim/memory_broker.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "common/check.h"
#include "core/buffer_size_table.h"
#include "core/static_alloc.h"
#include "fault/injector.h"

namespace vod::sim {

namespace {

std::vector<Bits> BuildPriceTable(const core::AllocParams& params,
                                  core::ScheduleMethod method,
                                  bool use_dynamic, int g) {
  // The only inputs DynamicMemoryRequirement/StaticMemoryRequirement can
  // reject for n ∈ [1, N], k ∈ [0, N − n]; checked once so the fill loop
  // cannot fail.
  VOD_CHECK(params.Validate().ok());
  VOD_CHECK(method != core::ScheduleMethod::kGss || g >= 1);
  // Their evaluation, with each buffer size computed once: the dynamic price
  // reads BS_k(n) from one Theorem 1 table fill and services on n + k
  // slots, the static one reads BS(N) and services on N slots.
  std::optional<core::BufferSizeTable> bs_k;
  Bits bs_n;
  if (use_dynamic) {
    Result<core::BufferSizeTable> built = core::BufferSizeTable::Build(params);
    VOD_CHECK(built.ok());
    bs_k.emplace(std::move(built).value());
  } else {
    const Result<Bits> built = core::StaticSchemeBufferSize(params);
    VOD_CHECK(built.ok());
    bs_n = built.value();
  }
  const int n_max = params.n_max;
  const std::size_t stride = static_cast<std::size_t>(n_max) + 1;
  std::vector<Bits> table(static_cast<std::size_t>(n_max) * stride);
  for (int n = 1; n <= n_max; ++n) {
    Bits* row = table.data() + static_cast<std::size_t>(n - 1) * stride;
    // Both requirements clamp k to N − n; the static one ignores k.
    const int last = use_dynamic ? n_max - n : 0;
    for (int k = 0; k <= last; ++k) {
      row[k] = use_dynamic
                   ? core::MemoryRequirementKernel(params, method,
                                                   bs_k->GetUnchecked(n, k),
                                                   n, n + k, g)
                   : core::MemoryRequirementKernel(params, method, bs_n, n,
                                                   n_max, g);
    }
    std::fill(row + last + 1, row + stride, row[last]);
  }
  return table;
}

}  // namespace

AnalyticMemoryBroker::AnalyticMemoryBroker(core::AllocParams params,
                                           core::ScheduleMethod method,
                                           bool use_dynamic, int g,
                                           int disk_count, Bits capacity)
    : n_max_(params.n_max),
      prices_(BuildPriceTable(params, method, use_dynamic, g)),
      capacity_(capacity),
      disk_price_(static_cast<std::size_t>(disk_count)) {
  VOD_CHECK(disk_count >= 1);
}

Bits AnalyticMemoryBroker::PriceDisk(int n, int k) const {
  if (n <= 0) return Bits(0);
  VOD_CHECK(k >= 0);
  n = std::min(n, n_max_);
  return prices_[static_cast<std::size_t>(n - 1) *
                     (static_cast<std::size_t>(n_max_) + 1) +
                 static_cast<std::size_t>(std::min(k, n_max_))];
}

Bits AnalyticMemoryBroker::Capacity() const {
  return injector_ == nullptr ? capacity_
                              : capacity_ * injector_->CapacityScale(clock_);
}

void AnalyticMemoryBroker::AdvanceTo(Seconds now) {
  clock_ = std::max(clock_, now);
}

bool AnalyticMemoryBroker::CanAdmit(int disk, int new_n, int k) const {
  const std::size_t d = static_cast<std::size_t>(disk);
  VOD_CHECK(d < disk_price_.size());
  if (new_n > n_max_) return false;
  const Bits own = PriceDisk(new_n, k);
  Bits total;
  for (std::size_t i = 0; i < disk_price_.size(); ++i) {
    total += i == d ? own : disk_price_[i];
  }
  return total <= Capacity();
}

void AnalyticMemoryBroker::OnState(int disk, int n, int k) {
  const std::size_t d = static_cast<std::size_t>(disk);
  VOD_CHECK(d < disk_price_.size());
  disk_price_[d] = PriceDisk(n, k);
}

Bits AnalyticMemoryBroker::ReservedMemory() const {
  Bits total;
  for (const Bits price : disk_price_) total += price;
  return total;
}

Bits AnalyticMemoryBroker::ReservedExcluding(int disk) const {
  const std::size_t d = static_cast<std::size_t>(disk);
  VOD_CHECK(d < disk_price_.size());
  Bits total;
  for (std::size_t i = 0; i < disk_price_.size(); ++i) {
    if (i != d) total += disk_price_[i];
  }
  return total;
}

// ---------------------------------------------------------------------------
// ShardBrokerView
// ---------------------------------------------------------------------------

ShardBrokerView::ShardBrokerView(AnalyticMemoryBroker* shared, int disk)
    : shared_(shared), disk_(disk) {
  VOD_CHECK(shared != nullptr);
  VOD_CHECK(disk >= 0);
}

bool ShardBrokerView::CanAdmit(int disk, int new_n, int k) const {
  VOD_CHECK(disk == disk_);
  if (!frozen_) return shared_->CanAdmit(disk, new_n, k);
  if (new_n > shared_->max_n()) return false;
  return others_reserved_ + shared_->PriceDisk(new_n, k) <= frozen_capacity_;
}

void ShardBrokerView::OnState(int disk, int n, int k) {
  VOD_CHECK(disk == disk_);
  n_ = n;
  k_ = k;
  if (!frozen_) shared_->OnState(disk, n, k);
}

Bits ShardBrokerView::ReservedMemory() const {
  if (!frozen_) return shared_->ReservedMemory();
  return others_reserved_ + shared_->PriceDisk(n_, k_);
}

Bits ShardBrokerView::Capacity() const {
  return frozen_ ? frozen_capacity_ : shared_->Capacity();
}

void ShardBrokerView::AdvanceTo(Seconds now) {
  // Frozen mode admits no time-varying capacity (the sharded runner rejects
  // injectors), so dropping the call loses nothing; forwarding it would race
  // the other workers on the shared clock.
  if (!frozen_) shared_->AdvanceTo(now);
}

void ShardBrokerView::BeginEpoch(Bits others_reserved, Bits capacity) {
  VOD_CHECK(!frozen_);
  frozen_ = true;
  others_reserved_ = others_reserved;
  frozen_capacity_ = capacity;
}

void ShardBrokerView::EndEpochPublish() {
  VOD_CHECK(frozen_);
  frozen_ = false;
  shared_->OnState(disk_, n_, k_);
}

}  // namespace vod::sim
