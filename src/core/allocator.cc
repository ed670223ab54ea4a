#include "core/allocator.h"

#include <algorithm>
#include <climits>
#include <utility>

#include "common/check.h"
#include "core/closed_form.h"
#include "core/static_alloc.h"

namespace vod::core {

// ---------------------------------------------------------------------------
// StaticBufferAllocator
// ---------------------------------------------------------------------------

StaticBufferAllocator::StaticBufferAllocator(const AllocParams& params,
                                             Bits bs)
    : params_(params), buffer_size_(bs) {}

Result<std::unique_ptr<StaticBufferAllocator>> StaticBufferAllocator::Create(
    const AllocParams& params) {
  Result<Bits> bs = StaticSchemeBufferSize(params);
  if (!bs.ok()) return bs.status();
  return std::unique_ptr<StaticBufferAllocator>(
      new StaticBufferAllocator(params, bs.value()));
}

Status StaticBufferAllocator::Admit() {
  if (n_ >= params_.n_max) {
    return Status::CapacityExceeded("system fully loaded (n == N)");
  }
  ++n_;
  return Status::OK();
}

void StaticBufferAllocator::Remove(const Snapshot& /*snapshot*/) { --n_; }

AllocationDecision StaticBufferAllocator::Allocate(Seconds now,
                                                   Snapshot* /*snapshot*/) {
  return Preview(now);
}

AllocationDecision StaticBufferAllocator::Preview(Seconds /*now*/) const {
  AllocationDecision d;
  d.buffer_size = buffer_size_;
  d.n = n_;
  d.k = 0;
  d.usage_period = buffer_size_ / params_.cr;
  return d;
}

// ---------------------------------------------------------------------------
// DynamicBufferAllocator
// ---------------------------------------------------------------------------

DynamicBufferAllocator::DynamicBufferAllocator(
    std::shared_ptr<const BufferSizeTable> table, Seconds t_log)
    : params_(table->params()), table_(std::move(table)), estimator_(t_log),
      // Until the first allocation, approximate the service period with the
      // lightest-load usage period: BS_α(1)/CR.
      last_usage_period_(table_->GetUnchecked(1, params_.alpha) /
                         params_.cr) {}

Result<std::unique_ptr<DynamicBufferAllocator>> DynamicBufferAllocator::Create(
    std::shared_ptr<const BufferSizeTable> table, Seconds t_log) {
  if (table == nullptr) return Status::InvalidArgument("no BS_k(n) table");
  if (t_log <= Seconds(0)) {
    return Status::InvalidArgument("T_log must be > 0");
  }
  return std::unique_ptr<DynamicBufferAllocator>(
      new DynamicBufferAllocator(std::move(table), t_log));
}

void DynamicBufferAllocator::NoteArrival(Seconds now) {
  estimator_.RecordArrival(now);
}

namespace {

void AddOne(std::map<int, int>* counts, int value) { ++(*counts)[value]; }

void RemoveOne(std::map<int, int>* counts, int value) {
  auto it = counts->find(value);
  VOD_CHECK(it != counts->end());
  if (--it->second == 0) counts->erase(it);
}

}  // namespace

void DynamicBufferAllocator::Count(const Snapshot& s) {
  if (!s.allocated) return;
  AddOne(&ni_plus_ki_, s.n + s.k);
  AddOne(&ki_, s.k);
}

void DynamicBufferAllocator::Retract(const Snapshot& s) {
  if (!s.allocated) return;
  RemoveOne(&ni_plus_ki_, s.n + s.k);
  RemoveOne(&ki_, s.k);
}

int DynamicBufferAllocator::MinNiPlusKi() const {
  return ni_plus_ki_.empty() ? INT_MAX : ni_plus_ki_.begin()->first;
}

int DynamicBufferAllocator::MinKi() const {
  return ki_.empty() ? INT_MAX : ki_.begin()->first;
}

Status DynamicBufferAllocator::Admit() {
  if (n_ >= params_.n_max) {
    return Status::CapacityExceeded("system fully loaded (n == N)");
  }
  // Assumption 1 (Procedure Admission_Control): admitting must keep
  // (n + 1) <= n_i + k_i for every in-service request i, otherwise buffers
  // already sized under the old inertia could underflow. Violations defer
  // the new request rather than rejecting it.
  if (enforce_assumptions_ && n_ + 1 > MinNiPlusKi()) {
    return Status::Deferred("Assumption 1 would be violated; service later");
  }
  ++n_;
  return Status::OK();
}

void DynamicBufferAllocator::Remove(const Snapshot& snapshot) {
  Retract(snapshot);
  --n_;
}

void DynamicBufferAllocator::MarkDrained(Snapshot* snapshot) {
  // Drained requests keep their slot in n but no longer constrain the
  // inertia minima: they will never be re-serviced, so their old snapshot
  // carries no continuity obligation.
  Retract(*snapshot);
  snapshot->allocated = false;
}

AllocationDecision DynamicBufferAllocator::Preview(Seconds now) const {
  const int n_c = std::max(1, n_);
  // Fig. 5 step 4: k_c = min(k_log + α, min_i(k_i + α)). The estimate is
  // deliberately *not* capped at N − n_c (the paper doesn't cap it either):
  // the buffer-size table saturates at the fully loaded size by itself, and
  // an uncapped k keeps the success-probability semantics of Figs. 7–8.
  const int k_log = estimator_.KLog(now, last_usage_period_);
  int k_c = k_log + params_.alpha;
  const int min_ki = MinKi();
  if (min_ki != INT_MAX) {
    k_c = std::min(k_c, min_ki + params_.alpha);
  }
  k_c = std::max(k_c, 0);

  AllocationDecision d;
  d.buffer_size = table_->GetUnchecked(n_c, k_c);
  d.n = n_c;
  d.k = k_c;
  d.usage_period = d.buffer_size / params_.cr;
  return d;
}

AllocationDecision DynamicBufferAllocator::Allocate(Seconds now,
                                                    Snapshot* snapshot) {
  const AllocationDecision d = Preview(now);
  Retract(*snapshot);
  *snapshot = Snapshot{d.n, d.k, /*allocated=*/true};
  Count(*snapshot);
  last_usage_period_ = d.usage_period;
  return d;
}

}  // namespace vod::core
