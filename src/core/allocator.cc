#include "core/allocator.h"

#include <algorithm>
#include <climits>
#include <string>
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

void StaticBufferAllocator::NoteArrival(Seconds /*now*/) {}

Status StaticBufferAllocator::Admit(RequestId id, Seconds /*now*/) {
  if (admitted_.count(id) > 0) {
    return Status::FailedPrecondition("request already admitted");
  }
  if (active_count() >= params_.n_max) {
    return Status::CapacityExceeded("system fully loaded (n == N)");
  }
  admitted_.insert(id);
  return Status::OK();
}

void StaticBufferAllocator::Remove(RequestId id) { admitted_.erase(id); }

Result<AllocationDecision> StaticBufferAllocator::Allocate(RequestId id,
                                                           Seconds /*now*/) {
  if (admitted_.count(id) == 0) {
    return Status::NotFound("request not admitted");
  }
  AllocationDecision d;
  d.buffer_size = buffer_size_;
  d.n = active_count();
  d.k = 0;
  d.usage_period = buffer_size_ / params_.cr;
  return d;
}

Result<AllocationDecision> StaticBufferAllocator::Preview(
    Seconds /*now*/) const {
  AllocationDecision d;
  d.buffer_size = buffer_size_;
  d.n = active_count();
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

Status DynamicBufferAllocator::Admit(RequestId id, Seconds /*now*/) {
  if (snapshots_.count(id) > 0) {
    return Status::FailedPrecondition("request already admitted");
  }
  const int n = active_count();
  if (n >= params_.n_max) {
    return Status::CapacityExceeded("system fully loaded (n == N)");
  }
  // Assumption 1 (Procedure Admission_Control): admitting must keep
  // (n + 1) <= n_i + k_i for every in-service request i, otherwise buffers
  // already sized under the old inertia could underflow. Violations defer
  // the new request rather than rejecting it.
  if (enforce_assumptions_ && n + 1 > MinNiPlusKi()) {
    return Status::Deferred("Assumption 1 would be violated; service later");
  }
  snapshots_[id] = Snapshot{};
  return Status::OK();
}

void DynamicBufferAllocator::Remove(RequestId id) {
  auto it = snapshots_.find(id);
  if (it == snapshots_.end()) return;
  Retract(it->second);
  snapshots_.erase(it);
}

void DynamicBufferAllocator::MarkDrained(RequestId id) {
  auto it = snapshots_.find(id);
  // Drained requests keep their slot in n but no longer constrain the
  // inertia minima: they will never be re-serviced, so their old snapshot
  // carries no continuity obligation.
  if (it == snapshots_.end()) return;
  Retract(it->second);
  it->second.allocated = false;
}

Result<AllocationDecision> DynamicBufferAllocator::Preview(Seconds now) const {
  const int n_c = std::max(1, active_count());
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

Result<AllocationDecision> DynamicBufferAllocator::Allocate(RequestId id,
                                                            Seconds now) {
  auto it = snapshots_.find(id);
  if (it == snapshots_.end()) {
    return Status::NotFound("request not admitted");
  }
  Result<AllocationDecision> d = Preview(now);
  if (!d.ok()) return d.status();
  Retract(it->second);
  it->second = Snapshot{d->n, d->k, /*allocated=*/true};
  Count(it->second);
  last_usage_period_ = d->usage_period;
  return d;
}

Result<DynamicBufferAllocator::Snapshot> DynamicBufferAllocator::snapshot(
    RequestId id) const {
  auto it = snapshots_.find(id);
  if (it == snapshots_.end()) return Status::NotFound("no such request");
  return it->second;
}

}  // namespace vod::core
