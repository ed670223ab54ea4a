#include "sim/invariant_auditor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "core/closed_form.h"
#include "core/static_alloc.h"

namespace vod::sim {

namespace {

constexpr Seconds kTimeEps = Seconds(1e-9);
/// Relative tolerance for analytic-form comparisons. The simulator and the
/// closed forms evaluate the same expressions in different orders, so only
/// rounding noise separates them.
constexpr double kRelTol = 1e-6;
/// Absolute slack for bit ledgers (values are O(1e6..1e9) bits).
constexpr Bits kBitsEps = Bits(1e-3);

bool NearlyEqual(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= kRelTol * scale;
}

template <typename D>
bool NearlyEqual(Quantity<D> a, Quantity<D> b) {
  return NearlyEqual(a.value(), b.value());
}

void AbortingHandler(const InvariantViolation& v) {
  std::fprintf(stderr,
               "InvariantAuditor: [%s] violated at t=%.9f\n  %s\n",
               v.invariant.c_str(), ToSeconds(v.time), v.detail.c_str());
  std::abort();
}

}  // namespace

InvariantAuditor::InvariantAuditor() : InvariantAuditor(Handler()) {}

InvariantAuditor::InvariantAuditor(Handler handler)
    : handler_(std::move(handler)),
      last_event_time_(-Seconds::Infinity()) {}

void InvariantAuditor::set_handler(Handler handler) {
  handler_ = std::move(handler);
}

void InvariantAuditor::set_violation_observer(Handler observer) {
  violation_observer_ = std::move(observer);
}

void InvariantAuditor::Report(const char* invariant, Seconds time,
                              std::string detail) {
  ++violations_;
  InvariantViolation v;
  v.invariant = invariant;
  v.time = time;
  v.detail = std::move(detail);
  // Capture-then-fail: give the observer (postmortem sink) its dump before
  // the handler — which may abort — runs.
  if (violation_observer_) violation_observer_(v);
  if (handler_) {
    handler_(v);
  } else {
    AbortingHandler(v);
  }
}

void InvariantAuditor::CheckEventTime(Seconds event_time) {
  ++checks_;
  // The tolerance must scale with the clock: late in a long run two
  // back-to-back events (e.g. a zero-length retry re-issued at the same
  // instant) differ only in bits below the representable resolution of
  // `now`, which an absolute 1e-9 would misread as time travel.
  const Seconds tol = kTimeEps * std::max(1.0, std::fabs(last_event_time_.value()));
  if (event_time < last_event_time_ - tol) {
    Report("event-time-monotonicity", event_time,
           "event at t=" + std::to_string(event_time.value()) +
               " precedes already-processed t=" +
               std::to_string(last_event_time_.value()));
  }
  last_event_time_ = std::max(last_event_time_, event_time);
}

void InvariantAuditor::CheckMemoryConservation(Seconds now, Bits allocated,
                                               Bits free_mem, Bits total) {
  ++checks_;
  const Bits slack = kBitsEps + kRelTol * std::max(total, Bits(1.0));
  if (allocated < -slack) {
    Report("memory-conservation", now,
           "allocated share is negative: " + std::to_string(allocated.value()));
    return;
  }
  if (free_mem < -slack) {
    Report("memory-conservation", now,
           "free share is negative: " + std::to_string(free_mem.value()) +
               " (allocated=" + std::to_string(allocated.value()) +
               ", total=" + std::to_string(total.value()) + ")");
    return;
  }
  if (Abs(allocated + free_mem - total) > slack) {
    Report("memory-conservation", now,
           "allocated+free != total: " + std::to_string(allocated.value()) + " + " +
               std::to_string(free_mem.value()) +
               " != " + std::to_string(total.value()));
  }
}

void InvariantAuditor::CheckBrokerReservation(Seconds now, Bits reserved,
                                              Bits capacity,
                                              bool capacity_enforced) {
  if (capacity_enforced) {
    CheckMemoryConservation(now, reserved, capacity - reserved, capacity);
    return;
  }
  ++checks_;
  const Bits slack = kBitsEps + kRelTol * std::max(capacity, Bits(1.0));
  if (reserved < -slack) {
    Report("memory-conservation", now,
           "broker reservation is negative: " + std::to_string(reserved.value()));
  }
}

void InvariantAuditor::CheckRequestAccounting(Seconds now, RequestId id,
                                              Bits delivered, Bits consumed) {
  ++checks_;
  if (consumed > delivered + kBitsEps) {
    Report("request-accounting", now,
           "request " + std::to_string(id) + " consumed " +
               std::to_string(consumed.value()) + " bits > delivered " +
               std::to_string(delivered.value()));
  }
  if (consumed < -kBitsEps || delivered < -kBitsEps) {
    Report("request-accounting", now,
           "request " + std::to_string(id) + " has a negative ledger");
  }
  auto it = ledger_.find(id);
  if (it != ledger_.end()) {
    const auto& [prev_delivered, prev_consumed] = it->second;
    if (delivered < prev_delivered - kBitsEps ||
        consumed < prev_consumed - kBitsEps) {
      Report("request-accounting", now,
             "request " + std::to_string(id) +
                 " ledger ran backwards: delivered " +
                 std::to_string(prev_delivered.value()) + " -> " +
                 std::to_string(delivered.value()) + ", consumed " +
                 std::to_string(prev_consumed.value()) + " -> " +
                 std::to_string(consumed.value()));
    }
  }
  ledger_[id] = {delivered, consumed};
}

void InvariantAuditor::ForgetRequest(RequestId id) { ledger_.erase(id); }

void InvariantAuditor::CheckAllocation(const core::AllocParams& params,
                                       core::ScheduleMethod method,
                                       const disk::DiskProfile& profile,
                                       bool dynamic_scheme,
                                       const AllocationRecord& rec) {
  ++checks_;
  // Eq. (8): a minimal buffer holds exactly one usage period of data.
  if (!NearlyEqual(rec.usage_period, rec.buffer_size / params.cr)) {
    Report("usage-period", rec.time,
           "usage_period " + std::to_string(rec.usage_period.value()) +
               " != BS/CR = " +
               std::to_string((rec.buffer_size / params.cr).value()));
    return;
  }

  Result<Bits> expected = Status::Internal("unset");
  if (!dynamic_scheme) {
    // The static scheme hands every request BS(N) (Sec. 2.3, Eq. 5).
    expected = core::StaticSchemeBufferSize(params);
  } else {
    // Theorem 1's closed form, with Sweep*'s DL varying with the in-service
    // count n (Table 2) and k clamped to the structural headroom N - n the
    // way BufferSizeTable clamps it.
    core::AllocParams p = params;
    if (method == core::ScheduleMethod::kSweep) {
      p.dl = core::WorstDiskLatency(profile, method, std::max(1, rec.n));
    }
    const int k = rec.n >= p.n_max
                      ? 0
                      : std::min(rec.k, p.n_max - rec.n);
    expected = core::DynamicBufferSize(p, rec.n, k);
  }
  if (!expected.ok()) {
    Report("theorem1-buffer-size", rec.time,
           "closed form failed for (n=" + std::to_string(rec.n) +
               ", k=" + std::to_string(rec.k) +
               "): " + expected.status().ToString());
    return;
  }
  if (!NearlyEqual(rec.buffer_size, expected.value())) {
    Report("theorem1-buffer-size", rec.time,
           "allocated " + std::to_string(rec.buffer_size.value()) +
               " bits at (n=" + std::to_string(rec.n) +
               ", k=" + std::to_string(rec.k) + "), analytic form gives " +
               std::to_string(expected.value().value()));
  }
}

void InvariantAuditor::CheckServiceSequence(const sched::SchedulerContext& ctx,
                                            const std::vector<RequestId>& seq,
                                            Seconds now) {
  ++checks_;
  // Duplicates show as equal neighbours in a sorted copy, kept in a member
  // so a decision allocates nothing. Only a sequence that has one pays the
  // in-order search that names the first repeat.
  sorted_ids_.assign(seq.begin(), seq.end());
  std::sort(sorted_ids_.begin(), sorted_ids_.end());
  const bool has_duplicate =
      std::adjacent_find(sorted_ids_.begin(), sorted_ids_.end()) !=
      sorted_ids_.end();
  for (auto it = seq.begin(); it != seq.end(); ++it) {
    const RequestId id = *it;
    if (has_duplicate && std::find(seq.begin(), it, id) != it) {
      Report("service-sequence", now,
             "request " + std::to_string(id) +
                 " appears twice in the service sequence");
      return;
    }
    if (!ctx.NeedsService(id)) {
      Report("service-sequence", now,
             "request " + std::to_string(id) +
                 " is in the service sequence but needs no service");
      return;
    }
  }
}

void InvariantAuditor::CheckSchedulerFacts(const sched::SchedulerContext& ctx,
                                           const std::vector<RequestId>& seq,
                                           Seconds now) {
  ++checks_;
  ctx.Facts(seq, &facts_);
  if (facts_.size() != seq.size()) {
    Report("scheduler-facts", now,
           "Facts returned " + std::to_string(facts_.size()) +
               " entries for a sequence of " + std::to_string(seq.size()));
    return;
  }
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const RequestId id = seq[i];
    const sched::RequestFacts& f = facts_[i];
    const Seconds deadline = ctx.BufferDeadline(id);
    const Seconds worst_service = ctx.WorstServiceTime(id);
    const bool never_serviced = ctx.NeverServiced(id);
    if (f.deadline != deadline || f.worst_service != worst_service ||
        f.never_serviced != never_serviced) {
      Report("scheduler-facts", now,
             "request " + std::to_string(id) + " at position " +
                 std::to_string(i) + ": batch (deadline " +
                 std::to_string(f.deadline.value()) + ", worst service " +
                 std::to_string(f.worst_service.value()) +
                 ", never serviced " + std::to_string(f.never_serviced) +
                 ") != per-request (" + std::to_string(deadline.value()) +
                 ", " + std::to_string(worst_service.value()) + ", " +
                 std::to_string(never_serviced) + ")");
      return;
    }
  }
}

void InvariantAuditor::CheckServiceDecision(
    const sched::SchedulerContext& ctx, const std::vector<RequestId>& seq,
    const sched::ServiceDecision& decision, Seconds now) {
  ++checks_;
  if (seq.empty()) {
    Report("bubbleup-ordering", now,
           "a decision was produced from an empty sequence");
    return;
  }
  if (std::find(seq.begin(), seq.end(), decision.id) == seq.end()) {
    Report("bubbleup-ordering", now,
           "decision serves request " + std::to_string(decision.id) +
               " which is not in the service sequence");
    return;
  }

  if (ctx.NeverServiced(seq.front())) {
    // BubbleUp front-newcomer rule: serve the newcomer unless worst-case
    // accounting shows the first established buffer would miss its
    // deadline; then that buffer must be caught up first.
    Seconds elapsed;
    std::size_t first_established = seq.size();
    for (std::size_t i = 0; i < seq.size(); ++i) {
      elapsed += ctx.WorstServiceTime(seq[i]);
      if (!ctx.NeverServiced(seq[i])) {
        first_established = i;
        break;
      }
    }
    const bool newcomer_safe =
        first_established == seq.size() ||
        ctx.BufferDeadline(seq[first_established]) - now >= elapsed;
    const RequestId expected =
        newcomer_safe ? seq.front() : seq[first_established];
    if (decision.id != expected) {
      Report("bubbleup-ordering", now,
             "front newcomer " + std::to_string(seq.front()) +
                 (newcomer_safe ? " is safe to serve"
                                : " would displace an established deadline") +
                 "; expected request " + std::to_string(expected) +
                 " but the decision serves " + std::to_string(decision.id));
    }
    if (decision.not_before > now + kTimeEps) {
      Report("bubbleup-ordering", now,
             "newcomer service delayed to t=" +
                 std::to_string(decision.not_before.value()));
    }
    return;
  }

  const bool has_fresh =
      std::any_of(seq.begin(), seq.end(),
                  [&ctx](RequestId id) { return ctx.NeverServiced(id); });
  if (decision.id != seq.front()) {
    Report("bubbleup-ordering", now,
           "established-front sequence must serve its head " +
               std::to_string(seq.front()) + ", decision serves " +
               std::to_string(decision.id));
    return;
  }
  if (has_fresh) {
    if (decision.not_before > now + kTimeEps) {
      Report("bubbleup-ordering", now,
             "a newcomer is queued but service is delayed to t=" +
                 std::to_string(decision.not_before.value()));
    }
    return;
  }
  // Lazy pacing: as late as safely possible minus one newcomer reserve,
  // from the per-request reference facts (the base Facts, not an override).
  ctx.sched::SchedulerContext::Facts(seq, &facts_);
  const Seconds latest = std::max(
      now, sched::LatestSafeStart(facts_) - ctx.NewcomerReserve());
  if (!NearlyEqual(decision.not_before, latest) &&
      decision.not_before > latest + kTimeEps) {
    Report("bubbleup-ordering", now,
           "lazy start t=" + std::to_string(decision.not_before.value()) +
               " exceeds the latest safe start " + std::to_string(latest.value()));
  }
}

}  // namespace vod::sim
