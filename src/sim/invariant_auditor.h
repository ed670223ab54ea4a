#ifndef VODB_SIM_INVARIANT_AUDITOR_H_
#define VODB_SIM_INVARIANT_AUDITOR_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "core/params.h"
#include "disk/disk_profile.h"
#include "sched/scheduler.h"
#include "sim/metrics.h"

namespace vod::sim {

/// One failed invariant check: which invariant, at what simulated time, and
/// a human-readable account of the numbers involved.
struct InvariantViolation {
  std::string invariant;  ///< Stable name, e.g. "memory-conservation".
  Seconds time;
  std::string detail;
};

/// Runtime auditor of the simulator's structural invariants (DESIGN.md
/// "Audited invariants" maps each check to the paper equation it guards).
///
/// Every check is a pure observer: it recomputes the invariant from its
/// arguments and never feeds anything back into the simulation, so metrics —
/// and the golden-metrics CSVs — are byte-identical whether auditing is
/// compiled in (VODB_AUDIT=ON, the default) or out.
///
/// A violation means a library bug, so the default handler prints the
/// violation and aborts. Tests install a collecting handler instead and
/// assert that deliberate corruption fires the expected invariant.
class InvariantAuditor {
 public:
  using Handler = std::function<void(const InvariantViolation&)>;

  /// Default handler: print to stderr and abort.
  InvariantAuditor();
  explicit InvariantAuditor(Handler handler);

  /// Replaces the violation handler (nullptr restores the aborting default).
  void set_handler(Handler handler);

  /// Capture-then-fail hook: an observer invoked on every violation
  /// *before* the handler runs (and before the aborting default kills the
  /// process), so a postmortem sink can dump flight-recorder state that the
  /// abort would otherwise destroy. Observers must not throw and must not
  /// assume the process survives the subsequent handler. nullptr clears.
  void set_violation_observer(Handler observer);

  // --- Checks. Each counts one check; failures invoke the handler. ---

  /// Event-time monotonicity: the discrete-event clock never runs backwards
  /// (events must pop from the queue in non-decreasing time order).
  void CheckEventTime(Seconds event_time);

  /// Memory conservation, per event: allocated + free == total (within
  /// tolerance) with both shares non-negative. The caller supplies the two
  /// sides from independent accounting paths (e.g. the broker's analytic
  /// reservation vs. its capacity ledger), so drift between them is caught
  /// the moment it appears.
  void CheckMemoryConservation(Seconds now, Bits allocated, Bits free_mem,
                               Bits total);

  /// Broker reservation vs. capacity. The reservation must never be
  /// negative. `capacity_enforced` is set at admission points, where the
  /// broker's CanAdmit gate has just approved the exact state being
  /// reported — there the reservation and the remaining budget must
  /// partition the capacity. Between admissions the k estimate drifts and
  /// analytic repricing may transiently exceed capacity by design
  /// (admission then clamps further growth), so only non-negativity holds.
  void CheckBrokerReservation(Seconds now, Bits reserved, Bits capacity,
                              bool capacity_enforced);

  /// Per-request delivery/consumption ledger: consumed never exceeds
  /// delivered (a buffer cannot underflow below empty), and both advance
  /// monotonically across calls for the same request id.
  void CheckRequestAccounting(Seconds now, RequestId id, Bits delivered,
                              Bits consumed);

  /// Drops the per-request ledger entry (departure or cancellation). Id
  /// reuse after a forget is treated as a new request.
  void ForgetRequest(RequestId id);

  /// A buffer allocation matches the analytic form within relative
  /// tolerance: Theorem 1's closed form BS_k(n) for the dynamic scheme
  /// (with Sweep*'s per-n disk latency from Table 2), Eq. (5)'s BS(N) for
  /// the static scheme. Also checks Eq. (8): usage_period == BS/CR.
  void CheckAllocation(const core::AllocParams& params,
                       core::ScheduleMethod method,
                       const disk::DiskProfile& profile, bool dynamic_scheme,
                       const AllocationRecord& rec);

  /// Service-sequence validity for all three schedulers: no duplicate ids,
  /// and every member still needs service.
  void CheckServiceSequence(const sched::SchedulerContext& ctx,
                            const std::vector<RequestId>& seq, Seconds now);

  /// Batched scheduling facts: SchedulerContext::Facts for `seq` reports,
  /// entry by entry, exactly what the per-request methods report
  /// (BufferDeadline, WorstServiceTime, NeverServiced). Equality is exact,
  /// +infinity included: the batch is an optimization, not an estimate.
  void CheckSchedulerFacts(const sched::SchedulerContext& ctx,
                           const std::vector<RequestId>& seq, Seconds now);

  /// BubbleUp ordering validity: independently recomputes the scheduler's
  /// newcomer-displacement rule and lazy-start pacing (sched::BufferScheduler
  /// ::Next) from the per-request methods and checks the decision agrees —
  /// the chosen request is the newcomer unless serving it first would push
  /// an established buffer past its deadline by worst-case accounting, and
  /// lazy starts never exceed LatestSafeStart minus the newcomer reserve.
  void CheckServiceDecision(const sched::SchedulerContext& ctx,
                            const std::vector<RequestId>& seq,
                            const sched::ServiceDecision& decision,
                            Seconds now);

  [[nodiscard]] long checks() const { return checks_; }
  [[nodiscard]] long violations() const { return violations_; }

 private:
  void Report(const char* invariant, Seconds time, std::string detail);

  Handler handler_;
  Handler violation_observer_;
  long checks_ = 0;
  long violations_ = 0;
  Seconds last_event_time_;
  std::map<RequestId, std::pair<Bits, Bits>> ledger_;  ///< delivered, consumed.
  /// Facts scratch for the two scheduler checks, reused across decisions.
  std::vector<sched::RequestFacts> facts_;
  /// Sorted copy of a service sequence (CheckServiceSequence's duplicate
  /// scan), reused across decisions.
  std::vector<RequestId> sorted_ids_;
};

}  // namespace vod::sim

#endif  // VODB_SIM_INVARIANT_AUDITOR_H_
