#ifndef VODB_SCHED_SCHEDULER_H_
#define VODB_SCHED_SCHEDULER_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "common/units.h"

namespace vod::sched {

/// The per-request facts a scheduling decision reads for one sequence
/// entry, exactly as the per-request methods of SchedulerContext report
/// them.
struct RequestFacts {
  Seconds deadline;              ///< BufferDeadline(id).
  Seconds worst_service;         ///< WorstServiceTime(id).
  bool never_serviced = false;   ///< NeverServiced(id).
};

/// Read-only view of request state the schedulers need. Implemented by the
/// simulator (and by test fixtures). It is asked only about members of the
/// scheduler, which are all requests with data left to deliver (see
/// BufferScheduler).
///
/// Contract the GSS scheduler relies on: CurrentCylinder(id) moves only when
/// `id` completes a service, that is, between the fill that advanced the
/// stream's read position and the scheduler's OnServiceComplete(id).
class SchedulerContext {
 public:
  virtual ~SchedulerContext() = default;

  /// When the request's buffer runs empty (its service deadline). Requests
  /// that have never been serviced return +infinity — an unfilled buffer
  /// cannot underflow (urgency for them is about latency, handled by the
  /// ordering, not about continuity).
  virtual Seconds BufferDeadline(RequestId id) const = 0;

  /// True until the request's first buffer fill completes.
  virtual bool NeverServiced(RequestId id) const = 0;

  /// Disk cylinder of the request's next read (Sweep ordering key).
  virtual double CurrentCylinder(RequestId id) const = 0;

  /// Conservative (worst-case) duration of the request's next buffer fill.
  virtual Seconds WorstServiceTime(RequestId id) const = 0;

  /// Worst-case duration of one hypothetical newcomer service. The pacing
  /// rule reserves this much slack ahead of every established deadline so a
  /// BubbleUp insertion never displaces an urgent refill — the slack the
  /// allocation schemes budget for (k·slots dynamically, N−n free slots
  /// statically).
  virtual Seconds NewcomerReserve() const = 0;

  /// Fills `out` with one RequestFacts per entry of `seq`, in order. The
  /// base implementation calls the per-request methods for each entry (test
  /// contexts inherit it; the auditor replays it as the reference). An
  /// override must report exactly what the per-request methods report, bit
  /// for bit, and exists only to read each request once per decision.
  virtual void Facts(const std::vector<RequestId>& seq,
                     std::vector<RequestFacts>* out) const;
};

/// A scheduling decision: service `id`, starting no earlier than
/// `not_before` (the just-in-time start that keeps every queued buffer fed
/// while maximizing memory sharing — the Sweep*/GSS* "as late as possible"
/// rule).
struct ServiceDecision {
  RequestId id = kInvalidRequestId;
  Seconds not_before;
};

/// Order-of-service policy (Sec. 2.2). The scheduler owns only ordering and
/// admission *timing*; admission *control* (Assumption 1) belongs to the
/// BufferAllocator, and service *timing* safety is computed from the
/// sequence via LatestSafeStart below.
///
/// Membership is who needs service: every registered request has data left
/// to deliver, and no scheduler filters its members. The caller keeps that
/// contract by calling Remove when a request is fully delivered, when it is
/// cancelled and when it departs.
class BufferScheduler {
 public:
  virtual ~BufferScheduler() = default;

  /// Registers a newly admitted request (it has no buffer yet).
  virtual void Add(RequestId id, Seconds now) = 0;

  /// Takes a request out at once: it is in no later sequence. A no-op for
  /// a request that is not a member.
  virtual void Remove(RequestId id) = 0;

  /// Whether a pending request may be admitted now: always for
  /// Round-Robin and GSS* (BubbleUp-style), only at a period boundary for
  /// Sweep*.
  virtual bool AdmitsNow() const = 0;

  /// The upcoming service order: the members in the method's order,
  /// starting with the request to service next. Pure — repeated calls
  /// without intervening mutations return the same sequence.
  /// The returned reference aliases scheduler-owned scratch (`seq_`) and is
  /// valid until the next ServiceSequence/Next call: the sequence is
  /// rebuilt every round, so handing out the buffer instead of a fresh
  /// vector keeps the per-round scheduling loop allocation-free once the
  /// scratch reaches steady-state capacity.
  virtual const std::vector<RequestId>& ServiceSequence(
      const SchedulerContext& ctx, Seconds now) = 0;

  /// Notifies that `id`'s buffer fill finished at `now` (advances rings,
  /// periods, and group cursors).
  virtual void OnServiceComplete(RequestId id, Seconds now) = 0;

  /// Picks the next service and its start time. std::nullopt when nothing
  /// needs service. The front entry's NeverServiced picks the branch; then
  /// only the BubbleUp branch reads the context per request (it stops at
  /// the first established entry), and the other branches read the whole
  /// sequence through one Facts() call. The policy combines three rules:
  ///  - lazy: with only established buffers queued, start at the latest
  ///    safe moment (maximizes memory sharing);
  ///  - eager on newcomers: while any never-serviced request is queued,
  ///    start immediately (BubbleUp's low-latency rule);
  ///  - no displacement: if serving the leading newcomers first would make
  ///    an established buffer miss its deadline (by worst-case accounting),
  ///    skip past them and refill established buffers first. The dynamic
  ///    scheme's k·slot reservation normally keeps this branch cold.
  std::optional<ServiceDecision> Next(const SchedulerContext& ctx,
                                      Seconds now);

 protected:
  /// Backing storage for ServiceSequence (flat round scratch, reused across
  /// rounds). Implementations rebuild it on every call; reuse is what keeps
  /// the per-round scheduling loop allocation-free at steady state.
  std::vector<RequestId> seq_;

 private:
  /// Next()'s Facts scratch, reused across decisions like `seq_`.
  std::vector<RequestFacts> facts_;
};

/// The latest time the server may start working through a sequence (in
/// order, back to back, each service taking its worst-case time) such that
/// every request is refilled no later than its deadline, given the
/// sequence's facts in order:
///
///   latest = min over positions j of ( deadline_j − Σ_{m<=j} svc_m )
///
/// Starting later than this risks a buffer underflow; starting earlier
/// only reduces memory sharing. Returns +inf for an empty sequence.
Seconds LatestSafeStart(const std::vector<RequestFacts>& facts);

}  // namespace vod::sched

#endif  // VODB_SCHED_SCHEDULER_H_
