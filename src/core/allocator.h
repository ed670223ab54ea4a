#ifndef VODB_CORE_ALLOCATOR_H_
#define VODB_CORE_ALLOCATOR_H_

#include <map>
#include <memory>

#include "common/status.h"
#include "common/units.h"
#include "core/arrival_estimator.h"
#include "core/buffer_size_table.h"
#include "core/params.h"

namespace vod::core {

/// One buffer-allocation decision (Fig. 5, step 5).
struct AllocationDecision {
  Bits buffer_size;
  int n = 0;                 ///< n_c: requests in service at allocation time.
  int k = 0;                 ///< k_c: estimated additional requests (0 static).
  Seconds usage_period;  ///< BS / CR — how long the buffer lasts.
};

/// The (n_i, k_i) a request's last allocation recorded (Fig. 5): the
/// inertia Assumptions 1–2 hold later admissions and estimates to. The
/// caller keeps one per admitted request, in its own request table, and
/// hands it to every allocator call about that request.
struct Snapshot {
  int n = 0;
  int k = 0;
  /// True from the first sized buffer until the request drains or leaves;
  /// only then does the snapshot constrain Assumptions 1–2.
  bool allocated = false;
};

/// Buffer-allocation policy: decides admission of new requests and the size
/// of each buffer handed to a request at its service time. Two
/// implementations: the static scheme (Sec. 2.3 baseline) and the paper's
/// dynamic scheme (Sec. 3). It keeps no per-request state: n counts the
/// admitted requests, and each request's Snapshot lives with the caller.
/// Stateful but not thread-safe: the VOD server drives it from a single
/// scheduling loop.
class BufferAllocator {
 public:
  virtual ~BufferAllocator() = default;

  /// Reports one newly arrived (not yet admitted) user request, so the
  /// dynamic scheme's arrival log sees every arrival, including ones later
  /// deferred or rejected.
  virtual void NoteArrival(Seconds now) = 0;

  /// Attempts to admit a request. On success it counts toward n from now
  /// on, with a fresh (unallocated) Snapshot. Errors:
  ///   CapacityExceeded — n == N; the system cannot take more (reject).
  ///   Deferred — admitting now would violate Assumption 1; retry at the
  ///              next service completion (predict-and-enforce deferral).
  virtual Status Admit() = 0;

  /// Removes a departing admitted request whose snapshot is `snapshot`.
  virtual void Remove(const Snapshot& snapshot) = 0;

  /// Marks a request as fully delivered: it still counts toward n (it is
  /// viewing until its last buffer drains) but needs no more services, so
  /// its last allocation's `*snapshot` stops constraining Assumptions 1–2.
  virtual void MarkDrained(Snapshot* snapshot) = 0;

  /// Sizes the buffer to hand an admitted request for the service starting
  /// now (Fig. 5 steps 4–5), and records the decision's (n, k) in its
  /// `*snapshot`.
  virtual AllocationDecision Allocate(Seconds now, Snapshot* snapshot) = 0;

  /// The decision Allocate would make right now, without recording it.
  /// Used by the scheduler's worst-case lookahead.
  virtual AllocationDecision Preview(Seconds now) const = 0;

  /// Requests currently admitted (the paper's n).
  [[nodiscard]] int active_count() const { return n_; }

  /// The parameter set the allocator sizes against.
  [[nodiscard]] virtual const AllocParams& params() const = 0;

 protected:
  int n_ = 0;  ///< Admitted requests.
};

/// The static baseline: every buffer is BS(N); admission is capped at N.
/// Its allocations carry no inertia, so it leaves every Snapshot as it is.
class StaticBufferAllocator final : public BufferAllocator {
 public:
  static Result<std::unique_ptr<StaticBufferAllocator>> Create(
      const AllocParams& params);

  void NoteArrival(Seconds /*now*/) override {}
  Status Admit() override;
  void Remove(const Snapshot& snapshot) override;
  void MarkDrained(Snapshot* /*snapshot*/) override {}
  AllocationDecision Allocate(Seconds now, Snapshot* snapshot) override;
  AllocationDecision Preview(Seconds now) const override;
  [[nodiscard]] const AllocParams& params() const override { return params_; }

 private:
  StaticBufferAllocator(const AllocParams& params, Bits bs);

  AllocParams params_;
  Bits buffer_size_;
};

/// The paper's dynamic scheme (Fig. 5): predicts k_c from the arrival log,
/// enforces Assumptions 1–2 via admission control, and sizes buffers from
/// the precomputed BS_k(n) table.
class DynamicBufferAllocator final : public BufferAllocator {
 public:
  /// Sizes buffers from `table`, which the allocator shares read-only (one
  /// table serves every disk of a server) and whose params() it runs on.
  static Result<std::unique_ptr<DynamicBufferAllocator>> Create(
      std::shared_ptr<const BufferSizeTable> table, Seconds t_log);

  void NoteArrival(Seconds now) override;
  Status Admit() override;
  void Remove(const Snapshot& snapshot) override;
  void MarkDrained(Snapshot* snapshot) override;
  AllocationDecision Allocate(Seconds now, Snapshot* snapshot) override;
  AllocationDecision Preview(Seconds now) const override;
  [[nodiscard]] const AllocParams& params() const override { return params_; }

  /// The BS_k(n) table buffers are sized from.
  [[nodiscard]] const BufferSizeTable& table() const { return *table_; }

  /// Failure injection: when false, Admit() skips the Assumption-1 gate
  /// (never defers). Simulations then demonstrate the starvation the
  /// predict-and-enforce strategy exists to prevent. Default true.
  void set_enforce_assumptions(bool enforce) {
    enforce_assumptions_ = enforce;
  }

 private:
  DynamicBufferAllocator(std::shared_ptr<const BufferSizeTable> table,
                         Seconds t_log);

  /// min_i over allocated snapshots of (n_i + k_i); INT_MAX when none.
  int MinNiPlusKi() const;
  /// min_i over allocated snapshots of k_i; INT_MAX when none.
  int MinKi() const;

  /// Counts `s` into (or retracts it from) the minima's multisets; a no-op
  /// for snapshots that are not allocated.
  void Count(const Snapshot& s);
  void Retract(const Snapshot& s);

  AllocParams params_;
  /// Read through, never copied, on the hot path: copying would bounce the
  /// shared count between the sharded runner's workers.
  std::shared_ptr<const BufferSizeTable> table_;
  ArrivalEstimator estimator_;
  /// Multisets (value -> count) of n_i + k_i and of k_i over the allocated
  /// snapshots of the admitted requests, so both minima are a lookup
  /// instead of a walk.
  std::map<int, int> ni_plus_ki_;
  std::map<int, int> ki_;
  Seconds last_usage_period_;
  bool enforce_assumptions_ = true;
};

}  // namespace vod::core

#endif  // VODB_CORE_ALLOCATOR_H_
