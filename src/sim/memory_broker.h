#ifndef VODB_SIM_MEMORY_BROKER_H_
#define VODB_SIM_MEMORY_BROKER_H_

#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "core/memory_model.h"
#include "core/params.h"

namespace vod::fault {
class Injector;
}  // namespace vod::fault

namespace vod::sim {

/// Shared-memory admission authority for a (possibly multi-disk) server.
/// Disks ask whether admitting one more request fits the memory budget;
/// they report their (n, k) state after every change so the broker can
/// price the whole system with the analytic models of Theorems 2–4.
class MemoryBroker {
 public:
  virtual ~MemoryBroker() = default;

  /// May `disk` grow to `new_n` in-service requests (its current estimate
  /// being `k`)? Pure — does not change state.
  [[nodiscard]] virtual bool CanAdmit(int disk, int new_n, int k) const = 0;

  /// Disk state update (after admission, departure, or allocation).
  virtual void OnState(int disk, int n, int k) = 0;

  /// Total memory the broker currently prices the system at.
  [[nodiscard]] virtual Bits ReservedMemory() const = 0;

  /// Total memory budget the broker admits against; +infinity when
  /// unconstrained. ReservedMemory() <= Capacity() is the conservation
  /// invariant sim::InvariantAuditor checks per event.
  [[nodiscard]] virtual Bits Capacity() const = 0;

  /// Advances the broker's notion of simulated time (brokers are otherwise
  /// time-less). Simulators call this before every CanAdmit/OnState so a
  /// time-varying capacity (fault::Injector memory squeezes) prices against
  /// the current window. Default: no-op — a broker that ignores time is
  /// byte-identical with or without these calls.
  virtual void AdvanceTo(Seconds now) { static_cast<void>(now); }
};

/// Prices each disk with the scheme's analytic minimum memory requirement
/// and admits while the total fits `capacity` (Figs. 13–14).
///
/// Sec. 3.3's precompute applied to Theorems 2–4: the constructor fills an
/// O(N²) table of the price at every (n, k), and OnState caches each disk's
/// current price, so every query is a lookup plus an O(disks) sum. Totals
/// stay left-to-right folds over the cached prices in ascending disk order,
/// bit-identical to summing fresh closed forms; a running total would drift
/// in the low-order bits and could flip an admission that sits exactly on
/// the capacity.
class AnalyticMemoryBroker final : public MemoryBroker {
 public:
  /// `use_dynamic` selects Theorems 2–4 (dynamic scheme) vs the static
  /// counterparts; `g` is the GSS group size.
  AnalyticMemoryBroker(core::AllocParams params, core::ScheduleMethod method,
                       bool use_dynamic, int g, int disk_count,
                       Bits capacity);

  [[nodiscard]] bool CanAdmit(int disk, int new_n, int k) const override;
  void OnState(int disk, int n, int k) override;
  [[nodiscard]] Bits ReservedMemory() const override;
  /// The configured budget scaled by any memory-squeeze fault window open
  /// at the broker clock (the budget itself without an injector). Already
  /// admitted streams are grandfathered — a squeeze only gates growth.
  [[nodiscard]] Bits Capacity() const override;
  void AdvanceTo(Seconds now) override;

  /// Attaches a fault injector whose CapacityScale squeezes the budget
  /// (nullptr detaches). Not owned; must outlive the broker.
  void AttachInjector(const fault::Injector* injector) {
    injector_ = injector;
  }

  /// Memory the model assigns to one disk at (n, k); 0 when n <= 0, n
  /// clamps to N and k (>= 0) to N − n. A read of the table, which is
  /// immutable after construction — safe to call concurrently (the sharded
  /// runner's worker threads do).
  [[nodiscard]] Bits PriceDisk(int n, int k) const;

  /// Total priced memory over every disk except `disk`, in ascending disk
  /// order (the deterministic accumulation order the sharded epoch
  /// snapshots rely on).
  [[nodiscard]] Bits ReservedExcluding(int disk) const;

  /// The model's hard per-disk stream ceiling (AllocParams::n_max).
  [[nodiscard]] int max_n() const { return n_max_; }

 private:
  int n_max_;
  /// Price at (n, k): row n − 1, column k ∈ [0, N]. Columns past N − n
  /// repeat the k = N − n entry (the static scheme's price ignores k, so
  /// its rows repeat the k = 0 entry).
  const std::vector<Bits> prices_;
  Bits capacity_;
  std::vector<Bits> disk_price_;  ///< Each disk's price at its last OnState.
  const fault::Injector* injector_ = nullptr;  ///< Not owned; may be null.
  Seconds clock_;  ///< Monotone; max over AdvanceTo calls.
};

/// Per-disk facade over a shared AnalyticMemoryBroker, the hinge of the
/// sharded MultiDiskSimulator runner. Two modes:
///
///  - Pass-through (default): every call forwards to the shared broker —
///    byte-identical to the disk holding the broker pointer directly, which
///    is what keeps the serial RunToCompletion path and its goldens
///    untouched by the indirection.
///
///  - Frozen (between BeginEpoch and EndEpochPublish): admission prices
///    against an epoch-start snapshot of the *other* disks' reservation and
///    of the capacity, while this disk's own (n, k) stays live. Worker
///    threads running different disks therefore never read each other's
///    mutable state mid-epoch — each epoch's outcome is a pure function of
///    the serial snapshot, making the run bit-identical at any thread
///    count. EndEpochPublish writes the disk's final (n, k) back to the
///    shared broker; the runner publishes in ascending disk order so the
///    merge is deterministic too.
class ShardBrokerView final : public MemoryBroker {
 public:
  /// `shared` must outlive the view. `disk` is the owning disk's id; every
  /// MemoryBroker call must carry it.
  ShardBrokerView(AnalyticMemoryBroker* shared, int disk);

  [[nodiscard]] bool CanAdmit(int disk, int new_n, int k) const override;
  void OnState(int disk, int n, int k) override;
  [[nodiscard]] Bits ReservedMemory() const override;
  [[nodiscard]] Bits Capacity() const override;
  void AdvanceTo(Seconds now) override;

  /// Enters frozen mode with the epoch-start snapshot. Serial-phase only.
  void BeginEpoch(Bits others_reserved, Bits capacity);
  /// Publishes the disk's final (n, k) to the shared broker and returns to
  /// pass-through mode. Serial-phase only; call in ascending disk order.
  void EndEpochPublish();

  [[nodiscard]] bool frozen() const { return frozen_; }
  [[nodiscard]] int disk() const { return disk_; }

 private:
  AnalyticMemoryBroker* shared_;  ///< Not owned.
  int disk_;
  bool frozen_ = false;
  Bits others_reserved_;   ///< Snapshot: sum over other disks.
  Bits frozen_capacity_;   ///< Snapshot: budget for this epoch.
  int n_ = 0;              ///< Own state, live in both modes.
  int k_ = 0;
};

}  // namespace vod::sim

#endif  // VODB_SIM_MEMORY_BROKER_H_
