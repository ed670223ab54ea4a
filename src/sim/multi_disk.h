#ifndef VODB_SIM_MULTI_DISK_H_
#define VODB_SIM_MULTI_DISK_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "sim/memory_broker.h"
#include "sim/vod_simulator.h"
#include "sim/workload.h"

namespace vod::sim {

/// A VOD server with several disks sharing one memory budget (the setting
/// of Figs. 13–14: 10 Barracuda disks, disk loads skewed by Zipf(θ)).
/// Each disk runs its own VodSimulator; a shared AnalyticMemoryBroker
/// prices every disk with the scheme's memory model and gates admission.
/// The event loops interleave on a single global clock.
class MultiDiskSimulator {
 public:
  /// `base` configures each disk (disk_id/seed are derived per disk).
  /// `memory_capacity` is the shared budget in bits.
  static Result<std::unique_ptr<MultiDiskSimulator>> Create(
      const SimConfig& base, int disk_count, Bits memory_capacity);

  /// Distributes arrivals to disks via their `disk` field. All or nothing:
  /// when any disk's slice is invalid, no disk queues any arrival.
  Status AddArrivals(const std::vector<ArrivalEvent>& arrivals);

  /// Runs all disks to completion on the shared clock.
  void RunToCompletion();

  /// Runs fn(i) for every i in [0, n); any implementation may run the
  /// calls concurrently (exp::ThreadPool::ParallelFor matches this shape;
  /// sim/ cannot depend on exp/, so the executor is injected).
  using ParallelForFn =
      std::function<void(std::size_t, const std::function<void(std::size_t)>&)>;

  /// Sharded execution: runs the disks to completion in lock-step epochs of
  /// `epoch` simulated seconds, each disk advancing on its own executor
  /// slot against a frozen epoch-start snapshot of the shared memory state
  /// (ShardBrokerView), with a serial ascending-disk-order merge at every
  /// barrier. The result is a pure function of the configuration — bit-
  /// identical for any executor, at any thread count. It is *not* the
  /// serial interleave: within an epoch a disk prices admission against the
  /// snapshot, not against sibling admissions from the same epoch, so
  /// sharded metrics form their own (equally deterministic) reference.
  ///
  /// Requires (checked): no fault injector, no shared tracer, no postmortem
  /// sink — those couple the disks mid-epoch. Per-disk timeseries
  /// recorders are fine.
  void RunToCompletionSharded(const ParallelForFn& parallel_for,
                              Seconds epoch = Seconds(1.0));

  void Finalize();

  int disk_count() const { return static_cast<int>(sims_.size()); }
  const VodSimulator& sim(int disk) const { return *sims_[size_t(disk)]; }
  const MemoryBroker& broker() const { return *broker_; }

  /// System-wide concurrency over time (sum across disks).
  StepTimeSeries TotalConcurrency() const;
  /// Peak of the summed concurrency.
  int PeakConcurrency() const;
  /// Every counter summed over the disks.
  SimCounters Totals() const;

 private:
  MultiDiskSimulator(std::unique_ptr<AnalyticMemoryBroker> broker,
                     std::vector<std::unique_ptr<ShardBrokerView>> views,
                     std::vector<std::unique_ptr<VodSimulator>> sims);

  std::unique_ptr<AnalyticMemoryBroker> broker_;
  /// One pass-through/frozen facade per disk, between the disk's simulator
  /// and the shared broker (see ShardBrokerView). Pass-through outside
  /// sharded epochs, so the serial path is byte-identical to wiring the
  /// simulators to `broker_` directly.
  std::vector<std::unique_ptr<ShardBrokerView>> views_;
  std::vector<std::unique_ptr<VodSimulator>> sims_;
};

}  // namespace vod::sim

#endif  // VODB_SIM_MULTI_DISK_H_
