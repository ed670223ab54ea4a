#include "sim/multi_disk.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace vod::sim {

MultiDiskSimulator::MultiDiskSimulator(
    std::unique_ptr<AnalyticMemoryBroker> broker,
    std::vector<std::unique_ptr<ShardBrokerView>> views,
    std::vector<std::unique_ptr<VodSimulator>> sims)
    : broker_(std::move(broker)),
      views_(std::move(views)),
      sims_(std::move(sims)) {}

Result<std::unique_ptr<MultiDiskSimulator>> MultiDiskSimulator::Create(
    const SimConfig& base, int disk_count, Bits memory_capacity) {
  if (disk_count < 1) return Status::InvalidArgument("need >= 1 disk");
  if (memory_capacity <= Bits(0)) {
    return Status::InvalidArgument("memory capacity must be > 0");
  }
  // All disks share one injector (carried in the base config), so a
  // memory-squeeze clause shrinks the one shared pool, not per-disk copies.
  Result<std::unique_ptr<AnalyticMemoryBroker>> made =
      MakeBroker(base, disk_count, memory_capacity);
  if (!made.ok()) return made.status();
  std::unique_ptr<AnalyticMemoryBroker> broker = std::move(made).value();

  std::vector<std::unique_ptr<ShardBrokerView>> views;
  std::vector<std::unique_ptr<VodSimulator>> sims;
  views.reserve(static_cast<std::size_t>(disk_count));
  sims.reserve(static_cast<std::size_t>(disk_count));
  for (int d = 0; d < disk_count; ++d) {
    SimConfig cfg = base;
    cfg.disk_id = d;
    cfg.seed = base.seed * 1000003ULL + static_cast<std::uint64_t>(d);
    // Each disk talks to the broker through its own view; outside sharded
    // epochs the view is a pure pass-through.
    views.push_back(std::make_unique<ShardBrokerView>(broker.get(), d));
    Result<std::unique_ptr<VodSimulator>> sim =
        VodSimulator::Create(cfg, views.back().get());
    if (!sim.ok()) return sim.status();
    sims.push_back(std::move(sim.value()));
  }
  return std::unique_ptr<MultiDiskSimulator>(new MultiDiskSimulator(
      std::move(broker), std::move(views), std::move(sims)));
}

Status MultiDiskSimulator::AddArrivals(
    const std::vector<ArrivalEvent>& arrivals) {
  const std::vector<std::vector<ArrivalEvent>> per =
      SplitByDisk(arrivals, disk_count());
  // All or nothing across disks: check every slice before feeding any.
  for (std::size_t d = 0; d < sims_.size(); ++d) {
    VOD_RETURN_IF_ERROR(sims_[d]->ValidateArrivals(per[d]));
  }
  for (std::size_t d = 0; d < sims_.size(); ++d) {
    VOD_RETURN_IF_ERROR(sims_[d]->AddArrivals(per[d]));
  }
  return Status::OK();
}

void MultiDiskSimulator::RunToCompletion() {
  // A step changes only the stepped disk's queue, so only its next-event
  // time needs reading again.
  const std::size_t disks = sims_.size();
  std::vector<Seconds> next(disks);
  for (std::size_t d = 0; d < disks; ++d) next[d] = sims_[d]->NextEventTime();
  for (;;) {
    // Globally earliest next event across disks; ties go to the lowest disk.
    Seconds best = Seconds::Infinity();
    std::size_t who = disks;
    for (std::size_t d = 0; d < disks; ++d) {
      if (next[d] < best) {
        best = next[d];
        who = d;
      }
    }
    if (who == disks) break;
    sims_[who]->Step();
    next[who] = sims_[who]->NextEventTime();
  }
}

void MultiDiskSimulator::RunToCompletionSharded(
    const ParallelForFn& parallel_for, Seconds epoch) {
  VOD_CHECK(epoch > Seconds(0.0));
  // An injector makes capacity a function of the broker's (shared, racy)
  // clock, so runs would depend on worker interleaving: reject it up front.
  // Once per run, not per event, so it stays fatal in release builds too.
  for (const auto& s : sims_) {
    VOD_CHECK(s->config().injector == nullptr);  // vodb-lint: allow(check-in-hot-loop)
  }
  const std::size_t disks = sims_.size();
  for (;;) {
    // Serial barrier phase: find the globally earliest pending event and
    // freeze the epoch snapshot per disk, all in ascending disk order.
    Seconds t_min = Seconds::Infinity();
    for (const auto& s : sims_) t_min = std::min(t_min, s->NextEventTime());
    if (t_min == Seconds::Infinity()) break;
    const Seconds epoch_end = t_min + epoch;
    const Bits capacity = broker_->Capacity();
    for (std::size_t d = 0; d < disks; ++d) {
      views_[d]->BeginEpoch(broker_->ReservedExcluding(static_cast<int>(d)),
                            capacity);
    }
    // Parallel phase: each disk advances through every event strictly
    // before the epoch boundary, touching only its own state, its frozen
    // view, and const shared pricing — independent of every sibling, hence
    // of how the executor schedules them.
    parallel_for(disks, [this, epoch_end](std::size_t d) {
      sims_[d]->RunUntilBefore(epoch_end);
    });
    // Serial merge: publish final per-disk (n, k) in ascending disk order.
    for (std::size_t d = 0; d < disks; ++d) views_[d]->EndEpochPublish();
  }
}

void MultiDiskSimulator::Finalize() {
  for (auto& s : sims_) s->Finalize();
}

StepTimeSeries MultiDiskSimulator::TotalConcurrency() const {
  std::vector<const StepTimeSeries*> parts;
  parts.reserve(sims_.size());
  for (const auto& s : sims_) parts.push_back(&s->metrics().concurrency);
  return MergeStepSeriesSum(parts);
}

int MultiDiskSimulator::PeakConcurrency() const {
  return static_cast<int>(TotalConcurrency().max_value());
}

SimCounters MultiDiskSimulator::Totals() const {
  SimCounters total;
  for (const auto& s : sims_) {
    for (const SimCounter& c : kSimCounters) {
      total.*c.field += s->metrics().*c.field;
    }
  }
  return total;
}

}  // namespace vod::sim
