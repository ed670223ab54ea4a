#include "sim/vod_simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "fault/injector.h"
#include "obs/event_tracer.h"
#include "obs/postmortem.h"
#include "obs/profile.h"
#include "obs/timeseries_recorder.h"
#include "sched/gss.h"
#include "sched/round_robin.h"
#include "sched/sweep.h"

namespace vod::sim {

namespace {
constexpr Seconds kEps = Seconds(1e-9);
constexpr Seconds kInf = Seconds::Infinity();
using TraceKind = obs::TraceEventKind;
}  // namespace

// The invariant-audit hooks below compile to nothing unless the tree is
// configured with VODB_AUDIT=ON (see the root CMakeLists). Every hook is a
// pure observer: auditing on/off cannot change a single metric.
#ifndef VODB_AUDIT_ENABLED
#define VODB_AUDIT_ENABLED 0
#endif

std::string_view AllocSchemeName(AllocScheme s) {
  return s == AllocScheme::kStatic ? "static" : "dynamic";
}

Status SimConfig::Validate() const {
  VOD_RETURN_IF_ERROR(profile.Validate());
  if (consumption_rate <= BitsPerSecond(0)) {
    return Status::InvalidArgument("consumption rate must be > 0");
  }
  if (gss_group_size < 1) {
    return Status::InvalidArgument("GSS group size must be >= 1");
  }
  if (alpha < 1) return Status::InvalidArgument("alpha must be >= 1");
  if (t_log <= Seconds(0)) return Status::InvalidArgument("T_log must be > 0");
  if (video_count < 1) return Status::InvalidArgument("need >= 1 video");
  if (video_length <= Seconds(0)) {
    return Status::InvalidArgument("video length must be > 0");
  }
  return Status::OK();
}

Result<core::AllocParams> AllocParamsFor(const SimConfig& config) {
  // The method's conservative DL: the fully-loaded γ(Cyln/N)+θ for Sweep*,
  // γ(Cyln/g)+θ for GSS*, and the full stroke for Round-Robin.
  const int n_for_dl =
      config.method == core::ScheduleMethod::kGss
          ? config.gss_group_size
          : core::MaxConcurrentRequests(config.profile.transfer_rate,
                                        config.consumption_rate);
  return core::MakeAllocParams(config.profile, config.consumption_rate,
                               config.method, n_for_dl, config.alpha);
}

namespace {

/// The DL each row n = 1..N of the dynamic scheme's BS_k(n) table is sized
/// at, at index n − 1: Sweep*'s varies with the in-service count (Table 2:
/// γ(Cyln/n) + θ), every other method's is the params' constant.
std::vector<Seconds> DlByN(const SimConfig& config,
                           const core::AllocParams& params) {
  std::vector<Seconds> dl(static_cast<std::size_t>(params.n_max), params.dl);
  if (config.method == core::ScheduleMethod::kSweep) {
    for (int n = 1; n <= params.n_max; ++n) {
      dl[static_cast<std::size_t>(n - 1)] = core::WorstDiskLatency(
          config.profile, core::ScheduleMethod::kSweep, n);
    }
  }
  return dl;
}

/// Theorem 1 on `params`, row n sized at DL `dl_by_n[n − 1]`.
Result<std::shared_ptr<const core::BufferSizeTable>> TableFrom(
    const core::AllocParams& params, const std::vector<Seconds>& dl_by_n) {
  Result<core::BufferSizeTable> table = core::BufferSizeTable::Build(
      params,
      [&dl_by_n](int n) { return dl_by_n[static_cast<std::size_t>(n - 1)]; });
  if (!table.ok()) return table.status();
  return std::make_shared<const core::BufferSizeTable>(
      std::move(table).value());
}

/// Whether `table` is the one TableFrom builds for `params` and
/// `dl_by_n`: its entries are a function of those alone.
bool IsTableFor(const core::BufferSizeTable& table,
                const core::AllocParams& params,
                const std::vector<Seconds>& dl_by_n) {
  if (table.params() != params) return false;
  for (int n = 1; n <= params.n_max; ++n) {
    if (table.dl(n) != dl_by_n[static_cast<std::size_t>(n - 1)]) return false;
  }
  return true;
}

}  // namespace

Result<std::shared_ptr<const core::BufferSizeTable>> BufferSizeTableFor(
    const SimConfig& config) {
  VOD_RETURN_IF_ERROR(config.Validate());
  Result<core::AllocParams> params = AllocParamsFor(config);
  if (!params.ok()) return params.status();
  return TableFrom(*params, DlByN(config, *params));
}

Result<std::unique_ptr<AnalyticMemoryBroker>> MakeBroker(
    const SimConfig& config, int disk_count, Bits capacity) {
  VOD_RETURN_IF_ERROR(config.Validate());
  Result<core::AllocParams> params = AllocParamsFor(config);
  if (!params.ok()) return params.status();
  auto broker = std::make_unique<AnalyticMemoryBroker>(
      *params, config.method, config.scheme == AllocScheme::kDynamic,
      config.gss_group_size, disk_count, capacity);
  if (config.injector != nullptr) broker->AttachInjector(config.injector);
  return broker;
}

Result<std::unique_ptr<VodSimulator>> VodSimulator::Create(
    const SimConfig& config, MemoryBroker* broker,
    std::shared_ptr<const core::BufferSizeTable> table) {
  VOD_RETURN_IF_ERROR(config.Validate());

  Result<core::AllocParams> params = AllocParamsFor(config);
  if (!params.ok()) return params.status();
  std::vector<Seconds> dl_by_n = DlByN(config, *params);
  if (table != nullptr) {
    if (config.scheme == AllocScheme::kStatic) {
      return Status::InvalidArgument(
          "the static scheme sizes buffers without a BS_k(n) table");
    }
    if (!IsTableFor(*table, *params, dl_by_n)) {
      return Status::InvalidArgument(
          "the BS_k(n) table was built for another configuration");
    }
  }

  disk::VideoLayout layout(config.profile);
  const Bits video_size = config.video_length * config.consumption_rate;
  const std::vector<disk::VideoId> ids =
      layout.FillWithVideos(config.video_count, video_size);
  if (static_cast<int>(ids.size()) < config.video_count) {
    return Status::CapacityExceeded("videos do not fit on the disk");
  }

  std::unique_ptr<core::BufferAllocator> allocator;
  if (config.scheme == AllocScheme::kStatic) {
    Result<std::unique_ptr<core::StaticBufferAllocator>> a =
        core::StaticBufferAllocator::Create(*params);
    if (!a.ok()) return a.status();
    allocator = std::move(a.value());
  } else {
    if (table == nullptr) {
      Result<std::shared_ptr<const core::BufferSizeTable>> own =
          TableFrom(*params, dl_by_n);
      if (!own.ok()) return own.status();
      table = std::move(own).value();
    }
    Result<std::unique_ptr<core::DynamicBufferAllocator>> a =
        core::DynamicBufferAllocator::Create(std::move(table), config.t_log);
    if (!a.ok()) return a.status();
    allocator = std::move(a.value());
  }

  std::unique_ptr<sched::BufferScheduler> scheduler;
  switch (config.method) {
    case core::ScheduleMethod::kRoundRobin:
      scheduler = std::make_unique<sched::RoundRobinScheduler>();
      break;
    case core::ScheduleMethod::kSweep:
      scheduler = std::make_unique<sched::SweepScheduler>();
      break;
    case core::ScheduleMethod::kGss:
      scheduler = std::make_unique<sched::GssScheduler>(config.gss_group_size);
      break;
  }

  if (config.disable_admission_control) {
    auto* dyn = dynamic_cast<core::DynamicBufferAllocator*>(allocator.get());
    if (dyn != nullptr) dyn->set_enforce_assumptions(false);
  }

  auto sim = std::unique_ptr<VodSimulator>(
      new VodSimulator(config, *params, std::move(dl_by_n), std::move(layout),
                       std::move(allocator), std::move(scheduler), broker));
  return sim;
}

VodSimulator::VodSimulator(const SimConfig& config,
                           core::AllocParams alloc_params,
                           std::vector<Seconds> dl_by_n,
                           disk::VideoLayout layout,
                           std::unique_ptr<core::BufferAllocator> allocator,
                           std::unique_ptr<sched::BufferScheduler> scheduler,
                           MemoryBroker* broker)
    : config_(config), alloc_params_(alloc_params),
      dl_by_n_(std::move(dl_by_n)), layout_(std::move(layout)),
      disk_(config.profile), allocator_(std::move(allocator)),
      scheduler_(std::move(scheduler)), broker_(broker),
      rng_(config.seed, /*stream=*/0x9e3779b97f4a7c15ULL ^
                            static_cast<std::uint64_t>(config.disk_id)) {
  metrics_.initial_latency_by_n.resize(
      static_cast<std::size_t>(alloc_params_.n_max) + 1);
}

const core::BufferSizeTable* VodSimulator::buffer_size_table() const {
  const auto* dynamic =
      dynamic_cast<const core::DynamicBufferAllocator*>(allocator_.get());
  return dynamic == nullptr ? nullptr : &dynamic->table();
}

Status VodSimulator::ValidateArrival(const ArrivalEvent& ev) const {
  if (ev.time < now_) {
    return Status::InvalidArgument("arrival in the past");
  }
  if (ev.video < 0 || ev.video >= layout_.video_count()) {
    return Status::InvalidArgument("arrival references unknown video");
  }
  return Status::OK();
}

Status VodSimulator::ValidateArrivals(
    const std::vector<ArrivalEvent>& arrivals) const {
  for (const ArrivalEvent& ev : arrivals) {
    VOD_RETURN_IF_ERROR(ValidateArrival(ev));
  }
  return Status::OK();
}

Status VodSimulator::AddArrivals(const std::vector<ArrivalEvent>& arrivals) {
  VOD_RETURN_IF_ERROR(ValidateArrivals(arrivals));
  for (const ArrivalEvent& ev : arrivals) {
    arrivals_.push_back(ev);
    Push(ev.time, SimEventKind::kArrival, kInvalidRequestId,
         arrivals_.size() - 1);
  }
  return Status::OK();
}

void VodSimulator::Push(Seconds time, SimEventKind kind, RequestId id,
                        std::size_t arrival_index) {
  SimEvent ev;
  ev.time = time;
  ev.seq = next_seq_++;
  ev.kind = kind;
  ev.request = id;
  ev.arrival_index = arrival_index;
  events_.push(ev);
}

Seconds VodSimulator::NextEventTime() const {
  return events_.empty() ? kInf : events_.top().time;
}

bool VodSimulator::Step() {
  VODB_PROF_SCOPE("sim.step");
  if (events_.empty()) return false;
  const SimEvent ev = events_.top();
  events_.pop();
  VOD_DCHECK(ev.time >= now_ - kEps);
#if VODB_AUDIT_ENABLED
  auditor_.CheckEventTime(ev.time);
#endif
  now_ = std::max(now_, ev.time);
  switch (ev.kind) {
    case SimEventKind::kArrival:
      HandleArrival(ev);
      break;
    case SimEventKind::kServiceComplete:
      HandleServiceComplete(ev);
      break;
    case SimEventKind::kDeparture:
      HandleDeparture(ev);
      break;
    case SimEventKind::kWakeup:
      if (wakeup_pending_ && Abs(ev.time - scheduled_wakeup_) < kEps) {
        wakeup_pending_ = false;
      }
      MaybeScheduleService();
      break;
  }
  // Observer: a pure read of post-dispatch state. Gated on attachment so
  // unobserved runs pay one pointer compare per event.
  if (timeseries_ != nullptr && timeseries_->Due(now_)) SampleTimeseries();
  return true;
}

void VodSimulator::RunUntil(Seconds t) {
  while (!events_.empty() && !(events_.top().time > t)) Step();
}

void VodSimulator::RunUntilBefore(Seconds t) {
  while (!events_.empty() && events_.top().time < t) Step();
}

void VodSimulator::RunToCompletion() {
  while (Step()) {
  }
}

void VodSimulator::Finalize() {
  std::sort(arrival_times_.begin(), arrival_times_.end());
  metrics_.ResolveEstimation(arrival_times_);
}

void VodSimulator::set_postmortem(obs::PostmortemSink* sink) {
  postmortem_ = sink;
  if (sink != nullptr) {
    // Give the sink this simulator's ring if the harness did not already
    // wire one (attach the tracer before the sink for the tail to flow).
    if (tracer_ != nullptr) sink->set_tracer(tracer_);
    // Capture-then-fail: dump flight-recorder state before the auditor's
    // handler (by default: abort) runs.
    // A failed write is kept in the sink's write_status().
    auditor_.set_violation_observer([this](const InvariantViolation& v) {
      if (postmortem_ == nullptr) return;
      (void)postmortem_->Capture(obs::PostmortemReason::kInvariantViolation,
                                 v.invariant + ": " + v.detail, v.time,
                                 CountersJson(metrics_));
    });
  } else {
    auditor_.set_violation_observer(nullptr);
  }
}

void VodSimulator::SampleTimeseries() {
  obs::TimeseriesSample sample;
  // ReservedMemory() is a const read of the broker's reservation as of its
  // last repricing — sampling must not AdvanceTo (that would mutate shared
  // state and break the pure-observer guarantee). Runs without a broker
  // report zero reservation; `buffered` is the actual memory in use.
  sample.reserved =
      broker_ != nullptr ? broker_->ReservedMemory() : Bits(0);
  sample.buffered = TotalBufferedBits(now_);
  sample.queue_depth = static_cast<int>(events_.size());
  sample.active = allocator_->active_count();
  int degraded = 0;
  for (const auto& node : requests_) {
    if (node.value.degraded) ++degraded;
  }
  sample.degraded = degraded;
  sample.disk_busy = metrics_.disk_busy_time;
  timeseries_->Record(now_, sample);
}

// Trace emission: a pure observer that builds no event without a tracer.
obs::TraceEvent VodSimulator::TraceStamp(TraceKind kind, RequestId id) const {
  obs::TraceEvent ev;
  ev.time = now_;
  ev.kind = kind;
  ev.disk = config_.disk_id;
  ev.request = id;
  if (obs::TraceKindHas(kind, obs::kFieldN)) ev.n = allocator_->active_count();
  return ev;
}

void VodSimulator::Trace(TraceKind kind, RequestId id) {
  if (tracer_ != nullptr) tracer_->Emit(TraceStamp(kind, id));
}

void VodSimulator::TraceService(TraceKind kind, RequestId id, Bits bits,
                                const disk::ServiceTiming& timing) {
  if (tracer_ == nullptr) return;
  obs::TraceEvent ev = TraceStamp(kind, id);
  ev.bits = bits;
  ev.seek = timing.seek;
  ev.rotation = timing.rotation;
  ev.transfer = timing.transfer;
  tracer_->Emit(ev);
}

// ---------------------------------------------------------------------------
// Consumption bookkeeping
// ---------------------------------------------------------------------------

Bits VodSimulator::ConsumedAt(const Req& r, Seconds t) const {
  if (!r.playing) return Bits(0);
  const Bits grown =
      r.consumed + alloc_params_.cr * std::max(Seconds(0), t - r.consumed_at);
  // Consumption can neither exceed what has been delivered (underflow
  // stalls playback) nor the total the user will watch.
  return std::min({grown, r.delivered, r.total_bits});
}

void VodSimulator::SyncConsumption(Req& r, Seconds t) {
  r.consumed = ConsumedAt(r, t);
  r.consumed_at = t;
}

Bits VodSimulator::BufferLevelAt(const Req& r, Seconds t) const {
  return r.delivered - ConsumedAt(r, t);
}

Bits VodSimulator::TotalBufferedBits(Seconds t) const {
  Bits total;
  for (const auto& node : requests_) {
    if (node.value.admitted) total += BufferLevelAt(node.value, t);
  }
  return total;
}

// ---------------------------------------------------------------------------
// SchedulerContext
// ---------------------------------------------------------------------------

const VodSimulator::Req& VodSimulator::GetReq(RequestId id) const {
  const Req* r = requests_.Find(id);
  VOD_CHECK(r != nullptr);
  return *r;
}

VodSimulator::Req& VodSimulator::GetReq(RequestId id) {
  Req* r = requests_.Find(id);
  VOD_CHECK(r != nullptr);
  return *r;
}

Seconds VodSimulator::DeadlineOf(const Req& r) const {
  // An unfilled buffer has no continuity deadline. Only scheduler members
  // are asked, and every member has bits left to deliver.
  if (!r.playing) return kInf;
  const Bits level = BufferLevelAt(r, now_);
  return now_ + level / alloc_params_.cr;
}

Seconds VodSimulator::BufferDeadline(RequestId id) const {
  return DeadlineOf(GetReq(id));
}

bool VodSimulator::NeverServiced(RequestId id) const {
  return NeverServicedOf(GetReq(id));
}

double VodSimulator::CurrentCylinder(RequestId id) const {
  const Req& r = GetReq(id);
  Result<double> cyl =
      layout_.CylinderOf(r.video, r.start_offset + r.delivered);
  VOD_CHECK(cyl.ok());
  return cyl.value();
}

core::AllocationDecision VodSimulator::CachedPreview() const {
  if (preview_cache_time_ != now_ ||
      preview_cache_version_ != state_version_) {
    preview_cache_ = allocator_->Preview(now_);
    preview_cache_time_ = now_;
    preview_cache_version_ = state_version_;
  }
  return preview_cache_;
}

Seconds VodSimulator::LookaheadLatency() const {
  // The *current* load's row: γ(Cyln/n) for Sweep, γ(Cyln/g) for GSS, and
  // the full stroke for Round-Robin.
  const int n = std::max(1, allocator_->active_count());
  return dl_by_n_[static_cast<std::size_t>(n - 1)];
}

Seconds VodSimulator::WorstServiceOf(const Req& r, Bits buffer_size,
                                     Seconds dl) const {
  const Bits bits = std::min(buffer_size, r.total_bits - r.delivered);
  return dl + bits / alloc_params_.tr;
}

Seconds VodSimulator::WorstServiceTime(RequestId id) const {
  return WorstServiceOf(GetReq(id), CachedPreview().buffer_size,
                        LookaheadLatency());
}

void VodSimulator::Facts(const std::vector<RequestId>& seq,
                         std::vector<sched::RequestFacts>* out) const {
  out->resize(seq.size());
  if (seq.empty()) return;
  const Bits buffer_size = CachedPreview().buffer_size;
  const Seconds dl = LookaheadLatency();
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const Req& r = GetReq(seq[i]);
    sched::RequestFacts& f = (*out)[i];
    f.deadline = DeadlineOf(r);
    f.worst_service = WorstServiceOf(r, buffer_size, dl);
    f.never_serviced = NeverServicedOf(r);
  }
}

Seconds VodSimulator::NewcomerReserve() const {
  const core::AllocationDecision d = CachedPreview();
  const Seconds dl = LookaheadLatency();
  const Seconds slot = dl + d.buffer_size / alloc_params_.tr;
  // The scheme's standing insertion budget, in whole service slots. The
  // dynamic scheme sized every buffer for k_c additional services per usage
  // period (that is what k means); refilling k_c slots early keeps exactly
  // that margin in every buffer, so admitted newcomers displace no one.
  // The static scheme's structural slack is the N−n free slots; a small cap
  // keeps its memory behaviour near the analytic model while covering the
  // bursts a Poisson arrival stream realistically delivers per period.
  int slots = std::min(d.k, alloc_params_.n_max - allocator_->active_count());
  if (config_.scheme == AllocScheme::kStatic) {
    slots = std::min(alloc_params_.n_max - allocator_->active_count(), 4);
  }
  return std::max(1, slots) * slot;
}

// ---------------------------------------------------------------------------
// Event handlers
// ---------------------------------------------------------------------------

void VodSimulator::RecordConcurrency() {
  // Concurrency counts viewing users (n): admitted requests that have not
  // yet departed, including ones draining their final buffer.
  const int n = allocator_->active_count();
  metrics_.concurrency.Record(ToSeconds(now_), n);
  metrics_.peak_concurrency = std::max(metrics_.peak_concurrency, n);
}

void VodSimulator::ReportBrokerState(int k_estimate, bool at_admission) {
  last_k_estimate_ = k_estimate;
  if (broker_ != nullptr) {
    broker_->AdvanceTo(now_);
    broker_->OnState(config_.disk_id, allocator_->active_count(), k_estimate);
    metrics_.memory_reserved.Record(ToSeconds(now_),
                                    ToBits(broker_->ReservedMemory()));
#if VODB_AUDIT_ENABLED
    // The reservation must partition the capacity at admission points (the
    // CanAdmit gate just approved this exact state); between admissions the
    // k estimate drifts and repricing may transiently exceed capacity by
    // design, so only non-negativity is enforced there.
    const Bits capacity = broker_->Capacity();
    if (std::isfinite(capacity.value())) {
      auditor_.CheckBrokerReservation(now_, broker_->ReservedMemory(),
                                      capacity, at_admission);
    }
#else
    static_cast<void>(at_admission);
#endif
  }
}

void VodSimulator::HandleArrival(const SimEvent& ev) {
  // A scheduled arrival has no caller to hand the request id (or the
  // rejection) back to; both outcomes are fully recorded in the metrics.
  const Result<RequestId> outcome = ProcessArrival(arrivals_[ev.arrival_index]);
  static_cast<void>(outcome);
}

Result<RequestId> VodSimulator::SubmitNow(const ArrivalEvent& arrival) {
  VOD_RETURN_IF_ERROR(ValidateArrival(arrival));
  now_ = std::max(now_, arrival.time);
  return ProcessArrival(arrival);
}

Result<RequestId> VodSimulator::ProcessArrival(const ArrivalEvent& a) {
  ++metrics_.arrivals;
  ++state_version_;
  arrival_times_.push_back(now_);
  allocator_->NoteArrival(now_);
  // Memory squeezes are time-gated; price this arrival against the window
  // that is open *now*.
  if (broker_ != nullptr) broker_->AdvanceTo(now_);

  Req r;
  r.id = next_request_id_++;
  r.video = a.video;
  r.arrival = now_;
  r.viewing = a.viewing_time;
  Result<disk::VideoInfo> info = layout_.Get(a.video);
  VOD_CHECK(info.ok());
  r.start_offset =
      std::clamp(a.start_position * alloc_params_.cr, Bits(0), info->size);
  r.total_bits = std::min(a.viewing_time * alloc_params_.cr,
                          info->size - r.start_offset);
  Trace(TraceKind::kArrival, r.id);
  if (r.total_bits <= Bits(0)) {
    Reject(TraceKind::kRejectInvalid, r.id);
    return Status::InvalidArgument("nothing to play at that position");
  }
  // Assumption-1 conflicts defer instead (handled in TryAdmitPending).
  if (const std::optional<TraceKind> rejection = RejectionNow()) {
    Reject(*rejection, r.id);
    return Status::CapacityExceeded(*rejection == TraceKind::kRejectCapacity
                                        ? "fully loaded (n == N)"
                                        : "memory budget exhausted");
  }

  const RequestId id = r.id;
  requests_.Insert(id, r);
  pending_.push_back(id);
  TryAdmitPending();
  MaybeScheduleService();
  return id;
}

Status VodSimulator::CancelRequest(RequestId id) {
  Req* r = requests_.Find(id);
  if (r == nullptr) return Status::NotFound("no such request");
  ++state_version_;
  // Still queued for admission?
  auto pit = std::find(pending_.begin(), pending_.end(), id);
  if (pit != pending_.end()) pending_.erase(pit);
  if (r->admitted) {
    allocator_->Remove(r->snapshot);
    scheduler_->Remove(id);
  }
  // The stream's delivered bits leave the buffer pool with it. Bits of a
  // read still in flight were never delivered, so they enter neither ledger
  // side.
  metrics_.buffer_bits_released += r->delivered;
  // A cancellation mid-service lets the read finish; HandleServiceComplete
  // tolerates the missing request.
  requests_.Erase(id);
#if VODB_AUDIT_ENABLED
  auditor_.ForgetRequest(id);
#endif
  ++metrics_.cancelled;
  Trace(TraceKind::kCancel, id);
  RecordConcurrency();
  ReportBrokerState(last_k_estimate_);
  MaybeScheduleService();
  return Status::OK();
}

std::optional<TraceKind> VodSimulator::RejectionNow() const {
  // Immediate rejections (Sec. 5.1): a fully loaded disk turns the request
  // away; so does an exhausted memory budget.
  const int n = allocator_->active_count();
  if (n >= alloc_params_.n_max) return TraceKind::kRejectCapacity;
  if (broker_ != nullptr &&
      !broker_->CanAdmit(config_.disk_id, n + 1, last_k_estimate_)) {
    return TraceKind::kRejectMemory;
  }
  return std::nullopt;
}

void VodSimulator::Reject(TraceKind kind, RequestId id) {
  ++metrics_.rejected;
  ++(kind == TraceKind::kRejectInvalid    ? metrics_.rejected_invalid
     : kind == TraceKind::kRejectCapacity ? metrics_.rejected_capacity
                                          : metrics_.rejected_memory);
  Trace(kind, id);
}

void VodSimulator::TryAdmitPending() {
  // Runs about once per event; time only the calls with work to do.
  if (pending_.empty()) return;
  VODB_PROF_SCOPE("sim.admit");
  if (broker_ != nullptr) broker_->AdvanceTo(now_);
  while (!pending_.empty()) {
    // Sweep* admits only at a period boundary: a newcomer would perturb the
    // sweep order. Every other method admits whenever the allocator agrees.
    if (!scheduler_->AdmitsNow()) break;
    const RequestId id = pending_.front();
    if (const std::optional<TraceKind> rejection = RejectionNow()) {
      // The disk filled up, or the budget ran out, while the request
      // waited: reject it now.
      pending_.pop_front();
      requests_.Erase(id);
      Reject(*rejection, id);
      continue;
    }

    Req& r = GetReq(id);
    const Status st = allocator_->Admit();
    if (st.code() == StatusCode::kDeferred) {
      if (!r.was_deferred) {
        r.was_deferred = true;
        ++metrics_.deferred_admissions;
        Trace(TraceKind::kDefer, id);
      }
      break;  // FIFO: later arrivals wait behind the deferred one.
    }
    // The gate above ruled out n = N, the allocator's only refusal.
    VOD_DCHECK(st.ok());

    pending_.pop_front();
    ++state_version_;
    r.admitted = true;
    r.n_at_admit = allocator_->active_count();
    ++metrics_.admitted;
    Trace(TraceKind::kAdmit, id);
    scheduler_->Add(id, now_);
    RecordConcurrency();
    ReportBrokerState(last_k_estimate_, /*at_admission=*/true);
  }
}

void VodSimulator::MaybeScheduleService() {
  VODB_PROF_SCOPE("sim.schedule");
  if (disk_busy_) return;
  TryAdmitPending();
  if (config_.injector != nullptr && config_.injector->active()) {
    // Whole-disk outage window: no service starts until the disk is back.
    // Playback continues off buffered data, so streams may underflow while
    // the disk is dark — poll starvation on every visit (the normal
    // detection point, service completion, cannot fire here).
    Seconds resume;
    if (config_.injector->InOutage(config_.disk_id, now_, &resume)) {
      DetectStarvation();
      if (std::isfinite(resume.value()) &&
          (!wakeup_pending_ || resume < scheduled_wakeup_ - kEps)) {
        scheduled_wakeup_ = resume;
        wakeup_pending_ = true;
        Push(resume, SimEventKind::kWakeup, kInvalidRequestId);
      }
      return;
    }
    // Bounded-backoff cooldown after a failed read: hold further I/O.
    if (retry_cooldown_until_ > now_ + kEps) {
      if (!wakeup_pending_ ||
          retry_cooldown_until_ < scheduled_wakeup_ - kEps) {
        scheduled_wakeup_ = retry_cooldown_until_;
        wakeup_pending_ = true;
        Push(retry_cooldown_until_, SimEventKind::kWakeup, kInvalidRequestId);
      }
      return;
    }
  }
  std::optional<sched::ServiceDecision> dec = scheduler_->Next(*this, now_);
  if (!dec.has_value()) return;
#if VODB_AUDIT_ENABLED
  // Service-order audits (BubbleUp displacement rule, lazy-start pacing).
  // Skipped under failure injection: with the Assumption-1 gate disabled,
  // deadlines are *expected* to become infeasible.
  if (!config_.disable_admission_control) {
    const std::vector<RequestId>& seq =
        scheduler_->ServiceSequence(*this, now_);
    auditor_.CheckServiceSequence(seq, now_, [this](RequestId id) {
      const Req* r = requests_.Find(id);
      return r != nullptr && r->admitted && r->delivered < r->total_bits;
    });
    auditor_.CheckSchedulerFacts(*this, seq, now_);
    auditor_.CheckServiceDecision(*this, seq, *dec, now_);
  }
#endif
  if (dec->not_before <= now_ + kEps) {
    BeginService(dec->id);
    return;
  }
  if (!wakeup_pending_ || dec->not_before < scheduled_wakeup_ - kEps) {
    scheduled_wakeup_ = dec->not_before;
    wakeup_pending_ = true;
    Push(dec->not_before, SimEventKind::kWakeup, kInvalidRequestId);
  }
}

void VodSimulator::BeginService(RequestId id) {
  Req& r = GetReq(id);
  ++state_version_;

  // Fault probe before any allocator mutation: a read the injector fails
  // costs mechanical time but must not grow a buffer for data that never
  // arrives. The zero-fault answer (factor 1.0, extra 0.0) leaves every
  // computation below bit-identical to an uninjected run — *1.0 and +0.0
  // are exact IEEE identities.
  fault::ReadFault f;
  if (config_.injector != nullptr) {
    f = config_.injector->OnRead(config_.disk_id, now_);
  }
  if (r.round_failures > 0) ++metrics_.read_retries;

  if (f.fail) {
    Result<double> cyl =
        layout_.CylinderOf(r.video, r.start_offset + r.delivered);
    VOD_CHECK(cyl.ok());
    const double rot =
        config_.worst_case_rotation ? 1.0 : rng_.NextDouble();
    Result<disk::ServiceTiming> timing = disk_.FailedRead(cyl.value(), rot);
    VOD_CHECK(timing.ok());
    disk_busy_ = true;
    in_service_ = id;
    in_service_bits_ = Bits(0);
    in_service_failed_ = true;
    in_service_timing_ = *timing;
    in_service_max_retries_ = f.max_retries;
    in_service_retry_backoff_ = f.retry_backoff;
    const Seconds dur = timing->total() + f.extra_latency;
    Push(now_ + dur, SimEventKind::kServiceComplete, id);
    ++metrics_.read_faults;
    metrics_.disk_busy_time += dur;
    TraceService(TraceKind::kReadFault, id, Bits(0), *timing);
    return;
  }

  const core::AllocationDecision d = allocator_->Allocate(now_, &r.snapshot);
  const Bits bits = std::min(d.buffer_size, r.total_bits - r.delivered);
  VOD_CHECK(bits > Bits(0));

  Result<double> cyl =
      layout_.CylinderOf(r.video, r.start_offset + r.delivered);
  VOD_CHECK(cyl.ok());
  const double rot =
      config_.worst_case_rotation ? 1.0 : rng_.NextDouble();
  Result<disk::ServiceTiming> timing = disk_.Read(cyl.value(), bits, rot);
  VOD_CHECK(timing.ok());

  const Seconds dur = timing->total() * f.latency_factor + f.extra_latency;
  if (dur > timing->total()) ++metrics_.delayed_reads;
  disk_busy_ = true;
  in_service_ = id;
  in_service_bits_ = bits;
  in_service_timing_ = *timing;
  Push(now_ + dur, SimEventKind::kServiceComplete, id);

  AllocationRecord rec;
  rec.time = now_;
  rec.request = id;
  rec.n = d.n;
  rec.k = d.k;
  rec.buffer_size = d.buffer_size;
  rec.usage_period = d.usage_period;
  metrics_.allocations.push_back(rec);
  if (tracer_ != nullptr) {
    obs::TraceEvent ev = TraceStamp(TraceKind::kAllocation, id);
    ev.n = d.n;
    ev.k = d.k;
    ev.bits = d.buffer_size;
    ev.usage_period = d.usage_period;
    tracer_->Emit(ev);
  }
  TraceService(TraceKind::kServiceStart, id, bits, *timing);
#if VODB_AUDIT_ENABLED
  auditor_.CheckAllocation(alloc_params_, config_.method, config_.profile,
                           config_.scheme == AllocScheme::kDynamic, rec);
#endif
  metrics_.estimated_k.Add(d.k);
  metrics_.memory_usage.Record(ToSeconds(now_), ToBits(TotalBufferedBits(now_)));
  ++metrics_.services;
  metrics_.disk_busy_time += dur;
  ReportBrokerState(d.k);
}

void VodSimulator::DetectStarvation() {
  // A buffer that reaches zero exactly as its refill completes is the
  // intended just-in-time behaviour; only count underflows that persisted
  // beyond a 1 ms grace (a genuine playback glitch).
  constexpr Seconds kGrace = Seconds(1e-3);
  for (auto& node : requests_) {
    Req& r = node.value;
    if (!r.admitted || !r.playing) continue;
    if (r.delivered >= r.total_bits) continue;
    const Seconds empty_since =
        r.consumed_at + (r.delivered - r.consumed) / alloc_params_.cr;
    const bool starving = now_ > empty_since + kGrace;
    if (starving && !r.starved) {
      r.starved = true;
      ++metrics_.starvation_events;
      Trace(TraceKind::kStarvation, r.id);
      // Under active fault injection a missed round degrades the stream
      // (graceful degradation, not failure). Gated on an active injector so
      // fault-free runs — including ones with residual starvation — keep
      // their metrics bit-identical.
      if (config_.injector != nullptr && config_.injector->active()) {
        MarkDegraded(r);
      }
    } else if (!starving) {
      r.starved = false;
    }
  }
}

void VodSimulator::MarkDegraded(Req& r) {
  if (r.degraded) return;
  r.degraded = true;
  ++metrics_.degraded_entries;
  if (!r.ever_degraded) {
    r.ever_degraded = true;
    ++metrics_.degraded_streams;
  }
  Trace(TraceKind::kDegraded, r.id);
  if (postmortem_ != nullptr) {
    postmortem_->NoteDegradation(
        static_cast<std::uint64_t>(metrics_.hiccup_events),
        static_cast<std::uint64_t>(metrics_.degraded_entries), now_,
        [this] { return CountersJson(metrics_); });
  }
}

void VodSimulator::HandleServiceComplete(const SimEvent& ev) {
  const RequestId id = ev.request;
  VOD_CHECK(disk_busy_ && in_service_ == id);
  ++state_version_;
  disk_busy_ = false;
  in_service_ = kInvalidRequestId;
  const bool failed = in_service_failed_;
  in_service_failed_ = false;
  // A failed read traced kReadFault at its start; only successful reads
  // carry a service_end (the Chrome exporter pairs it with service_start).
  if (!failed) {
    TraceService(TraceKind::kServiceEnd, id, in_service_bits_,
                 in_service_timing_);
  }

  // A request can depart mid-service only if viewing ended exactly at the
  // boundary; it may also have been removed — guard.
  Req* rp = requests_.Find(id);
  if (failed) {
    if (rp != nullptr) {
      Req& r = *rp;
      DetectStarvation();
      SyncConsumption(r, now_);
      ++r.round_failures;
      MarkDegraded(r);
      if (r.round_failures > in_service_max_retries_) {
        // Retry budget exhausted: the round is lost (a playback hiccup if
        // the buffer runs dry). The counter resets so the next attempt is a
        // fresh round; the scheduler was never told the round completed, so
        // the stream stays first in line.
        ++metrics_.hiccup_events;
        r.round_failures = 0;
        Trace(TraceKind::kHiccup, id);
        if (postmortem_ != nullptr) {
          postmortem_->NoteDegradation(
              static_cast<std::uint64_t>(metrics_.hiccup_events),
              static_cast<std::uint64_t>(metrics_.degraded_entries), now_,
              [this] { return CountersJson(metrics_); });
        }
      } else if (in_service_retry_backoff_ > Seconds(0)) {
        // Bounded exponential backoff before the disk re-issues any I/O.
        const double doubling =
            std::pow(2.0, static_cast<double>(r.round_failures - 1));
        retry_cooldown_until_ = std::max(
            retry_cooldown_until_, now_ + in_service_retry_backoff_ * doubling);
      }
      metrics_.memory_usage.Record(ToSeconds(now_), ToBits(TotalBufferedBits(now_)));
    }
    in_service_bits_ = Bits(0);
    MaybeScheduleService();
    return;
  }
  if (rp != nullptr) {
    Req& r = *rp;
    DetectStarvation();
    SyncConsumption(r, now_);
    r.delivered += in_service_bits_;
    metrics_.buffer_bits_allocated += in_service_bits_;
    if (r.degraded) {
      // A successful refill ends the degraded episode.
      r.degraded = false;
      r.round_failures = 0;
      ++metrics_.fault_recoveries;
      Trace(TraceKind::kRecovered, id);
    }
    ++r.fill_count;
#if VODB_AUDIT_ENABLED
    auditor_.CheckRequestAccounting(now_, id, r.delivered, r.consumed);
#endif
    if (r.first_data < Seconds(0)) {
      r.first_data = now_;
      const Seconds il = now_ - r.arrival;
      metrics_.initial_latency.Add(ToSeconds(il));
      const std::size_t bucket = static_cast<std::size_t>(
          std::clamp(r.n_at_admit, 1, alloc_params_.n_max));
      metrics_.initial_latency_by_n[bucket].Add(ToSeconds(il));
    }
    // Sweep* streams are double-buffered: the data filled in period p is
    // consumed during period p+1 (that lag is where Theorem 3's ~2·n·BS
    // memory comes from). Playback therefore begins at the second fill —
    // otherwise a stream refilled early in one period and late in the next
    // (sweep order follows disk position, not deadlines) would underflow.
    const int fills_before_playback =
        config_.method == core::ScheduleMethod::kSweep ? 2 : 1;
    if (!r.playing && (r.fill_count >= fills_before_playback ||
                       r.delivered >= r.total_bits)) {
      r.playing = true;
      r.consumed = Bits(0);
      r.consumed_at = now_;
    }
    r.starved = false;
    scheduler_->OnServiceComplete(id, now_);
    if (r.delivered >= r.total_bits) {
      // Fully delivered: the request keeps its slot in n while its last
      // buffer drains (it is still viewing) but needs no more services, so
      // its inertia snapshot is retired and the scheduler forgets it.
      allocator_->MarkDrained(&r.snapshot);
      scheduler_->Remove(id);
      const Bits left = r.total_bits - ConsumedAt(r, now_);
      Push(now_ + left / alloc_params_.cr, SimEventKind::kDeparture, id);
    }
    metrics_.memory_usage.Record(ToSeconds(now_), ToBits(TotalBufferedBits(now_)));
  }
  in_service_bits_ = Bits(0);
  MaybeScheduleService();
}

void VodSimulator::HandleDeparture(const SimEvent& ev) {
  const RequestId id = ev.request;
  const Req* r = requests_.Find(id);
  if (r == nullptr) return;
  ++state_version_;
  // Use-it-and-toss-it: everything delivered to this stream is released at
  // departure (the conservation ledger's release side).
  metrics_.buffer_bits_released += r->delivered;
  allocator_->Remove(r->snapshot);
  scheduler_->Remove(id);
  requests_.Erase(id);
#if VODB_AUDIT_ENABLED
  auditor_.ForgetRequest(id);
#endif
  ++metrics_.completed;
  Trace(TraceKind::kDeparture, id);
  RecordConcurrency();
  ReportBrokerState(last_k_estimate_);
  MaybeScheduleService();
}

// ---------------------------------------------------------------------------
// Series merging
// ---------------------------------------------------------------------------

StepTimeSeries MergeStepSeriesSum(
    const std::vector<const StepTimeSeries*>& series) {
  struct Tagged {
    double time;
    std::size_t src;
    double value;
  };
  std::vector<Tagged> all;
  for (std::size_t s = 0; s < series.size(); ++s) {
    for (const auto& [t, v] : series[s]->points()) {
      all.push_back({t, s, v});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const Tagged& a, const Tagged& b) { return a.time < b.time; });
  std::vector<double> last(series.size(), 0.0);
  double sum = 0.0;
  StepTimeSeries out;
  for (const Tagged& tg : all) {
    sum += tg.value - last[tg.src];
    last[tg.src] = tg.value;
    out.Record(tg.time, sum);
  }
  return out;
}

}  // namespace vod::sim
