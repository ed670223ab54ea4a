#ifndef VODB_SIM_VOD_SIMULATOR_H_
#define VODB_SIM_VOD_SIMULATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "common/types.h"
#include "common/units.h"
#include "core/allocator.h"
#include "core/params.h"
#include "disk/simulated_disk.h"
#include "disk/video_layout.h"
#include "obs/trace_event.h"
#include "sched/scheduler.h"
#include "sim/event_queue.h"
#include "sim/invariant_auditor.h"
#include "sim/memory_broker.h"
#include "sim/metrics.h"
#include "sim/rng.h"
#include "sim/workload.h"

namespace vod::obs {
class EventTracer;
class PostmortemSink;
class TimeseriesRecorder;
}  // namespace vod::obs

namespace vod::fault {
class Injector;
}  // namespace vod::fault

namespace vod::sim {

/// Which buffer-allocation scheme the server runs.
enum class AllocScheme { kStatic, kDynamic };

std::string_view AllocSchemeName(AllocScheme s);

/// Configuration of one simulated VOD disk server.
struct SimConfig {
  disk::DiskProfile profile = disk::SeagateBarracuda9LP();
  BitsPerSecond consumption_rate = Mbps(1.5);
  core::ScheduleMethod method = core::ScheduleMethod::kRoundRobin;
  AllocScheme scheme = AllocScheme::kDynamic;
  int gss_group_size = 8;    ///< g (the paper's memory-minimizing value).
  int alpha = 1;             ///< α of Assumption 2.
  Seconds t_log = Minutes(40);
  int video_count = 6;
  Seconds video_length = Hours(2);  ///< Every video is 120 min (Sec. 5.1).
  std::uint64_t seed = 1;
  /// Force every rotational delay to the worst case θ (validation runs);
  /// default samples U[0, θ).
  bool worst_case_rotation = false;
  int disk_id = 0;           ///< Identity towards the MemoryBroker.
  /// Disable the dynamic scheme's Assumption-1 admission gate (failure
  /// injection: shows starvation when enforcement is removed).
  bool disable_admission_control = false;
  /// Deterministic fault source (not owned; may be nullptr, must outlive
  /// the simulator). A nullptr — or an injector with an empty spec — leaves
  /// every metric bit-identical to an uninjected run (observer effect:
  /// none). Multi-disk servers share one injector across their disks.
  fault::Injector* injector = nullptr;

  Status Validate() const;
};

/// The allocation parameters a server with `config` runs on, for its
/// allocator and its memory broker alike: GSS* sizes DL for the group
/// size g, every other method for N = MaxConcurrentRequests.
Result<core::AllocParams> AllocParamsFor(const SimConfig& config);

/// The BS_k(n) table the dynamic scheme sizes buffers from on a server with
/// `config`: Theorem 1 on AllocParamsFor(config), with Sweep*'s DL varying
/// with the in-service count n (Table 2: γ(Cyln/n) + θ per row). Immutable,
/// so MultiDiskSimulator builds it once and every disk shares it. Validates
/// `config` first.
Result<std::shared_ptr<const core::BufferSizeTable>> BufferSizeTableFor(
    const SimConfig& config);

/// The memory broker of a server with `config`: an AnalyticMemoryBroker on
/// AllocParamsFor(config) that prices `disk_count` disks against
/// `capacity`, with config.injector attached when set (so a memsqueeze
/// clause squeezes the budget). Validates `config` first.
Result<std::unique_ptr<AnalyticMemoryBroker>> MakeBroker(
    const SimConfig& config, int disk_count, Bits capacity);

/// Discrete-event simulator of one VOD disk server implementing the model
/// of Secs. 2–3: shared-memory buffers with use-it-and-toss-it consumption,
/// per-method service ordering, just-in-time ("as late as safely possible")
/// service starts, BubbleUp admission, and either static or dynamic buffer
/// allocation with predict-and-enforce admission control.
///
/// The simulator is steppable so that a multi-disk server can interleave
/// several instances on one global clock (see MultiDiskSimulator).
class VodSimulator : public sched::SchedulerContext {
 public:
  /// `broker` may be nullptr (no memory constraint). The broker must
  /// outlive the simulator. Under the dynamic scheme, `table` is the
  /// BufferSizeTableFor(config) to share (nullptr: build one); a table whose
  /// params() differ from AllocParamsFor(config) or whose rows' DL differ
  /// from that recipe's, or any table under the static scheme, is
  /// InvalidArgument.
  static Result<std::unique_ptr<VodSimulator>> Create(
      const SimConfig& config, MemoryBroker* broker,
      std::shared_ptr<const core::BufferSizeTable> table = nullptr);

  ~VodSimulator() override = default;
  VodSimulator(const VodSimulator&) = delete;
  VodSimulator& operator=(const VodSimulator&) = delete;

  /// Feeds arrivals (time-sorted). Call before stepping past their times.
  /// All or nothing: a batch with an invalid arrival queues none of it.
  Status AddArrivals(const std::vector<ArrivalEvent>& arrivals);

  /// The check AddArrivals makes before queueing anything: OK when every
  /// arrival lies at or after now() and names a video of this disk.
  Status ValidateArrivals(const std::vector<ArrivalEvent>& arrivals) const;

  /// Processes one arrival synchronously at the current clock (the event
  /// time must not precede now()). Returns the assigned request id,
  /// InvalidArgument for an arrival ValidateArrivals would refuse, or
  /// CapacityExceeded if the request was rejected on the spot. The request
  /// may still be waiting in the admission queue (deferred) on return.
  Result<RequestId> SubmitNow(const ArrivalEvent& arrival);

  /// Cancels a pending or in-service request (VCR semantics: the paper
  /// models fast-forward/rewind as cancelling the stream and submitting a
  /// new request at the target position — see VodServer::VcrReposition).
  Status CancelRequest(RequestId id);

  /// Time of the next pending event; +inf when drained.
  Seconds NextEventTime() const;

  /// Processes one event. Returns false when no events remain.
  bool Step();

  /// Runs until the event queue drains or the clock passes `t`.
  void RunUntil(Seconds t);

  /// Runs every event strictly before `t` (the sharded runner's epoch
  /// boundary: events at exactly `t` belong to the next epoch).
  void RunUntilBefore(Seconds t);

  /// Runs until every request completed and the queue drained.
  void RunToCompletion();

  /// Resolves estimation-success bookkeeping; call once after the run.
  void Finalize();

  Seconds now() const { return now_; }

  /// The runtime invariant auditor. Its checks run only when the tree is
  /// built with VODB_AUDIT=ON (the default); the object itself is always
  /// present so tests can install a collecting handler unconditionally.
  InvariantAuditor& auditor() { return auditor_; }
  const InvariantAuditor& auditor() const { return auditor_; }

  /// Attaches a structured event tracer (nullptr detaches). The tracer must
  /// outlive the simulator. It is a pure observer: no metric or golden CSV
  /// changes by attaching one, and a run without one builds no event.
  void set_tracer(obs::EventTracer* tracer) { tracer_ = tracer; }

  /// Attaches a postmortem sink (nullptr detaches). The simulator arms the
  /// auditor's capture-then-fail observer (dump before the violation
  /// handler runs) and forwards fault-layer degradation counters for the
  /// sink's threshold trigger; both hand the sink this run's counters for
  /// the dump. Pure observer: the sink only ever reads state, and only on
  /// already-exceptional paths.
  void set_postmortem(obs::PostmortemSink* sink);

  /// Attaches a sim-time telemetry recorder (nullptr detaches). Sampled
  /// after each dispatched event when a bucket boundary has passed; all
  /// sampled quantities are reads of existing state (pure observer).
  void set_timeseries(obs::TimeseriesRecorder* recorder) {
    timeseries_ = recorder;
  }

  const SimMetrics& metrics() const { return metrics_; }
  const SimConfig& config() const { return config_; }
  const core::AllocParams& alloc_params() const { return alloc_params_; }
  /// The BS_k(n) table the dynamic allocator sizes from; nullptr under the
  /// static scheme, which sizes every buffer BS(N) without one.
  const core::BufferSizeTable* buffer_size_table() const;
  int active_count() const { return allocator_->active_count(); }
  /// Events currently queued (arrivals not yet dispatched included).
  std::size_t event_count() const { return events_.size(); }
  const disk::SimulatedDisk& disk() const { return disk_; }

  // --- sched::SchedulerContext ---
  Seconds BufferDeadline(RequestId id) const override;
  bool NeverServiced(RequestId id) const override;
  double CurrentCylinder(RequestId id) const override;
  Seconds WorstServiceTime(RequestId id) const override;
  Seconds NewcomerReserve() const override;
  /// One request lookup per entry; the allocator preview and the lookahead
  /// disk latency are read once per call.
  void Facts(const std::vector<RequestId>& seq,
             std::vector<sched::RequestFacts>* out) const override;

 private:
  /// One request: the table entry from arrival to departure. It is the only
  /// record of whether the request is admitted and of its Fig. 5 snapshot.
  struct Req {
    RequestId id = kInvalidRequestId;
    disk::VideoId video = 0;
    Seconds arrival;
    Seconds viewing;
    Bits start_offset;  ///< Playback start within the video (VCR).
    Bits total_bits;
    Bits delivered;
    Bits consumed;       ///< As of `consumed_at` (lazy).
    Seconds consumed_at;
    bool playing = false;
    bool admitted = false;
    bool starved = false;    ///< Currently underflowed (edge counted once).
    bool was_deferred = false;
    /// Graceful degradation: set on a missed or failed service round,
    /// cleared by the next successful refill. A degraded stream keeps its
    /// buffer and its use-it-and-toss-it consumption; only continuity is
    /// temporarily lost.
    bool degraded = false;
    bool ever_degraded = false;  ///< For the distinct-streams counter.
    int round_failures = 0;  ///< Consecutive failed reads this round.
    int n_at_admit = 0;
    /// The (n_i, k_i) of the last allocation, which the allocator reads and
    /// updates through every call about this request.
    core::Snapshot snapshot;
    int fill_count = 0;
    Seconds first_data = Seconds(-1);
  };

  VodSimulator(const SimConfig& config, core::AllocParams alloc_params,
               std::vector<Seconds> dl_by_n, disk::VideoLayout layout,
               std::unique_ptr<core::BufferAllocator> allocator,
               std::unique_ptr<sched::BufferScheduler> scheduler,
               MemoryBroker* broker);

  void Push(Seconds time, SimEventKind kind, RequestId id,
            std::size_t arrival_index = 0);

  /// The per-arrival check of ValidateArrivals and SubmitNow.
  Status ValidateArrival(const ArrivalEvent& arrival) const;
  void HandleArrival(const SimEvent& ev);
  Result<RequestId> ProcessArrival(const ArrivalEvent& a);
  void HandleServiceComplete(const SimEvent& ev);
  void HandleDeparture(const SimEvent& ev);

  /// Admission pump: admits queued requests in FIFO order while the
  /// scheduler's timing, the allocator's Assumption 1, and the memory
  /// broker all allow it.
  void TryAdmitPending();

  /// The immediate-rejection gate (Sec. 5.1) of a request asking to join
  /// now: kRejectCapacity on a fully loaded disk (n = N), kRejectMemory when
  /// the broker cannot fit n + 1, nullopt when it may join (Assumption 1 may
  /// still defer it).
  std::optional<obs::TraceEventKind> RejectionNow() const;
  /// Counts and traces a request turned away; `kind` is the kReject* trace
  /// kind of its cause.
  void Reject(obs::TraceEventKind kind, RequestId id);

  /// If the disk is idle, picks the next service and either starts it or
  /// schedules a wakeup at its just-in-time start.
  void MaybeScheduleService();

  void BeginService(RequestId id);

  /// Advances the lazy consumption clock of `r` to `t`.
  void SyncConsumption(Req& r, Seconds t);
  Bits ConsumedAt(const Req& r, Seconds t) const;
  Bits BufferLevelAt(const Req& r, Seconds t) const;
  Bits TotalBufferedBits(Seconds t) const;

  void DetectStarvation();
  /// Normal -> Degraded transition bookkeeping (idempotent per episode).
  void MarkDegraded(Req& r);
  void RecordConcurrency();
  // `at_admission` marks calls made right after a CanAdmit-gated admission,
  // where the audited capacity partition is guaranteed to hold exactly.
  void ReportBrokerState(int k_estimate, bool at_admission = false);

  const Req& GetReq(RequestId id) const;
  Req& GetReq(RequestId id);

  /// The scheduling facts of one request. Each per-request SchedulerContext
  /// method and Facts() read them through these, so the two cannot drift.
  Seconds DeadlineOf(const Req& r) const;
  static bool NeverServicedOf(const Req& r) { return !r.playing; }
  /// `buffer_size` is the allocator preview's, `dl` LookaheadLatency().
  Seconds WorstServiceOf(const Req& r, Bits buffer_size, Seconds dl) const;
  /// Worst disk latency of one lookahead service at the current load.
  Seconds LookaheadLatency() const;

  SimConfig config_;
  core::AllocParams alloc_params_;
  /// DL(n) at index n − 1 for n = 1..N, the vector the BS_k(n) table's rows
  /// are sized from: Sweep*'s γ(Cyln/n) + θ, every other method's params DL.
  std::vector<Seconds> dl_by_n_;
  disk::VideoLayout layout_;
  disk::SimulatedDisk disk_;
  std::unique_ptr<core::BufferAllocator> allocator_;
  std::unique_ptr<sched::BufferScheduler> scheduler_;
  MemoryBroker* broker_;  ///< Not owned; may be nullptr.
  Rng rng_;

  Seconds now_;
  std::uint64_t next_seq_ = 0;
  EventQueue events_;
  std::vector<ArrivalEvent> arrivals_;
  std::vector<Seconds> arrival_times_;  ///< For estimation resolution.

  /// Per-stream state lives in pool chunks (common/arena.h); iteration is
  /// ascending-id — the same order the std::map this replaced used, which
  /// keeps order-sensitive floating-point reductions bit-identical.
  PooledOrderedMap<Req> requests_;
  std::deque<RequestId> pending_;  ///< Arrived, awaiting admission (Q).
  RequestId next_request_id_ = 1;

  bool disk_busy_ = false;
  RequestId in_service_ = kInvalidRequestId;
  Bits in_service_bits_;
  disk::ServiceTiming in_service_timing_;  ///< Breakdown for the trace end event.
  /// Injected-fault state of the in-flight read (kEio): the completion
  /// handler turns a failed read into a retry or, past the budget, a hiccup.
  bool in_service_failed_ = false;
  int in_service_max_retries_ = 0;
  Seconds in_service_retry_backoff_;
  /// Disk-level cooldown after a failed read (bounded exponential backoff):
  /// no service is issued before this instant.
  Seconds retry_cooldown_until_;
  int last_k_estimate_ = 0;
  Seconds scheduled_wakeup_;
  bool wakeup_pending_ = false;

  /// One decision asks for the allocator's Preview() several times (Facts,
  /// NewcomerReserve, the BubbleUp scan's per-request reads), so cache it
  /// per (clock, state epoch).
  core::AllocationDecision CachedPreview() const;
  mutable core::AllocationDecision preview_cache_;
  mutable Seconds preview_cache_time_ = Seconds(-1);
  mutable std::uint64_t preview_cache_version_ = ~0ULL;
  std::uint64_t state_version_ = 0;

  /// Assembles a TimeseriesSample from current state and records it.
  void SampleTimeseries();

  /// An event of `kind` about request `id`, stamped with the clock and this
  /// disk, and with the load `n` when the kind's kTraceKinds row has it.
  obs::TraceEvent TraceStamp(obs::TraceEventKind kind, RequestId id) const;
  /// Emits TraceStamp(kind, id) when a tracer is attached; TraceService adds
  /// a read's size and seek/rotation/transfer breakdown.
  void Trace(obs::TraceEventKind kind, RequestId id);
  void TraceService(obs::TraceEventKind kind, RequestId id, Bits bits,
                    const disk::ServiceTiming& timing);

  InvariantAuditor auditor_;
  SimMetrics metrics_;
  obs::EventTracer* tracer_ = nullptr;  ///< Not owned; may be nullptr.
  obs::PostmortemSink* postmortem_ = nullptr;    ///< Not owned; optional.
  obs::TimeseriesRecorder* timeseries_ = nullptr;  ///< Not owned; optional.
};

/// Sums several step time series (per-disk concurrency, memory, ...).
StepTimeSeries MergeStepSeriesSum(
    const std::vector<const StepTimeSeries*>& series);

}  // namespace vod::sim

#endif  // VODB_SIM_VOD_SIMULATOR_H_
