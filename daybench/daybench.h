#ifndef DAYBENCH_DAYBENCH_H_
#define DAYBENCH_DAYBENCH_H_

// The benchmark's own code: workload definitions, output checks, digests,
// spans, the timing broker decorator and one measured pass of a workload.
// It drives the simulator only through public entry points and changes
// nothing in it.

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/units.h"
#include "exp/day_run.h"
#include "exp/thread_pool.h"
#include "sim/memory_broker.h"
#include "sim/metrics.h"
#include "sim/vod_simulator.h"
#include "sim/workload.h"

namespace daybench {

// ---------------------------------------------------------------------------
// Arithmetic
// ---------------------------------------------------------------------------

/// Median of `v` (mean of the two middle values when the size is even);
/// 0 for an empty vector.
double Median(std::vector<double> v);

/// Mean over the non-empty groups of each group's median; 0 when every
/// group is empty. A run's host times are grouped by draw, so every draw
/// weighs the same however many passes it got.
double MeanOfMedians(const std::vector<std::vector<double>>& groups);

/// num / den, or 0 when den is 0 (a layer that did no work on a workload).
double Ratio(double num, double den);

/// The highest percentile of the ladder 50, 90, 99, 99.9, ... that leaves
/// at least 10 of `n` samples beyond it (50 when even the median does not).
double TailPercentile(std::size_t n);

/// Nearest-rank percentile: the smallest sample with at least pct% of the
/// samples at or below it. 0 for an empty vector; reorders `v`.
double Percentile(std::vector<double>& v, double pct);

// ---------------------------------------------------------------------------
// Digests and the output check
// ---------------------------------------------------------------------------

/// Full-precision digest of every counter, statistic, allocation record and
/// step series in `m`: FNV-1a over the raw bits of every value, so equal
/// digests mean bit-identical metrics (up to a hash collision).
std::uint64_t DigestOf(const vod::sim::SimMetrics& m);

/// 16 lowercase hex digits.
std::string Hex(std::uint64_t v);

/// What the output check reads from one drained disk.
struct DiskOutcome {
  int disk = 0;
  const vod::sim::SimMetrics* metrics = nullptr;
  int active = 0;          ///< VodSimulator::active_count() after the run.
  std::size_t queued = 0;  ///< VodSimulator::event_count() after the run.
};

/// The ledger identities a drained disk must satisfy. Returns one message
/// per failed check, each naming the disk and the check; empty when all
/// hold.
std::vector<std::string> CheckDisk(const DiskOutcome& o);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Layer boundaries the traced run records a span at.
enum class Layer : std::uint8_t {
  kWorkload,        ///< sim::GenerateWorkload
  kCreate,          ///< VodSimulator::Create / MultiDiskSimulator::Create
  kAddArrivals,     ///< AddArrivals
  kStep,            ///< VodSimulator::Step
  kSelect,          ///< the next-disk scan over NextEventTime()
  kCanAdmit,        ///< MemoryBroker::CanAdmit
  kOnState,         ///< MemoryBroker::OnState
  kReserved,        ///< MemoryBroker::ReservedMemory
  kCapacity,        ///< MemoryBroker::Capacity
  kAdvance,         ///< MemoryBroker::AdvanceTo
  kFinalize,        ///< Finalize
  kShardedRun,      ///< MultiDiskSimulator::RunToCompletionSharded
  kEpoch,           ///< one epoch's parallel phase
  kSlot,            ///< one disk's slot in an epoch
  kCount
};

std::string_view LayerName(Layer l);

/// Spans of one single-threaded traced pass, kept in memory. Every span
/// is aggregated (count, total, time covered by its direct children); the
/// first `raw_cap` closed spans are also kept whole (id, parent, start,
/// end) for WriteTsv, so memory stays bounded however long the day is.
class SpanLog {
 public:
  struct Agg {
    std::int64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;
  };

  explicit SpanLog(std::size_t raw_cap = std::size_t{1} << 16);

  /// Opens a span as a child of the innermost open span.
  void Open(Layer l);
  /// Closes the innermost open span; returns its duration.
  std::int64_t Close();
  /// Records a span measured elsewhere (a worker thread's slot) as a child
  /// of the innermost open span. Its time is not subtracted from the
  /// parent's self time: slots of one epoch overlap.
  void AddMeasured(Layer l, std::int64_t start_ns, std::int64_t end_ns);

  const Agg& agg(Layer l) const { return agg_[static_cast<std::size_t>(l)]; }
  std::uint64_t span_count() const { return next_id_ - 1; }

  /// Writes the kept spans as tab-separated id, parent, name, start_ns,
  /// end_ns (parent 0 = none), after a comment header.
  bool WriteTsv(const std::string& path) const;

 private:
  struct Raw {
    std::uint64_t id;
    std::uint64_t parent;
    Layer layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Frame {
    Layer layer;
    std::uint64_t id;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  void Keep(const Raw& r);

  std::size_t raw_cap_;
  std::vector<Raw> raw_;
  std::vector<Frame> stack_;
  std::array<Agg, static_cast<std::size_t>(Layer::kCount)> agg_{};
  std::uint64_t next_id_ = 1;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Layer l) : log_(log) {
    if (log_ != nullptr) log_->Open(l);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

// ---------------------------------------------------------------------------
// Broker decorator
// ---------------------------------------------------------------------------

/// Pass-through MemoryBroker over a shared AnalyticMemoryBroker that records
/// a span per call, counts calls and admission answers, and tallies the
/// (n, k) pairs it is shown so pricing can be timed over the same mix.
class TimedBroker final : public vod::sim::MemoryBroker {
 public:
  /// `inner` must outlive the decorator; `log` may be null.
  TimedBroker(vod::sim::AnalyticMemoryBroker* inner, SpanLog* log);

  [[nodiscard]] bool CanAdmit(int disk, int new_n, int k) const override;
  void OnState(int disk, int n, int k) override;
  [[nodiscard]] vod::Bits ReservedMemory() const override;
  [[nodiscard]] vod::Bits Capacity() const override;
  void AdvanceTo(vod::Seconds now) override;

  std::int64_t calls() const;
  std::int64_t can_admit_calls() const { return can_admit_; }
  std::int64_t can_admit_yes() const { return can_admit_yes_; }
  std::int64_t reserved_calls() const { return reserved_; }
  /// How often each (n, k) pair reached OnState or CanAdmit.
  const std::map<std::pair<int, int>, std::int64_t>& pairs() const {
    return pairs_;
  }

 private:
  void Tally(int n, int k) const;

  vod::sim::AnalyticMemoryBroker* inner_;
  SpanLog* log_;
  mutable std::int64_t can_admit_ = 0;
  mutable std::int64_t can_admit_yes_ = 0;
  mutable std::int64_t reserved_ = 0;
  mutable std::int64_t capacity_ = 0;
  std::int64_t on_state_ = 0;
  std::int64_t advance_ = 0;
  mutable std::map<std::pair<int, int>, std::int64_t> pairs_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Workload { kOneDiskDay, kTenDiskBudget, kWideShardedChurn };

std::optional<Workload> ParseWorkload(std::string_view name);
std::string_view WorkloadName(Workload w);

/// Worker count of the sharded runner's pool, fixed so every machine runs
/// the same schedule of work.
inline constexpr int kShardedWorkers = 4;

/// One simulated day of a workload pass.
struct DaySpec {
  enum class Kind { kSingleDisk, kSerialMultiDisk, kShardedMultiDisk };
  std::string name;
  Kind kind = Kind::kSingleDisk;
  vod::sim::SimConfig base;          ///< Per-disk config (seeded per disk).
  vod::sim::WorkloadConfig workload;
  int disks = 1;
  vod::Bits capacity;                ///< Shared budget; unused single-disk.
  /// Single-disk days: the exp::RunDay config that runs the same day.
  vod::exp::DayRunConfig day;
};

/// How many different draws of a workload's days one run simulates. Pass p
/// runs draw p % kDraws, so a run measures the same days for a given seed
/// however many passes the host's speed lets it make.
inline constexpr int kDraws = 5;

/// The seed of draw `draw` of a run: each draw is a different day drawn
/// from the run's seed, so a run averages over several days.
std::uint64_t DaySeed(std::uint64_t run_seed, int draw);

/// The days one pass of `w` runs, all derived from `seed`.
std::vector<DaySpec> DaysOf(Workload w, std::uint64_t seed);

/// The day's arrivals, generated in full from its seed.
vod::Result<std::vector<vod::sim::ArrivalEvent>> ArrivalsOf(const DaySpec& d);

// ---------------------------------------------------------------------------
// One pass
// ---------------------------------------------------------------------------

struct DayResult {
  std::string name;
  double setup_s = 0;
  double run_s = 0;
  std::int64_t events = 0;  ///< Known on traced passes only.
  long disks = 0;           ///< Disks simulated and checked.
  long arrivals = 0;
  long admitted = 0;
  long rejected = 0;
  long services = 0;
  long starvations = 0;
  vod::RunningStats latency;          ///< Initial latency, all disks.
  std::vector<std::uint64_t> digests;  ///< One per disk.
  std::vector<std::string> failures;   ///< Output-check failures.
  long failed_checks = 0;  ///< Disks, and the broker, that failed a check.
};

struct PassResult {
  std::vector<DayResult> days;
  /// One field summed over the pass's days, e.g. Sum(&DayResult::run_s).
  template <typename T>
  T Sum(T DayResult::*field) const {
    T s{};
    for (const DayResult& d : days) s += d.*field;
    return s;
  }
  vod::RunningStats latency() const;
  std::vector<std::string> failures() const;
  /// One line per day and disk: "<day> disk <d> <digest>".
  std::vector<std::string> DigestLines() const;
};

/// Per-layer accumulators of traced passes.
struct Trace {
  SpanLog spans;
  std::vector<double> step_ns;         ///< One per Step().
  std::int64_t events = 0;
  std::int64_t creates = 0;            ///< VodSimulators created.
  double depth_sum = 0;
  std::size_t depth_max = 0;
  // Broker decorator totals.
  std::int64_t broker_calls = 0;
  std::int64_t can_admit_calls = 0;
  std::int64_t can_admit_yes = 0;
  std::int64_t price_ops = 0;          ///< Disks priced by Reserved/CanAdmit.
  double price_ns_sum = 0;             ///< Σ timed PriceDisk ns.
  std::int64_t price_samples = 0;
  // Arrival-estimator replay.
  double klog_ns_sum = 0;
  std::int64_t klog_calls = 0;
  double window_sum = 0;
  long sink = 0;  ///< Keeps the replayed and priced results live.
  // Metric recording.
  double metrics_bytes = 0;
  double metrics_retained_max = 0;
  long services = 0;
  // Sharded runner.
  std::int64_t epochs = 0;
  double sharded_wall_s = 0;
  double parallel_s = 0;
  double slot_s = 0;
  double dispatch_s = 0;
};

/// Host time of the day's set-up alone (generate its arrivals, create the
/// server, feed it the arrivals), built as an untraced pass builds it and
/// then discarded.
double SetupSeconds(const DaySpec& spec);

/// Host time of a fixed reference job that runs none of the code under
/// src/: 300 000 pop-and-push steps on a std::priority_queue of 2000
/// (time, id) pairs, the same on every call. Timed next to the
/// passes, its median tracks the host's speed over the run.
double ReferenceSeconds();

/// The reference job's time on the machine the benchmark's first numbers
/// were recorded on (a shared 4-vCPU 2.0 GHz Xeon VM), rounded. setup_s is
/// scaled to a host this fast, so it stays in seconds; the value sets only
/// the scale, not the comparison between two runs on one host.
inline constexpr double kReferenceNominalSeconds = 0.04;

/// Runs one day; see RunPass.
DayResult RunSpec(const DaySpec& spec, vod::exp::ThreadPool* pool,
                  Trace* trace);

/// Runs every day of `w` once. Untraced (`trace` null) it goes through the
/// entry points the figure harnesses use: VodSimulator::RunToCompletion,
/// MultiDiskSimulator::RunToCompletion and exp::RunShardedToCompletion.
/// Traced, it records spans around each call into a layer and must produce
/// the same digests. `pool` must be non-null for the sharded workload.
PassResult RunPass(Workload w, std::uint64_t seed, vod::exp::ThreadPool* pool,
                   Trace* trace);

/// Per-layer metrics from `passes` traced passes, the profiler sites read
/// over untraced passes of the same days (`prof`: site name -> total ns)
/// and the traced ÷ untraced run-time ratio.
std::map<std::string, double> LayerMetrics(
    const Trace& trace, int passes, const std::map<std::string, double>& prof,
    double trace_overhead);

/// The build fingerprint compiled into this binary, as JSON object members.
std::string BuildFingerprintJson();

}  // namespace daybench

#endif  // DAYBENCH_DAYBENCH_H_
