#include "daybench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <thread>

#include "common/check.h"
#include "core/arrival_estimator.h"
#include "core/params.h"
#include "exp/sharded.h"
#include "obs/clock.h"
#include "obs/profile.h"
#include "sim/multi_disk.h"
#include "sim/rng.h"

namespace daybench {

using vod::Bits;
using vod::Seconds;
namespace sim = vod::sim;
namespace core = vod::core;
namespace exp = vod::exp;

namespace {

std::int64_t Now() { return vod::obs::MonotonicNanos(); }

double SecondsSince(std::int64_t t0) {
  return static_cast<double>(Now() - t0) * 1e-9;
}

}  // namespace

// ---------------------------------------------------------------------------
// Arithmetic
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double MeanOfMedians(const std::vector<std::vector<double>>& groups) {
  double sum = 0;
  int n = 0;
  for (const std::vector<double>& g : groups) {
    if (g.empty()) continue;
    sum += Median(g);
    ++n;
  }
  return n == 0 ? 0 : sum / n;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double TailPercentile(std::size_t n) {
  double best = 50;
  // 90, 99, 99.9, ...: each rung leaves a tenth as many samples beyond it.
  for (double beyond_share = 0.1; beyond_share > 1e-9; beyond_share /= 10) {
    if (static_cast<double>(n) * beyond_share < 10) break;
    best = 100 * (1 - beyond_share);
  }
  return best;
}

double Percentile(std::vector<double>& v, double pct) {
  if (v.empty()) return 0;
  const double rank = std::ceil(pct / 100 * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

// ---------------------------------------------------------------------------
// Digests and the output check
// ---------------------------------------------------------------------------

namespace {

class Digest {
 public:
  void Add(double v) { AddBytes(&v, sizeof v); }
  void Add(long v) { AddBytes(&v, sizeof v); }
  std::uint64_t value() const { return h_; }

 private:
  void AddBytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 1099511628211ULL;
  }
  std::uint64_t h_ = 1469598103934665603ULL;  // FNV offset basis.
};

}  // namespace

std::uint64_t DigestOf(const sim::SimMetrics& m) {
  Digest d;
  for (long c : {m.arrivals, m.admitted, m.rejected, m.rejected_capacity,
                 m.rejected_memory, m.rejected_invalid, m.deferred_admissions,
                 m.completed, m.cancelled, m.estimation_checks,
                 m.estimation_successes, m.starvation_events, m.read_faults,
                 m.read_retries, m.hiccup_events, m.degraded_entries,
                 m.degraded_streams, m.fault_recoveries, m.delayed_reads,
                 m.services, static_cast<long>(m.peak_concurrency)}) {
    d.Add(c);
  }
  auto add_stats = [&d](const vod::RunningStats& s) {
    d.Add(static_cast<long>(s.count()));
    d.Add(s.mean());
    d.Add(s.variance());
    d.Add(s.min());
    d.Add(s.max());
  };
  add_stats(m.initial_latency);
  add_stats(m.estimated_k);
  for (const vod::RunningStats& s : m.initial_latency_by_n) add_stats(s);
  d.Add(vod::ToBits(m.buffer_bits_allocated));
  d.Add(vod::ToBits(m.buffer_bits_released));
  d.Add(vod::ToSeconds(m.disk_busy_time));
  d.Add(static_cast<long>(m.allocations.size()));
  for (const sim::AllocationRecord& a : m.allocations) {
    d.Add(vod::ToSeconds(a.time));
    d.Add(static_cast<long>(a.request));
    d.Add(static_cast<long>(a.n));
    d.Add(static_cast<long>(a.k));
    d.Add(vod::ToBits(a.buffer_size));
    d.Add(vod::ToSeconds(a.usage_period));
  }
  for (const vod::StepTimeSeries* s :
       {&m.concurrency, &m.memory_usage, &m.memory_reserved}) {
    d.Add(static_cast<long>(s->points().size()));
    for (const auto& [t, v] : s->points()) {
      d.Add(t);
      d.Add(v);
    }
  }
  return d.value();
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::vector<std::string> CheckDisk(const DiskOutcome& o) {
  std::vector<std::string> failures;
  const sim::SimMetrics& m = *o.metrics;
  auto expect = [&](bool ok, const char* check, double lhs, double rhs) {
    if (ok) return;
    char buf[256];
    std::snprintf(buf, sizeof buf, "disk %d: %s (%.17g vs %.17g)", o.disk,
                  check, lhs, rhs);
    failures.emplace_back(buf);
  };
  expect(m.admitted + m.rejected == m.arrivals,
         "admitted + rejected == arrivals",
         static_cast<double>(m.admitted + m.rejected),
         static_cast<double>(m.arrivals));
  const long causes =
      m.rejected_capacity + m.rejected_memory + m.rejected_invalid;
  expect(m.rejected == causes,
         "rejected == rejected_capacity + rejected_memory + rejected_invalid",
         static_cast<double>(m.rejected), static_cast<double>(causes));
  expect(m.completed + m.cancelled == m.admitted,
         "completed + cancelled == admitted",
         static_cast<double>(m.completed + m.cancelled),
         static_cast<double>(m.admitted));
  expect(o.active == 0, "active_count() == 0", o.active, 0);
  expect(o.queued == 0, "event_count() == 0", static_cast<double>(o.queued),
         0);
  const double alloc = vod::ToBits(m.buffer_bits_allocated);
  const double released = vod::ToBits(m.buffer_bits_released);
  expect(std::abs(alloc - released) <=
             1e-9 * std::max(std::abs(alloc), std::abs(released)),
         "buffer_bits_allocated == buffer_bits_released (1e-9 relative)",
         alloc, released);
  return failures;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

std::string_view LayerName(Layer l) {
  switch (l) {
    case Layer::kWorkload: return "sim.workload";
    case Layer::kCreate: return "sim.create";
    case Layer::kAddArrivals: return "sim.add_arrivals";
    case Layer::kStep: return "sim.step";
    case Layer::kSelect: return "sim.multi_disk.select";
    case Layer::kCanAdmit: return "sim.memory_broker.can_admit";
    case Layer::kOnState: return "sim.memory_broker.on_state";
    case Layer::kReserved: return "sim.memory_broker.reserved_memory";
    case Layer::kCapacity: return "sim.memory_broker.capacity";
    case Layer::kAdvance: return "sim.memory_broker.advance_to";
    case Layer::kFinalize: return "sim.finalize";
    case Layer::kShardedRun: return "exp.sharded.run";
    case Layer::kEpoch: return "exp.sharded.epoch";
    case Layer::kSlot: return "exp.sharded.slot";
    case Layer::kCount: break;
  }
  return "?";
}

SpanLog::SpanLog(std::size_t raw_cap) : raw_cap_(raw_cap) {
  raw_.reserve(std::min<std::size_t>(raw_cap, 4096));
}

void SpanLog::Open(Layer l) {
  stack_.push_back(Frame{l, next_id_++, Now(), 0});
}

std::int64_t SpanLog::Close() {
  const std::int64_t end = Now();
  VOD_CHECK(!stack_.empty());
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - f.start_ns;
  Agg& a = agg_[static_cast<std::size_t>(f.layer)];
  ++a.count;
  a.total_ns += dur;
  a.child_ns += f.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  Keep(Raw{f.id, stack_.empty() ? 0 : stack_.back().id, f.layer, f.start_ns,
           end});
  return dur;
}

void SpanLog::AddMeasured(Layer l, std::int64_t start_ns, std::int64_t end_ns) {
  Agg& a = agg_[static_cast<std::size_t>(l)];
  ++a.count;
  a.total_ns += end_ns - start_ns;
  Keep(Raw{next_id_++, stack_.empty() ? 0 : stack_.back().id, l, start_ns,
           end_ns});
}

void SpanLog::Keep(const Raw& r) {
  if (raw_.size() < raw_cap_) raw_.push_back(r);
}

bool SpanLog::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "# daybench spans: the first %zu of %llu closed spans\n"
               "id\tparent\tname\tstart_ns\tend_ns\n",
               raw_.size(), static_cast<unsigned long long>(span_count()));
  for (const Raw& r : raw_) {
    std::fprintf(f, "%llu\t%llu\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 std::string(LayerName(r.layer)).c_str(),
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns));
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Broker decorator
// ---------------------------------------------------------------------------

TimedBroker::TimedBroker(sim::AnalyticMemoryBroker* inner, SpanLog* log)
    : inner_(inner), log_(log) {
  VOD_CHECK(inner != nullptr);
}

void TimedBroker::Tally(int n, int k) const { ++pairs_[{n, k}]; }

bool TimedBroker::CanAdmit(int disk, int new_n, int k) const {
  bool yes = false;
  {
    ScopedSpan span(log_, Layer::kCanAdmit);
    yes = inner_->CanAdmit(disk, new_n, k);
  }
  ++can_admit_;
  if (yes) ++can_admit_yes_;
  Tally(new_n, k);
  return yes;
}

void TimedBroker::OnState(int disk, int n, int k) {
  {
    ScopedSpan span(log_, Layer::kOnState);
    inner_->OnState(disk, n, k);
  }
  ++on_state_;
  Tally(n, k);
}

Bits TimedBroker::ReservedMemory() const {
  ++reserved_;
  ScopedSpan span(log_, Layer::kReserved);
  return inner_->ReservedMemory();
}

Bits TimedBroker::Capacity() const {
  ++capacity_;
  ScopedSpan span(log_, Layer::kCapacity);
  return inner_->Capacity();
}

void TimedBroker::AdvanceTo(Seconds now) {
  ++advance_;
  ScopedSpan span(log_, Layer::kAdvance);
  inner_->AdvanceTo(now);
}

std::int64_t TimedBroker::calls() const {
  return can_admit_ + on_state_ + reserved_ + capacity_ + advance_;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kOneDiskDay, Workload::kTenDiskBudget,
                     Workload::kWideShardedChurn}) {
    if (WorkloadName(w) == name) return w;
  }
  return std::nullopt;
}

std::string_view WorkloadName(Workload w) {
  switch (w) {
    case Workload::kOneDiskDay: return "one_disk_day";
    case Workload::kTenDiskBudget: return "ten_disk_budget";
    case Workload::kWideShardedChurn: return "wide_sharded_churn";
  }
  return "?";
}

namespace {

// Day sizes. The shapes are the paper's (Sec. 5.1 for one disk, Figs. 13–14
// for the 10-disk server); the lengths are cut so that one pass of a
// workload takes a few seconds and a run holds several passes. The one-disk
// day keeps the paper's arrival rate. The 10-disk day shortens sessions and
// raises the rate instead, so that its budget binds within half an hour.
constexpr double kOneDiskHours = 4;
constexpr double kOneDiskArrivalsPerDay = 1200;
constexpr double kTenDiskHours = 0.5;
constexpr double kTenDiskArrivalsPerHour = 3600;
constexpr double kTenDiskViewingMinutes = 10;
constexpr double kTenDiskGiB = 1.0;
constexpr double kWideHours = 0.03;
constexpr double kWideArrivalsPerHour = 100000;
constexpr double kWideViewingMinutes = 5;
constexpr double kWideMiB = 300;
constexpr int kWideDisks = 100;

DaySpec OneDiskDay(std::string name, core::ScheduleMethod method,
                   std::uint64_t seed) {
  DaySpec d;
  d.name = std::move(name);
  d.kind = DaySpec::Kind::kSingleDisk;
  d.day.method = method;
  d.day.scheme = sim::AllocScheme::kDynamic;
  d.day.t_log = exp::PaperTLog(method);
  d.day.theta = 0.5;
  d.day.duration = vod::Hours(kOneDiskHours);
  d.day.total_arrivals = kOneDiskArrivalsPerDay * kOneDiskHours / 24;
  d.day.seed = seed;
  // exp::RunDay's recipe, so the pass and RunDay run the same day.
  d.base.method = d.day.method;
  d.base.scheme = d.day.scheme;
  d.base.t_log = d.day.t_log;
  d.base.alpha = d.day.alpha;
  d.base.seed = d.day.seed;
  d.workload.duration = d.day.duration;
  d.workload.theta = d.day.theta;
  d.workload.peak_time = d.day.duration * 9.0 / 24.0;
  d.workload.total_expected_arrivals = d.day.total_arrivals;
  d.workload.seed = d.day.seed * 7919 + 13;
  return d;
}

DaySpec MultiDiskDay(std::string name, DaySpec::Kind kind,
                     sim::AllocScheme scheme, std::uint64_t seed) {
  DaySpec d;
  d.name = std::move(name);
  d.kind = kind;
  d.base.method = core::ScheduleMethod::kRoundRobin;
  d.base.scheme = scheme;
  d.base.t_log = exp::PaperTLog(d.base.method);
  d.base.seed = seed;
  d.workload.seed = seed * 7919 + 13;
  return d;
}

}  // namespace

std::uint64_t DaySeed(std::uint64_t run_seed, int draw) {
  return sim::MixSeed(run_seed, static_cast<std::uint64_t>(draw));
}

std::vector<DaySpec> DaysOf(Workload w, std::uint64_t seed) {
  std::vector<DaySpec> days;
  switch (w) {
    case Workload::kOneDiskDay:
      days.push_back(OneDiskDay("round_robin",
                                core::ScheduleMethod::kRoundRobin, seed));
      days.push_back(OneDiskDay("sweep", core::ScheduleMethod::kSweep, seed));
      days.push_back(OneDiskDay("gss", core::ScheduleMethod::kGss, seed));
      break;
    case Workload::kTenDiskBudget:
      for (sim::AllocScheme scheme :
           {sim::AllocScheme::kStatic, sim::AllocScheme::kDynamic}) {
        DaySpec d = MultiDiskDay(std::string(sim::AllocSchemeName(scheme)),
                                 DaySpec::Kind::kSerialMultiDisk, scheme,
                                 seed);
        d.disks = 10;
        d.capacity = vod::Gibibytes(kTenDiskGiB);
        d.workload.duration = vod::Hours(kTenDiskHours);
        // Six time-of-day slots, as the 3 h Fig. 14 day has, peaked (θ = 0).
        d.workload.slot_length = d.workload.duration / 6;
        d.workload.theta = 0.0;
        d.workload.peak_time = d.workload.duration / 2;
        d.workload.total_expected_arrivals =
            kTenDiskArrivalsPerHour * kTenDiskHours;
        d.workload.max_viewing_time = vod::Minutes(kTenDiskViewingMinutes);
        d.workload.disk_count = d.disks;
        d.workload.disk_theta = 0.5;
        days.push_back(d);
      }
      break;
    case Workload::kWideShardedChurn: {
      DaySpec d = MultiDiskDay("dynamic", DaySpec::Kind::kShardedMultiDisk,
                               sim::AllocScheme::kDynamic, seed);
      d.disks = kWideDisks;
      d.capacity = vod::Mebibytes(kWideMiB);
      d.workload.duration = vod::Hours(kWideHours);
      d.workload.slot_length = d.workload.duration;  // A flat churn day.
      d.workload.peak_time = d.workload.duration / 2;
      d.workload.total_expected_arrivals = kWideArrivalsPerHour * kWideHours;
      d.workload.max_viewing_time = vod::Minutes(kWideViewingMinutes);
      d.workload.disk_count = d.disks;
      d.workload.disk_theta = 0.5;
      days.push_back(d);
      break;
    }
  }
  return days;
}

vod::Result<std::vector<sim::ArrivalEvent>> ArrivalsOf(const DaySpec& d) {
  return sim::GenerateWorkload(d.workload);
}

// ---------------------------------------------------------------------------
// One pass
// ---------------------------------------------------------------------------

vod::RunningStats PassResult::latency() const {
  vod::RunningStats s;
  for (const DayResult& d : days) s.Merge(d.latency);
  return s;
}

std::vector<std::string> PassResult::failures() const {
  std::vector<std::string> f;
  for (const DayResult& d : days) {
    for (const std::string& msg : d.failures) f.push_back(d.name + " " + msg);
  }
  return f;
}

std::vector<std::string> PassResult::DigestLines() const {
  std::vector<std::string> lines;
  for (const DayResult& d : days) {
    for (std::size_t i = 0; i < d.digests.size(); ++i) {
      lines.push_back(d.name + " disk " + std::to_string(i) + " " +
                      Hex(d.digests[i]));
    }
  }
  return lines;
}

namespace {

/// Calls of one profiler site so far (0 with VODB_PROF off).
std::int64_t ProfCalls(std::string_view site) {
  for (const vod::obs::ProfSiteStats& s :
       vod::obs::Profiler::Global().Snapshot()) {
    if (s.name == site) return s.calls;
  }
  return 0;
}

/// Runs `f` inside a span of layer `l` (no span when `log` is null).
template <typename F>
auto InSpan(SpanLog* log, Layer l, F&& f) {
  ScopedSpan span(log, l);
  return f();
}

/// A day's generated arrivals and the server fed with them.
template <typename Server>
struct Built {
  std::vector<sim::ArrivalEvent> arrivals;
  std::unique_ptr<Server> server;
};

/// The set-up phase: generates the day's arrivals, creates the server with
/// `create` and feeds it the arrivals, each inside its span.
template <typename Server, typename Create>
Built<Server> Build(const DaySpec& spec, SpanLog* log, Create&& create) {
  Built<Server> b;
  vod::Result<std::vector<sim::ArrivalEvent>> arrivals =
      InSpan(log, Layer::kWorkload, [&] { return ArrivalsOf(spec); });
  VOD_CHECK(arrivals.ok());
  b.arrivals = std::move(arrivals.value());
  vod::Result<std::unique_ptr<Server>> server =
      InSpan(log, Layer::kCreate, create);
  VOD_CHECK(server.ok());
  b.server = std::move(server.value());
  ScopedSpan span(log, Layer::kAddArrivals);
  VOD_CHECK(b.server->AddArrivals(b.arrivals).ok());
  return b;
}

Built<sim::VodSimulator> BuildSingleDisk(const DaySpec& spec, SpanLog* log) {
  return Build<sim::VodSimulator>(spec, log, [&] {
    return sim::VodSimulator::Create(spec.base, nullptr);
  });
}

Built<sim::MultiDiskSimulator> BuildMultiDisk(const DaySpec& spec,
                                              SpanLog* log) {
  return Build<sim::MultiDiskSimulator>(spec, log, [&] {
    return sim::MultiDiskSimulator::Create(spec.base, spec.disks,
                                           spec.capacity);
  });
}

/// Folds one drained disk into the day's result.
void Collect(int disk, const sim::VodSimulator& s, DayResult* r) {
  const sim::SimMetrics& m = s.metrics();
  r->arrivals += m.arrivals;
  r->admitted += m.admitted;
  r->rejected += m.rejected;
  r->services += m.services;
  r->starvations += m.starvation_events;
  r->latency.Merge(m.initial_latency);
  ++r->disks;
  r->digests.push_back(DigestOf(m));
  std::vector<std::string> failures = CheckDisk(
      DiskOutcome{disk, &m, s.active_count(), s.event_count()});
  if (!failures.empty()) ++r->failed_checks;
  for (std::string& f : failures) r->failures.push_back(std::move(f));
}

void CheckBrokerDrained(const sim::MemoryBroker& broker, DayResult* r) {
  if (broker.ReservedMemory() != Bits(0)) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "broker: ReservedMemory() == 0 at the end (%.17g)",
                  vod::ToBits(broker.ReservedMemory()));
    r->failures.emplace_back(buf);
    ++r->failed_checks;
  }
}

/// Replays a disk's dynamic allocator estimator: RecordArrival at the
/// disk's arrival times, then KLog at each allocation (with the previous
/// allocation's usage period). KLog calls between two arrivals are timed
/// as one batch, so clock reads stay out of the per-call cost.
void ReplayKLog(const std::vector<sim::ArrivalEvent>& arrivals,
                const std::vector<sim::AllocationRecord>& allocs,
                Seconds t_log, Trace* tr) {
  core::ArrivalEstimator est(t_log);
  std::size_t a = 0;
  std::size_t i = 1;
  long sink = 0;
  while (i < allocs.size()) {
    while (a < arrivals.size() && arrivals[a].time <= allocs[i].time) {
      est.RecordArrival(arrivals[a++].time);
    }
    const Seconds next_arrival =
        a < arrivals.size() ? arrivals[a].time : Seconds::Infinity();
    const std::size_t first = i;
    double window = 0;
    const std::int64_t t0 = Now();
    for (; i < allocs.size() && allocs[i].time < next_arrival; ++i) {
      sink += est.KLog(allocs[i].time, allocs[i - 1].usage_period);
      window += static_cast<double>(est.logged_count());
    }
    tr->klog_ns_sum += static_cast<double>(Now() - t0);
    tr->klog_calls += static_cast<std::int64_t>(i - first);
    tr->window_sum += window;
  }
  tr->sink += sink;
}

/// Times PriceDisk over the (n, k) mix the decorator saw, scaled down to at
/// most ~200k calls.
void TimePricing(const sim::AnalyticMemoryBroker& broker,
                 const TimedBroker& timed, Trace* tr) {
  double total = 0;
  for (const auto& [nk, count] : timed.pairs()) total += double(count);
  const double scale = std::min(1.0, Ratio(2e5, total));
  double sink = 0;
  for (const auto& [nk, count] : timed.pairs()) {
    const auto reps = static_cast<std::int64_t>(
        std::max(1.0, std::round(double(count) * scale)));
    const std::int64_t t0 = Now();
    for (std::int64_t r = 0; r < reps; ++r) {
      sink += vod::ToBits(broker.PriceDisk(nk.first, nk.second));
    }
    tr->price_ns_sum += static_cast<double>(Now() - t0);
    tr->price_samples += reps;
  }
  tr->sink += static_cast<long>(sink > 0);
}

/// Bytes the disk's metrics hold after the run: the allocation records and
/// the three step series.
double RetainedBytes(const sim::SimMetrics& m) {
  double b = static_cast<double>(m.allocations.capacity() *
                                 sizeof(sim::AllocationRecord));
  for (const vod::StepTimeSeries* s :
       {&m.concurrency, &m.memory_usage, &m.memory_reserved}) {
    b += static_cast<double>(s->points().capacity() *
                             sizeof(std::pair<double, double>));
  }
  return b;
}

void RecordMetricsFootprint(const std::vector<const sim::VodSimulator*>& sims,
                            Trace* tr) {
  double day = 0;
  for (const sim::VodSimulator* s : sims) {
    day += RetainedBytes(s->metrics());
    tr->services += s->metrics().services;
  }
  tr->metrics_bytes += day;
  tr->metrics_retained_max = std::max(tr->metrics_retained_max, day);
}

core::AllocParams BrokerParams(const sim::SimConfig& base) {
  // MultiDiskSimulator::Create's recipe.
  const int n_for_dl =
      base.method == core::ScheduleMethod::kGss
          ? base.gss_group_size
          : core::MaxConcurrentRequests(base.profile.transfer_rate,
                                        base.consumption_rate);
  vod::Result<core::AllocParams> params = core::MakeAllocParams(
      base.profile, base.consumption_rate, base.method, n_for_dl, base.alpha);
  VOD_CHECK(params.ok());
  return params.value();
}

DayResult RunSingleDisk(const DaySpec& spec, Trace* tr) {
  DayResult r;
  r.name = spec.name;
  SpanLog* log = tr != nullptr ? &tr->spans : nullptr;
  const std::int64_t t0 = Now();
  const Built<sim::VodSimulator> built = BuildSingleDisk(spec, log);
  r.setup_s = SecondsSince(t0);
  sim::VodSimulator& s = *built.server;

  const std::int64_t t1 = Now();
  if (tr == nullptr) {
    s.RunToCompletion();
    s.Finalize();
  } else {
    while (s.event_count() > 0) {
      const std::size_t depth = s.event_count();
      tr->depth_sum += static_cast<double>(depth);
      tr->depth_max = std::max(tr->depth_max, depth);
      log->Open(Layer::kStep);
      s.Step();
      tr->step_ns.push_back(static_cast<double>(log->Close()));
      ++r.events;
    }
    ScopedSpan span(log, Layer::kFinalize);
    s.Finalize();
  }
  r.run_s = SecondsSince(t1);

  Collect(0, s, &r);
  if (tr != nullptr) {
    tr->events += r.events;
    tr->creates += 1;
    RecordMetricsFootprint({&s}, tr);
    if (spec.base.scheme == sim::AllocScheme::kDynamic) {
      ReplayKLog(built.arrivals, s.metrics().allocations, spec.base.t_log,
                 tr);
    }
  }
  return r;
}

/// The serial 10-disk server. Untraced: MultiDiskSimulator. Traced: the
/// same server assembled from public parts (MultiDiskSimulator::Create's
/// recipe and RunToCompletion's loop) so the broker can be decorated.
DayResult RunSerialMultiDisk(const DaySpec& spec, Trace* tr) {
  DayResult r;
  r.name = spec.name;
  if (tr == nullptr) {
    const std::int64_t t0 = Now();
    const Built<sim::MultiDiskSimulator> built = BuildMultiDisk(spec, nullptr);
    r.setup_s = SecondsSince(t0);
    sim::MultiDiskSimulator& md = *built.server;
    const std::int64_t t1 = Now();
    md.RunToCompletion();
    md.Finalize();
    r.run_s = SecondsSince(t1);
    for (int d = 0; d < spec.disks; ++d) Collect(d, md.sim(d), &r);
    CheckBrokerDrained(md.broker(), &r);
    return r;
  }

  SpanLog* log = &tr->spans;
  const std::int64_t t0 = Now();
  const vod::Result<std::vector<sim::ArrivalEvent>> arrivals =
      InSpan(log, Layer::kWorkload, [&] { return ArrivalsOf(spec); });
  VOD_CHECK(arrivals.ok());
  sim::AnalyticMemoryBroker broker(
      BrokerParams(spec.base), spec.base.method,
      spec.base.scheme == sim::AllocScheme::kDynamic,
      spec.base.gss_group_size, spec.disks, spec.capacity);
  TimedBroker timed(&broker, log);
  std::vector<std::unique_ptr<sim::VodSimulator>> sims;
  for (int d = 0; d < spec.disks; ++d) {
    sim::SimConfig cfg = spec.base;
    cfg.disk_id = d;
    cfg.seed = spec.base.seed * 1000003ULL + static_cast<std::uint64_t>(d);
    ScopedSpan span(log, Layer::kCreate);
    vod::Result<std::unique_ptr<sim::VodSimulator>> s =
        sim::VodSimulator::Create(cfg, &timed);
    VOD_CHECK(s.ok());
    sims.push_back(std::move(s.value()));
  }
  const std::vector<std::vector<sim::ArrivalEvent>> per_disk =
      sim::SplitByDisk(*arrivals, spec.disks);
  {
    ScopedSpan span(log, Layer::kAddArrivals);
    for (int d = 0; d < spec.disks; ++d) {
      VOD_CHECK(sims[std::size_t(d)]->AddArrivals(per_disk[std::size_t(d)])
                    .ok());
    }
  }
  r.setup_s = SecondsSince(t0);

  const std::int64_t t1 = Now();
  for (;;) {
    sim::VodSimulator* who = nullptr;
    {
      ScopedSpan span(log, Layer::kSelect);
      Seconds best = Seconds::Infinity();
      for (auto& s : sims) {
        const Seconds t = s->NextEventTime();
        if (t < best) {
          best = t;
          who = s.get();
        }
      }
    }
    if (who == nullptr) break;
    const std::size_t depth = who->event_count();
    tr->depth_sum += static_cast<double>(depth);
    tr->depth_max = std::max(tr->depth_max, depth);
    log->Open(Layer::kStep);
    who->Step();
    tr->step_ns.push_back(static_cast<double>(log->Close()));
    ++r.events;
  }
  {
    ScopedSpan span(log, Layer::kFinalize);
    for (auto& s : sims) s->Finalize();
  }
  r.run_s = SecondsSince(t1);

  std::vector<const sim::VodSimulator*> views;
  for (int d = 0; d < spec.disks; ++d) {
    Collect(d, *sims[std::size_t(d)], &r);
    views.push_back(sims[std::size_t(d)].get());
  }
  CheckBrokerDrained(broker, &r);
  tr->events += r.events;
  tr->creates += spec.disks;
  tr->broker_calls += timed.calls();
  tr->can_admit_calls += timed.can_admit_calls();
  tr->can_admit_yes += timed.can_admit_yes();
  tr->price_ops +=
      std::int64_t(spec.disks) * (timed.reserved_calls() + timed.can_admit_calls());
  RecordMetricsFootprint(views, tr);
  TimePricing(broker, timed, tr);
  if (spec.base.scheme == sim::AllocScheme::kDynamic) {
    for (int d = 0; d < spec.disks; ++d) {
      ReplayKLog(per_disk[std::size_t(d)],
                 sims[std::size_t(d)]->metrics().allocations, spec.base.t_log,
                 tr);
    }
  }
  return r;
}

DayResult RunShardedMultiDisk(const DaySpec& spec, exp::ThreadPool* pool,
                              Trace* tr) {
  VOD_CHECK(pool != nullptr);
  DayResult r;
  r.name = spec.name;
  SpanLog* log = tr != nullptr ? &tr->spans : nullptr;
  const std::int64_t t0 = Now();
  const Built<sim::MultiDiskSimulator> built = BuildMultiDisk(spec, log);
  r.setup_s = SecondsSince(t0);
  sim::MultiDiskSimulator& md = *built.server;

  const Seconds epoch = Seconds(1.0);
  const std::int64_t t1 = Now();
  if (tr == nullptr) {
    exp::RunShardedToCompletion(md, *pool, epoch);
    md.Finalize();
  } else {
    const std::int64_t steps_before = ProfCalls("sim.step");
    std::vector<std::int64_t> start(std::size_t(spec.disks));
    std::vector<std::int64_t> end(std::size_t(spec.disks));
    auto parallel_for = [&](std::size_t n,
                            const std::function<void(std::size_t)>& fn) {
      VOD_CHECK(n <= start.size());
      log->Open(Layer::kEpoch);
      pool->ParallelFor(n, [&](std::size_t d) {
        start[d] = Now();
        fn(d);
        end[d] = Now();
      });
      std::int64_t longest = 0;
      std::int64_t slots = 0;
      for (std::size_t d = 0; d < n; ++d) {
        log->AddMeasured(Layer::kSlot, start[d], end[d]);
        slots += end[d] - start[d];
        longest = std::max(longest, end[d] - start[d]);
      }
      const std::int64_t phase = log->Close();
      ++tr->epochs;
      tr->parallel_s += static_cast<double>(phase) * 1e-9;
      tr->slot_s += static_cast<double>(slots) * 1e-9;
      // Dispatch: the phase's time beyond what a perfect schedule of these
      // slots on the pool's workers would need (the longest slot, or the
      // slots' total spread evenly, whichever is larger).
      const double ideal = std::max(
          static_cast<double>(longest),
          static_cast<double>(slots) / static_cast<double>(pool->thread_count()));
      tr->dispatch_s += (static_cast<double>(phase) - ideal) * 1e-9;
    };
    log->Open(Layer::kShardedRun);
    md.RunToCompletionSharded(parallel_for, epoch);
    tr->sharded_wall_s += static_cast<double>(log->Close()) * 1e-9;
    r.events = ProfCalls("sim.step") - steps_before;
    ScopedSpan span(log, Layer::kFinalize);
    md.Finalize();
  }
  r.run_s = SecondsSince(t1);

  std::vector<const sim::VodSimulator*> views;
  for (int d = 0; d < spec.disks; ++d) {
    Collect(d, md.sim(d), &r);
    views.push_back(&md.sim(d));
  }
  CheckBrokerDrained(md.broker(), &r);
  if (tr != nullptr) {
    tr->events += r.events;
    tr->creates += spec.disks;
    RecordMetricsFootprint(views, tr);
    const std::vector<std::vector<sim::ArrivalEvent>> per_disk =
        sim::SplitByDisk(built.arrivals, spec.disks);
    for (int d = 0; d < spec.disks; ++d) {
      ReplayKLog(per_disk[std::size_t(d)], md.sim(d).metrics().allocations,
                 spec.base.t_log, tr);
    }
  }
  return r;
}

}  // namespace

double SetupSeconds(const DaySpec& spec) {
  const std::int64_t t0 = Now();
  if (spec.kind == DaySpec::Kind::kSingleDisk) {
    const Built<sim::VodSimulator> built = BuildSingleDisk(spec, nullptr);
    return SecondsSince(t0);
  }
  const Built<sim::MultiDiskSimulator> built = BuildMultiDisk(spec, nullptr);
  return SecondsSince(t0);
}

double ReferenceSeconds() {
  const std::int64_t t0 = Now();
  std::priority_queue<std::pair<double, int>> queue;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> step(0.0, 1.0);
  for (int i = 0; i < 2000; ++i) queue.emplace(step(rng), i);
  for (int i = 0; i < 300000; ++i) {
    const std::pair<double, int> top = queue.top();
    queue.pop();
    queue.emplace(top.first - step(rng), top.second);
  }
  // The result feeds a check, so the job cannot be optimized away.
  VOD_CHECK(std::isfinite(queue.top().first));
  return SecondsSince(t0);
}

DayResult RunSpec(const DaySpec& spec, exp::ThreadPool* pool, Trace* trace) {
  switch (spec.kind) {
    case DaySpec::Kind::kSingleDisk:
      return RunSingleDisk(spec, trace);
    case DaySpec::Kind::kSerialMultiDisk:
      return RunSerialMultiDisk(spec, trace);
    case DaySpec::Kind::kShardedMultiDisk:
      return RunShardedMultiDisk(spec, pool, trace);
  }
  return DayResult{};
}

PassResult RunPass(Workload w, std::uint64_t seed, exp::ThreadPool* pool,
                   Trace* trace) {
  PassResult pass;
  for (const DaySpec& spec : DaysOf(w, seed)) {
    pass.days.push_back(RunSpec(spec, pool, trace));
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

std::map<std::string, double> LayerMetrics(
    const Trace& tr, int traced_passes,
    const std::map<std::string, double>& prof, double trace_overhead) {
  std::map<std::string, double> m;
  const double passes = traced_passes;
  const double events = static_cast<double>(tr.events);
  auto span_s = [&](Layer l) {
    return static_cast<double>(tr.spans.agg(l).total_ns) * 1e-9 / passes;
  };
  auto site_ns = [&](const std::string& name) {
    const auto it = prof.find(name);
    return it == prof.end() ? 0.0 : it->second;
  };
  // The untraced passes ran the same days, hence the same events.
  auto per_event = [&](double ns) { return Ratio(ns, events); };

  m["sim.workload.s"] = span_s(Layer::kWorkload);
  m["sim.create.s"] = span_s(Layer::kCreate);
  m["sim.create.count"] = static_cast<double>(tr.creates) / passes;

  std::vector<double> steps = tr.step_ns;
  const double tail = TailPercentile(steps.size());
  m["sim.step.events"] = events / passes;
  m["sim.step.timed"] = static_cast<double>(steps.size()) / passes;
  m["sim.step.ns_p50"] = Percentile(steps, 50);
  m["sim.step.ns_tail"] = Percentile(steps, tail);
  m["sim.step.tail_pct"] = steps.empty() ? 0 : tail;
  const SpanLog::Agg& step = tr.spans.agg(Layer::kStep);
  m["sim.step.self_ns_per_event"] = Ratio(
      static_cast<double>(step.total_ns - step.child_ns),
      static_cast<double>(step.count));
  m["sim.event_queue.depth_mean"] =
      Ratio(tr.depth_sum, static_cast<double>(tr.step_ns.size()));
  m["sim.event_queue.depth_max"] = static_cast<double>(tr.depth_max);

  const double sequence = site_ns("sched.round_robin.sequence") +
                          site_ns("sched.sweep.sequence") +
                          site_ns("sched.gss.sequence");
  const double admit = site_ns("sim.admit");
  const double service = site_ns("disk.service");
  m["sched.sequence.ns_per_event"] = per_event(sequence);
  // sim.schedule encloses the scheduler's sequence and the disk model; its
  // self time subtracts both. It keeps the admission pumps nested in it:
  // the profiler does not tell them from the pumps the arrival path runs.
  m["sim.schedule.ns_per_event"] =
      per_event(site_ns("sim.schedule") - sequence - service);
  m["sim.admit.ns_per_event"] = per_event(admit);
  m["disk.service.ns_per_event"] = per_event(service);

  m["core.arrival_estimator.klog_ns"] =
      Ratio(tr.klog_ns_sum, static_cast<double>(tr.klog_calls));
  m["core.arrival_estimator.window_mean"] =
      Ratio(tr.window_sum, static_cast<double>(tr.klog_calls));

  double broker_ns = 0;
  for (Layer l : {Layer::kCanAdmit, Layer::kOnState, Layer::kReserved,
                  Layer::kCapacity, Layer::kAdvance}) {
    broker_ns += static_cast<double>(tr.spans.agg(l).total_ns);
  }
  m["sim.memory_broker.calls_per_event"] =
      Ratio(static_cast<double>(tr.broker_calls), events);
  m["sim.memory_broker.ns_per_event"] = Ratio(broker_ns, events);
  m["sim.memory_broker.can_admit.calls"] =
      static_cast<double>(tr.can_admit_calls) / passes;
  m["sim.memory_broker.can_admit.yes_ratio"] =
      Ratio(static_cast<double>(tr.can_admit_yes),
            static_cast<double>(tr.can_admit_calls));
  m["sim.memory_broker.price_ns"] =
      Ratio(tr.price_ns_sum, static_cast<double>(tr.price_samples));
  m["sim.memory_broker.prices_per_event"] =
      Ratio(static_cast<double>(tr.price_ops), events);
  m["sim.multi_disk.select_ns_per_event"] =
      Ratio(static_cast<double>(tr.spans.agg(Layer::kSelect).total_ns),
            events);

  m["sim.metrics.bytes_per_service"] =
      Ratio(tr.metrics_bytes, static_cast<double>(tr.services));
  m["sim.metrics.retained_mib"] = tr.metrics_retained_max / (1024.0 * 1024.0);
  m["sim.finalize.s"] = span_s(Layer::kFinalize);

  const double barrier = tr.sharded_wall_s - tr.parallel_s;
  m["exp.sharded.epochs"] = static_cast<double>(tr.epochs) / passes;
  m["exp.sharded.barrier_s"] = barrier / passes;
  m["exp.sharded.barrier_share"] = Ratio(barrier, tr.sharded_wall_s);
  m["exp.sharded.parallel_efficiency"] =
      Ratio(tr.slot_s, tr.parallel_s * kShardedWorkers);
  m["exp.thread_pool.dispatch_us_per_epoch"] =
      Ratio(tr.dispatch_s * 1e6, static_cast<double>(tr.epochs));

  m["trace.overhead"] = trace_overhead;
  return m;
}

// ---------------------------------------------------------------------------
// Build fingerprint
// ---------------------------------------------------------------------------

std::string BuildFingerprintJson() {
  auto on_off = [](int v) { return v != 0 ? "\"ON\"" : "\"OFF\""; };
  std::string s;
  s += "\"build_type\": \"" DAYBENCH_BUILD_TYPE "\"";
  s += std::string(", \"VODB_AUDIT\": ") + on_off(DAYBENCH_AUDIT);
  // Fixed by the package's build file, whichever variant this is.
  s += ", \"VODB_PROF\": \"ON\", \"VODB_TRACE\": \"OFF\"";
  s += ", \"compiler\": \"" DAYBENCH_COMPILER "\"";
  s += ", \"flags\": \"" DAYBENCH_FLAGS "\"";
  s += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"sharded_workers\": " + std::to_string(kShardedWorkers);
  return s;
}

}  // namespace daybench
