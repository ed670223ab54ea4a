// Microbenchmark suite over the simulator's hot paths (the profiler's
// VODB_PROF_SCOPE table names them): BS_k(n) three ways (recurrence,
// Theorem-1 closed form, and the O(N²) table's lookup and build — the
// Sec. 3.3 ablation), a 100-disk server's set-up, BubbleUp insertion, the lazy scheduling decision,
// memory-broker admit/release, the seek-model γ(x) curve, event-queue
// churn, the cost of one profiling scope, one fork-join dispatch on the
// thread pool, and end-to-end RunDay throughput for one static and one
// dynamic grid point.
//
// Emits the BENCH_<host>.json artifact scripts/bench_compare.py diffs
// against bench/baselines/BENCH_baseline.json (the committed perf
// trajectory anchor; regenerate with --dump-baseline from the repo root).
//
// This suite deliberately uses the in-repo src/bench_kit harness rather
// than google-benchmark: the JSON schema, the noise statistics (CV), and
// the clock injection the harness tests need are all part of this repo's
// contract.

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_kit/barriers.h"
#include "bench_kit/harness.h"
#include "bench_kit/report.h"
#include "common/check.h"
#include "common/file.h"
#include "common/types.h"
#include "common/units.h"
#include "core/buffer_size_table.h"
#include "core/closed_form.h"
#include "core/params.h"
#include "core/recurrence.h"
#include "disk/disk_profile.h"
#include "exp/day_run.h"
#include "exp/sharded.h"
#include "exp/thread_pool.h"
#include "obs/profile.h"
#include "sched/round_robin.h"
#include "sim/event_queue.h"
#include "sim/memory_broker.h"
#include "sim/multi_disk.h"
#include "sim/rng.h"
#include "sim/vod_simulator.h"
#include "sim/workload.h"

namespace vod::bench {
namespace {

namespace bk = ::vod::bench_kit;

core::AllocParams PaperParams() {
  auto p = core::MakeAllocParams(disk::SeagateBarracuda9LP(), Mbps(1.5),
                                 core::ScheduleMethod::kRoundRobin, 0, 1);
  VOD_CHECK(p.ok());
  return p.value();
}

// --- recurrence: BS_k(n) by unrolling the Eq. 10 recurrence, the
// definition the closed form and the table are checked against. ---
void BM_Recurrence(bk::State& state) {
  const core::AllocParams p = PaperParams();
  int n = 1;
  for (auto _ : state) {
    static_cast<void>(_);
    auto bs = core::BufferSizeByRecurrence(p, n, 3);
    bk::DoNotOptimize(bs);
    n = n % (p.n_max - 1) + 1;
  }
}

// --- theorem1_closed_form: Eq. 6 evaluated on-line (what the dynamic
// allocator would pay per service without the Sec. 3.3 table). ---
void BM_Theorem1ClosedForm(bk::State& state) {
  const core::AllocParams p = PaperParams();
  int n = 1;
  for (auto _ : state) {
    static_cast<void>(_);
    auto bs = core::DynamicBufferSize(p, n, 3);
    bk::DoNotOptimize(bs);
    n = n % (p.n_max - 1) + 1;
  }
}

// --- buffer_size_table_lookup: the same sizing served from the
// precomputed BS_k(n) table (the per-service hot-path cost). ---
void BM_TableLookup(bk::State& state) {
  const core::AllocParams p = PaperParams();
  auto table = core::BufferSizeTable::Build(p);
  VOD_CHECK(table.ok());
  int n = 1;
  for (auto _ : state) {
    static_cast<void>(_);
    bk::DoNotOptimize(table->GetUnchecked(n, 3));
    n = n % (p.n_max - 1) + 1;
  }
}

// --- buffer_size_table_build: filling the whole O(N²) BS_k(n) table, the
// one-off cost each dynamic server pays at construction. ---
void BM_TableBuild(bk::State& state) {
  const core::AllocParams p = PaperParams();
  for (auto _ : state) {
    static_cast<void>(_);
    auto table = core::BufferSizeTable::Build(p);
    bk::DoNotOptimize(table);
  }
}

// --- multi_disk_create: MultiDiskSimulator::Create of a 100-disk dynamic
// Round-Robin server on a 300 MiB budget with T_log = 40 min, the wide
// sharded day's: the set-up a server pays before its first event (one
// shared BS_k(n) table, the broker's price table, every disk's state). ---
void BM_MultiDiskCreate(bk::State& state) {
  sim::SimConfig base;
  base.method = core::ScheduleMethod::kRoundRobin;
  base.scheme = sim::AllocScheme::kDynamic;
  base.t_log = Minutes(40);
  for (auto _ : state) {
    static_cast<void>(_);
    auto md = sim::MultiDiskSimulator::Create(base, 100, Mebibytes(300));
    VOD_CHECK(md.ok());
    bk::DoNotOptimize(md);
  }
}

// --- seek_gamma_eval: the two-piece Ruemmler–Wilkes curve (Eq. 7) the
// Sweep latency model evaluates at γ(Cyln/n) per buffer. ---
void BM_SeekGamma(bk::State& state) {
  const disk::DiskProfile profile = disk::SeagateBarracuda9LP();
  double x = 1;
  const auto cylinders = static_cast<double>(profile.cylinders);
  for (auto _ : state) {
    static_cast<void>(_);
    bk::DoNotOptimize(profile.seek.SeekTime(x));
    x += 37.0;
    if (x >= cylinders) x -= cylinders;
  }
}

// Minimal scheduler context: established deadlines are far out. With a
// newcomer at the front, Next() takes the BubbleUp branch, whose
// displacement scan stops at the first established entry; without one, it
// takes the lazy branch over the whole sequence. Facts() fills each entry
// in one step, as the simulator's override does.
class FlatContext final : public sched::SchedulerContext {
 public:
  explicit FlatContext(RequestId fresh) : fresh_(fresh) {}
  Seconds BufferDeadline(RequestId) const override { return Seconds(1e9); }
  bool NeverServiced(RequestId id) const override { return id == fresh_; }
  double CurrentCylinder(RequestId) const override { return 0; }
  Seconds WorstServiceTime(RequestId) const override { return Seconds(0.5); }
  Seconds NewcomerReserve() const override { return Seconds(0.5); }
  void Facts(const std::vector<RequestId>& seq,
             std::vector<sched::RequestFacts>* out) const override {
    out->resize(seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      (*out)[i] = {Seconds(1e9), Seconds(0.5), seq[i] == fresh_};
    }
  }

 private:
  RequestId fresh_;
};

// --- bubbleup_insert: admit a newcomer into a 64-deep Round-Robin ring,
// take the BubbleUp scheduling decision (sequence build + displacement
// scan), service it into the ring, and remove it again. ---
void BM_BubbleUpInsert(bk::State& state) {
  constexpr int kRingSize = 64;
  sched::RoundRobinScheduler scheduler;
  const RequestId newcomer = kRingSize + 1;
  FlatContext ctx(newcomer);
  for (RequestId id = 1; id <= kRingSize; ++id) {
    scheduler.Add(id, Seconds(0));
    scheduler.OnServiceComplete(id, Seconds(0));  // Into the ring.
  }
  for (auto _ : state) {
    static_cast<void>(_);
    scheduler.Add(newcomer, Seconds(0));
    auto decision = scheduler.Next(ctx, Seconds(0));
    bk::DoNotOptimize(decision);
    scheduler.OnServiceComplete(newcomer, Seconds(0));
    scheduler.Remove(newcomer);
  }
}

// --- next_lazy: the scheduling decision a simulated day takes almost
// every time. Next() on a 64-deep Round-Robin ring of established streams
// with far deadlines (sequence build, one Facts pass, latest safe start),
// then the chosen stream's OnServiceComplete rotates it to the back. ---
void BM_NextLazy(bk::State& state) {
  constexpr int kRingSize = 64;
  sched::RoundRobinScheduler scheduler;
  FlatContext ctx(kInvalidRequestId);
  for (RequestId id = 1; id <= kRingSize; ++id) {
    scheduler.Add(id, Seconds(0));
    scheduler.OnServiceComplete(id, Seconds(0));  // Into the ring.
  }
  for (auto _ : state) {
    static_cast<void>(_);
    auto decision = scheduler.Next(ctx, Seconds(0));
    bk::DoNotOptimize(decision);
    scheduler.OnServiceComplete(decision->id, Seconds(0));
  }
}

// --- broker_admit_release: one CanAdmit query plus the paired OnState
// up/down transitions on a 10-disk analytic broker (Figs. 13–14's
// admission path). ---
void BM_BrokerAdmitRelease(bk::State& state) {
  constexpr int kDisks = 10;
  const core::AllocParams p = PaperParams();
  sim::AnalyticMemoryBroker broker(p, core::ScheduleMethod::kRoundRobin,
                                   /*use_dynamic=*/true, /*g=*/8, kDisks,
                                   Gibibytes(1.0));
  int n = 0;
  for (int d = 0; d < kDisks; ++d) broker.OnState(d, 20, 3);
  int disk = 0;
  for (auto _ : state) {
    static_cast<void>(_);
    n = 20 + (n + 1) % 8;
    bk::DoNotOptimize(broker.CanAdmit(disk, n + 1, 3));
    broker.OnState(disk, n + 1, 3);
    broker.OnState(disk, n, 3);
    disk = (disk + 1) % kDisks;
  }
}

// --- event_queue_churn: steady-state push+pop of sim::SimEvent through
// the simulator's sim::EventQueue, 4096 deep, with SplitMix64-scrambled
// event times. ---
void BM_EventQueueChurn(bk::State& state) {
  constexpr sim::SimEventKind kKind = sim::SimEventKind::kArrival;
  sim::EventQueue queue;
  std::uint64_t x = 0;
  std::uint64_t seq = 0;
  for (int i = 0; i < 4096; ++i) {
    const double jitter =
        static_cast<double>(sim::SplitMix64(++x) >> 11) * 0x1.0p-53;
    queue.push(sim::SimEvent{Seconds(jitter * 86400.0), ++seq, kKind, 1, 0});
  }
  for (auto _ : state) {
    static_cast<void>(_);
    const sim::SimEvent top = queue.top();
    queue.pop();
    bk::DoNotOptimize(top);
    const double jitter =
        static_cast<double>(sim::SplitMix64(++x) >> 11) * 0x1.0p-53;
    queue.push(sim::SimEvent{top.time + Seconds(jitter), ++seq, kKind, 1, 0});
  }
}

// --- prof_scope: one empty VODB_PROF_SCOPE, the profiler's own cost per
// scope (the simulator's event loop enters about 4.5 per event). The
// `noop` row is the same loop without the scope. ---
void BM_ProfScope(bk::State& state) {
  for (auto _ : state) {
    static_cast<void>(_);
    VODB_PROF_SCOPE("perf_suite.prof_scope");
  }
}

// --- parallel_for_dispatch: one ParallelFor(100) with a trivial body on a
// 4-thread pool, the caller included — the fixed fork-join cost (publish,
// wake, claim, join) that every epoch of a 100-disk sharded day pays on top
// of its disks' work. ---
void BM_ParallelForDispatch(bk::State& state) {
  exp::ThreadPool pool(4);
  const std::function<void(std::size_t)> body = [](std::size_t i) {
    bk::DoNotOptimize(i);
  };
  for (auto _ : state) {
    static_cast<void>(_);
    pool.ParallelFor(100, body);
  }
}

// --- run_day_static / run_day_dynamic: end-to-end sims/sec for one small
// grid point (3 h day, 150 arrivals — big enough to exercise admission,
// scheduling, and departure churn; small enough for tight repetitions).
// ns_per_iter is the wall cost of one simulated day: sims/sec = 1e9 / it. ---
exp::DayRunConfig SmallDay(sim::AllocScheme scheme) {
  exp::DayRunConfig cfg;
  cfg.method = core::ScheduleMethod::kRoundRobin;
  cfg.scheme = scheme;
  cfg.t_log = Minutes(40);
  cfg.alpha = 1;
  cfg.duration = Hours(3);
  cfg.total_arrivals = 150;
  cfg.seed = 7;
  return cfg;
}

void BM_RunDay(sim::AllocScheme scheme, bk::State& state) {
  const exp::DayRunConfig cfg = SmallDay(scheme);
  for (auto _ : state) {
    static_cast<void>(_);
    sim::SimMetrics metrics = exp::RunDay(cfg);
    bk::DoNotOptimize(metrics);
  }
}

// --- run_day_sharded: end-to-end sims/sec for a 4-disk day driven through
// the epoch-barrier sharded loop on a real thread pool — the same machinery
// the soak test and the paper-scale experiments use. One iteration is one
// whole multi-disk day (arrivals regenerated and the server rebuilt each
// time, so every iteration does identical work). ---
void BM_RunDaySharded(bk::State& state) {
  constexpr int kDisks = 4;
  sim::SimConfig base;
  base.method = core::ScheduleMethod::kRoundRobin;
  base.scheme = sim::AllocScheme::kDynamic;
  base.t_log = Minutes(40);
  base.seed = 7;

  sim::WorkloadConfig w;
  w.duration = Hours(3);
  w.total_expected_arrivals = 200;
  w.disk_count = kDisks;
  w.disk_theta = 0.5;
  w.seed = 7;
  auto arrivals = sim::GenerateWorkload(w);
  if (!arrivals.ok()) return;

  // One thread per hardware thread, the caller included.
  exp::ThreadPool pool;
  for (auto _ : state) {
    static_cast<void>(_);
    auto md = sim::MultiDiskSimulator::Create(base, kDisks, Mebibytes(200));
    if (!md.ok()) return;
    auto server = std::move(md.value());
    if (!server->AddArrivals(*arrivals).ok()) return;
    exp::RunShardedToCompletion(*server, pool);
    server->Finalize();
    bk::DoNotOptimize(server->Totals().admitted);
  }
}

void RegisterAll(bk::Harness* harness) {
  // Harness-overhead pin: an empty body must report < 100 ns median (the
  // bench_kit_test asserts this), proving loop/timer cost is subtracted or
  // negligible in every other number here.
  harness->Register("noop", [](bk::State& state) {
    for (auto _ : state) static_cast<void>(_);
  });
  harness->Register("recurrence", BM_Recurrence);
  harness->Register("theorem1_closed_form", BM_Theorem1ClosedForm);
  harness->Register("buffer_size_table_lookup", BM_TableLookup);
  harness->Register("buffer_size_table_build", BM_TableBuild);
  harness->Register("multi_disk_create", BM_MultiDiskCreate);
  harness->Register("seek_gamma_eval", BM_SeekGamma);
  harness->Register("bubbleup_insert", BM_BubbleUpInsert);
  harness->Register("next_lazy", BM_NextLazy);
  harness->Register("broker_admit_release", BM_BrokerAdmitRelease);
  harness->Register("event_queue_churn", BM_EventQueueChurn);
  harness->Register("prof_scope", BM_ProfScope);
  harness->Register("parallel_for_dispatch", BM_ParallelForDispatch);

  // End-to-end points: one iteration is one whole simulated day, so pin
  // one iteration per repetition and let repetitions supply the sample.
  bk::BenchConfig day;
  day.min_rep_ns = 0;
  day.max_iters = 1;
  harness->Register(
      "run_day_static",
      [](bk::State& s) { BM_RunDay(sim::AllocScheme::kStatic, s); }, day);
  harness->Register(
      "run_day_dynamic",
      [](bk::State& s) { BM_RunDay(sim::AllocScheme::kDynamic, s); }, day);
  harness->Register("run_day_sharded", BM_RunDaySharded, day);
}

struct SuiteOptions {
  std::string filter;
  std::string out;
  std::size_t repetitions = 9;
  bool dump_baseline = false;
  bool list = false;
};

constexpr char kUsage[] =
    "usage: perf_suite [--filter=SUBSTR] [--repetitions=N] [--out=FILE|-]\n"
    "                  [--dump-baseline] [--list]\n"
    "  --filter=SUBSTR   run only benchmarks whose name contains SUBSTR\n"
    "  --repetitions=N   timed repetitions per benchmark (default 9)\n"
    "  --out=FILE        write BENCH json here (default BENCH_<host>.json;\n"
    "                    '-' = stdout)\n"
    "  --dump-baseline   write to bench/baselines/BENCH_baseline.json\n"
    "                    (run from the repo root)\n"
    "  --list            print registered benchmark names and exit\n";

SuiteOptions ParseOrDie(int argc, char** argv) {
  SuiteOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--filter=", 9) == 0) {
      opt.filter = arg + 9;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      opt.out = arg + 6;
    } else if (std::strncmp(arg, "--repetitions=", 14) == 0) {
      char* end = nullptr;
      const long v = std::strtol(arg + 14, &end, 10);
      if (end == arg + 14 || *end != '\0' || v < 2 || v > 1000) {
        std::fprintf(stderr, "perf_suite: bad --repetitions \"%s\" "
                             "(want an integer in [2, 1000])\n%s",
                     arg + 14, kUsage);
        std::exit(2);
      }
      opt.repetitions = static_cast<std::size_t>(v);
    } else if (std::strcmp(arg, "--dump-baseline") == 0) {
      opt.dump_baseline = true;
    } else if (std::strcmp(arg, "--list") == 0) {
      opt.list = true;
    } else {
      std::fprintf(stderr, "perf_suite: unknown option \"%s\"\n%s", arg,
                   kUsage);
      std::exit(2);
    }
  }
  return opt;
}

int Main(int argc, char** argv) {
  const SuiteOptions opt = ParseOrDie(argc, argv);

  bk::HarnessConfig hcfg;
  hcfg.repetitions = opt.repetitions;
  bk::Harness harness(hcfg);
  RegisterAll(&harness);

  if (opt.list) {
    for (const auto& b : harness.benchmarks()) {
      std::printf("%s\n", b.name.c_str());
    }
    return 0;
  }

  bk::BenchReport report;
  report.machine = bk::ProbeMachine();
  report.git_sha = bk::GitSha();
  report.build_type = bk::BuildType();
  report.audit = bk::AuditCompiledIn();

  std::fprintf(stderr, "%-28s %12s %12s %8s %6s\n", "benchmark",
               "median ns/it", "mean ns/it", "cv", "reps");
  auto log = [](const bk::BenchResult& r) {
    std::fprintf(stderr, "%-28s %12.2f %12.2f %7.1f%% %6zu\n", r.name.c_str(),
                 r.ns_per_iter.median, r.ns_per_iter.mean,
                 r.ns_per_iter.cv * 100.0, r.repetitions);
  };
  auto results = harness.RunAll(opt.filter, log);
  if (!results.ok()) {
    std::fprintf(stderr, "perf_suite: %s\n", results.status().ToString().c_str());
    return 2;
  }
  report.results = std::move(results).value();

  std::string out = opt.out;
  if (out.empty()) {
    out = opt.dump_baseline ? "bench/baselines/BENCH_baseline.json"
                            : bk::DefaultReportFilename(report.machine);
  }
  const Status st = bk::WriteReport(report, out);
  if (!st.ok()) {
    std::fprintf(stderr, "perf_suite: %s\n", st.ToString().c_str());
    return 1;
  }
  if (out != "-") std::fprintf(stderr, "wrote %s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace vod::bench

int main(int argc, char** argv) {
  const int code = vod::bench::Main(argc, argv);
  if (code != 0) return code;
  // --list and --out=- print to stdout, which may be a full device.
  const vod::Status flushed = vod::FlushStream(stdout);
  if (!flushed.ok()) {
    std::fprintf(stderr, "perf_suite: stdout: %s\n",
                 flushed.ToString().c_str());
    return 1;
  }
  return 0;
}
