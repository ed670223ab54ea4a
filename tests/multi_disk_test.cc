#include "sim/multi_disk.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/units.h"
#include "fault/fault_spec.h"
#include "fault/injector.h"
#include "metrics_signature.h"
#include "sim/rng.h"
#include "sim/workload.h"

namespace vod::sim {
namespace {

// --- AnalyticMemoryBroker ---

core::AllocParams SmallParams() {
  auto p = core::MakeAllocParams(disk::SmallTestDisk(), Mbps(1.5),
                                 core::ScheduleMethod::kRoundRobin, 0, 1);
  EXPECT_TRUE(p.ok());
  return p.value();
}

TEST(AnalyticMemoryBrokerTest, PricesWithMemoryModel) {
  const core::AllocParams p = SmallParams();
  AnalyticMemoryBroker broker(p, core::ScheduleMethod::kRoundRobin,
                              /*use_dynamic=*/true, 8, /*disk_count=*/2,
                              Gibibytes(1));
  EXPECT_EQ(ToBits(broker.PriceDisk(0, 0)), 0.0);
  const Bits price =
      core::DynamicMemoryRequirement(p, core::ScheduleMethod::kRoundRobin, 5,
                                     2, 8)
          .value();
  EXPECT_EQ(ToBits(broker.PriceDisk(5, 2)), ToBits(price));
}

TEST(AnalyticMemoryBrokerTest, AdmitsWithinBudgetOnly) {
  const core::AllocParams p = SmallParams();
  // Budget = exactly the cost of 3 requests on disk 0.
  const Bits budget = core::DynamicMemoryRequirement(
                          p, core::ScheduleMethod::kRoundRobin, 3, 1, 8)
                          .value();
  AnalyticMemoryBroker broker(p, core::ScheduleMethod::kRoundRobin, true, 8,
                              2, budget);
  EXPECT_TRUE(broker.CanAdmit(0, 3, 1));
  EXPECT_FALSE(broker.CanAdmit(0, 4, 1));
  broker.OnState(0, 3, 1);
  EXPECT_DOUBLE_EQ(ToBits(broker.ReservedMemory()), ToBits(budget));
  // The other disk has no room left.
  EXPECT_FALSE(broker.CanAdmit(1, 1, 1));
}

TEST(AnalyticMemoryBrokerTest, RefusesBeyondDiskCapacity) {
  const core::AllocParams p = SmallParams();
  AnalyticMemoryBroker broker(p, core::ScheduleMethod::kRoundRobin, true, 8,
                              1, Gibibytes(100));
  EXPECT_FALSE(broker.CanAdmit(0, p.n_max + 1, 0));
}

// --- The price table against the per-query closed forms it replaced ---

/// Reference broker: re-evaluates the Theorem 2–4 closed forms for every
/// disk on every query. The table-priced AnalyticMemoryBroker must agree
/// with it bit for bit.
class ClosedFormBroker final : public MemoryBroker {
 public:
  ClosedFormBroker(core::AllocParams params, core::ScheduleMethod method,
                   bool use_dynamic, int g, int disk_count, Bits capacity)
      : params_(params), method_(method), use_dynamic_(use_dynamic), g_(g),
        capacity_(capacity), n_(static_cast<std::size_t>(disk_count), 0),
        k_(static_cast<std::size_t>(disk_count), 0) {}

  Bits PriceDisk(int n, int k) const {
    if (n <= 0) return Bits(0);
    n = std::min(n, params_.n_max);
    const Result<Bits> m =
        use_dynamic_
            ? core::DynamicMemoryRequirement(params_, method_, n, k, g_)
            : core::StaticMemoryRequirement(params_, method_, n, g_);
    VOD_CHECK(m.ok());
    return m.value();
  }

  bool CanAdmit(int disk, int new_n, int k) const override {
    if (new_n > params_.n_max) return false;
    Bits total;
    for (std::size_t i = 0; i < n_.size(); ++i) {
      total += static_cast<int>(i) == disk ? PriceDisk(new_n, k)
                                           : PriceDisk(n_[i], k_[i]);
    }
    return total <= capacity_;
  }

  void OnState(int disk, int n, int k) override {
    n_[static_cast<std::size_t>(disk)] = n;
    k_[static_cast<std::size_t>(disk)] = k;
  }

  Bits ReservedMemory() const override { return ReservedExcluding(-1); }
  Bits Capacity() const override { return capacity_; }

  Bits ReservedExcluding(int disk) const {
    Bits total;
    for (std::size_t i = 0; i < n_.size(); ++i) {
      if (static_cast<int>(i) != disk) total += PriceDisk(n_[i], k_[i]);
    }
    return total;
  }

 private:
  core::AllocParams params_;
  core::ScheduleMethod method_;
  bool use_dynamic_;
  int g_;
  Bits capacity_;
  std::vector<int> n_;
  std::vector<int> k_;
};

constexpr int kGssGroup = 8;

/// The broker parameters MultiDiskSimulator::Create derives for `method`
/// on the paper's disk (N = 79).
core::AllocParams PaperParams(core::ScheduleMethod method) {
  SimConfig config;
  config.method = method;
  config.gss_group_size = kGssGroup;
  auto p = AllocParamsFor(config);
  EXPECT_TRUE(p.ok());
  return p.value();
}

TEST(AnalyticMemoryBrokerTest, PriceTableMatchesClosedFormsBitForBit) {
  for (core::ScheduleMethod method :
       {core::ScheduleMethod::kRoundRobin, core::ScheduleMethod::kSweep,
        core::ScheduleMethod::kGss}) {
    const core::AllocParams p = PaperParams(method);
    ASSERT_EQ(p.n_max, 79);
    for (bool dynamic : {true, false}) {
      const AnalyticMemoryBroker table(p, method, dynamic, kGssGroup, 1,
                                       Gibibytes(1));
      const ClosedFormBroker ref(p, method, dynamic, kGssGroup, 1,
                                 Gibibytes(1));
      for (int n = -1; n <= p.n_max + 1; ++n) {
        for (int k = 0; k <= p.n_max + 2; ++k) {
          EXPECT_EQ(ToBits(table.PriceDisk(n, k)), ToBits(ref.PriceDisk(n, k)))
              << core::ScheduleMethodName(method) << " dynamic=" << dynamic
              << " n=" << n << " k=" << k;
        }
      }
    }
  }
}

TEST(AnalyticMemoryBrokerTest, SumsMatchClosedFormsAfterRandomStates) {
  constexpr int kDisks = 7;
  const core::AllocParams p = PaperParams(core::ScheduleMethod::kRoundRobin);
  ClosedFormBroker probe(p, core::ScheduleMethod::kRoundRobin, true,
                         kGssGroup, kDisks, Bits(0));
  // A seeded script of OnState updates, each followed by a CanAdmit query.
  struct Step {
    int disk, n, k, ask_disk, ask_n, ask_k;
  };
  Rng rng(2024);
  const auto below = [&rng](int n) {
    return static_cast<int>(rng.NextBelow(static_cast<std::uint32_t>(n)));
  };
  std::vector<Step> script(2000);
  for (Step& s : script) {
    s = {below(kDisks), below(p.n_max + 1), below(p.n_max + 3),
         below(kDisks), below(p.n_max + 2), below(p.n_max + 3)};
  }
  // A budget at the script's median reservation, so CanAdmit answers both
  // ways.
  std::vector<double> totals;
  for (const Step& s : script) {
    probe.OnState(s.disk, s.n, s.k);
    totals.push_back(ToBits(probe.ReservedMemory()));
  }
  std::nth_element(totals.begin(), totals.begin() + totals.size() / 2,
                   totals.end());
  const Bits capacity(totals[totals.size() / 2]);

  AnalyticMemoryBroker table(p, core::ScheduleMethod::kRoundRobin, true,
                             kGssGroup, kDisks, capacity);
  ClosedFormBroker ref(p, core::ScheduleMethod::kRoundRobin, true, kGssGroup,
                       kDisks, capacity);
  int admits = 0;
  for (std::size_t i = 0; i < script.size(); ++i) {
    const Step& s = script[i];
    table.OnState(s.disk, s.n, s.k);
    ref.OnState(s.disk, s.n, s.k);
    ASSERT_EQ(ToBits(table.ReservedMemory()), ToBits(ref.ReservedMemory()))
        << "step " << i;
    for (int d = 0; d < kDisks; ++d) {
      ASSERT_EQ(ToBits(table.ReservedExcluding(d)),
                ToBits(ref.ReservedExcluding(d)))
          << "step " << i << " disk " << d;
    }
    const bool admit = ref.CanAdmit(s.ask_disk, s.ask_n, s.ask_k);
    ASSERT_EQ(table.CanAdmit(s.ask_disk, s.ask_n, s.ask_k), admit)
        << "step " << i;
    admits += admit ? 1 : 0;
  }
  EXPECT_GT(admits, 500);
  EXPECT_LT(admits, 1500);

  // A budget equal to the current total: re-asking for any disk's present
  // state sits exactly on the capacity and must still fit.
  const int states[kDisks][2] = {{10, 2}, {40, 7}, {0, 0}, {79, 5},
                                 {3, 90}, {25, 1}, {61, 12}};
  ClosedFormBroker exact_ref(p, core::ScheduleMethod::kRoundRobin, true,
                             kGssGroup, kDisks, Bits(0));
  for (int d = 0; d < kDisks; ++d) {
    exact_ref.OnState(d, states[d][0], states[d][1]);
  }
  AnalyticMemoryBroker on_capacity(p, core::ScheduleMethod::kRoundRobin, true,
                                   kGssGroup, kDisks,
                                   exact_ref.ReservedMemory());
  for (int d = 0; d < kDisks; ++d) {
    on_capacity.OnState(d, states[d][0], states[d][1]);
  }
  for (int d = 0; d < kDisks; ++d) {
    EXPECT_TRUE(on_capacity.CanAdmit(d, states[d][0], states[d][1]))
        << "disk " << d;
  }
  EXPECT_FALSE(on_capacity.CanAdmit(0, states[0][0] + 1, states[0][1]));
}

// --- MultiDiskSimulator ---

TEST(MultiDiskTest, RunsToCompletionAcrossDisks) {
  SimConfig base;
  base.method = core::ScheduleMethod::kRoundRobin;
  base.scheme = AllocScheme::kDynamic;
  base.t_log = Minutes(40);
  auto md = MultiDiskSimulator::Create(base, /*disk_count=*/3,
                                       Gibibytes(4));
  ASSERT_TRUE(md.ok()) << md.status().ToString();

  WorkloadConfig w;
  w.duration = Hours(1);
  w.total_expected_arrivals = 60;
  w.disk_count = 3;
  w.disk_theta = 0.5;
  w.seed = 4;
  auto arr = GenerateWorkload(w);
  ASSERT_TRUE(arr.ok());
  ASSERT_TRUE((*md)->AddArrivals(*arr).ok());
  (*md)->RunToCompletion();
  (*md)->Finalize();

  const SimCounters total = (*md)->Totals();
  EXPECT_EQ(total.arrivals, static_cast<long>(arr->size()));
  EXPECT_EQ(total.admitted + total.rejected, total.arrivals);
  EXPECT_GT(total.admitted, 0);
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ((*md)->sim(d).active_count(), 0);
  }
}

TEST(MultiDiskTest, TightMemoryForcesRejections) {
  SimConfig base;
  base.method = core::ScheduleMethod::kRoundRobin;
  base.scheme = AllocScheme::kStatic;  // Static is hungriest.
  auto md_small = MultiDiskSimulator::Create(base, 2, Mebibytes(80));
  auto md_large = MultiDiskSimulator::Create(base, 2, Gibibytes(8));
  ASSERT_TRUE(md_small.ok());
  ASSERT_TRUE(md_large.ok());

  WorkloadConfig w;
  w.duration = Hours(1);
  w.total_expected_arrivals = 80;
  w.disk_count = 2;
  w.seed = 6;
  auto arr = GenerateWorkload(w);
  ASSERT_TRUE(arr.ok());
  for (auto* md : {&md_small, &md_large}) {
    ASSERT_TRUE((**md)->AddArrivals(*arr).ok());
    (**md)->RunToCompletion();
  }
  EXPECT_GT((*md_small)->Totals().rejected, (*md_large)->Totals().rejected);
  EXPECT_LT((*md_small)->PeakConcurrency(), (*md_large)->PeakConcurrency());
}

TEST(MultiDiskTest, DynamicSchemeFitsMoreInSameMemory) {
  // The Table 5 effect at a miniature scale: with a constrained shared
  // memory, the dynamic scheme admits more concurrent viewers.
  WorkloadConfig w;
  w.duration = Hours(1);
  w.total_expected_arrivals = 120;
  w.disk_count = 2;
  w.disk_theta = 0.5;
  w.seed = 8;
  auto arr = GenerateWorkload(w);
  ASSERT_TRUE(arr.ok());

  int peak[2] = {0, 0};
  for (AllocScheme scheme : {AllocScheme::kStatic, AllocScheme::kDynamic}) {
    SimConfig base;
    base.method = core::ScheduleMethod::kRoundRobin;
    base.scheme = scheme;
    auto md = MultiDiskSimulator::Create(base, 2, Gibibytes(0.5));
    ASSERT_TRUE(md.ok());
    ASSERT_TRUE((*md)->AddArrivals(*arr).ok());
    (*md)->RunToCompletion();
    peak[scheme == AllocScheme::kDynamic ? 1 : 0] = (*md)->PeakConcurrency();
  }
  EXPECT_GT(peak[1], peak[0]);
}

/// A whole-disk outage window must not stall the healthy disks. With a
/// non-binding shared budget the healthy disks run *exactly* as in a
/// fault-free day — the outage clause is deterministic (consumes no
/// injector randomness) and matches only disk 1 — while the dark disk
/// degrades during the window and still drains once it closes.
TEST(MultiDiskTest, DiskOutageDoesNotStallHealthyDisks) {
  auto run = [](fault::Injector* injector) {
    SimConfig base;
    base.method = core::ScheduleMethod::kRoundRobin;
    base.scheme = AllocScheme::kDynamic;
    base.t_log = Minutes(40);
    base.injector = injector;
    // Budget far above demand so the broker never couples the disks.
    auto md = MultiDiskSimulator::Create(base, /*disk_count=*/3,
                                         Gibibytes(100));
    EXPECT_TRUE(md.ok()) << md.status().ToString();

    WorkloadConfig w;
    w.duration = Hours(1);
    w.total_expected_arrivals = 60;
    w.disk_count = 3;
    w.disk_theta = 0.5;
    w.seed = 4;
    auto arr = GenerateWorkload(w);
    EXPECT_TRUE(arr.ok());
    EXPECT_TRUE((*md)->AddArrivals(*arr).ok());
    (*md)->RunToCompletion();
    (*md)->Finalize();
    return std::move(md.value());
  };

  auto spec = fault::ParseFaultSpec("outage:start=600,end=1500,disk=1");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  fault::Injector injector(spec.value(), /*seed=*/5);
  const auto faulted = run(&injector);
  const auto clean = run(nullptr);

  for (int d : {0, 2}) {
    const SimMetrics& f = faulted->sim(d).metrics();
    const SimMetrics& c = clean->sim(d).metrics();
    EXPECT_EQ(f.admitted, c.admitted) << "disk " << d;
    EXPECT_EQ(f.completed, c.completed) << "disk " << d;
    EXPECT_EQ(f.services, c.services) << "disk " << d;
    EXPECT_EQ(f.starvation_events, c.starvation_events) << "disk " << d;
    EXPECT_EQ(f.read_faults, 0) << "disk " << d;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(f.disk_busy_time, c.disk_busy_time) << "disk " << d;
    EXPECT_EQ(f.initial_latency.mean(), c.initial_latency.mean())
        << "disk " << d;
  }

  // The dark disk felt the 15-minute outage...
  const SimMetrics& dark = faulted->sim(1).metrics();
  EXPECT_GT(dark.degraded_streams, 0);
  EXPECT_GE(dark.starvation_events, clean->sim(1).metrics().starvation_events);
  // ...but drained completely once the window closed.
  EXPECT_EQ(faulted->sim(1).active_count(), 0);
  EXPECT_EQ(dark.completed + dark.cancelled, dark.admitted);
}

/// Runs a day serially with every disk wired straight to `broker`: the
/// earliest pending event first, ties to the lowest disk index. Per-disk
/// configs are derived as MultiDiskSimulator::Create derives them.
std::string RunSerialDay(const SimConfig& base, int disks,
                         const std::vector<ArrivalEvent>& arrivals,
                         MemoryBroker* broker) {
  const std::vector<std::vector<ArrivalEvent>> per_disk =
      SplitByDisk(arrivals, disks);
  std::vector<std::unique_ptr<VodSimulator>> sims;
  for (int d = 0; d < disks; ++d) {
    SimConfig cfg = base;
    cfg.disk_id = d;
    cfg.seed = base.seed * 1000003ULL + static_cast<std::uint64_t>(d);
    auto sim = VodSimulator::Create(cfg, broker);
    VOD_CHECK(sim.ok());
    VOD_CHECK((*sim)->AddArrivals(per_disk[static_cast<std::size_t>(d)]).ok());
    sims.push_back(std::move(sim.value()));
  }
  for (;;) {
    VodSimulator* who = nullptr;
    Seconds best = Seconds::Infinity();
    for (const auto& s : sims) {
      if (s->NextEventTime() < best) {
        best = s->NextEventTime();
        who = s.get();
      }
    }
    if (who == nullptr) break;
    who->Step();
  }
  std::vector<const SimMetrics*> view;
  for (const auto& s : sims) {
    s->Finalize();
    view.push_back(&s->metrics());
  }
  return MetricsSignature(view);
}

TEST(MultiDiskTest, TablePricedDayMatchesClosedFormBrokerDay) {
  constexpr int kDisks = 4;
  SimConfig base;  // Dynamic Round-Robin on the paper's disk.
  base.seed = 11;
  WorkloadConfig w;
  w.duration = Hours(0.5);
  w.total_expected_arrivals = 300;
  w.max_viewing_time = Minutes(10);
  w.disk_count = kDisks;
  w.disk_theta = 0.5;
  w.seed = 21;
  auto arr = GenerateWorkload(w);
  ASSERT_TRUE(arr.ok());
  const Bits capacity = Mebibytes(2);  // Binds: about one arrival in four
                                       // is refused for memory.
  const core::AllocParams p = PaperParams(base.method);

  AnalyticMemoryBroker table(p, base.method, /*use_dynamic=*/true,
                             base.gss_group_size, kDisks, capacity);
  ClosedFormBroker ref(p, base.method, /*use_dynamic=*/true,
                       base.gss_group_size, kDisks, capacity);
  const std::string with_table = RunSerialDay(base, kDisks, *arr, &table);
  EXPECT_EQ(with_table, RunSerialDay(base, kDisks, *arr, &ref));

  // MultiDiskSimulator's serial loop, which re-reads only the stepped
  // disk's next-event time, makes the same day.
  auto md = MultiDiskSimulator::Create(base, kDisks, capacity);
  ASSERT_TRUE(md.ok());
  ASSERT_TRUE((*md)->AddArrivals(*arr).ok());
  (*md)->RunToCompletion();
  (*md)->Finalize();
  std::vector<const SimMetrics*> view;
  long refused_for_memory = 0;
  for (int d = 0; d < kDisks; ++d) {
    view.push_back(&(*md)->sim(d).metrics());
    refused_for_memory += (*md)->sim(d).metrics().rejected_memory;
  }
  EXPECT_GT(refused_for_memory, 0);
  EXPECT_GT((*md)->Totals().admitted, 0);
  EXPECT_EQ(MetricsSignature(view), with_table);
}

TEST(MultiDiskTest, AddArrivalsIsAllOrNothingAcrossDisks) {
  SimConfig base;
  auto md = MultiDiskSimulator::Create(base, /*disk_count=*/3, Gibibytes(4));
  ASSERT_TRUE(md.ok()) << md.status().ToString();
  std::vector<ArrivalEvent> batch(3);
  for (int d = 0; d < 3; ++d) {
    batch[static_cast<std::size_t>(d)].time = Seconds(10.0 * (d + 1));
    batch[static_cast<std::size_t>(d)].viewing_time = Minutes(5);
    batch[static_cast<std::size_t>(d)].disk = d;
  }
  batch[1].video = -1;  // Disk 1's slice is invalid; disks 0 and 2 are fine.
  EXPECT_FALSE((*md)->AddArrivals(batch).ok());
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ((*md)->sim(d).event_count(), 0u) << "disk " << d;
  }
}

TEST(MultiDiskTest, DisksShareOneBufferSizeTable) {
  // Sec. 3.3's table depends only on the server's parameters, so a dynamic
  // server fills it once and every disk's allocator reads that one copy.
  SimConfig base;
  base.scheme = AllocScheme::kDynamic;
  for (core::ScheduleMethod method :
       {core::ScheduleMethod::kRoundRobin, core::ScheduleMethod::kSweep,
        core::ScheduleMethod::kGss}) {
    base.method = method;
    auto md = MultiDiskSimulator::Create(base, /*disk_count=*/4,
                                         Gibibytes(1));
    ASSERT_TRUE(md.ok()) << md.status().ToString();
    const core::BufferSizeTable* shared = (*md)->sim(0).buffer_size_table();
    ASSERT_NE(shared, nullptr);
    EXPECT_EQ(shared->params(), AllocParamsFor(base).value());
    for (int d = 1; d < 4; ++d) {
      EXPECT_EQ((*md)->sim(d).buffer_size_table(), shared)
          << core::ScheduleMethodName(method) << " disk " << d;
    }
  }
  // The static scheme sizes every buffer BS(N) and builds no table.
  base.scheme = AllocScheme::kStatic;
  auto md = MultiDiskSimulator::Create(base, /*disk_count=*/4, Gibibytes(1));
  ASSERT_TRUE(md.ok()) << md.status().ToString();
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ((*md)->sim(d).buffer_size_table(), nullptr) << "disk " << d;
  }
}

TEST(MultiDiskTest, CreateValidates) {
  SimConfig base;
  EXPECT_FALSE(MultiDiskSimulator::Create(base, 0, Gibibytes(1)).ok());
  EXPECT_FALSE(MultiDiskSimulator::Create(base, 2, Bits(0)).ok());
}

}  // namespace
}  // namespace vod::sim
