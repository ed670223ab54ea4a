// Admission trace: watch the predict-and-enforce strategy work. A burst of
// requests arrives at once; the dynamic allocator's Assumption-1 gate
// defers the ones that would invalidate already-sized buffers, and the
// estimator's k_c adapts. The trace prints every allocation's (n, k, BS).
//
//   $ ./build/examples/admission_trace

#include <cstdio>

#include "common/units.h"
#include "sim/vod_simulator.h"
#include "sim/workload.h"

int main() {
  using namespace vod;  // NOLINT(build/namespaces)

  sim::SimConfig cfg;
  cfg.method = core::ScheduleMethod::kRoundRobin;
  cfg.scheme = sim::AllocScheme::kDynamic;
  cfg.t_log = Minutes(40);

  auto simulator = sim::VodSimulator::Create(cfg, nullptr);
  if (!simulator.ok()) {
    std::fprintf(stderr, "%s\n", simulator.status().ToString().c_str());
    return 1;
  }

  // A quiet start (2 viewers), then a burst of 10 arrivals 10 ms apart,
  // then quiet again. The burst must be tight: a buffer is re-sized at each
  // refill, and with arrivals 0.1 s apart every established buffer is
  // re-sized at the new load between two arrivals, so the gate never
  // defers.
  std::vector<sim::ArrivalEvent> arrivals;
  auto add = [&arrivals](double t, double viewing_min) {
    sim::ArrivalEvent ev;
    ev.time = Seconds(t);
    ev.video = static_cast<int>(arrivals.size()) % 6;
    ev.viewing_time = Minutes(viewing_min);
    arrivals.push_back(ev);
  };
  add(1.0, 20);
  add(30.0, 20);
  for (int i = 0; i < 10; ++i) add(60.0 + 0.01 * i, 15);

  if (Status st = (*simulator)->AddArrivals(arrivals); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  (*simulator)->RunUntil(Minutes(3));

  const sim::SimMetrics& m = (*simulator)->metrics();
  std::printf("Buffer allocations around the burst at t=60 s (dynamic "
              "scheme, Round-Robin):\n");
  std::printf("%10s %6s %4s %4s %12s %12s\n", "time(s)", "req", "n", "k",
              "BS (Mbit)", "usage (s)");
  int shown = 0;
  bool first = true;
  for (const sim::AllocationRecord& rec : m.allocations) {
    if (!first && rec.time < Seconds(59.5)) continue;  // Skip the quiet-phase churn.
    first = false;
    std::printf("%10.3f %6llu %4d %4d %12.4f %12.4f\n", ToSeconds(rec.time),
                static_cast<unsigned long long>(rec.request), rec.n, rec.k,
                ToMegabits(rec.buffer_size), ToSeconds(rec.usage_period));
    if (++shown >= 40) break;
  }
  std::printf("\nBurst handling: %ld deferred admission(s); buffers grew "
              "from %0.3f Mbit (n=1)\nas n and the estimate k tracked the "
              "burst — no stream ever starved (%ld events).\n",
              m.deferred_admissions,
              ToMegabits(m.allocations.front().buffer_size),
              m.starvation_events);
  return 0;
}
