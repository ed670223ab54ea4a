// Quickstart: spin up a single-disk VOD server with the paper's dynamic
// buffer allocation scheme, submit a handful of viewers, and print what
// happened.
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "common/units.h"
#include "vod/server.h"

int main() {
  using namespace vod;  // NOLINT(build/namespaces)

  // A Seagate Barracuda 9LP serving MPEG-1 streams (the paper's Table 3
  // configuration: TR = 120 Mbps, CR = 1.5 Mbps, N = 79), scheduled with
  // GSS* in groups of 8 and sized by the dynamic allocation scheme.
  VodServer::Options options;
  options.config.method = core::ScheduleMethod::kGss;
  options.config.scheme = sim::AllocScheme::kDynamic;
  options.config.gss_group_size = 8;
  options.config.t_log = Minutes(20);

  auto server = VodServer::Create(options);
  if (!server.ok()) {
    std::fprintf(stderr, "create: %s\n", server.status().ToString().c_str());
    return 1;
  }

  // Five viewers arrive over the first minute, watching 10-30 minutes each.
  for (int i = 0; i < 5; ++i) {
    (*server)->RunFor(Seconds(12));
    auto t = (*server)->Submit(/*video=*/i % 6, Minutes(10 + 5 * i));
    if (!t.ok()) {
      std::fprintf(stderr, "submit: %s\n", t.status().ToString().c_str());
      return 1;
    }
    std::printf("t=%6.1fs  submitted viewer %d (video %d), %d active\n",
                ToSeconds(*t), i, i % 6, (*server)->active_requests());
  }

  (*server)->RunToCompletion();
  (*server)->Finish();

  std::printf("\nAll viewers done at t=%.0fs\n",
              ToSeconds((*server)->now()));
  std::printf("%s\n", (*server)->SummaryLine().c_str());
  std::printf("N (max concurrent streams this disk supports): %d\n",
              (*server)->alloc_params().n_max);
  return 0;
}
