// Fig. 7 — (a) the average number of estimated additional requests and
// (b) the successful estimation probability, as functions of T_log (α = 1),
// for the three scheduling methods.
//
// Runs on the parallel experiment runner (src/exp): the method × T_log grid
// fans out across --threads workers; rows are printed in grid order, so the
// CSV is byte-identical to the legacy serial harness at --seeds=1 (any
// thread count). --seeds=K>1 replicates each point over seeds 5..5+K-1 and
// appends stddev/CI columns.
//
// Paper reference points: success probability exceeds 99% from T_log =
// 40 min (Round-Robin) / 20 min (Sweep*, GSS*); the average estimate grows
// with T_log.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/units.h"
#include "exp/grid.h"
#include "exp/runner.h"

using namespace vod;         // NOLINT(build/namespaces)
using namespace vod::bench;  // NOLINT(build/namespaces)

namespace {

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = BenchOptions::Parse(argc, argv, kFlagsAll);
  const int seeds = opt.seeds > 0 ? opt.seeds : 1;
  const std::vector<double> tlog_minutes =
      opt.full ? std::vector<double>{5, 10, 20, 30, 40, 50, 60}
               : std::vector<double>{10, 20, 40, 60};

  DayRunConfig base;
  base.scheme = sim::AllocScheme::kDynamic;
  base.duration = opt.full ? Hours(24) : Hours(8);
  base.total_arrivals = opt.full ? 1200 : 400;
  base.theta = 0.0;
  opt.ApplyFaultsTo(&base);

  std::vector<Seconds> t_logs;
  for (double tl : tlog_minutes) t_logs.push_back(Minutes(tl));
  std::vector<std::uint64_t> seed_list;
  for (int s = 0; s < seeds; ++s) seed_list.push_back(5 + s);

  exp::Grid grid;
  grid.WithBase(base)
      .OverMethods({core::ScheduleMethod::kRoundRobin,
                    core::ScheduleMethod::kSweep, core::ScheduleMethod::kGss})
      .OverTLogs(t_logs)
      .WithSeeds(seed_list);

  const ObsSession obs_session(opt, grid.size());
  const exp::Runner runner({.threads = opt.threads, .progress = opt.progress});
  const std::vector<exp::RunResult> results =
      runner.Run(grid, obs_session.MakeRunFn());
  const auto k_rows = exp::AggregateReplications(
      results, seeds,
      [](const exp::RunResult& r) { return r.metrics.estimated_k.mean(); });
  const auto p_rows = exp::AggregateReplications(
      results, seeds,
      [](const exp::RunResult& r) { return r.metrics.SuccessProbability(); });

  std::vector<std::string> columns = {"method", "tlog_min", "avg_estimated_k",
                                      "success_probability"};
  if (seeds > 1) {
    columns.insert(columns.end(), {"k_stddev", "success_ci95"});
  }
  exp::Table table(columns);
  for (std::size_t i = 0; i < k_rows.size(); ++i) {
    const DayRunConfig& cfg = k_rows[i].spec.config;
    std::vector<std::string> row = {
        std::string(core::ScheduleMethodName(cfg.method)),
        Fmt("%.0f", ToMinutes(cfg.t_log)), Fmt("%.3f", k_rows[i].summary.mean),
        Fmt("%.4f", p_rows[i].summary.mean)};
    if (seeds > 1) {
      row.push_back(Fmt("%.4f", k_rows[i].summary.stddev));
      row.push_back(Fmt("%.4f", p_rows[i].summary.ci95_half));
    }
    table.AddRow(std::move(row));
  }
  if (!opt.json) std::printf("# Fig. 7: estimation vs T_log (alpha=1)\n");
  const bool written = table.Write(stdout, opt.json).ok();
  return ExitStatus(obs_session.Finish(results).ok() && written);
}
