// Fig. 8 — (a) the average number of estimated additional requests and
// (b) the successful estimation probability, as functions of α, with the
// paper's T_log (40 min Round-Robin, 20 min Sweep*/GSS*).
//
// Runs on the parallel experiment runner (src/exp): the method × α grid
// fans out across --threads workers; rows print in grid order, so the CSV
// is byte-identical to the legacy serial harness at --seeds=1. --seeds=K>1
// replicates each point over seeds 5..5+K-1 and appends stddev/CI columns.
//
// Paper reference: α = 1 already achieves > 99% success; larger α only
// inflates the estimates (and hence memory).

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
  const std::vector<int> alphas =
      opt.full ? std::vector<int>{1, 2, 3, 4, 5} : std::vector<int>{1, 2, 4};

  DayRunConfig base;
  base.scheme = sim::AllocScheme::kDynamic;
  base.duration = opt.full ? Hours(24) : Hours(8);
  base.total_arrivals = opt.full ? 1200 : 400;
  base.theta = 0.0;
  opt.ApplyFaultsTo(&base);

  std::vector<std::uint64_t> seed_list;
  for (int s = 0; s < seeds; ++s) seed_list.push_back(5 + s);

  exp::Grid grid;
  grid.WithBase(base)
      .OverMethods({core::ScheduleMethod::kRoundRobin,
                    core::ScheduleMethod::kSweep, core::ScheduleMethod::kGss})
      .UsePaperTLog()
      .OverAlphas(alphas)
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

  std::vector<std::string> columns = {"method", "alpha", "avg_estimated_k",
                                      "success_probability"};
  if (seeds > 1) {
    columns.insert(columns.end(), {"k_stddev", "success_ci95"});
  }
  exp::Table table(columns);
  for (std::size_t i = 0; i < k_rows.size(); ++i) {
    const DayRunConfig& cfg = k_rows[i].spec.config;
    std::vector<std::string> row = {
        std::string(core::ScheduleMethodName(cfg.method)),
        std::to_string(cfg.alpha), Fmt("%.3f", k_rows[i].summary.mean),
        Fmt("%.4f", p_rows[i].summary.mean)};
    if (seeds > 1) {
      row.push_back(Fmt("%.4f", k_rows[i].summary.stddev));
      row.push_back(Fmt("%.4f", p_rows[i].summary.ci95_half));
    }
    table.AddRow(std::move(row));
  }
  if (!opt.json) {
    std::printf("# Fig. 8: estimation vs alpha (paper T_log per method)\n");
  }
  const bool written = table.Write(stdout, opt.json).ok();
  return ExitStatus(obs_session.Finish(results).ok() && written);
}
