#include "sim/metrics.h"

#include <algorithm>
#include <map>
#include <string>

#include "obs/histogram.h"

namespace vod::sim {

void SimMetrics::ResolveEstimation(
    const std::vector<Seconds>& sorted_arrival_times) {
  estimation_checks = 0;
  estimation_successes = 0;
  for (const AllocationRecord& rec : allocations) {
    const auto lo = std::upper_bound(sorted_arrival_times.begin(),
                                     sorted_arrival_times.end(), rec.time);
    const auto hi =
        std::upper_bound(sorted_arrival_times.begin(),
                         sorted_arrival_times.end(),
                         rec.time + rec.usage_period);
    const long actual = static_cast<long>(hi - lo);
    ++estimation_checks;
    if (actual <= rec.k) ++estimation_successes;
  }
}

JsonValue CountersJson(const SimCounters& counters) {
  JsonValue json = JsonValue::Object();
  for (const SimCounter& c : kSimCounters) {
    json.Set("sim." + std::string(c.name),
             JsonValue::Number(static_cast<double>(counters.*c.field)));
  }
  return json;
}

JsonValue SweepMetricsJson(const std::vector<const SimMetrics*>& runs) {
  SimCounters totals;
  std::map<std::string, obs::Histogram> histograms;
  const auto histogram = [&histograms](const char* name,
                                       const obs::Histogram::Options& options)
      -> obs::Histogram& {
    return histograms.try_emplace(std::string("sim.") + name, options)
        .first->second;
  };
  for (const SimMetrics* m : runs) {
    for (const SimCounter& c : kSimCounters) totals.*c.field += m->*c.field;

    // Real per-allocation samples -> log-bucketed distributions.
    obs::Histogram& buffer_mbit = histogram("alloc.buffer_mbit", {.lo = 0.1});
    obs::Histogram& usage_s = histogram("alloc.usage_period_s", {.lo = 1e-3});
    obs::Histogram& est_k = histogram("alloc.k", {.lo = 1.0, .growth = 1.5});
    for (const AllocationRecord& rec : m->allocations) {
      buffer_mbit.Add(ToMegabits(rec.buffer_size));
      usage_s.Add(ToSeconds(rec.usage_period));
      est_k.Add(static_cast<double>(rec.k));
    }

    // One sample per run: distribution across a sweep's runs.
    histogram("run.initial_latency_mean_s", {.lo = 1e-3})
        .Add(m->initial_latency.mean());
    histogram("run.peak_memory_mb", {.lo = 1.0})
        .Add(ToMebibytes(Bits(m->memory_usage.max_value())));
    histogram("run.peak_concurrency", {.lo = 1.0, .growth = 1.5})
        .Add(static_cast<double>(m->peak_concurrency));
    // The buffer byte ledger (conservation property: allocated == released
    // at the end of a drained run), in gigabits so a sweep's distribution
    // is readable at a glance.
    histogram("run.buffer_gbit_allocated", {.lo = 0.1})
        .Add(ToBits(m->buffer_bits_allocated) / kGiga);
    histogram("run.buffer_gbit_released", {.lo = 0.1})
        .Add(ToBits(m->buffer_bits_released) / kGiga);
  }

  JsonValue json_histograms = JsonValue::Object();
  for (const auto& [name, h] : histograms) {
    JsonValue entry = JsonValue::Object();
    entry.Set("count", JsonValue::Number(static_cast<double>(h.count())));
    entry.Set("mean", JsonValue::Number(h.mean()));
    entry.Set("p50", JsonValue::Number(h.p50()));
    entry.Set("p95", JsonValue::Number(h.p95()));
    entry.Set("p99", JsonValue::Number(h.p99()));
    entry.Set("max", JsonValue::Number(h.max()));
    json_histograms.Set(name, std::move(entry));
  }
  JsonValue json = JsonValue::Object();
  json.Set("counters",
           runs.empty() ? JsonValue::Object() : CountersJson(totals));
  json.Set("histograms", std::move(json_histograms));
  return json;
}

}  // namespace vod::sim
