#include "sim/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "bench_kit/json.h"
#include "common/det.h"
#include "obs/histogram.h"

namespace vod::sim {

namespace {

std::string FmtDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "1e308" : "-1e308";
  if (std::isnan(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Appends `"title": {entries}` with one `"key": text` line per entry, in
/// the map's order, which the audit holds to strictly increasing keys.
template <class Map, class Text>
void AppendSection(std::string* out, const char* title, const Map& entries,
                   Text text) {
  det::AuditOrderedOutput(entries, title,
                          [](const auto& a, const auto& b) {
                            return a.first < b.first;
                          });
  *out += "  \"";
  *out += title;
  *out += "\": {";
  const char* sep = "\n";
  for (const auto& [name, value] : entries) {
    *out += sep;
    sep = ",\n";
    *out += "    \"" + name + "\": " + text(value);
  }
  *out += entries.empty() ? "}" : "\n  }";
}

}  // namespace

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

bench_kit::JsonValue CountersJson(const SimCounters& counters) {
  bench_kit::JsonValue json = bench_kit::JsonValue::Object();
  for (const SimCounter& c : kSimCounters) {
    json.Set("sim." + std::string(c.name),
             bench_kit::JsonValue::Number(
                 static_cast<double>(counters.*c.field)));
  }
  return json;
}

std::string SweepMetricsJson(const std::vector<const SimMetrics*>& runs) {
  std::map<std::string, long> counters;
  std::map<std::string, obs::Histogram> histograms;
  const auto histogram = [&histograms](const char* name,
                                       const obs::Histogram::Options& options)
      -> obs::Histogram& {
    return histograms.try_emplace(std::string("sim.") + name, options)
        .first->second;
  };
  for (const SimMetrics* m : runs) {
    for (const SimCounter& c : kSimCounters) {
      counters["sim." + std::string(c.name)] += m->*c.field;
    }

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

  std::string out = "{\n";
  AppendSection(&out, "counters", counters,
                [](long v) { return std::to_string(v); });
  out += ",\n";
  AppendSection(&out, "histograms", histograms, [](const obs::Histogram& h) {
    return "{\"count\": " + std::to_string(h.count()) +
           ", \"mean\": " + FmtDouble(h.mean()) +
           ", \"p50\": " + FmtDouble(h.p50()) +
           ", \"p95\": " + FmtDouble(h.p95()) +
           ", \"p99\": " + FmtDouble(h.p99()) +
           ", \"max\": " + FmtDouble(h.max()) + "}";
  });
  out += "\n}\n";
  return out;
}

}  // namespace vod::sim
