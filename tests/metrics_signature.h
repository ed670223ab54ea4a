// The determinism tests' fingerprint of a run (multi_disk_test,
// sharded_sim_test): FNV-1a over the raw bits of everything each disk
// measured. Digests, not dumps: a long run produces millions of points, and
// handing two differing ~200 MB strings to EXPECT_EQ sends gtest's
// edit-distance differ into gigabytes of DP table.

#ifndef VODB_TESTS_METRICS_SIGNATURE_H_
#define VODB_TESTS_METRICS_SIGNATURE_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/units.h"
#include "sim/metrics.h"

namespace vod::sim {

/// Whether the signature folds in the memory_reserved series. A frozen
/// ShardBrokerView records sibling reservations as of epoch start, so this
/// one series legitimately differs between a sharded run and the serial
/// interleave — exclude it when comparing across the two run modes. It is
/// still deterministic *within* a mode, so thread-count comparisons keep
/// it.
enum class ReservedSeries { kInclude, kExclude };

/// Fields every disk folds before its allocation records and series: the
/// counters of kSimCounters and eight statistics. A disk that saw no
/// traffic folds exactly this many.
inline constexpr long kSignatureFixedFields =
    static_cast<long>(std::size(kSimCounters)) + 8;

/// One "disk <d> fields=<n> digest=<hex>" line per disk, hashing every
/// counter, the statistics, every allocation-record field and every
/// step-series point. Equal signatures mean bit-identical metrics (up to a
/// hash collision, which a determinism regression will not conveniently
/// arrange).
inline std::string MetricsSignature(
    const std::vector<const SimMetrics*>& disks,
    ReservedSeries reserved = ReservedSeries::kInclude) {
  std::string out;
  for (std::size_t d = 0; d < disks.size(); ++d) {
    const SimMetrics& m = *disks[d];
    std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis.
    long fields = 0;
    const auto fold = [&h, &fields](double v) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      for (int byte = 0; byte < 8; ++byte) {
        h = (h ^ ((bits >> (8 * byte)) & 0xffU)) * 1099511628211ULL;
      }
      ++fields;
    };
    for (const SimCounter& c : kSimCounters) {
      fold(static_cast<double>(m.*c.field));
    }
    fold(static_cast<double>(m.initial_latency.count()));
    fold(m.initial_latency.mean());
    fold(m.initial_latency.max());
    fold(m.estimated_k.mean());
    fold(ToSeconds(m.disk_busy_time));
    fold(ToBits(m.buffer_bits_allocated));
    fold(ToBits(m.buffer_bits_released));
    fold(static_cast<double>(m.allocations.size()));
    for (const AllocationRecord& a : m.allocations) {
      fold(ToSeconds(a.time));
      fold(static_cast<double>(a.request));
      fold(a.n);
      fold(a.k);
      fold(ToBits(a.buffer_size));
      fold(ToSeconds(a.usage_period));
    }
    std::vector<const StepTimeSeries*> series = {&m.concurrency,
                                                 &m.memory_usage};
    if (reserved == ReservedSeries::kInclude) {
      series.push_back(&m.memory_reserved);
    }
    for (const StepTimeSeries* s : series) {
      for (const auto& [t, v] : s->points()) {
        fold(t);
        fold(v);
      }
    }
    char line[80];
    std::snprintf(line, sizeof line, "disk %zu fields=%ld digest=%016llx\n",
                  d, fields, static_cast<unsigned long long>(h));
    out += line;
  }
  return out;
}

}  // namespace vod::sim

#endif  // VODB_TESTS_METRICS_SIGNATURE_H_
