#ifndef VODB_OBS_PROFILE_H_
#define VODB_OBS_PROFILE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/units.h"
#include "obs/clock.h"

namespace vod::obs {

/// One named profiling site ("disk.service", "sched.sweep.sequence", ...).
/// `slot` indexes the site's accumulator in every thread's counter block.
struct ProfSite {
  ProfSite(std::string site_name, std::size_t site_slot)
      : name(std::move(site_name)), slot(site_slot) {}
  const std::string name;
  const std::size_t slot;
};

struct ProfSiteStats {
  std::string name;
  std::int64_t calls = 0;
  Seconds total;
  Seconds mean;
};

/// Process-wide registry of profiling sites. Sites registered under the
/// same name share one accumulator (the three schedulers' sequence scopes
/// aggregate per scheduler, not per call site).
///
/// Accumulation is per thread: each thread that records gets its own
/// cache-line-aligned block of per-site (calls, ticks) counters that only it
/// writes, so a scope exit is a relaxed load and store per counter — no
/// read-modify-write and no cache line shared between threads. The block
/// registers here on the thread's first record and folds into the retired
/// totals when the thread exits. Scopes must not run in thread_local
/// destructors (the block may already be gone).
class Profiler {
 public:
  /// Most distinct site names a process may register.
  static constexpr std::size_t kMaxSites = 64;

  static Profiler& Global();

  /// Idempotent by name; the returned pointer is stable for the process
  /// lifetime (macro sites cache it in a function-local static).
  ProfSite* Register(const std::string& name);

  /// Adds one call lasting `ticks` (obs::ProfTicks() units) to `site` in the
  /// calling thread's block. The one recording entry point: ProfScope
  /// calls it on exit.
  static void Record(const ProfSite& site, std::int64_t ticks) {
    ThreadBlock* block = t_block_;
    if (block == nullptr) [[unlikely]] block = AttachThread();
    Counter& c = block->counters[site.slot];
    c.calls.store(c.calls.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    c.ticks.store(c.ticks.load(std::memory_order_relaxed) + ticks,
                  std::memory_order_relaxed);
  }

  /// All sites with ≥ 1 call since the last Reset(), summed over live and
  /// exited threads, sorted by total time descending; equal totals
  /// tie-break by name so the order is a deterministic function of the
  /// accumulated values (report tables diff cleanly across runs). Counts
  /// are exact for every scope that happens-before the call.
  std::vector<ProfSiteStats> Snapshot() const;

  /// Human-readable per-phase timing table (aligned columns), e.g. for a
  /// bench harness' stderr epilogue. Empty string when nothing was profiled.
  std::string ReportTable() const;

  /// Snapshot() as a JSON array of {"name", "calls", "total_s", "mean_us"}.
  JsonValue ToJson() const;

  /// Zeroes every site as Snapshot() sees it (sites stay registered): the
  /// current totals become the baseline later snapshots subtract, so no
  /// thread's counters are written from outside it.
  void Reset();

 private:
  /// A site's accumulator in one thread's block. Only the owning thread
  /// writes it; the atomics let Snapshot() read it while that thread runs.
  struct Counter {
    std::atomic<std::int64_t> calls{0};
    std::atomic<std::int64_t> ticks{0};
  };
  struct alignas(64) ThreadBlock {
    std::array<Counter, kMaxSites> counters;
  };
  struct Sum {
    std::int64_t calls = 0;
    std::int64_t ticks = 0;
  };
  using Sums = std::array<Sum, kMaxSites>;
  class ThreadHandle;

  Profiler();
  /// Registers the calling thread's block on its first record.
  static ThreadBlock* AttachThread();
  /// Adds `block`'s counters to `sums`.
  static void Accumulate(const ThreadBlock& block, Sums* sums);
  /// Retired plus live counts since the process started.
  Sums Totals() const VODB_REQUIRES(mu_);
  /// Nanoseconds per tick, from both clocks' advance since construction.
  double NanosPerTick() const;

  static inline thread_local ThreadBlock* t_block_ = nullptr;

  const std::int64_t ticks0_;
  const std::int64_t nanos0_;
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<ProfSite>> sites_
      VODB_GUARDED_BY(mu_);
  std::vector<const ThreadBlock*> live_ VODB_GUARDED_BY(mu_);
  Sums retired_ VODB_GUARDED_BY(mu_);
  Sums baseline_ VODB_GUARDED_BY(mu_);
  // The ratio the last Snapshot() used and the total call count it saw: it
  // is measured again only once a scope has run since, so snapshots of an
  // unchanged profile are identical.
  mutable std::int64_t calibrated_calls_ VODB_GUARDED_BY(mu_) = -1;
  mutable double nanos_per_tick_ VODB_GUARDED_BY(mu_) = 1.0;
};

/// RAII scope accumulating wall time into a site.
class ProfScope {
 public:
  explicit ProfScope(const ProfSite* site) : site_(site), t0_(ProfTicks()) {}
  ~ProfScope() { Profiler::Record(*site_, ProfTicks() - t0_); }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  const ProfSite* site_;
  std::int64_t t0_;
};

}  // namespace vod::obs

/// VODB_PROF_SCOPE("phase.name") — time the enclosing block into the global
/// profiler. Every build compiles the scopes in. The site lookup runs once
/// per call site (function-local static); an entry costs two
/// obs::ProfTicks() reads and two uncontended stores, cheap enough for the
/// simulator event loop (it cannot perturb any simulated quantity — the
/// profiler only ever reads the host clock, never the simulation clock).
#define VODB_PROF_CONCAT_INNER(a, b) a##b
#define VODB_PROF_CONCAT(a, b) VODB_PROF_CONCAT_INNER(a, b)
#define VODB_PROF_SCOPE(name)                                          \
  static ::vod::obs::ProfSite* const VODB_PROF_CONCAT(                 \
      vodb_prof_site_, __LINE__) =                                     \
      ::vod::obs::Profiler::Global().Register(name);                   \
  ::vod::obs::ProfScope VODB_PROF_CONCAT(vodb_prof_scope_, __LINE__)(  \
      VODB_PROF_CONCAT(vodb_prof_site_, __LINE__))

#endif  // VODB_OBS_PROFILE_H_
