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

/// One site's row. `calls` and `timed` are exact counts; `total` and `mean`
/// are estimates scaled up from the `timed` calls (exact when every call
/// was timed).
struct ProfSiteStats {
  std::string name;
  std::int64_t calls = 0;
  std::int64_t timed = 0;
  Seconds total;
  Seconds mean;
};

/// Process-wide registry of profiling sites. Sites registered under the
/// same name share one accumulator (the three schedulers' sequence scopes
/// aggregate per scheduler, not per call site).
///
/// Accumulation is per thread: each thread that records gets its own
/// cache-line-aligned block of per-site (calls, timed, ticks) counters that
/// only it writes, so a scope is a relaxed load and store per counter — no
/// read-modify-write and no cache line shared between threads. The block
/// registers here on the thread's first record and folds into the retired
/// totals when the thread exits. Scopes must not run in thread_local
/// destructors (the block may already be gone).
///
/// Timing is sampled: every scope counts its call, but only some read the
/// tick counter. A site's first kWarmupCalls calls on a thread are all
/// timed; after that one call per random gap, uniform on [1, 2·kMeanGap − 1]
/// calls, is. The gaps come from a per-thread xorshift, so a site whose
/// calls alternate between kinds is timed on every kind alike (a fixed
/// stride would time one kind only). Snapshot() scales each site's timed
/// ticks by calls ÷ timed.
class Profiler {
 public:
  /// Most distinct site names a process may register.
  static constexpr std::size_t kMaxSites = 64;
  /// Calls of a site on a thread that are all timed before sampling starts.
  static constexpr std::int64_t kWarmupCalls = 8;
  /// Mean number of calls between two timed calls after the warm-up.
  static constexpr std::int64_t kMeanGap = 64;

  static Profiler& Global();

  /// Idempotent by name; the returned pointer is stable for the process
  /// lifetime (macro sites cache it in a function-local static).
  ProfSite* Register(const std::string& name);

  /// Adds one timed call lasting `ticks` (obs::ProfTicks() units) to `site`
  /// in the calling thread's block.
  static void Record(const ProfSite& site, std::int64_t ticks) {
    Counter& c = CounterOf(site);
    Bump(c.calls, 1);
    AddTimed(&c, ticks);
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

  /// Snapshot() as a JSON array of {"name", "calls", "timed", "total_s",
  /// "mean_us"}.
  JsonValue ToJson() const;

  /// Zeroes every site as Snapshot() sees it (sites stay registered): the
  /// current totals become the baseline later snapshots subtract, so no
  /// thread's counters are written from outside it.
  void Reset();

 private:
  friend class ProfScope;

  /// A site's accumulator in one thread's block. Only the owning thread
  /// writes it; the atomics let Snapshot() read it while that thread runs.
  struct Counter {
    std::atomic<std::int64_t> calls{0};
    std::atomic<std::int64_t> timed{0};
    std::atomic<std::int64_t> ticks{0};
    /// The value of `calls` at which the next timed call starts; only the
    /// owning thread reads it.
    std::int64_t next_timed = 1;
  };
  struct alignas(64) ThreadBlock {
    std::array<Counter, kMaxSites> counters;
    /// xorshift32 state for the sampling gaps; owner-only.
    std::uint32_t rng = 0x9E3779B9u;
  };
  struct Sum {
    std::int64_t calls = 0;
    std::int64_t timed = 0;
    std::int64_t ticks = 0;
  };
  using Sums = std::array<Sum, kMaxSites>;
  class ThreadHandle;

  /// Owner-only increment: a relaxed load and store, no read-modify-write.
  static void Bump(std::atomic<std::int64_t>& a, std::int64_t by) {
    a.store(a.load(std::memory_order_relaxed) + by,
            std::memory_order_relaxed);
  }
  static Counter& CounterOf(const ProfSite& site) {
    ThreadBlock* block = t_block_;
    if (block == nullptr) [[unlikely]] block = AttachThread();
    return block->counters[site.slot];
  }
  /// Counts one call of `site`; returns its counter when this call is to be
  /// timed, nullptr otherwise.
  static Counter* Enter(const ProfSite& site) {
    Counter& c = CounterOf(site);
    const std::int64_t calls = c.calls.load(std::memory_order_relaxed) + 1;
    c.calls.store(calls, std::memory_order_relaxed);
    if (calls < c.next_timed) [[likely]] return nullptr;
    ScheduleNextTimed(&c, calls);
    return &c;
  }
  /// Adds one timed call lasting `ticks` to `c`.
  static void AddTimed(Counter* c, std::int64_t ticks) {
    Bump(c->timed, 1);
    Bump(c->ticks, ticks);
  }
  /// Sets `c->next_timed` after its call number `calls` was chosen.
  static void ScheduleNextTimed(Counter* c, std::int64_t calls);

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

/// RAII scope counting a call of a site and, when the call is sampled,
/// accumulating its wall time.
class ProfScope {
 public:
  explicit ProfScope(const ProfSite* site)
      : timed_(Profiler::Enter(*site)),
        t0_(timed_ != nullptr ? ProfTicks() : 0) {}
  ~ProfScope() {
    if (timed_ != nullptr) [[unlikely]] {
      Profiler::AddTimed(timed_, ProfTicks() - t0_);
    }
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler::Counter* timed_;  // Null unless this call is timed.
  std::int64_t t0_;
};

}  // namespace vod::obs

/// VODB_PROF_SCOPE("phase.name") — time the enclosing block into the global
/// profiler. Every build compiles the scopes in. The site lookup runs once
/// per call site (function-local static); an untimed entry costs one
/// uncontended store and a compare, a timed one (about one in kMeanGap) two
/// obs::ProfTicks() reads more, cheap enough for the simulator event loop
/// (it cannot perturb any simulated quantity — the profiler only ever reads
/// the host clock, never the simulation clock).
#define VODB_PROF_CONCAT_INNER(a, b) a##b
#define VODB_PROF_CONCAT(a, b) VODB_PROF_CONCAT_INNER(a, b)
#define VODB_PROF_SCOPE(name)                                          \
  static ::vod::obs::ProfSite* const VODB_PROF_CONCAT(                 \
      vodb_prof_site_, __LINE__) =                                     \
      ::vod::obs::Profiler::Global().Register(name);                   \
  ::vod::obs::ProfScope VODB_PROF_CONCAT(vodb_prof_scope_, __LINE__)(  \
      VODB_PROF_CONCAT(vodb_prof_site_, __LINE__))

#endif  // VODB_OBS_PROFILE_H_
