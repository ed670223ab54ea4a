#ifndef VODB_FAULT_INJECTOR_H_
#define VODB_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "fault/fault_spec.h"
#include "sim/rng.h"

namespace vod::fault {

/// What the injector decided about one disk read. The zero-fault value
/// (fail = false, factor 1, extra 0) leaves the read bit-identical to an
/// uninjected run — multiplying a service time by 1.0 and adding 0.0 are
/// exact IEEE identities, which is what makes the observer-effect guarantee
/// (golden CSVs unchanged under an empty spec) hold exactly.
struct ReadFault {
  bool fail = false;           ///< Transient EIO: no data transfers.
  int max_retries = 0;         ///< kEio retry budget for the failed round.
  Seconds retry_backoff;   ///< Base backoff before the re-issued read.
  /// Dimensionless multiplier on the read's service time.
  double latency_factor = 1.0;  // vodb-lint: allow(raw-double-unit)
  Seconds extra_latency;   ///< kLatency additive delay.
};

/// One arrival a kBurst clause injects into the workload.
struct BurstArrival {
  Seconds time;
  int video = 0;
  Seconds viewing_time;
  int disk = 0;
};

/// Deterministic, seed-driven fault source. One instance serves a whole run
/// (all disks of a MultiDiskSimulator share it); every probabilistic
/// decision comes from an internal sim::Rng seeded once, so a chaos run is
/// replayable from (spec, seed) alone.
///
/// Determinism contract: OnRead consumes randomness only when a
/// probabilistic clause (p < 1) actually covers the read's (disk, time).
/// Deterministic clauses (p == 1) and out-of-window reads consume nothing,
/// so adding a clause for a window cannot perturb decisions outside it, and
/// an empty spec consumes no randomness at all. The window/capacity queries
/// (InOutage, CapacityScale, Bursts) are pure functions of (spec, seed).
class Injector {
 public:
  Injector(FaultSpec spec, std::uint64_t seed);

  /// Whether any clause exists. An inactive injector is a strict no-op.
  [[nodiscard]] bool active() const { return !spec_.empty(); }

  /// Consulted by the simulator as each disk read is issued. May draw from
  /// the injector's RNG (see the determinism contract above). Effects of
  /// multiple matching latency clauses compose (factors multiply, extras
  /// add); the first matching eio clause decides failure.
  ReadFault OnRead(int disk, Seconds now);

  /// Whether `disk` is inside an outage window at `now`. When true and the
  /// window is finite, `*resume_at` (if non-null) gets the earliest time the
  /// disk is back (the max end over covering windows).
  [[nodiscard]] bool InOutage(int disk, Seconds now,
                              Seconds* resume_at = nullptr) const;

  /// Product of the scale factors of all memsqueeze windows open at `now`
  /// (1.0 outside every window).
  [[nodiscard]] double CapacityScale(Seconds now) const;

  /// Expands every burst clause into concrete arrivals (times drawn from a
  /// clause-indexed RNG stream derived from the injector seed — calling this
  /// never disturbs OnRead's stream). Sorted by time.
  [[nodiscard]] std::vector<BurstArrival> Bursts() const;

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Test/diagnostic counters.
  [[nodiscard]] long reads_seen() const { return reads_seen_; }
  [[nodiscard]] long read_failures_injected() const {
    return read_failures_injected_;
  }

 private:
  FaultSpec spec_;
  std::uint64_t seed_;
  sim::Rng rng_;
  long reads_seen_ = 0;
  long read_failures_injected_ = 0;
};

}  // namespace vod::fault

#endif  // VODB_FAULT_INJECTOR_H_
