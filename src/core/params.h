#ifndef VODB_CORE_PARAMS_H_
#define VODB_CORE_PARAMS_H_

#include "common/status.h"
#include "common/units.h"
#include "disk/disk_profile.h"

namespace vod::core {

/// The three buffer scheduling methods the paper evaluates (Sec. 2.2).
/// The names follow the improved variants actually applied to the dynamic
/// scheme: BubbleUp for Round-Robin, Sweep*, and the extended GSS*.
enum class ScheduleMethod {
  kRoundRobin,  ///< BubbleUp over the Fixed-Stretch scheme [1].
  kSweep,       ///< Sweep* [5].
  kGss,         ///< Extended GSS* (groups via BubbleUp, in-group Sweep*) [8].
};

std::string_view ScheduleMethodName(ScheduleMethod m);

/// The parameters every buffer-size / latency / memory formula depends on.
/// This is Table 1 in struct form, specialized to one scheduling method via
/// the worst per-buffer disk latency DL.
struct AllocParams {
  BitsPerSecond tr;  ///< TR: disk transfer rate.
  BitsPerSecond cr;  ///< CR: per-request consumption rate.
  Seconds dl;        ///< DL: worst per-buffer disk latency for the method.
  int n_max = 0;         ///< N: max concurrent requests (Eq. 1).
  int alpha = 1;         ///< α: estimation headroom (Assumption 2).

  Status Validate() const;

  friend bool operator==(const AllocParams&, const AllocParams&) = default;
};

/// N from Eq. (1): the largest integer strictly below TR/CR.
int MaxConcurrentRequests(BitsPerSecond tr, BitsPerSecond cr);

/// Worst per-buffer disk latency DL for `method` (Sec. 2.2):
///   Round-Robin: γ(Cyln) + θ
///   Sweep:       γ(Cyln/n) + θ   — depends on the in-service count n
///   GSS:         γ(Cyln/g) + θ   — depends on the group size g
/// `n_or_g` is ignored for Round-Robin. For the *static* scheme and for
/// sizing worst cases, pass n = N (resp. the configured g).
Seconds WorstDiskLatency(const disk::DiskProfile& profile,
                         ScheduleMethod method, int n_or_g);

/// Builds AllocParams for `method` from a disk profile and consumption rate.
/// `n_or_g`: Sweep's n (use N for the conservative fully-loaded latency the
/// schemes size against) or GSS's group size g.
Result<AllocParams> MakeAllocParams(const disk::DiskProfile& profile,
                                    BitsPerSecond cr, ScheduleMethod method,
                                    int n_or_g, int alpha);

}  // namespace vod::core

#endif  // VODB_CORE_PARAMS_H_
