#ifndef VODB_DISK_SEEK_MODEL_H_
#define VODB_DISK_SEEK_MODEL_H_

#include "common/status.h"
#include "common/units.h"

namespace vod::disk {

/// Two-piece disk seek-time curve from Ruemmler & Wilkes [12], as used by
/// the paper (Eq. 7):
///
///   γ(x) = µ1 + ν1·√x   for 0 < x < boundary
///   γ(x) = µ2 + ν2·x    for x ≥ boundary
///   γ(0) = 0            (no head movement, no seek)
///
/// µ1 is the arm's fixed overhead (speedup/slowdown/settle), µ1+ν1 the
/// minimum seek time; µ2/ν2 are chosen so the curve is (approximately)
/// continuous at the boundary. `x` may be fractional: the analysis evaluates
/// γ(Cyln/n) for the Sweep method's per-buffer worst case.
class SeekModel {
 public:
  /// All times in seconds; boundary in cylinders (400 for the paper's model).
  SeekModel(Seconds mu1, Seconds nu1, Seconds mu2, Seconds nu2,
            double boundary_cylinders);

  /// γ(x): seek time over a (possibly fractional) distance of x cylinders.
  /// Negative x is invalid; callers pass |from - to|.
  Seconds SeekTime(double cylinders) const;

  /// Verifies the model is physically sensible (non-negative coefficients,
  /// monotone non-decreasing across the boundary).
  Status Validate() const;

 private:
  Seconds mu1_;
  Seconds nu1_;
  Seconds mu2_;
  Seconds nu2_;
  double boundary_;
};

}  // namespace vod::disk

#endif  // VODB_DISK_SEEK_MODEL_H_
