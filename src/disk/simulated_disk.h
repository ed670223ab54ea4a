#ifndef VODB_DISK_SIMULATED_DISK_H_
#define VODB_DISK_SIMULATED_DISK_H_

#include "common/status.h"
#include "common/units.h"
#include "disk/disk_profile.h"

namespace vod::disk {

/// Breakdown of one disk service, returned for metrics.
struct ServiceTiming {
  Seconds seek;
  Seconds rotation;
  Seconds transfer;
  Seconds total() const { return seek + rotation + transfer; }
};

/// A single mechanical disk: tracks the arm position and computes the time
/// to service a read. The disk owns no randomness — the caller supplies the
/// rotational phase (a fraction of a revolution in [0,1]) so simulations can
/// be seeded deterministically and analyses can force the worst case (1.0).
class SimulatedDisk {
 public:
  explicit SimulatedDisk(const DiskProfile& profile);

  /// Reads `bits` starting at `cylinder`. Advances the head to the cylinder
  /// where the read ends (the read may span cylinders). `rotation_fraction`
  /// in [0,1] scales the maximum rotational latency θ.
  Result<ServiceTiming> Read(double cylinder, Bits bits,
                             double rotation_fraction);

  /// A read attempt that fails after the mechanical positioning phase
  /// (transient EIO from fault injection): the arm seeks and the platter
  /// rotates, but no data transfers and the head parks at the target
  /// cylinder. Costs seek + rotation; not counted in read_count().
  Result<ServiceTiming> FailedRead(double cylinder, double rotation_fraction);

  /// Worst-case duration of a read of `bits` whose seek spans at most
  /// `span_cylinders`: γ(span) + θ + bits/TR. Used for just-in-time
  /// scheduling lookahead.
  Seconds WorstCaseReadTime(double span_cylinders, Bits bits) const;

  double head_cylinder() const { return head_; }
  const DiskProfile& profile() const { return profile_; }

  /// Cumulative counters for utilization accounting.
  Seconds total_seek_time() const { return total_seek_; }
  Seconds total_rotation_time() const { return total_rotation_; }
  Seconds total_transfer_time() const { return total_transfer_; }
  long read_count() const { return reads_; }

 private:
  DiskProfile profile_;
  double head_ = 0.0;
  Seconds total_seek_;
  Seconds total_rotation_;
  Seconds total_transfer_;
  long reads_ = 0;
};

}  // namespace vod::disk

#endif  // VODB_DISK_SIMULATED_DISK_H_
