#include "disk/simulated_disk.h"

#include <algorithm>
#include <cmath>

#include "obs/profile.h"

namespace vod::disk {

SimulatedDisk::SimulatedDisk(const DiskProfile& profile) : profile_(profile) {}

Result<ServiceTiming> SimulatedDisk::Read(double cylinder, Bits bits,
                                          double rotation_fraction) {
  VODB_PROF_SCOPE("disk.service");
  if (bits < Bits(0)) return Status::InvalidArgument("negative read size");
  if (cylinder < 0 || cylinder >= static_cast<double>(profile_.cylinders)) {
    return Status::OutOfRange("cylinder outside disk");
  }
  if (rotation_fraction < 0.0 || rotation_fraction > 1.0) {
    return Status::InvalidArgument("rotation fraction outside [0,1]");
  }
  ServiceTiming t;
  t.seek = profile_.seek.SeekTime(std::abs(cylinder - head_));
  t.rotation = rotation_fraction * profile_.max_rotational_latency;
  t.transfer = profile_.TransferTime(bits);

  const double end_cylinder = std::min(
      cylinder + bits / profile_.BitsPerCylinder(),
      static_cast<double>(profile_.cylinders) - 1.0);
  head_ = end_cylinder;

  total_seek_ += t.seek;
  total_rotation_ += t.rotation;
  total_transfer_ += t.transfer;
  ++reads_;
  return t;
}

Result<ServiceTiming> SimulatedDisk::FailedRead(double cylinder,
                                                double rotation_fraction) {
  if (cylinder < 0 || cylinder >= static_cast<double>(profile_.cylinders)) {
    return Status::OutOfRange("cylinder outside disk");
  }
  if (rotation_fraction < 0.0 || rotation_fraction > 1.0) {
    return Status::InvalidArgument("rotation fraction outside [0,1]");
  }
  ServiceTiming t;
  t.seek = profile_.seek.SeekTime(std::abs(cylinder - head_));
  t.rotation = rotation_fraction * profile_.max_rotational_latency;
  head_ = cylinder;
  total_seek_ += t.seek;
  total_rotation_ += t.rotation;
  return t;
}

Seconds SimulatedDisk::WorstCaseReadTime(double span_cylinders,
                                         Bits bits) const {
  return profile_.WorstLatency(span_cylinders) + profile_.TransferTime(bits);
}

}  // namespace vod::disk
