#include "obs/timeseries_recorder.h"

#include <cmath>
#include <cstdio>

#include "common/file.h"

namespace vod::obs {

TimeseriesRecorder::TimeseriesRecorder(const Options& options)
    : bucket_(options.bucket.value() > 0.0 ? options.bucket : Seconds(60.0)),
      next_due_(Seconds(0.0)),
      last_time_(Seconds(0.0)),
      last_busy_(Seconds(0.0)) {}

void TimeseriesRecorder::Record(Seconds now, const TimeseriesSample& sample) {
  if (!Due(now)) return;
  Point p;
  p.time = now;
  p.reserved = sample.reserved;
  p.buffered = sample.buffered;
  p.queue_depth = sample.queue_depth;
  p.active = sample.active;
  p.degraded = sample.degraded;
  const Seconds interval = now - last_time_;
  if (interval.value() > 0.0) {
    const double frac = (sample.disk_busy - last_busy_) / interval;
    // Clamp: cumulative busy time can momentarily run ahead of the clock
    // when a service completion lands exactly on the sample boundary.
    p.busy_fraction = frac < 0.0 ? 0.0 : (frac > 1.0 ? 1.0 : frac);
  }
  points_.push_back(p);
  last_time_ = now;
  last_busy_ = sample.disk_busy;
  // Next bucket boundary strictly after `now`.
  next_due_ = Seconds((std::floor(now / bucket_) + 1.0) * bucket_.value());
}

void TimeseriesRecorder::Clear() {
  points_.clear();
  next_due_ = Seconds(0.0);
  last_time_ = Seconds(0.0);
  last_busy_ = Seconds(0.0);
}

std::string TimeseriesCsv(const std::vector<TimeseriesRun>& runs) {
  std::string out =
      "run,label,disk,time_s,reserved_mbit,buffered_mbit,queue_depth,"
      "active,degraded,busy_fraction\n";
  char buf[256];
  for (const TimeseriesRun& run : runs) {
    if (run.recorder == nullptr) continue;
    for (const TimeseriesRecorder::Point& p : run.recorder->points()) {
      std::snprintf(buf, sizeof(buf), "%d,%s,%d,%.3f,%.3f,%.3f,%d,%d,%d,%.6f\n",
                    run.run, run.label.c_str(), run.disk, ToSeconds(p.time),
                    ToMegabits(p.reserved), ToMegabits(p.buffered),
                    p.queue_depth, p.active, p.degraded, p.busy_fraction);
      out += buf;
    }
  }
  return out;
}

Status WriteTimeseriesCsv(const std::string& path,
                          const std::vector<TimeseriesRun>& runs) {
  return WriteFile(path, TimeseriesCsv(runs));
}

}  // namespace vod::obs
