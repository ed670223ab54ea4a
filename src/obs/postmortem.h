#ifndef VODB_OBS_POSTMORTEM_H_
#define VODB_OBS_POSTMORTEM_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "common/units.h"
#include "obs/event_tracer.h"

namespace vod::obs {

/// Why a postmortem dump was taken. The token (PostmortemReasonName) is
/// embedded in both the filename and the JSON, so a directory of dumps is
/// triageable from `ls` alone.
enum class PostmortemReason : std::uint8_t {
  kInvariantViolation = 0,  ///< InvariantAuditor capture-then-fail hook.
  kHiccupThreshold,         ///< Fault-layer degradation crossed a threshold.
  kExplicit,                ///< Capture() called directly.
};

/// "invariant", "hiccup", "explicit".
std::string_view PostmortemReasonName(PostmortemReason reason);

/// Flight-data-recorder sink: on trigger, atomically writes one JSON file
/// (`postmortem_<run>_<reason>.json`) containing
///   - the tail of the attached EventTracer ring (the run's last moments),
///   - the counters of the run that captured it, as they stood then,
///   - the run configuration handed in by the harness (grid coords, seed,
///     fault spec, git SHA) as a JsonValue,
///   - the trigger reason, detail string, and simulated time.
/// Everything in a dump describes its own run: the process-wide profiler
/// is left out, since in a parallel sweep it counts every run's scopes.
/// Schema id: "vodb-postmortem-v1" (validated by scripts/validate_trace.py).
///
/// The sink is a pure observer: it only ever *reads* simulator state (via
/// the tracer snapshot) and fires on paths that are already exceptional, so
/// attaching one cannot change any simulated quantity.
///
/// Writes are atomic per file (WriteFile to a tmp path, then rename), so a
/// dump directory never holds a torn JSON even when the process dies
/// mid-capture.
class PostmortemSink {
 public:
  struct Options {
    std::string dir = ".";          ///< Output directory (must exist).
    std::string run_label = "run";  ///< Sanitized into the filename.
    std::size_t ring_tail = 512;    ///< Max ring events embedded in a dump.
    /// Degradation thresholds for NoteDegradation; 0 disables a trigger.
    std::uint64_t hiccup_threshold = 0;
    std::uint64_t degraded_threshold = 0;
  };

  PostmortemSink() : PostmortemSink(Options()) {}
  explicit PostmortemSink(const Options& options);

  PostmortemSink(const PostmortemSink&) = delete;
  PostmortemSink& operator=(const PostmortemSink&) = delete;

  /// Ring source for the dump's event tail (optional; the dump records an
  /// empty tail when no tracer is attached or tracing is compiled out).
  void set_tracer(const EventTracer* tracer) { tracer_ = tracer; }

  /// Run configuration embedded verbatim under "config". The harness fills
  /// grid coordinates, seed, fault spec, and bench_kit::GitSha() here — the
  /// sink itself stays independent of the heavier report machinery.
  void set_config(JsonValue config) { config_ = std::move(config); }

  /// Takes a dump now, embedding `counters` (the capturing run's, as
  /// {"sim.<name>": value}) under "metrics". Returns the path written.
  /// Repeated captures get distinct "_2", "_3"... filename suffixes instead
  /// of overwriting.
  Result<std::string> Capture(
      PostmortemReason reason, const std::string& detail, Seconds sim_time,
      JsonValue counters = JsonValue::Object());

  /// Threshold trigger, called by the simulator at fault-layer degradation
  /// counters' increment sites. Captures at most once per sink; a zero
  /// threshold disables that comparison. `counters` is called only when the
  /// dump is taken (nullptr: none).
  void NoteDegradation(
      std::uint64_t hiccups, std::uint64_t degraded_entries, Seconds now,
      const std::function<JsonValue()>& counters);

  bool triggered() const { return !paths_.empty(); }
  const std::vector<std::string>& paths() const { return paths_; }
  const Options& options() const { return options_; }

 private:
  Options options_;
  const EventTracer* tracer_ = nullptr;
  JsonValue config_;
  bool degradation_captured_ = false;
  std::vector<std::string> paths_;
};

}  // namespace vod::obs

#endif  // VODB_OBS_POSTMORTEM_H_
