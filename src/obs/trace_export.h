#ifndef VODB_OBS_TRACE_EXPORT_H_
#define VODB_OBS_TRACE_EXPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace_event.h"

namespace vod::obs {

/// One traced run for export: a label ("rr/dynamic tlog=40 seed=1"), the
/// Chrome process id it maps to (one process per run; grid sweeps use the
/// run's grid index), its time-ordered events (EventTracer::Snapshot()), and
/// how many earlier events the ring overwrote before that snapshot
/// (EventTracer::dropped()): nonzero means `events` is only the run's tail.
struct TraceRun {
  std::string label;
  int pid = 0;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
};

/// Both exporters stream text instead of building a JsonValue tree: a run
/// keeps up to 65,536 events, and a tree of them would cost far more memory
/// than the text. Labels are quoted through AppendJsonString
/// (common/json.h), the escaper JsonValue::Dump uses.

/// Appends `ev` as the members of a JSON object, without braces:
///   "time":T,"kind":K,"disk":D,"request":R <payload>
/// Time is simulated seconds; the payload is a key per field of the kind's
/// kTraceKinds row, in the field's unit. A JSONL line is these after "run"
/// and "label"; a postmortem tail entry is exactly these. Chrome event
/// args carry the same payload.
void AppendTraceEventMembers(std::string* out, const TraceEvent& ev);

/// JSONL export: one JSON object per line —
///   {"run":0,"label":...,"time":...,"kind":"service_start","disk":0,
///    "request":17 <payload>}
/// Events keep tracer order (time-monotonic per run), so consumers can
/// stream without sorting.
std::string ToJsonl(const std::vector<TraceRun>& runs);

/// Exporter knobs beyond the default layout.
struct TraceExportOptions {
  /// Adds per-stream span tracks: lifecycle spans derived by SpanTracker
  /// (admission_wait / service / degraded / retry_burst) exported as "X"
  /// complete events, one Chrome thread per stream at
  /// tid = kSpanTrackTidBase + request id, named "stream <id>".
  bool spans = false;
};

/// Chrome tid of the first per-stream span track; stream `r` renders at
/// tid kSpanTrackTidBase + r (validate_trace.py checks the offset).
inline constexpr int kSpanTrackTidBase = 2000;

/// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
/// Layout per run (= Chrome process):
///   - a process_name metadata event whose args carry the label and
///     "dropped_events" (TraceRun::dropped),
///   - one named track per disk carrying B/E "service" slices whose args
///     are the request and service_start's payload,
///   - a "requests" track with one instant per event of every other kind,
///     named by the kind, whose args are the request and the payload,
///   - an async "request r<id>" span from admission to departure,
///   - flow arrows (s/t/f) chaining each request's service slices,
///   - with options.spans, per-stream "X" span tracks (cat "span").
/// Timestamps are simulated microseconds. Orphan events at the ring
/// buffer's wrap point (an end whose begin was overwritten) are dropped so
/// every emitted B has a matching E.
std::string ToChromeTraceJson(const std::vector<TraceRun>& runs,
                              const TraceExportOptions& options = {});

/// Writes `runs` to `path`; picks JSONL when the path ends in ".jsonl",
/// Chrome JSON otherwise (span tracks only apply to the Chrome format).
Status WriteTraceFile(const std::string& path,
                      const std::vector<TraceRun>& runs,
                      const TraceExportOptions& options = {});

}  // namespace vod::obs

#endif  // VODB_OBS_TRACE_EXPORT_H_
