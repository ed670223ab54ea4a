#include "obs/postmortem.h"

#include <cctype>
#include <cstdio>
#include <utility>

#include "common/check.h"
#include "common/file.h"
#include "obs/trace_export.h"

namespace vod::obs {

namespace {

/// Filename-safe projection of a run label: [A-Za-z0-9._-] pass through,
/// everything else becomes '-' ("rr/dynamic/t40" → "rr-dynamic-t40").
std::string Sanitize(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (char ch : label) {
    const unsigned char u = static_cast<unsigned char>(ch);
    out += (std::isalnum(u) != 0 || ch == '.' || ch == '_' || ch == '-')
               ? ch
               : '-';
  }
  return out.empty() ? std::string("run") : out;
}

}  // namespace

std::string_view PostmortemReasonName(PostmortemReason reason) {
  switch (reason) {
    case PostmortemReason::kInvariantViolation:
      return "invariant";
    case PostmortemReason::kHiccupThreshold:
      return "hiccup";
    case PostmortemReason::kExplicit:
      return "explicit";
  }
  return "unknown";
}

PostmortemSink::PostmortemSink(const Options& options) : options_(options) {
  // Move-assign a temporary: GCC 12 -O2 misfires -Wrestrict on the
  // const char* assignment path here.
  if (options_.dir.empty()) options_.dir = std::string(".");
  if (options_.ring_tail == 0) options_.ring_tail = 1;
}

Result<std::string> PostmortemSink::Capture(PostmortemReason reason,
                                            const std::string& detail,
                                            Seconds sim_time,
                                            JsonValue counters) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::Str("vodb-postmortem-v2"));
  doc.Set("reason",
          JsonValue::Str(std::string(PostmortemReasonName(reason))));
  doc.Set("detail", JsonValue::Str(detail));
  doc.Set("sim_time_s", JsonValue::Number(ToSeconds(sim_time)));
  doc.Set("run_label", JsonValue::Str(options_.run_label));
  doc.Set("config", config_);

  JsonValue ring = JsonValue::Object();
  JsonValue tail = JsonValue::Array();
  std::uint64_t total = 0, dropped = 0;
  if (tracer_ != nullptr) {
    const std::vector<TraceEvent> events = tracer_->Snapshot();
    total = tracer_->total_emitted();
    dropped = tracer_->dropped();
    const std::size_t skip = events.size() > options_.ring_tail
                                 ? events.size() - options_.ring_tail
                                 : 0;
    // Each entry is the event's JSONL object without "run" and "label".
    for (std::size_t i = skip; i < events.size(); ++i) {
      std::string text = "{";
      AppendTraceEventMembers(&text, events[i]);
      text += '}';
      Result<JsonValue> entry = JsonValue::Parse(text);
      VOD_CHECK(entry.ok());
      tail.Append(std::move(entry).value());
    }
    dropped += skip;  // Tail-capping drops count as lost context too.
  }
  ring.Set("total", JsonValue::Number(static_cast<double>(total)));
  ring.Set("dropped", JsonValue::Number(static_cast<double>(dropped)));
  ring.Set("tail", std::move(tail));
  doc.Set("ring", std::move(ring));

  JsonValue metrics = JsonValue::Object();
  metrics.Set("counters", std::move(counters));
  doc.Set("metrics", std::move(metrics));

  // Distinct filename per capture: _2, _3... for repeats of a reason.
  std::string base = options_.dir + "/postmortem_" +
                     Sanitize(options_.run_label) + "_" +
                     std::string(PostmortemReasonName(reason));
  int repeat = 1;
  for (const std::string& p : paths_) {
    if (p.compare(0, base.size(), base) == 0) ++repeat;
  }
  std::string path = base;
  if (repeat > 1) {
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "_%d", repeat);
    path += suffix;
  }
  path += ".json";

  const std::string tmp = path + ".tmp";
  Status st = WriteFile(tmp, doc.Dump());
  if (st.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    st = Status::Internal("cannot rename postmortem file to: " + path);
  }
  if (!st.ok()) {
    std::remove(tmp.c_str());
    if (write_status_.ok()) write_status_ = st;
    return st;
  }
  paths_.push_back(path);
  return path;
}

void PostmortemSink::NoteDegradation(
    std::uint64_t hiccups, std::uint64_t degraded_entries, Seconds now,
    const std::function<JsonValue()>& counters) {
  if (degradation_captured_) return;
  const bool hiccup_hit =
      options_.hiccup_threshold > 0 && hiccups >= options_.hiccup_threshold;
  const bool degraded_hit = options_.degraded_threshold > 0 &&
                            degraded_entries >= options_.degraded_threshold;
  if (!hiccup_hit && !degraded_hit) return;
  degradation_captured_ = true;
  char detail[96];
  std::snprintf(detail, sizeof(detail),
                "hiccups=%llu degraded_entries=%llu",
                static_cast<unsigned long long>(hiccups),
                static_cast<unsigned long long>(degraded_entries));
  // A failed write is kept in write_status().
  (void)Capture(PostmortemReason::kHiccupThreshold, detail, now,
                counters ? counters() : JsonValue::Object());
}

}  // namespace vod::obs
