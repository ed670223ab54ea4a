#include "obs/trace_export.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <set>

#include "common/file.h"
#include "common/json.h"
#include "obs/span_tracker.h"

namespace vod::obs {

namespace {

/// Chrome tid of the per-run request-lifecycle track; disk tracks use the
/// disk id directly, so keep this clear of any realistic disk count.
constexpr int kLifecycleTid = 1000;

void AppendF(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

void AppendJsonlPayload(std::string& out, const TraceEvent& ev) {
  switch (ev.kind) {
    case TraceEventKind::kAdmit:
      AppendF(out, ",\"n\":%d", ev.n);
      break;
    case TraceEventKind::kAllocation:
      AppendF(out, ",\"n\":%d,\"k\":%d,\"buffer_bits\":%.1f,"
                   "\"usage_period\":%.6f",
              ev.n, ev.k, ToBits(ev.bits), ToSeconds(ev.usage_period));
      break;
    case TraceEventKind::kServiceStart:
    case TraceEventKind::kServiceEnd:
      AppendF(out, ",\"bits\":%.1f,\"seek\":%.6f,\"rotation\":%.6f,"
                   "\"transfer\":%.6f",
              ToBits(ev.bits), ToSeconds(ev.seek), ToSeconds(ev.rotation),
              ToSeconds(ev.transfer));
      break;
    case TraceEventKind::kReadFault:
      AppendF(out, ",\"seek\":%.6f,\"rotation\":%.6f", ToSeconds(ev.seek),
              ToSeconds(ev.rotation));
      break;
    default:
      break;
  }
}

}  // namespace

std::string ToJsonl(const std::vector<TraceRun>& runs) {
  std::string out;
  for (const TraceRun& run : runs) {
    for (const TraceEvent& ev : run.events) {
      AppendF(out, "{\"run\":%d,\"label\":", run.pid);
      AppendJsonString(&out, run.label);
      AppendF(out, ",\"time\":%.6f,\"kind\":\"", ToSeconds(ev.time));
      out += TraceEventKindName(ev.kind);
      AppendF(out, "\",\"disk\":%d,\"request\":%" PRIu64,
              static_cast<int>(ev.disk), ev.request);
      AppendJsonlPayload(out, ev);
      out += "}\n";
    }
  }
  return out;
}

std::string ToChromeTraceJson(const std::vector<TraceRun>& runs,
                              const TraceExportOptions& options) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  auto emit = [&out, &first](const std::string& ev_json) {
    out += first ? "" : ",\n";
    first = false;
    out += ev_json;
  };

  for (const TraceRun& run : runs) {
    // --- Metadata: process (run) and track names. -------------------------
    {
      std::string m;
      AppendF(m, "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
                 "\"args\":{\"name\":", run.pid);
      AppendJsonString(&m, run.label);
      AppendF(m, ",\"dropped_events\":%" PRIu64 "}}", run.dropped);
      emit(m);
    }
    std::set<int> disks;
    for (const TraceEvent& ev : run.events) {
      disks.insert(static_cast<int>(ev.disk));
    }
    for (int d : disks) {
      std::string m;
      AppendF(m, "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                 "\"name\":\"thread_name\",\"args\":{\"name\":\"disk %d\"}}",
              run.pid, d, d);
      emit(m);
    }
    {
      std::string m;
      AppendF(m, "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                 "\"name\":\"thread_name\","
                 "\"args\":{\"name\":\"requests\"}}",
              run.pid, kLifecycleTid);
      emit(m);
    }

    // --- Pass 1: count service starts per request (flow arrows need to ---
    // know which start is first / last).
    std::map<RequestId, int> service_starts;
    for (const TraceEvent& ev : run.events) {
      if (ev.kind == TraceEventKind::kServiceStart) {
        ++service_starts[ev.request];
      }
    }

    // --- Optional span derivation (per-stream lifecycle tracks). ----------
    // Spans are sorted by begin time and interleaved into the event walk
    // below so the exported stream stays ts-monotonic per pid.
    std::vector<Span> spans;
    if (options.spans && !run.events.empty()) {
      spans = SpanTracker::FromEvents(run.events, run.events.back().time);
      std::set<RequestId> named;
      for (const Span& span : spans) {
        if (!named.insert(span.request).second) continue;
        std::string m;
        AppendF(m, "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                   "\"name\":\"thread_name\","
                   "\"args\":{\"name\":\"stream %" PRIu64 "\"}}",
                run.pid, kSpanTrackTidBase + static_cast<int>(span.request),
                span.request);
        emit(m);
      }
    }
    std::size_t next_span = 0;
    auto flush_spans_until = [&](double ts_us) {
      while (next_span < spans.size() &&
             ToSeconds(spans[next_span].begin) * 1e6 <= ts_us) {
        const Span& span = spans[next_span++];
        std::string x;
        AppendF(x, "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"name\":\"",
                run.pid, kSpanTrackTidBase + static_cast<int>(span.request),
                ToSeconds(span.begin) * 1e6,
                ToSeconds(span.end - span.begin) * 1e6);
        x += SpanKindName(span.kind);
        AppendF(x, "\",\"cat\":\"span\",\"args\":{\"request\":%" PRIu64
                   ",\"disk\":%d}}",
                span.request, static_cast<int>(span.disk));
        emit(x);
      }
    };

    // --- Pass 2: events. --------------------------------------------------
    std::map<int, bool> disk_slice_open;     // B emitted, E pending.
    std::set<RequestId> async_open;          // "b" emitted, "e" pending.
    std::map<RequestId, int> flow_emitted;   // service starts seen so far.
    for (const TraceEvent& ev : run.events) {
      const double ts = ToSeconds(ev.time) * 1e6;  // Chrome ts is in microseconds.
      flush_spans_until(ts);
      const int disk = static_cast<int>(ev.disk);
      std::string e;
      switch (ev.kind) {
        case TraceEventKind::kServiceStart: {
          AppendF(e, "{\"ph\":\"B\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                     "\"name\":\"service\",\"cat\":\"disk\",\"args\":{"
                     "\"request\":%" PRIu64 ",\"bits\":%.1f,"
                     "\"seek_ms\":%.3f,\"rotation_ms\":%.3f,"
                     "\"transfer_ms\":%.3f}}",
                  run.pid, disk, ts, ev.request, ToBits(ev.bits),
                  ToMilliseconds(ev.seek), ToMilliseconds(ev.rotation),
                  ToMilliseconds(ev.transfer));
          emit(e);
          disk_slice_open[disk] = true;
          // Flow chain across this request's service slices.
          const int total = service_starts[ev.request];
          if (total >= 2) {
            const int seen = flow_emitted[ev.request]++;
            const char* ph = seen == 0            ? "s"
                             : seen + 1 == total  ? "f"
                                                  : "t";
            std::string f;
            AppendF(f, "{\"ph\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                       "\"name\":\"request\",\"cat\":\"request\","
                       "\"id\":\"f%d.%" PRIu64 "\"%s}",
                    ph, run.pid, disk, ts, run.pid, ev.request,
                    seen + 1 == total ? ",\"bp\":\"e\"" : "");
            emit(f);
          }
          break;
        }
        case TraceEventKind::kServiceEnd: {
          // An end whose begin fell off the ring buffer has no open slice;
          // drop it so B/E stay balanced.
          if (!disk_slice_open[disk]) break;
          disk_slice_open[disk] = false;
          AppendF(e, "{\"ph\":\"E\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f}",
                  run.pid, disk, ts);
          emit(e);
          break;
        }
        case TraceEventKind::kAdmit: {
          AppendF(e, "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                     "\"s\":\"t\",\"name\":\"admit\",\"cat\":\"lifecycle\","
                     "\"args\":{\"request\":%" PRIu64 ",\"n\":%d}}",
                  run.pid, kLifecycleTid, ts, ev.request, ev.n);
          emit(e);
          std::string b;
          AppendF(b, "{\"ph\":\"b\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                     "\"name\":\"request %" PRIu64 "\",\"cat\":\"request\","
                     "\"id\":\"r%d.%" PRIu64 "\"}",
                  run.pid, kLifecycleTid, ts, ev.request, run.pid,
                  ev.request);
          emit(b);
          async_open.insert(ev.request);
          break;
        }
        case TraceEventKind::kDeparture:
        case TraceEventKind::kCancel: {
          AppendF(e, "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                     "\"s\":\"t\",\"name\":\"%s\",\"cat\":\"lifecycle\","
                     "\"args\":{\"request\":%" PRIu64 "}}",
                  run.pid, kLifecycleTid, ts,
                  ev.kind == TraceEventKind::kCancel ? "cancel" : "departure",
                  ev.request);
          emit(e);
          if (async_open.erase(ev.request) > 0) {
            std::string c;
            AppendF(c, "{\"ph\":\"e\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                       "\"name\":\"request %" PRIu64 "\","
                       "\"cat\":\"request\",\"id\":\"r%d.%" PRIu64 "\"}",
                    run.pid, kLifecycleTid, ts, ev.request, run.pid,
                    ev.request);
            emit(c);
          }
          break;
        }
        case TraceEventKind::kAllocation: {
          AppendF(e, "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                     "\"s\":\"t\",\"name\":\"allocation\","
                     "\"cat\":\"lifecycle\",\"args\":{"
                     "\"request\":%" PRIu64 ",\"n\":%d,\"k\":%d,"
                     "\"buffer_mbit\":%.3f,\"usage_period_s\":%.3f}}",
                  run.pid, kLifecycleTid, ts, ev.request, ev.n, ev.k,
                  ToMegabits(ev.bits), ToSeconds(ev.usage_period));
          emit(e);
          break;
        }
        default: {
          // arrival / defer / reject_* / starvation: plain instants.
          AppendF(e, "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                     "\"s\":\"t\",\"name\":\"",
                  run.pid, kLifecycleTid, ts);
          e += TraceEventKindName(ev.kind);
          AppendF(e, "\",\"cat\":\"lifecycle\","
                     "\"args\":{\"request\":%" PRIu64 "}}",
                  ev.request);
          emit(e);
          break;
        }
      }
    }

    // Spans beginning at the final event's timestamp flush here.
    flush_spans_until(spans.empty() ? 0.0
                                    : ToSeconds(run.events.back().time) * 1e6);
  }
  out += "\n]}\n";
  return out;
}

Status WriteTraceFile(const std::string& path,
                      const std::vector<TraceRun>& runs,
                      const TraceExportOptions& options) {
  const bool jsonl =
      path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0;
  return WriteFile(path,
                   jsonl ? ToJsonl(runs) : ToChromeTraceJson(runs, options));
}

}  // namespace vod::obs
