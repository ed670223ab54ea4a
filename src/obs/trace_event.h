#ifndef VODB_OBS_TRACE_EVENT_H_
#define VODB_OBS_TRACE_EVENT_H_

#include <cstdint>
#include <string_view>

#include "common/types.h"
#include "common/units.h"

namespace vod::obs {

/// Structured per-event trace record. One flat struct (no variants, no heap)
/// so the tracer's ring buffer stays a contiguous allocation-free array;
/// which payload fields are meaningful depends on the kind (see each
/// enumerator). Every event carries the simulated time, the disk it
/// happened on, and the request it concerns.
enum class TraceEventKind : std::uint8_t {
  kArrival = 0,        ///< Request arrived (before any admission decision).
  kAdmit,              ///< Admitted; `n` = requests in service after admit.
  kDefer,              ///< Assumption-1 deferral (first deferral only).
  kRejectCapacity,     ///< Turned away: fully loaded disk (n == N).
  kRejectMemory,       ///< Turned away: shared memory budget exhausted.
  kRejectInvalid,      ///< Turned away: nothing to play at that position.
  kAllocation,         ///< Theorem-1 sizing: `n`, `k`, `bits`, usage_period.
  kServiceStart,       ///< Disk read begins: `bits` + seek/rotation/transfer.
  kServiceEnd,         ///< Disk read ends (same breakdown as the start).
  kStarvation,         ///< Buffer underflow edge (continuity violation).
  kDeparture,          ///< Viewing finished; the request left the system.
  kCancel,             ///< VCR cancellation (reposition = cancel + new).
  kReadFault,          ///< Injected read failure: seek/rotation spent, no data.
  kHiccup,             ///< Retry budget exhausted; the service round was lost.
  kDegraded,           ///< Stream entered Degraded (missed/failed round).
  kRecovered,          ///< Degraded stream refilled; back to Normal.
};

inline constexpr int kTraceEventKindCount = 16;

/// Stable lowercase token for exporters ("service_start", "admit", ...).
std::string_view TraceEventKindName(TraceEventKind kind);

struct TraceEvent {
  Seconds time;  ///< Simulated time, not host time.
  TraceEventKind kind = TraceEventKind::kArrival;
  std::int32_t disk = 0;
  RequestId request = kInvalidRequestId;

  // Payload; meaning depends on kind (0 where not applicable).
  std::int32_t n = 0;  ///< Admission kinds, kAllocation: requests in service.
  std::int32_t k = 0;        ///< kAllocation: estimated additional requests.
  Bits bits;             ///< kAllocation: buffer size; kService*: read size.
  Seconds usage_period;  ///< kAllocation: Eq. 8 usage period.
  Seconds seek;          ///< kService*: seek component.
  Seconds rotation;      ///< kService*: rotational component.
  Seconds transfer;      ///< kService*: transfer component.
};

}  // namespace vod::obs

#endif  // VODB_OBS_TRACE_EVENT_H_
