#ifndef VODB_OBS_TRACE_EVENT_H_
#define VODB_OBS_TRACE_EVENT_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

#include "common/types.h"
#include "common/units.h"

namespace vod::obs {

/// What a trace event records. The kinds are declared once, in kTraceKinds
/// below: each row gives the kind's exported name and the payload fields it
/// carries.
enum class TraceEventKind : std::uint8_t {
  kArrival = 0,        ///< Request arrived (before any admission decision).
  kAdmit,              ///< Admitted; `n` = requests in service after admit.
  kDefer,              ///< Assumption-1 deferral (first deferral only).
  kRejectCapacity,     ///< Turned away: fully loaded disk (n == N).
  kRejectMemory,       ///< Turned away: shared memory budget exhausted.
  kRejectInvalid,      ///< Turned away: nothing to play at that position.
  kAllocation,         ///< Theorem-1 sizing of the buffer about to be read.
  kServiceStart,       ///< Disk read begins.
  kServiceEnd,         ///< Disk read ends (same breakdown as the start).
  kStarvation,         ///< Buffer underflow edge (continuity violation).
  kDeparture,          ///< Viewing finished; the request left the system.
  kCancel,             ///< VCR cancellation (reposition = cancel + new).
  kReadFault,          ///< Injected read failure: seek/rotation spent, no data.
  kHiccup,             ///< Retry budget exhausted; the service round was lost.
  kDegraded,           ///< Stream entered Degraded (missed/failed round).
  kRecovered,          ///< Degraded stream refilled; back to Normal.
};

inline constexpr int kTraceEventKindCount =
    static_cast<int>(TraceEventKind::kRecovered) + 1;

/// Structured per-event trace record. One flat struct (no variants, no heap)
/// so the tracer's ring buffer stays a contiguous allocation-free array.
/// Every event carries the simulated time, the disk it happened on, and the
/// request it concerns; the payload fields its kind's kTraceKinds row names
/// are set, the others stay 0.
struct TraceEvent {
  Seconds time;  ///< Simulated time, not host time.
  TraceEventKind kind = TraceEventKind::kArrival;
  std::int32_t disk = 0;
  RequestId request = kInvalidRequestId;

  std::int32_t n = 0;    ///< Requests in service.
  std::int32_t k = 0;    ///< Estimated additional requests (k_log).
  Bits bits;             ///< Buffer size (allocation) or read size (service).
  Seconds usage_period;  ///< Eq. 8 usage period.
  Seconds seek;          ///< Seek component of a read.
  Seconds rotation;      ///< Rotational component of a read.
  Seconds transfer;      ///< Transfer component of a read.
};

/// The unit a payload field is exported in; it fixes the number format.
enum class TraceUnit : std::uint8_t { kCount, kBits, kSeconds };

/// Payload fields, one bit each: bit i is row i of kTraceFields.
enum TraceField : unsigned {
  kFieldN = 1u << 0,
  kFieldK = 1u << 1,
  kFieldBits = 1u << 2,
  kFieldUsagePeriod = 1u << 3,
  kFieldSeek = 1u << 4,
  kFieldRotation = 1u << 5,
  kFieldTransfer = 1u << 6,
};

/// One payload field: its bit, its key (the same in JSONL lines, Chrome
/// event args and postmortem tails), its unit, and its reading in that unit.
struct TraceFieldRow {
  TraceField field;
  std::string_view name;
  TraceUnit unit;
  double (*read)(const TraceEvent&);
};

/// Every payload field, in export order. scripts/validate_trace.py reads
/// this table and kTraceKinds from this header.
inline constexpr TraceFieldRow kTraceFields[] = {
    {kFieldN, "n", TraceUnit::kCount,
     [](const TraceEvent& e) { return static_cast<double>(e.n); }},
    {kFieldK, "k", TraceUnit::kCount,
     [](const TraceEvent& e) { return static_cast<double>(e.k); }},
    {kFieldBits, "bits", TraceUnit::kBits,
     [](const TraceEvent& e) { return ToBits(e.bits); }},
    {kFieldUsagePeriod, "usage_period", TraceUnit::kSeconds,
     [](const TraceEvent& e) { return ToSeconds(e.usage_period); }},
    {kFieldSeek, "seek", TraceUnit::kSeconds,
     [](const TraceEvent& e) { return ToSeconds(e.seek); }},
    {kFieldRotation, "rotation", TraceUnit::kSeconds,
     [](const TraceEvent& e) { return ToSeconds(e.rotation); }},
    {kFieldTransfer, "transfer", TraceUnit::kSeconds,
     [](const TraceEvent& e) { return ToSeconds(e.transfer); }},
};

/// One kind: its exported name and the payload fields (TraceField bits) it
/// carries.
struct TraceKindRow {
  TraceEventKind kind;
  std::string_view name;
  unsigned fields;
};

/// Every kind, in enum order. DESIGN.md's vocabulary table gives the paper
/// quantity each kind witnesses and the counter it mirrors.
inline constexpr TraceKindRow kTraceKinds[] = {
    {TraceEventKind::kArrival, "arrival", 0},
    {TraceEventKind::kAdmit, "admit", kFieldN},
    {TraceEventKind::kDefer, "defer", kFieldN},
    {TraceEventKind::kRejectCapacity, "reject_capacity", kFieldN},
    {TraceEventKind::kRejectMemory, "reject_memory", kFieldN},
    {TraceEventKind::kRejectInvalid, "reject_invalid", 0},
    {TraceEventKind::kAllocation, "allocation",
     kFieldN | kFieldK | kFieldBits | kFieldUsagePeriod},
    {TraceEventKind::kServiceStart, "service_start",
     kFieldBits | kFieldSeek | kFieldRotation | kFieldTransfer},
    {TraceEventKind::kServiceEnd, "service_end",
     kFieldBits | kFieldSeek | kFieldRotation | kFieldTransfer},
    {TraceEventKind::kStarvation, "starvation", 0},
    {TraceEventKind::kDeparture, "departure", 0},
    {TraceEventKind::kCancel, "cancel", 0},
    {TraceEventKind::kReadFault, "read_fault", kFieldSeek | kFieldRotation},
    {TraceEventKind::kHiccup, "hiccup", 0},
    {TraceEventKind::kDegraded, "degraded", 0},
    {TraceEventKind::kRecovered, "recovered", 0},
};

/// True when each table holds one row per enumerator, in order, and no
/// name is used twice.
constexpr bool TraceTablesAreWellFormed() {
  bool ok = std::size(kTraceKinds) == std::size_t{kTraceEventKindCount};
  for (std::size_t i = 0; i < std::size(kTraceKinds); ++i) {
    ok = ok && kTraceKinds[i].kind == static_cast<TraceEventKind>(i);
    for (std::size_t j = 0; j < i; ++j) {
      ok = ok && kTraceKinds[i].name != kTraceKinds[j].name;
    }
  }
  for (std::size_t i = 0; i < std::size(kTraceFields); ++i) {
    ok = ok && kTraceFields[i].field == 1u << i;
    for (std::size_t j = 0; j < i; ++j) {
      ok = ok && kTraceFields[i].name != kTraceFields[j].name;
    }
  }
  return ok;
}
static_assert(TraceTablesAreWellFormed(),
              "kTraceKinds needs one row per TraceEventKind and kTraceFields "
              "one per TraceField, each in order, with no name used twice");

/// Stable lowercase token for exporters ("service_start", "admit", ...).
constexpr std::string_view TraceEventKindName(TraceEventKind kind) {
  return kTraceKinds[static_cast<std::size_t>(kind)].name;
}

/// True when `kind` carries `field`.
constexpr bool TraceKindHas(TraceEventKind kind, TraceField field) {
  return (kTraceKinds[static_cast<std::size_t>(kind)].fields & field) != 0;
}

}  // namespace vod::obs

#endif  // VODB_OBS_TRACE_EVENT_H_
