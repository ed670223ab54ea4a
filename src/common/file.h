#ifndef VODB_COMMON_FILE_H_
#define VODB_COMMON_FILE_H_

#include <cstdio>
#include <string>
#include <string_view>

#include "common/status.h"

namespace vod {

/// Writes `text` to `path`, replacing the file. Fails on open, on a short
/// write and on close (a full device shows only at the final flush). Every
/// artifact file goes through it: traces, telemetry CSVs, the --metrics
/// document, postmortem dumps and BENCH reports.
Status WriteFile(const std::string& path, std::string_view text);

/// Writes `text` to the open stream `out` (stdout, for the result tables
/// and BENCH reports sent to "-") and flushes it. Fails on a short write
/// or a failed flush.
Status WriteStream(std::FILE* out, std::string_view text);

/// Flushes `out`. Fails when the flush fails or an earlier write to `out`
/// did (its error flag), so output sent to a full device fails here even
/// when each printf seemed to succeed.
Status FlushStream(std::FILE* out);

}  // namespace vod

#endif  // VODB_COMMON_FILE_H_
