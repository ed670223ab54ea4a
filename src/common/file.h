#ifndef VODB_COMMON_FILE_H_
#define VODB_COMMON_FILE_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace vod {

/// Writes `text` to `path`, replacing the file. Fails on open, on a short
/// write and on close (a full device shows only at the final flush). Every
/// artifact file goes through it: traces, telemetry CSVs, the --metrics
/// document, postmortem dumps and BENCH reports.
Status WriteFile(const std::string& path, std::string_view text);

}  // namespace vod

#endif  // VODB_COMMON_FILE_H_
