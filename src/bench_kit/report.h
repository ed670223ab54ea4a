#ifndef VODB_BENCH_KIT_REPORT_H_
#define VODB_BENCH_KIT_REPORT_H_

#include <string>
#include <vector>

#include "bench_kit/harness.h"
#include "common/json.h"
#include "common/status.h"

namespace vod::bench_kit {

/// Where a BENCH_*.json was produced: enough context to judge whether two
/// reports are comparable (bench_compare.py warns on cross-machine diffs
/// and treats them as advisory).
struct MachineInfo {
  std::string hostname;
  std::string cpu_model;     ///< /proc/cpuinfo "model name"; "unknown" elsewhere.
  int core_count = 0;
  std::string governor;      ///< cpufreq scaling governor; "unknown" if unreadable.
};

/// Probes the current host.
MachineInfo ProbeMachine();

/// The CMAKE_BUILD_TYPE this library was compiled with ("unknown" if the
/// build system did not stamp one). Comparing reports across build types
/// is meaningless; the gate warns on mismatch.
std::string BuildType();

/// Whether the invariant auditor was compiled in (VODB_AUDIT, which the root
/// CMakeLists turns into VODB_AUDIT_ENABLED for every target). Audited
/// timings carry the audit tax, so the gate lists a mismatch.
bool AuditCompiledIn();

/// `git rev-parse HEAD` (+ "-dirty" when the tree has modifications);
/// "unknown" outside a git checkout. Overridable via $VODB_GIT_SHA for
/// hermetic CI runs.
std::string GitSha();

/// A full benchmark report: the schema of BENCH_*.json files.
struct BenchReport {
  std::string schema = "vodb-bench-v1";
  MachineInfo machine;
  std::string git_sha;
  std::string build_type;  ///< CMAKE_BUILD_TYPE the suite was compiled with.
  bool audit = false;      ///< AuditCompiledIn() of the suite's build.
  std::vector<BenchResult> results;
};

/// Report -> canonical JSON document (stable key order). Its one reader is
/// scripts/bench_compare.py.
JsonValue ReportToJson(const BenchReport& report);

/// Writes `report` to `path` ("-" = stdout).
Status WriteReport(const BenchReport& report, const std::string& path);

/// "BENCH_<sanitized-hostname>.json" — the per-host artifact name.
std::string DefaultReportFilename(const MachineInfo& machine);

}  // namespace vod::bench_kit

#endif  // VODB_BENCH_KIT_REPORT_H_
