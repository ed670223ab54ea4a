#include "bench_kit/report.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "common/file.h"

namespace vod::bench_kit {

namespace {

std::string FirstLineOf(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return "";
  return line;
}

/// Runs `cmd` and returns its first stdout line ("" on any failure).
std::string CaptureLine(const std::string& cmd) {
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "";
  char buf[256] = {0};
  std::string out;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    out = buf;
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
      out.pop_back();
    }
  }
  ::pclose(pipe);
  return out;
}

}  // namespace

MachineInfo ProbeMachine() {
  MachineInfo m;

  char host[256] = {0};
  if (::gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
    m.hostname = host;
  } else {
    m.hostname = "unknown";
  }

  m.cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (cpuinfo && std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        m.cpu_model = line.substr(start);
      }
      break;
    }
  }

  m.core_count = static_cast<int>(std::thread::hardware_concurrency());

  m.governor = FirstLineOf(
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  if (m.governor.empty()) m.governor = "unknown";

  return m;
}

std::string BuildType() {
#ifdef VODB_BUILD_TYPE
  return VODB_BUILD_TYPE;
#else
  return "unknown";
#endif
}

std::string GitSha() {
  if (const char* env = std::getenv("VODB_GIT_SHA");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  std::string sha = CaptureLine("git rev-parse HEAD 2>/dev/null");
  if (sha.empty()) return "unknown";
  const std::string dirty =
      CaptureLine("git status --porcelain 2>/dev/null | head -1");
  if (!dirty.empty()) sha += "-dirty";
  return sha;
}

namespace {

JsonValue StatsToJson(const SampleStats& s) {
  JsonValue v = JsonValue::Object();
  v.Set("min", JsonValue::Number(s.min));
  v.Set("max", JsonValue::Number(s.max));
  v.Set("mean", JsonValue::Number(s.mean));
  v.Set("median", JsonValue::Number(s.median));
  v.Set("stddev", JsonValue::Number(s.stddev));
  v.Set("cv", JsonValue::Number(s.cv));
  return v;
}

}  // namespace

JsonValue ReportToJson(const BenchReport& report) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::Str(report.schema));

  JsonValue machine = JsonValue::Object();
  machine.Set("hostname", JsonValue::Str(report.machine.hostname));
  machine.Set("cpu_model", JsonValue::Str(report.machine.cpu_model));
  machine.Set("core_count",
              JsonValue::Number(static_cast<double>(report.machine.core_count)));
  machine.Set("governor", JsonValue::Str(report.machine.governor));
  doc.Set("machine", machine);

  doc.Set("git_sha", JsonValue::Str(report.git_sha));
  doc.Set("build_type", JsonValue::Str(report.build_type));

  JsonValue benches = JsonValue::Array();
  for (const BenchResult& r : report.results) {
    JsonValue b = JsonValue::Object();
    b.Set("name", JsonValue::Str(r.name));
    b.Set("iterations",
          JsonValue::Number(static_cast<double>(r.iterations)));
    b.Set("repetitions",
          JsonValue::Number(static_cast<double>(r.repetitions)));
    b.Set("ns_per_iter", StatsToJson(r.ns_per_iter));
    if (r.cycles_per_iter.count > 0) {
      b.Set("cycles_per_iter", StatsToJson(r.cycles_per_iter));
    }
    benches.Append(b);
  }
  doc.Set("benchmarks", benches);
  return doc;
}

Status WriteReport(const BenchReport& report, const std::string& path) {
  const std::string text = ReportToJson(report).Dump();
  return path == "-" ? WriteStream(stdout, text) : WriteFile(path, text);
}

std::string DefaultReportFilename(const MachineInfo& machine) {
  std::string tag;
  for (char c : machine.hostname) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    tag.push_back(ok ? c : '_');
  }
  if (tag.empty()) tag = "unknown";
  return "BENCH_" + tag + ".json";
}

}  // namespace vod::bench_kit
