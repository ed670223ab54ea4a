// Postmortem black-box suite (obs/postmortem.h): explicit captures write
// schema-valid JSON with the ring tail, config and counters;
// repeat captures get distinct filenames; the degradation threshold fires
// once; the simulator wiring turns a forced invariant violation and a
// fault-layer hiccup into dumps without perturbing the run (pure-observer
// checks ride along in golden_metrics_test.cc and chaos paths here).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/json.h"
#include "common/units.h"
#include "exp/day_run.h"
#include "obs/event_tracer.h"
#include "obs/postmortem.h"
#include "sim/invariant_auditor.h"
#include "sim/metrics.h"
#include "sim/vod_simulator.h"

namespace vod::obs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The counter `name` ("sim.arrivals", ...) of a dump's metrics.counters;
/// -1 when the dump has none by that name.
double DumpCounter(const std::string& path, const std::string& name) {
  const auto doc = JsonValue::Parse(ReadFile(path));
  EXPECT_TRUE(doc.ok()) << path;
  if (!doc.ok()) return -1;
  const JsonValue* metrics = doc->Find("metrics");
  const JsonValue* counters =
      metrics != nullptr ? metrics->Find("counters") : nullptr;
  const JsonValue* value =
      counters != nullptr ? counters->Find(name) : nullptr;
  return value != nullptr ? value->AsNumber() : -1;
}

/// Fresh per-test dump directory under gtest's temp root.
std::string DumpDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "vodb_postmortem_" + name;
  std::remove(dir.c_str());
  // Capture writes flat files; the directory itself must exist.
  const std::string cmd = "mkdir -p '" + dir + "'";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

TraceEvent Ev(TraceEventKind kind, Seconds time, RequestId request) {
  TraceEvent ev;
  ev.kind = kind;
  ev.time = time;
  ev.request = request;
  return ev;
}

// ---------------------------------------------------------------------------
// Explicit capture
// ---------------------------------------------------------------------------

TEST(PostmortemSinkTest, ExplicitCaptureWritesSchemaValidJson) {
  PostmortemSink::Options opt;
  opt.dir = DumpDir("explicit");
  opt.run_label = "rr/t40 a1";  // Slash + space must be sanitized away.
  PostmortemSink sink(opt);

  EventTracer tracer;
  tracer.Emit(Ev(TraceEventKind::kAdmit, Seconds(1.0), 7));
  tracer.Emit(Ev(TraceEventKind::kServiceStart, Seconds(2.0), 7));
  sink.set_tracer(&tracer);

  JsonValue cfg = JsonValue::Object();
  cfg.Set("seed", JsonValue::Number(42));
  cfg.Set("label", JsonValue::Str("rr/t40"));
  sink.set_config(std::move(cfg));

  const Result<std::string> path =
      sink.Capture(PostmortemReason::kExplicit, "operator request",
                   Seconds(123.5));
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_TRUE(sink.triggered());
  ASSERT_EQ(sink.paths().size(), 1u);
  EXPECT_EQ(sink.paths()[0], path.value());
  // Sanitized label, reason token in the filename.
  EXPECT_NE(path.value().find("postmortem_rr-t40-a1_explicit.json"),
            std::string::npos);

  const std::string doc = ReadFile(path.value());
  EXPECT_NE(doc.find("\"schema\": \"vodb-postmortem-v2\""), std::string::npos);
  EXPECT_NE(doc.find("\"reason\": \"explicit\""), std::string::npos);
  EXPECT_NE(doc.find("\"detail\": \"operator request\""), std::string::npos);
  EXPECT_NE(doc.find("\"sim_time_s\": 123.5"), std::string::npos);
  EXPECT_NE(doc.find("\"run_label\": \"rr/t40 a1\""), std::string::npos);
  EXPECT_NE(doc.find("\"seed\": 42"), std::string::npos);
  // Ring tail with both events, in order, flat payload keys.
  EXPECT_NE(doc.find("\"kind\": \"admit\""), std::string::npos);
  EXPECT_NE(doc.find("\"kind\": \"service_start\""), std::string::npos);
  EXPECT_LT(doc.find("\"admit\""), doc.find("\"service_start\""));
  EXPECT_NE(doc.find("\"total\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"dropped\": 0"), std::string::npos);
  // Counters (none: no run captured this dump), embedded as an object, and
  // nothing process-wide such as the profiler: a dump describes its run.
  EXPECT_NE(doc.find("\"counters\": {}"), std::string::npos);
  EXPECT_EQ(doc.find("\"profile\""), std::string::npos);
}

TEST(PostmortemSinkTest, RepeatCapturesGetDistinctFilenames) {
  PostmortemSink::Options opt;
  opt.dir = DumpDir("repeat");
  opt.run_label = "run7";
  PostmortemSink sink(opt);

  const auto p1 = sink.Capture(PostmortemReason::kExplicit, "a", Seconds(1.0));
  const auto p2 = sink.Capture(PostmortemReason::kExplicit, "b", Seconds(2.0));
  const auto p3 = sink.Capture(PostmortemReason::kHiccupThreshold, "c",
                               Seconds(3.0));
  ASSERT_TRUE(p1.ok() && p2.ok() && p3.ok());
  EXPECT_NE(p1.value(), p2.value());
  EXPECT_NE(p2.value().find("_explicit_2.json"), std::string::npos);
  // A different reason starts its own suffix sequence.
  EXPECT_NE(p3.value().find("_hiccup.json"), std::string::npos);
  EXPECT_EQ(sink.paths().size(), 3u);
  // All three files exist with distinct contents.
  EXPECT_NE(ReadFile(p1.value()), ReadFile(p2.value()));
}

TEST(PostmortemSinkTest, RingTailIsCappedAndCountsCapAsDropped) {
  PostmortemSink::Options opt;
  opt.dir = DumpDir("captail");
  opt.ring_tail = 4;
  PostmortemSink sink(opt);
  EventTracer tracer;
  for (int i = 1; i <= 10; ++i) {
    tracer.Emit(Ev(TraceEventKind::kServiceStart,
                   Seconds(static_cast<double>(i)), i));
  }
  sink.set_tracer(&tracer);
  const auto path =
      sink.Capture(PostmortemReason::kExplicit, "cap", Seconds(10.0));
  ASSERT_TRUE(path.ok());
  const std::string doc = ReadFile(path.value());
  EXPECT_NE(doc.find("\"total\": 10"), std::string::npos);
  // 6 tail-cap drops (the tracer itself dropped nothing).
  EXPECT_NE(doc.find("\"dropped\": 6"), std::string::npos);
  // Only the last 4 events made it; the 6th is gone, the 7th..10th present.
  EXPECT_EQ(doc.find("\"time\": 6"), std::string::npos);
  EXPECT_NE(doc.find("\"time\": 7"), std::string::npos);
  EXPECT_NE(doc.find("\"time\": 10"), std::string::npos);
}

TEST(PostmortemSinkTest, CaptureFailsCleanlyOnMissingDirectory) {
  PostmortemSink::Options opt;
  opt.dir = ::testing::TempDir() + "vodb_postmortem_nonexistent/sub";
  PostmortemSink sink(opt);
  const auto path =
      sink.Capture(PostmortemReason::kExplicit, "x", Seconds(0.0));
  EXPECT_FALSE(path.ok());
  EXPECT_FALSE(sink.triggered());  // Failed writes don't count as dumps.
  EXPECT_EQ(sink.write_status(), path.status());
}

/// The threshold trigger cannot return Capture's Status to the simulator
/// that called it, so the sink keeps the failure for the harness to read.
TEST(PostmortemSinkTest, DegradationCaptureIntoMissingDirectoryIsKept) {
  PostmortemSink::Options opt;
  opt.dir = ::testing::TempDir() + "vodb_postmortem_nonexistent/sub";
  opt.hiccup_threshold = 1;
  PostmortemSink sink(opt);
  EXPECT_TRUE(sink.write_status().ok());
  sink.NoteDegradation(1, 0, Seconds(10.0), nullptr);
  EXPECT_FALSE(sink.triggered());
  EXPECT_FALSE(sink.write_status().ok());
  EXPECT_NE(sink.write_status().message().find("vodb_postmortem_nonexistent"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Degradation threshold
// ---------------------------------------------------------------------------

TEST(PostmortemSinkTest, DegradationThresholdFiresOnceAtTheCrossing) {
  PostmortemSink::Options opt;
  opt.dir = DumpDir("threshold");
  opt.hiccup_threshold = 3;
  PostmortemSink sink(opt);

  sink.NoteDegradation(1, 0, Seconds(10.0), nullptr);
  sink.NoteDegradation(2, 0, Seconds(20.0), nullptr);
  EXPECT_FALSE(sink.triggered());
  sink.NoteDegradation(3, 0, Seconds(30.0), nullptr);
  EXPECT_TRUE(sink.triggered());
  ASSERT_EQ(sink.paths().size(), 1u);
  // One-shot: further degradation does not dump again.
  sink.NoteDegradation(50, 50, Seconds(40.0), nullptr);
  EXPECT_EQ(sink.paths().size(), 1u);

  const std::string doc = ReadFile(sink.paths()[0]);
  EXPECT_NE(doc.find("\"reason\": \"hiccup\""), std::string::npos);
  EXPECT_NE(doc.find("hiccups=3"), std::string::npos);
  EXPECT_NE(doc.find("\"sim_time_s\": 30"), std::string::npos);
}

TEST(PostmortemSinkTest, ZeroThresholdsNeverFire) {
  PostmortemSink::Options opt;
  opt.dir = DumpDir("zerothreshold");
  PostmortemSink sink(opt);  // Both thresholds default to 0 = disabled.
  sink.NoteDegradation(1000, 1000, Seconds(10.0), nullptr);
  EXPECT_FALSE(sink.triggered());
}

TEST(PostmortemSinkTest, DegradedEntriesThresholdIsIndependent) {
  PostmortemSink::Options opt;
  opt.dir = DumpDir("degthreshold");
  opt.degraded_threshold = 2;
  PostmortemSink sink(opt);
  sink.NoteDegradation(100, 1, Seconds(5.0), nullptr);  // Hiccups: off.
  EXPECT_FALSE(sink.triggered());
  sink.NoteDegradation(100, 2, Seconds(6.0), nullptr);
  EXPECT_TRUE(sink.triggered());
  EXPECT_NE(ReadFile(sink.paths()[0]).find("degraded_entries=2"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Simulator wiring
// ---------------------------------------------------------------------------

/// A forced auditor violation must produce a dump *before* the handler runs
/// (capture-then-fail): the sink sees the violation even though the
/// collecting handler here keeps the process alive, and the dump carries
/// the counters of the run so far.
TEST(PostmortemWiringTest, ForcedInvariantViolationCapturesDump) {
  sim::SimConfig sc;
  sc.seed = 3;
  auto simulator = sim::VodSimulator::Create(sc, nullptr);
  ASSERT_TRUE(simulator.ok());
  std::vector<sim::ArrivalEvent> arrivals(3);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    arrivals[i].time = Seconds(static_cast<double>(i + 1));
    arrivals[i].viewing_time = Minutes(5);
  }
  ASSERT_TRUE((*simulator)->AddArrivals(arrivals).ok());

  PostmortemSink::Options opt;
  opt.dir = DumpDir("invariant");
  opt.run_label = "forced";
  PostmortemSink sink(opt);
  (*simulator)->set_postmortem(&sink);

  std::vector<sim::InvariantViolation> seen;
  (*simulator)->auditor().set_handler(
      [&seen](const sim::InvariantViolation& v) { seen.push_back(v); });

  (*simulator)->RunUntil(Seconds(3.0));  // The three arrivals.

  // Clock regression: the one invariant a test can violate from outside.
  (*simulator)->auditor().CheckEventTime(Seconds(10.0));
  (*simulator)->auditor().CheckEventTime(Seconds(5.0));

  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].invariant, "event-time-monotonicity");
  ASSERT_TRUE(sink.triggered());
  const std::string doc = ReadFile(sink.paths()[0]);
  EXPECT_NE(doc.find("\"reason\": \"invariant\""), std::string::npos);
  EXPECT_NE(doc.find("event-time-monotonicity"), std::string::npos);
  EXPECT_NE(doc.find("\"sim_time_s\": 5"), std::string::npos);
  EXPECT_EQ(DumpCounter(sink.paths()[0], "sim.arrivals"), 3);
}

/// Detaching the sink also disarms the capture observer.
TEST(PostmortemWiringTest, DetachingSinkDisarmsCapture) {
  sim::SimConfig sc;
  sc.seed = 3;
  auto simulator = sim::VodSimulator::Create(sc, nullptr);
  ASSERT_TRUE(simulator.ok());

  PostmortemSink::Options opt;
  opt.dir = DumpDir("detach");
  PostmortemSink sink(opt);
  (*simulator)->set_postmortem(&sink);
  (*simulator)->set_postmortem(nullptr);
  (*simulator)->auditor().set_handler([](const sim::InvariantViolation&) {});
  (*simulator)->auditor().CheckEventTime(Seconds(10.0));
  (*simulator)->auditor().CheckEventTime(Seconds(5.0));
  EXPECT_FALSE(sink.triggered());
}

/// End to end through RunDay: a fault schedule whose first hiccup crosses
/// the threshold dumps with the ring tail attached, attaching the black box
/// leaves every metric untouched (pure observer under faults), and the
/// trace agrees with the metrics, fault kinds included.
TEST(PostmortemWiringTest, ChaosHiccupThresholdDumpsAndStaysPureObserver) {
  exp::DayRunConfig cfg;
  cfg.method = core::ScheduleMethod::kSweep;
  cfg.scheme = sim::AllocScheme::kDynamic;
  cfg.t_log = exp::PaperTLog(cfg.method);
  cfg.theta = 0.5;
  cfg.duration = Hours(3);
  cfg.total_arrivals = 100;
  cfg.seed = 1;
  cfg.faults = "eio:start=1800,end=5400,p=0.3,retries=3,backoff=0.05";
  cfg.fault_seed = 7;  // The chaos golden row: 479 hiccups, plenty.
  const sim::SimMetrics plain = exp::RunDay(cfg);
  ASSERT_GT(plain.hiccup_events, 0);

  PostmortemSink::Options opt;
  opt.dir = DumpDir("chaos");
  opt.run_label = "chaos";
  opt.hiccup_threshold = 1;
  PostmortemSink sink(opt);
  obs::EventTracer tracer;
  exp::DayRunConfig observed_cfg = cfg;
  observed_cfg.postmortem = &sink;
  observed_cfg.tracer = &tracer;
  const sim::SimMetrics observed = exp::RunDay(observed_cfg);

  // The first hiccup fired the black box...
  ASSERT_TRUE(sink.triggered());
  const std::string doc = ReadFile(sink.paths()[0]);
  EXPECT_NE(doc.find("\"reason\": \"hiccup\""), std::string::npos);
  EXPECT_NE(doc.find("hiccups=1"), std::string::npos);
  // ...with the run's last moments in the ring tail, and the run's
  // counters as they stood at the crossing.
  EXPECT_NE(doc.find("\"kind\": \"hiccup\""), std::string::npos);
  EXPECT_GT(DumpCounter(sink.paths()[0], "sim.arrivals"), 0);
  EXPECT_EQ(DumpCounter(sink.paths()[0], "sim.fault.hiccups"),
            static_cast<double>(opt.hiccup_threshold));

  // ...and changed nothing. Exact equality on every metric class.
  EXPECT_EQ(plain.arrivals, observed.arrivals);
  EXPECT_EQ(plain.admitted, observed.admitted);
  EXPECT_EQ(plain.rejected, observed.rejected);
  EXPECT_EQ(plain.completed, observed.completed);
  EXPECT_EQ(plain.services, observed.services);
  EXPECT_EQ(plain.read_faults, observed.read_faults);
  EXPECT_EQ(plain.hiccup_events, observed.hiccup_events);
  EXPECT_EQ(plain.degraded_entries, observed.degraded_entries);
  EXPECT_EQ(plain.initial_latency.mean(), observed.initial_latency.mean());
  EXPECT_EQ(plain.memory_usage.max_value(), observed.memory_usage.max_value());
  EXPECT_EQ(plain.disk_busy_time, observed.disk_busy_time);
  EXPECT_EQ(plain.buffer_bits_allocated, observed.buffer_bits_allocated);
  EXPECT_EQ(plain.buffer_bits_released, observed.buffer_bits_released);

  // Each kind mirrors one counter; each successful service emits an
  // allocation, a start and an end, and each failed read one read_fault.
  const long implied =
      observed.arrivals + observed.admitted + observed.deferred_admissions +
      observed.rejected + 3 * observed.services + observed.starvation_events +
      observed.completed + observed.cancelled + observed.read_faults +
      observed.hiccup_events + observed.degraded_entries +
      observed.fault_recoveries;
  EXPECT_EQ(tracer.total_emitted(), static_cast<std::uint64_t>(implied));
}

}  // namespace
}  // namespace vod::obs
