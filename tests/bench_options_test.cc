// Coverage for the harness-shared BenchOptions parser: round-trips of every
// flag, strict rejection of malformed values, and rejection of flags the
// harness does not read (the bench flags are load-bearing in CI, so a typo
// or an ignored flag must fail loudly, not silently fall back to a
// default).

#include "bench/bench_common.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace vod::bench {
namespace {

/// argv builder: keeps storage alive for the char* view TryParse wants.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    strings_.insert(strings_.begin(), "bench_under_test");
    ptrs_.reserve(strings_.size());
    for (std::string& s : strings_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> ptrs_;
};

Result<BenchOptions> ParseOf(std::vector<std::string> args,
                             unsigned accepted = kFlagsAll) {
  Argv a(std::move(args));
  return BenchOptions::TryParse(a.argc(), a.argv(), accepted);
}

TEST(BenchOptionsTest, DefaultsWhenNoFlags) {
  auto opt = ParseOf({});
  ASSERT_TRUE(opt.ok());
  EXPECT_FALSE(opt->full);
  EXPECT_EQ(opt->seeds, 0);
  EXPECT_EQ(opt->threads, 0);
  EXPECT_FALSE(opt->json);
  EXPECT_TRUE(opt->trace.empty());
  EXPECT_TRUE(opt->metrics.empty());
  EXPECT_FALSE(opt->progress);
  EXPECT_TRUE(opt->faults.empty());
  EXPECT_EQ(opt->fault_seed, 0u);
  EXPECT_FALSE(opt->spans);
  EXPECT_TRUE(opt->timeseries.empty());
  EXPECT_TRUE(opt->postmortem_dir.empty());
}

TEST(BenchOptionsTest, FullRoundTripOfEveryFlag) {
  auto opt = ParseOf({"--full", "--seeds=5", "--threads=8", "--json",
                      "--trace=t.jsonl", "--metrics=m.json", "--progress",
                      "--faults=eio:start=3600,end=7200,p=0.2",
                      "--fault-seed=12345678901234567890", "--spans",
                      "--timeseries=ts.csv", "--postmortem-dir=dumps"});
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  EXPECT_TRUE(opt->full);
  EXPECT_EQ(opt->seeds, 5);
  EXPECT_EQ(opt->threads, 8);
  EXPECT_TRUE(opt->json);
  EXPECT_EQ(opt->trace, "t.jsonl");
  EXPECT_EQ(opt->metrics, "m.json");
  EXPECT_TRUE(opt->progress);
  EXPECT_EQ(opt->faults, "eio:start=3600,end=7200,p=0.2");
  EXPECT_EQ(opt->fault_seed, 12345678901234567890ULL);
  EXPECT_TRUE(opt->spans);
  EXPECT_EQ(opt->timeseries, "ts.csv");
  EXPECT_EQ(opt->postmortem_dir, "dumps");
}

TEST(BenchOptionsTest, BareTraceDefaultsFilename) {
  auto opt = ParseOf({"--trace"});
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ(opt->trace, "trace.json");
}

TEST(BenchOptionsTest, ThreadsOneIsSerialLegacyPath) {
  auto opt = ParseOf({"--threads=1"});
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ(opt->threads, 1);
}

TEST(BenchOptionsTest, RejectsMalformedThreads) {
  for (const char* bad : {"--threads=", "--threads=abc", "--threads=4x",
                          "--threads=0", "--threads=-2", "--threads=9999"}) {
    auto opt = ParseOf({bad});
    EXPECT_FALSE(opt.ok()) << bad << " should be rejected";
    EXPECT_EQ(opt.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(BenchOptionsTest, RejectsMalformedSeeds) {
  for (const char* bad :
       {"--seeds=", "--seeds=zero", "--seeds=0", "--seeds=-1",
        "--seeds=3.5", "--seeds=10001"}) {
    auto opt = ParseOf({bad});
    EXPECT_FALSE(opt.ok()) << bad << " should be rejected";
  }
}

TEST(BenchOptionsTest, RejectsMalformedFaultSeed) {
  for (const char* bad :
       {"--fault-seed=", "--fault-seed=xyz", "--fault-seed=-7",
        "--fault-seed=1e9"}) {
    auto opt = ParseOf({bad});
    EXPECT_FALSE(opt.ok()) << bad << " should be rejected";
  }
}

TEST(BenchOptionsTest, FaultSeedZeroMeansDerived) {
  auto opt = ParseOf({"--fault-seed=0"});
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ(opt->fault_seed, 0u);
}

TEST(BenchOptionsTest, RejectsEmptyArtifactPaths) {
  EXPECT_FALSE(ParseOf({"--trace="}).ok());
  EXPECT_FALSE(ParseOf({"--metrics="}).ok());
  EXPECT_FALSE(ParseOf({"--faults="}).ok());
  EXPECT_FALSE(ParseOf({"--timeseries="}).ok());
  EXPECT_FALSE(ParseOf({"--postmortem-dir="}).ok());
}

TEST(BenchOptionsTest, SpansRequiresTrace) {
  auto bare = ParseOf({"--spans"});
  EXPECT_FALSE(bare.ok());
  EXPECT_EQ(bare.status().code(), StatusCode::kInvalidArgument);
  // Either --trace form satisfies it, in either argument order.
  EXPECT_TRUE(ParseOf({"--spans", "--trace"}).ok());
  EXPECT_TRUE(ParseOf({"--trace=t.json", "--spans"}).ok());
}

TEST(BenchOptionsTest, ObservabilityFlagsAreIndependentOfEachOther) {
  // Timeseries and postmortem-dir stand alone (no --trace needed), and
  // value-carrying forms don't leak into each other.
  auto opt = ParseOf({"--timeseries=a.csv", "--postmortem-dir=d"});
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ(opt->timeseries, "a.csv");
  EXPECT_EQ(opt->postmortem_dir, "d");
  EXPECT_TRUE(opt->trace.empty());
  EXPECT_FALSE(opt->spans);
  // Bare --timeseries / --postmortem-dir (no =) are unknown options.
  EXPECT_FALSE(ParseOf({"--timeseries"}).ok());
  EXPECT_FALSE(ParseOf({"--postmortem-dir"}).ok());
}

TEST(BenchOptionsTest, RejectsUnknownOptions) {
  for (const char* bad : {"--fulll", "--sees=3", "-j", "positional"}) {
    auto opt = ParseOf({bad});
    EXPECT_FALSE(opt.ok()) << bad << " should be rejected";
  }
}

TEST(BenchOptionsTest, RejectsFlagsTheHarnessDoesNotRead) {
  // fig06 and fig14 read --full alone: an artifact or fault flag would be
  // ignored, so it is refused.
  EXPECT_TRUE(ParseOf({"--full"}, kFlagFull).ok());
  for (const char* unread :
       {"--trace=t.json", "--metrics=m.json", "--threads=2", "--json",
        "--faults=none", "--fault-seed=3", "--seeds=2", "--progress",
        "--timeseries=ts.csv", "--postmortem-dir=pm"}) {
    auto opt = ParseOf({unread}, kFlagFull);
    EXPECT_FALSE(opt.ok()) << unread << " should be rejected";
    EXPECT_EQ(opt.status().code(), StatusCode::kInvalidArgument) << unread;
  }
  // table4 reads --full and --seeds, not --faults.
  EXPECT_TRUE(ParseOf({"--seeds=3", "--full"}, kFlagFull | kFlagSeeds).ok());
  EXPECT_FALSE(ParseOf({"--faults=none"}, kFlagFull | kFlagSeeds).ok());
  // fig12 reads --threads, --json and --metrics.
  const unsigned fig12 = kFlagThreads | kFlagJson | kFlagMetrics;
  EXPECT_TRUE(ParseOf({"--threads=2", "--json", "--metrics=m.json"}, fig12)
                  .ok());
  for (const char* unread : {"--trace", "--faults=none", "--full",
                             "--seeds=2", "--timeseries=ts.csv",
                             "--postmortem-dir=pm", "--progress"}) {
    EXPECT_FALSE(ParseOf({unread}, fig12).ok()) << unread;
  }
  // Analysis harnesses read no flag at all.
  EXPECT_TRUE(ParseOf({}, 0).ok());
  EXPECT_FALSE(ParseOf({"--full"}, 0).ok());
  // A typo stays an unknown option whatever the harness reads.
  EXPECT_FALSE(ParseOf({"--bogus"}, kFlagFull).ok());
}

TEST(BenchOptionsTest, ApplyFaultsToCopiesBothFields) {
  auto opt = ParseOf({"--faults=none", "--fault-seed=42"});
  ASSERT_TRUE(opt.ok());
  exp::DayRunConfig cfg;
  opt->ApplyFaultsTo(&cfg);
  EXPECT_EQ(cfg.faults, "none");
  EXPECT_EQ(cfg.fault_seed, 42u);
}

}  // namespace
}  // namespace vod::bench
