#include "vod/server.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace vod {
namespace {

VodServer::Options DefaultOptions() {
  VodServer::Options opt;
  opt.config.method = core::ScheduleMethod::kRoundRobin;
  opt.config.scheme = sim::AllocScheme::kDynamic;
  opt.config.t_log = Minutes(40);
  return opt;
}

TEST(VodServerTest, SubmitAndRunOneViewer) {
  auto server = VodServer::Create(DefaultOptions());
  ASSERT_TRUE(server.ok());
  auto t = (*server)->Submit(/*video=*/0, Minutes(10));
  ASSERT_TRUE(t.ok());
  (*server)->RunToCompletion();
  (*server)->Finish();
  const sim::SimMetrics& m = (*server)->metrics();
  EXPECT_EQ(m.arrivals, 1);
  EXPECT_EQ(m.admitted, 1);
  EXPECT_EQ(m.completed, 1);
  EXPECT_GT(m.initial_latency.mean(), 0.0);
  EXPECT_LT(m.initial_latency.mean(), 1.0);  // Dynamic: tiny first buffer.
}

TEST(VodServerTest, RunForAdvancesVirtualTime) {
  auto server = VodServer::Create(DefaultOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Submit(0, Minutes(30)).ok());
  (*server)->RunFor(Minutes(5));
  EXPECT_EQ((*server)->active_requests(), 1);
  (*server)->RunFor(Minutes(30));
  EXPECT_EQ((*server)->active_requests(), 0);
}

TEST(VodServerTest, SubmitAfterRunUsesCurrentTime) {
  auto server = VodServer::Create(DefaultOptions());
  ASSERT_TRUE(server.ok());
  (*server)->RunFor(Minutes(10));
  auto t = (*server)->Submit(1, Minutes(5));
  ASSERT_TRUE(t.ok());
  EXPECT_GE(*t, Minutes(10));
}

TEST(VodServerTest, MemoryCapacityLimitsAdmission) {
  VodServer::Options opt = DefaultOptions();
  opt.config.scheme = sim::AllocScheme::kStatic;
  opt.memory_capacity = Mebibytes(60);  // ~2 static buffers' worth.
  auto server = VodServer::Create(opt);
  ASSERT_TRUE(server.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*server)->Submit(i % 6, Minutes(20)).ok());
  }
  (*server)->RunToCompletion();
  const sim::SimMetrics& m = (*server)->metrics();
  EXPECT_GT(m.rejected, 0);
  EXPECT_LT(m.admitted, 10);
}

TEST(VodServerTest, SummaryLineMentionsCounts) {
  auto server = VodServer::Create(DefaultOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Submit(0, Minutes(1)).ok());
  (*server)->RunToCompletion();
  const std::string line = (*server)->SummaryLine();
  EXPECT_NE(line.find("admitted=1"), std::string::npos);
  EXPECT_NE(line.find("mean_initial_latency="), std::string::npos);
}

TEST(VodServerTest, InvalidConfigFails) {
  VodServer::Options opt = DefaultOptions();
  opt.config.alpha = 0;
  EXPECT_FALSE(VodServer::Create(opt).ok());
  // Also with a memory budget, whose broker is built from the config.
  VodServer::Options gss = DefaultOptions();
  gss.config.method = core::ScheduleMethod::kGss;
  gss.config.gss_group_size = 0;
  gss.memory_capacity = Mebibytes(60);
  EXPECT_FALSE(VodServer::Create(gss).ok());
}

TEST(VodServerTest, AlphaParamsExposed) {
  auto server = VodServer::Create(DefaultOptions());
  ASSERT_TRUE(server.ok());
  EXPECT_EQ((*server)->alloc_params().n_max, 79);
  EXPECT_EQ((*server)->alloc_params().alpha, 1);
}

}  // namespace
}  // namespace vod
