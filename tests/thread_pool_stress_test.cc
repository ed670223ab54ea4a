// Stress tests for exp::ThreadPool's fork-join ParallelFor. Their job is
// to give ThreadSanitizer (cmake -DVODB_TSAN=ON, or scripts/verify_tsan.sh)
// enough concurrent traffic to bite on: the caller and the workers racing
// for the shared index, back-to-back rounds that reuse the same workers (the
// sharded epoch pattern), exceptions under contention, and pool lifetimes
// churning. The functional assertions (exact per-index counts) double as
// lost-wakeup detectors: a missed wakeup hangs a round or miscounts it.

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/thread_pool.h"

namespace vod::exp {
namespace {

constexpr int kThreads = 8;

TEST(ThreadPoolStressTest, TinyIndicesContendForTheCounter) {
  // Indices far cheaper than a claim: every worker hammers the shared
  // counter at once, and the last one out must still wake the caller.
  ThreadPool pool(kThreads);
  constexpr std::size_t kIndices = 20000;
  std::atomic<std::size_t> executed{0};
  pool.ParallelFor(kIndices, [&executed](std::size_t) {
    executed.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(executed.load(), kIndices);
}

TEST(ThreadPoolStressTest, BackToBackRoundsReuseWorkers) {
  // The sharded epoch pattern: one pool, one short round after another.
  // Each round must hit every index exactly once, and a worker still
  // leaving round r must not be mistaken for one in round r + 1.
  ThreadPool pool(4);
  constexpr int kRounds = 10000;
  constexpr std::size_t kIndices = 100;
  std::vector<std::atomic<int>> hits(kIndices);
  for (int round = 1; round <= kRounds; ++round) {
    pool.ParallelFor(kIndices, [&hits](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kIndices; ++i) {
      ASSERT_EQ(hits[i].load(), round) << "index " << i;
    }
  }
}

TEST(ThreadPoolStressTest, FewerIndicesThanWorkers) {
  // Most workers find nothing to claim; the round still has to close.
  ThreadPool pool(kThreads);
  for (std::size_t n : {0u, 1u, 3u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " index " << i;
    }
  }
}

TEST(ThreadPoolStressTest, ExceptionsUnderContention) {
  // Many indices throw at once: the others still run, and the lowest
  // index's exception is the one rethrown.
  ThreadPool pool(kThreads);
  constexpr std::size_t kIndices = 2000;
  std::atomic<std::size_t> completed{0};
  try {
    pool.ParallelFor(kIndices, [&completed](std::size_t i) {
      if (i % 7 == 0) throw std::runtime_error(std::to_string(i));
      completed.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
  EXPECT_EQ(completed.load(), 1714u);  // 2000 minus the 286 multiples of 7.
}

TEST(ThreadPoolStressTest, ParallelForExceptionPropagatesLowestIndex) {
  ThreadPool pool(kThreads);
  std::atomic<std::size_t> executed{0};
  try {
    pool.ParallelFor(1000, [&executed](std::size_t i) {
      if (i == 13 || i == 700) throw std::invalid_argument(std::to_string(i));
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected an exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "13");
  }
  // No task is abandoned: everything except the two throwers ran.
  EXPECT_EQ(executed.load(), 998u);
}

TEST(ThreadPoolStressTest, RapidConstructDestroyCycles) {
  // Churn pool lifetimes: worker startup racing immediate shutdown.
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(4);
    std::atomic<int> executed{0};
    pool.ParallelFor(16, [&executed](std::size_t) {
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(executed.load(), 16);
  }
}

TEST(ThreadPoolStressDeathTest, NestedParallelForFailsCheck) {
  // A task that calls back into its own pool would wait for a round that
  // cannot close; the pool aborts instead of deadlocking. At size 1 the
  // nested call comes from the caller's own index.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (int threads : {1, 2}) {
    EXPECT_DEATH(
        {
          ThreadPool pool(threads);
          pool.ParallelFor(1, [&pool](std::size_t) {
            pool.ParallelFor(1, [](std::size_t) {});
          });
        },
        "VOD_CHECK failed")
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace vod::exp
