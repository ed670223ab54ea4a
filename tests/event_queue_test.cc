// Differential and property tests for sim::EventQueue, the simulator's
// binary-heap event spine: for any interleaving of pushes and pops it must
// pop exactly what an obviously correct oracle pops — a std::map keyed on
// (time, seq), whose first entry is by construction the earliest event
// with FIFO tie-breaks. A million randomized operations (SplitMix64-
// derived, fully deterministic) across four time regimes, plus the edge
// cases: pure FIFO at one timestamp, the empty queue, drain-refill-drain,
// and a monotonicity audit over every popped (time, seq).

#include "sim/event_queue.h"

#include <cstdint>
#include <map>
#include <utility>

#include "gtest/gtest.h"
#include "sim/rng.h"

namespace vod::sim {
namespace {

/// Tiny deterministic generator on top of SplitMix64 (test-local so queue
/// behaviour never depends on the simulator Rng's stream splitting).
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() { return SplitMix64(state_++); }
  /// U[0, 1) with 53-bit resolution.
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  /// Uniform in [0, n).
  std::uint64_t NextBelow(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

/// The reference: events keyed on (time, seq), so begin() is the minimum.
using Oracle = std::map<std::pair<double, std::uint64_t>, SimEvent>;

SimEvent MakeEvent(Seconds t, std::uint64_t seq) {
  SimEvent ev;
  ev.time = t;
  ev.seq = seq;
  ev.kind = static_cast<SimEventKind>(seq % 4);
  ev.request = seq;
  ev.arrival_index = static_cast<std::size_t>(seq % 7);
  return ev;
}

void ExpectSameEvent(const SimEvent& a, const SimEvent& b, long op) {
  ASSERT_EQ(a.time.value(), b.time.value()) << "op " << op;
  ASSERT_EQ(a.seq, b.seq) << "op " << op;
  ASSERT_EQ(a.kind, b.kind) << "op " << op;
  ASSERT_EQ(a.request, b.request) << "op " << op;
  ASSERT_EQ(a.arrival_index, b.arrival_index) << "op " << op;
}

void PushBoth(EventQueue& heap, Oracle& oracle, const SimEvent& ev) {
  heap.push(ev);
  oracle.emplace(std::make_pair(ev.time.value(), ev.seq), ev);
}

/// Pops the heap and the oracle once into `*out`; the two popped events
/// must agree field for field.
void PopBoth(EventQueue& heap, Oracle& oracle, long op, SimEvent* out) {
  ASSERT_FALSE(heap.empty()) << "op " << op;
  ASSERT_FALSE(oracle.empty()) << "op " << op;
  *out = heap.top();
  heap.pop();
  const SimEvent want = oracle.begin()->second;
  oracle.erase(oracle.begin());
  ExpectSameEvent(*out, want, op);
}

/// Drives the heap and the oracle through an identical operation stream and
/// asserts lock-step equality of sizes and pops. Push times land in a
/// window of width `spread` after the last popped time (the simulator's
/// pattern: pushes are never in the past).
void RunDifferential(std::uint64_t seed, long ops, double spread,
                     double tie_probability) {
  EventQueue heap;
  Oracle oracle;
  Gen gen(seed);
  std::uint64_t seq = 0;
  double clock = 0.0;   // Last popped time: pushes land at or after it.
  double last_tie = 0.0;
  long popped = 0;
  double last_pop_time = -1.0;
  std::uint64_t last_pop_seq = 0;

  for (long op = 0; op < ops; ++op) {
    const bool push = heap.empty() || gen.NextDouble() < 0.55;
    if (push) {
      double t;
      // Deliberate equal-timestamp collision — but never behind the last
      // pop (the simulator's contract: pushes are at or after `now`, and
      // the monotonicity audit below relies on it).
      if (gen.NextDouble() < tie_probability && last_tie >= clock) {
        t = last_tie;
      } else {
        t = clock + gen.NextDouble() * spread;
        // Occasional far-future outlier: a long sparse tail behind the
        // dense head, like a day's departures behind service churn.
        if (gen.NextBelow(997) == 0) t += spread * 1e6;
        last_tie = t;
      }
      PushBoth(heap, oracle, MakeEvent(Seconds(t), seq++));
    } else {
      SimEvent ev;
      ASSERT_NO_FATAL_FAILURE(PopBoth(heap, oracle, op, &ev));
      // Monotonicity audit: the popped sequence is sorted by (time, seq).
      ASSERT_TRUE(ev.time.value() > last_pop_time ||
                  (ev.time.value() == last_pop_time && ev.seq > last_pop_seq))
          << "op " << op << ": pop order regressed";
      last_pop_time = ev.time.value();
      last_pop_seq = ev.seq;
      clock = ev.time.value();
      ++popped;
    }
    ASSERT_EQ(heap.size(), oracle.size()) << "op " << op;
  }
  // Drain both completely, still in lock-step.
  while (!oracle.empty()) {
    SimEvent ev;
    ASSERT_NO_FATAL_FAILURE(PopBoth(heap, oracle, ops + popped, &ev));
    ++popped;
  }
  EXPECT_TRUE(heap.empty());
  EXPECT_GT(popped, ops / 4);  // The stream actually exercised pops.
}

// --- The headline differential: >= 1M operations across regimes. ---

TEST(EventQueueDifferentialTest, MillionOpsMixedRegimes) {
  // 4 x 250k ops: dense ties, sub-second spacing, minute spacing, and a
  // sparse regime with routine far-future outliers.
  RunDifferential(/*seed=*/0x1d3a2f9c55ULL, 250000, 0.5, 0.30);
  RunDifferential(/*seed=*/0xbeefcafe01ULL, 250000, 3.0, 0.05);
  RunDifferential(/*seed=*/0x8899aabb02ULL, 250000, 90.0, 0.01);
  RunDifferential(/*seed=*/0x700dfeed03ULL, 250000, 4000.0, 0.0);
}

TEST(EventQueueDifferentialTest, PureFifoAtOneTimestamp) {
  // Every event at the same instant: pops must follow push order exactly.
  EventQueue heap;
  Oracle oracle;
  for (std::uint64_t s = 0; s < 10000; ++s) {
    PushBoth(heap, oracle, MakeEvent(Seconds(42.0), s));
  }
  for (std::uint64_t s = 0; s < 10000; ++s) {
    SimEvent ev;
    ASSERT_NO_FATAL_FAILURE(PopBoth(heap, oracle, static_cast<long>(s), &ev));
    ASSERT_EQ(ev.seq, s);
  }
  EXPECT_TRUE(heap.empty());
}

TEST(EventQueueTest, EmptyBehaviour) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, DrainRefillDrain) {
  EventQueue heap;
  Oracle oracle;
  std::uint64_t seq = 0;
  for (int round = 0; round < 5; ++round) {
    const double base = round * 1e4;
    // Pushed latest-first, so every push sifts up to the root.
    for (int i = 99; i >= 0; --i) {
      PushBoth(heap, oracle, MakeEvent(Seconds(base + i), seq++));
    }
    for (int i = 0; i < 100; ++i) {
      SimEvent ev;
      ASSERT_NO_FATAL_FAILURE(PopBoth(heap, oracle, i, &ev));
      ASSERT_EQ(ev.time.value(), base + i) << "round " << round;
    }
    ASSERT_TRUE(heap.empty());
    ASSERT_TRUE(oracle.empty());
  }
}

}  // namespace
}  // namespace vod::sim
