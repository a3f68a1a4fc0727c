// Tests for utilities: prefix sum, power-of-two helpers, checked casts,
// summary statistics, Dolan–Moré performance profiles, and the bounded
// FIFO cache.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "util/bounded_cache.hpp"
#include "util/common.hpp"
#include "util/prefix_sum.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace msp {
namespace {

TEST(PrefixSum, EmptyVector) {
  std::vector<int> v;
  EXPECT_EQ(exclusive_prefix_sum(v), 0);
}

TEST(PrefixSum, SmallSerialPath) {
  std::vector<int> v{3, 1, 4, 1, 5};
  EXPECT_EQ(exclusive_prefix_sum(v), 14);
  EXPECT_EQ(v, (std::vector<int>{0, 3, 4, 8, 9}));
}

TEST(PrefixSum, LargeParallelPathMatchesSerial) {
  const std::size_t n = 1 << 18;  // above the serial cutoff
  std::vector<long> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<long>(i % 7);
  std::vector<long> expected = v;
  long run = 0;
  for (auto& x : expected) {
    long c = x;
    x = run;
    run += c;
  }
  EXPECT_EQ(exclusive_prefix_sum(v), run);
  EXPECT_EQ(v, expected);
}

TEST(NextPow2, Values) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(5), 8u);
  EXPECT_EQ(next_pow2(1023), 1024u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(CeilDiv, Values) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 5), 1);
  EXPECT_EQ(ceil_div(0, 5), 0);
}

TEST(CheckedCast, InRangePasses) {
  EXPECT_EQ(checked_cast<int>(42L), 42);
  EXPECT_EQ(checked_cast<std::int8_t>(127), 127);
}

TEST(CheckedCast, OutOfRangeThrows) {
  EXPECT_THROW(checked_cast<std::int8_t>(128), invalid_argument_error);
  EXPECT_THROW(checked_cast<std::uint32_t>(-1), invalid_argument_error);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  const double s1 = t.seconds();
  EXPECT_GT(s1, 0.0);
  // millis() reads the clock again, so it can only be >= an earlier read.
  EXPECT_GE(t.millis(), s1 * 1e3);
  t.reset();
  EXPECT_LT(t.seconds(), s1 + 1.0);
}

TEST(Summarize, BasicStats) {
  const RunStats s = summarize({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_EQ(s.reps, 3);
}

TEST(Summarize, EvenCountMedian) {
  const RunStats s = summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(Summarize, EmptyInput) {
  const RunStats s = summarize({});
  EXPECT_EQ(s.reps, 0);
}

TEST(PerformanceProfile, KnownSmallExample) {
  // Two schemes, three cases. Scheme 0 is best on cases 0 and 1; scheme 1
  // is best on case 2 where scheme 0 is 2x slower.
  const std::vector<std::vector<double>> times = {
      {1.0, 2.0, 4.0},
      {1.5, 4.0, 2.0},
  };
  const std::vector<double> grid = {1.0, 1.5, 2.0};
  const auto p0 = performance_profile(times, 0, grid);
  ASSERT_EQ(p0.size(), 3u);
  EXPECT_NEAR(p0[0].fraction, 2.0 / 3.0, 1e-12);  // best on 2 of 3 at ratio 1
  EXPECT_NEAR(p0[2].fraction, 1.0, 1e-12);        // within 2x everywhere
  const auto p1 = performance_profile(times, 1, grid);
  EXPECT_NEAR(p1[0].fraction, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(p1[1].fraction, 2.0 / 3.0, 1e-12);  // 1.5x on case 0
  EXPECT_NEAR(p1[2].fraction, 3.0 / 3.0, 1e-12);  // 2x on case 1
}

TEST(PerformanceProfile, IgnoresNonFiniteEntries) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> times = {
      {1.0, inf},
      {2.0, 3.0},
  };
  const auto p0 = performance_profile(times, 0, {1.0, 10.0});
  // Scheme 0 solves only case 0; fractions count over all valid cases.
  EXPECT_NEAR(p0[0].fraction, 0.5, 1e-12);
  EXPECT_NEAR(p0[1].fraction, 0.5, 1e-12);
  const auto p1 = performance_profile(times, 1, {1.0, 2.0, 10.0});
  EXPECT_NEAR(p1[0].fraction, 0.5, 1e-12);  // best on case 1
  EXPECT_NEAR(p1[1].fraction, 1.0, 1e-12);  // 2x on case 0
}

TEST(PerformanceProfile, DefaultGridShape) {
  const auto grid = default_ratio_grid(2.4, 0.1);
  ASSERT_FALSE(grid.empty());
  EXPECT_DOUBLE_EQ(grid.front(), 1.0);
  EXPECT_NEAR(grid.back(), 2.4, 1e-9);
}

TEST(SplitTimer, AccumulatesSlots) {
  SplitTimer t;
  t.start();
  t.lap(0);
  t.lap(1);
  EXPECT_GE(t.total(0), 0.0);
  EXPECT_GE(t.total(1), 0.0);
  t.clear();
  EXPECT_DOUBLE_EQ(t.total(0), 0.0);
  EXPECT_DOUBLE_EQ(t.total(1), 0.0);
  EXPECT_DOUBLE_EQ(t.total(-1), 0.0);  // out-of-range slots are inert
  EXPECT_DOUBLE_EQ(t.total(99), 0.0);
}

std::vector<int> cached_keys(BoundedCache<int, std::string>& c,
                             int max_key) {
  std::vector<int> keys;
  for (int k = 0; k <= max_key; ++k) {
    if (c.find(k) != nullptr) keys.push_back(k);
  }
  return keys;
}

TEST(BoundedCache, EvictsOldestFirst) {
  BoundedCache<int, std::string> c(3);
  EXPECT_EQ(c.put(1, "a"), 0u);
  EXPECT_EQ(c.put(2, "b"), 0u);
  EXPECT_EQ(c.put(3, "c"), 0u);
  ASSERT_NE(c.find(1), nullptr);  // a lookup does not refresh the position
  EXPECT_EQ(c.put(4, "d"), 1u);
  EXPECT_EQ(cached_keys(c, 9), (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(c.put(5, "e"), 1u);
  EXPECT_EQ(cached_keys(c, 9), (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(*c.find(5), "e");
  EXPECT_EQ(c.size(), 3u);
}

TEST(BoundedCache, ReplaceKeepsPositionAndEvictsNothing) {
  BoundedCache<int, std::string> c(3);
  c.put(1, "a");
  c.put(2, "b");
  c.put(3, "c");
  EXPECT_EQ(c.put(1, "A"), 0u);  // present: replaced in place
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(*c.find(1), "A");
  EXPECT_EQ(c.put(4, "d"), 1u);  // key 1 is still the oldest
  EXPECT_EQ(cached_keys(c, 9), (std::vector<int>{2, 3, 4}));
}

TEST(BoundedCache, EraseIfKeepsSurvivorOrder) {
  BoundedCache<int, std::string> c(4);
  for (int k = 1; k <= 4; ++k) c.put(k, std::to_string(k));
  EXPECT_EQ(c.erase_if([](int k) { return k % 2 == 0; }), 2u);
  EXPECT_EQ(cached_keys(c, 9), (std::vector<int>{1, 3}));
  c.put(5, "5");
  c.put(6, "6");
  EXPECT_EQ(c.put(7, "7"), 1u);  // 1 is the oldest survivor
  EXPECT_EQ(cached_keys(c, 9), (std::vector<int>{3, 5, 6, 7}));
  EXPECT_EQ(c.erase_if([](int) { return false; }), 0u);
  c.clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.find(3), nullptr);
}

TEST(BoundedCache, CapacityOneHoldsTheNewest) {
  BoundedCache<int, std::string> c(1);
  EXPECT_EQ(c.put(1, "a"), 0u);
  EXPECT_EQ(c.put(1, "b"), 0u);
  EXPECT_EQ(*c.find(1), "b");
  EXPECT_EQ(c.put(2, "c"), 1u);
  EXPECT_EQ(c.find(1), nullptr);
  EXPECT_EQ(*c.find(2), "c");
}

TEST(BoundedCache, EvictedCountSumsToOverflow) {
  BoundedCache<int, int> c(8);
  std::size_t evicted = 0;
  for (int k = 0; k < 30; ++k) evicted += c.put(k, k);
  for (int k = 0; k < 30; ++k) evicted += c.put(k % 3 + 27, k);  // replaces
  EXPECT_EQ(evicted, 22u);
  EXPECT_EQ(c.size(), 8u);
  EXPECT_EQ(*c.find(29), 29);
  EXPECT_EQ(*c.find(27), 27);  // last replace of key 27 stored k = 27
}

}  // namespace
}  // namespace msp
