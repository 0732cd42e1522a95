// Unit tests for the driver's expected_lag index
// (src/core/training_end_index.hpp): the Fenwick prefix counts against a
// brute-force multiset over random add/remove sequences, and the O(1)
// per-slot step count_at that lets the driver carry a lag count from one
// end slot to the next — including the clamped ends at and past the cap,
// where the step must read 0.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/training_end_index.hpp"
#include "util/rng.hpp"

namespace fedco::core {
namespace {

constexpr sim::Slot kCap = 64;

/// What count_le promises: ends and the query clamp to [0, cap] alike.
std::size_t brute_count_le(const std::vector<sim::Slot>& ends, sim::Slot e) {
  const auto clamp = [](sim::Slot x) {
    return x < 0 ? 0 : (x > kCap ? kCap : x);
  };
  std::size_t n = 0;
  for (const sim::Slot x : ends) n += clamp(x) <= clamp(e) ? 1 : 0;
  return n;
}

/// Every prefix count matches the multiset, and every step count_at(e)
/// is the difference of neighbouring prefix counts.
void expect_consistent(const TrainingEndIndex& index,
                       const std::vector<sim::Slot>& ends) {
  for (sim::Slot e = -2; e <= kCap + 2; ++e) {
    ASSERT_EQ(index.count_le(e), brute_count_le(ends, e)) << "end " << e;
    ASSERT_EQ(index.count_le(e), index.count_le(e - 1) + index.count_at(e))
        << "end " << e;
  }
}

TEST(TrainingEndIndex, RandomAddRemoveMatchesMultiset) {
  TrainingEndIndex index;
  index.init(kCap);
  std::vector<sim::Slot> ends;
  util::Rng rng{7};
  for (int step = 0; step < 2000; ++step) {
    // Mostly inserts early, balanced later; ends reach past the cap.
    if (ends.empty() || rng.uniform() < (step < 200 ? 0.8 : 0.5)) {
      const auto end = static_cast<sim::Slot>(rng.uniform() * (kCap + 8));
      index.add(end, +1);
      ends.push_back(end);
    } else {
      const auto k = static_cast<std::size_t>(rng.uniform() *
                                              static_cast<double>(ends.size()));
      index.add(ends[k], -1);
      ends[k] = ends.back();
      ends.pop_back();
    }
    if (step % 50 == 0) expect_consistent(index, ends);
  }
  expect_consistent(index, ends);
  for (const sim::Slot x : ends) index.add(x, -1);
  EXPECT_EQ(index.count_le(kCap + 2), 0u);
}

TEST(TrainingEndIndex, StepIsZeroWhereClampingMergesSlots) {
  TrainingEndIndex index;
  index.init(kCap);
  // Ends at 0, at the cap, and past it (clamped onto the cap).
  for (const sim::Slot end : {sim::Slot{0}, sim::Slot{5}, kCap, kCap + 1,
                              kCap + 40}) {
    index.add(end, +1);
  }
  EXPECT_EQ(index.count_at(5), 1u);
  EXPECT_EQ(index.count_at(kCap), 3u);  // the cap holds every clamped end
  // Past the cap (and below 1) the prefix count no longer moves, so a
  // driver advancing a cached count through these slots must add nothing;
  // reading the cap's bucket there would count the clamped ends again.
  for (const sim::Slot e : {sim::Slot{-2}, sim::Slot{-1}, sim::Slot{0},
                            kCap + 1, kCap + 2, kCap + 100}) {
    EXPECT_EQ(index.count_at(e), 0u) << "end " << e;
  }
  // A cached count carried slot by slot from below 0 to past the cap
  // equals a fresh prefix count at every step.
  std::size_t carried = index.count_le(-3);
  for (sim::Slot e = -2; e <= kCap + 3; ++e) {
    carried += index.count_at(e);
    ASSERT_EQ(carried, index.count_le(e)) << "end " << e;
  }
}

}  // namespace
}  // namespace fedco::core
