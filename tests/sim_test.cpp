#include <gtest/gtest.h>

#include <vector>

#include "sim/clock.hpp"
#include "sim/trace.hpp"

namespace fedco::sim {
namespace {

TEST(ClockTest, AdvanceAndSeconds) {
  Clock clock{2.0};
  EXPECT_EQ(clock.now(), 0);
  EXPECT_EQ(clock.seconds(), 0.0);
  clock.advance(3);
  EXPECT_EQ(clock.now(), 3);
  EXPECT_EQ(clock.seconds(), 6.0);
  clock.reset();
  EXPECT_EQ(clock.now(), 0);
}

TEST(ClockTest, SlotsForSecondsRoundsUp) {
  Clock clock{1.0};
  EXPECT_EQ(clock.slots_for_seconds(0.0), 0);
  EXPECT_EQ(clock.slots_for_seconds(-5.0), 0);
  EXPECT_EQ(clock.slots_for_seconds(1.0), 1);
  EXPECT_EQ(clock.slots_for_seconds(1.2), 2);
  EXPECT_EQ(clock.slots_for_seconds(204.0), 204);
  Clock half{0.5};
  EXPECT_EQ(half.slots_for_seconds(1.2), 3);
}

TEST(ClockTest, NonPositiveSlotLengthFallsBackToOne) {
  Clock clock{0.0};
  EXPECT_EQ(clock.slot_seconds(), 1.0);
}

TEST(TraceRecorderTest, CreatesAndRecords) {
  TraceRecorder rec;
  rec.record("q", 0.0, 1.0);
  rec.record("q", 1.0, 2.0);
  rec.record("h", 0.0, 5.0);
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_TRUE(rec.contains("q"));
  EXPECT_FALSE(rec.contains("x"));
  ASSERT_NE(rec.find("q"), nullptr);
  EXPECT_EQ(rec.find("q")->size(), 2u);
  EXPECT_EQ(rec.find("missing"), nullptr);
  const auto names = rec.names();
  EXPECT_EQ(names, (std::vector<std::string>{"h", "q"}));
}

}  // namespace
}  // namespace fedco::sim
