#include "sim/calendar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace mcsim {
namespace {

TEST(Calendar, PopsInTimeOrder) {
  Calendar cal;
  cal.push(3.0);
  cal.push(1.0);
  cal.push(2.0);
  EXPECT_DOUBLE_EQ(cal.pop().time, 1.0);
  EXPECT_DOUBLE_EQ(cal.pop().time, 2.0);
  EXPECT_DOUBLE_EQ(cal.pop().time, 3.0);
  EXPECT_TRUE(cal.empty());
}

TEST(Calendar, SimultaneousEventsFifoBySequence) {
  Calendar cal;
  const EventId first = cal.push(5.0);
  const EventId second = cal.push(5.0);
  const EventId third = cal.push(5.0);
  EXPECT_EQ(cal.pop().id, first);
  EXPECT_EQ(cal.pop().id, second);
  EXPECT_EQ(cal.pop().id, third);
}

TEST(Calendar, NextTimePeeksWithoutPopping) {
  Calendar cal;
  cal.push(7.0);
  EXPECT_DOUBLE_EQ(cal.next_time(), 7.0);
  EXPECT_EQ(cal.size(), 1u);
}

TEST(Calendar, CancelRemovesEvent) {
  Calendar cal;
  const EventId a = cal.push(1.0);
  cal.push(2.0);
  EXPECT_TRUE(cal.cancel(a));
  EXPECT_EQ(cal.size(), 1u);
  EXPECT_DOUBLE_EQ(cal.pop().time, 2.0);
}

TEST(Calendar, DoubleCancelFails) {
  Calendar cal;
  const EventId a = cal.push(1.0);
  EXPECT_TRUE(cal.cancel(a));
  EXPECT_FALSE(cal.cancel(a));
}

TEST(Calendar, CancelUnknownIdFails) {
  Calendar cal;
  EXPECT_FALSE(cal.cancel(kNoEvent));
  EXPECT_FALSE(cal.cancel(9999));
}

TEST(Calendar, CancelHeadThenPeek) {
  Calendar cal;
  const EventId head = cal.push(1.0);
  cal.push(5.0);
  cal.cancel(head);
  EXPECT_DOUBLE_EQ(cal.next_time(), 5.0);
}

TEST(Calendar, PopOnEmptyThrows) {
  Calendar cal;
  EXPECT_THROW(cal.pop(), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(cal.next_time()), std::invalid_argument);
}

TEST(Calendar, ClearEmptiesEverything) {
  Calendar cal;
  cal.push(1.0);
  cal.push(2.0);
  cal.clear();
  EXPECT_TRUE(cal.empty());
  EXPECT_EQ(cal.size(), 0u);
}

TEST(Calendar, CancelAfterPopFails) {
  Calendar cal;
  const EventId a = cal.push(1.0);
  cal.push(2.0);
  EXPECT_EQ(cal.pop().id, a);
  // The id already fired: cancelling it must fail and must not disturb the
  // remaining live event.
  EXPECT_FALSE(cal.cancel(a));
  EXPECT_EQ(cal.size(), 1u);
  EXPECT_DOUBLE_EQ(cal.pop().time, 2.0);
}

TEST(Calendar, StaleIdCannotCancelRecycledSlot) {
  Calendar cal;
  const EventId old_id = cal.push(1.0);
  cal.pop();
  // The slot is recycled by the next push, but under a new generation: the
  // stale id must not cancel the new event.
  const EventId new_id = cal.push(3.0);
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(cal.cancel(old_id));
  EXPECT_EQ(cal.size(), 1u);
  EXPECT_TRUE(cal.cancel(new_id));
  EXPECT_TRUE(cal.empty());
}

TEST(Calendar, IdsFromBeforeClearStayDead) {
  Calendar cal;
  const EventId a = cal.push(1.0);
  const EventId b = cal.push(2.0);
  cal.clear();
  const EventId c = cal.push(5.0);
  EXPECT_FALSE(cal.cancel(a));
  EXPECT_FALSE(cal.cancel(b));
  EXPECT_EQ(cal.size(), 1u);
  EXPECT_EQ(cal.pop().id, c);
}

TEST(Calendar, CancelledEntriesDoNotResurfaceAfterSlotReuse) {
  Calendar cal;
  // Cancel an event whose stale heap entry is still buried, then reuse its
  // slot for a later event: the buried entry must be skipped, the new one
  // must fire.
  cal.push(1.0);
  const EventId cancelled = cal.push(2.0);
  cal.push(4.0);
  EXPECT_TRUE(cal.cancel(cancelled));
  const EventId reused = cal.push(3.0);
  EXPECT_DOUBLE_EQ(cal.pop().time, 1.0);
  const auto next = cal.pop();
  EXPECT_DOUBLE_EQ(next.time, 3.0);
  EXPECT_EQ(next.id, reused);
  EXPECT_DOUBLE_EQ(cal.pop().time, 4.0);
  EXPECT_TRUE(cal.empty());
}

TEST(Calendar, StressRandomOrderIsSorted) {
  Calendar cal;
  Rng rng(101);
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) cal.push(rng.uniform(0.0, 1000.0));
  double last = -1.0;
  int popped = 0;
  while (!cal.empty()) {
    const auto entry = cal.pop();
    EXPECT_GE(entry.time, last);
    last = entry.time;
    ++popped;
  }
  EXPECT_EQ(popped, kN);
}

TEST(Calendar, StressWithInterleavedCancels) {
  Calendar cal;
  Rng rng(103);
  std::vector<EventId> live;
  for (int i = 0; i < 2000; ++i) live.push_back(cal.push(rng.uniform(0.0, 100.0)));
  // Cancel every third event.
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < live.size(); i += 3) {
    EXPECT_TRUE(cal.cancel(live[i]));
    ++cancelled;
  }
  EXPECT_EQ(cal.size(), live.size() - cancelled);
  double last = -1.0;
  std::size_t popped = 0;
  while (!cal.empty()) {
    const auto entry = cal.pop();
    EXPECT_GE(entry.time, last);
    // Popped events must not be cancelled ones.
    EXPECT_NE((std::find(live.begin(), live.end(), entry.id) - live.begin()) % 3, 0);
    last = entry.time;
    ++popped;
  }
  EXPECT_EQ(popped, live.size() - cancelled);
}

}  // namespace
}  // namespace mcsim
