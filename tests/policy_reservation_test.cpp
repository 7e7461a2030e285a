// Unit tests for the backfilling stages' reservation bookkeeping
// (policy/reservation.hpp): the running-job ledger shared by every
// backfilling composition and the conservative stage's availability
// profile.
#include "policy/reservation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

namespace mcsim {
namespace {

TEST(ReservationTracker, PruneDropsCompletedJobs) {
  ReservationTracker tracker;
  tracker.on_start(10.0, 8);
  tracker.on_start(20.0, 4);
  tracker.on_start(30.0, 2);
  tracker.prune(20.0);  // end_time <= now goes away
  ASSERT_EQ(tracker.running().size(), 1u);
  EXPECT_EQ(tracker.running().front().processors, 2u);
  tracker.prune(100.0);
  EXPECT_TRUE(tracker.empty());
}

TEST(ReservationTracker, HeadReservationFindsEarliestFit) {
  ReservationTracker tracker;
  tracker.on_start(/*end_time=*/40.0, /*processors=*/16);
  tracker.on_start(/*end_time=*/10.0, /*processors=*/4);
  tracker.on_start(/*end_time=*/25.0, /*processors=*/8);
  // 6 idle now; the head needs 20. Completions in time order: +4 at t=10
  // (10 free), +8 at t=25 (18 free), +16 at t=40 (34 free) — first fit at
  // t=40 with 14 spare.
  const auto [time, spare] = tracker.head_reservation(/*idle=*/6, /*needed=*/20);
  EXPECT_DOUBLE_EQ(time, 40.0);
  EXPECT_EQ(spare, 14u);
}

TEST(ReservationTracker, HeadReservationUsesUnsortedLedgerCorrectly) {
  // The ledger is in start order; the reservation must scan by end time.
  ReservationTracker tracker;
  tracker.on_start(50.0, 10);
  tracker.on_start(5.0, 10);
  const auto [time, spare] = tracker.head_reservation(/*idle=*/0, /*needed=*/10);
  EXPECT_DOUBLE_EQ(time, 5.0);
  EXPECT_EQ(spare, 0u);
}

TEST(ReservationTracker, ImpossibleHeadDegradesToInfinity) {
  ReservationTracker tracker;
  tracker.on_start(10.0, 8);
  const auto [time, spare] = tracker.head_reservation(/*idle=*/4, /*needed=*/64);
  EXPECT_TRUE(std::isinf(time));
  EXPECT_EQ(spare, 0u);
}

/// Where a job of `size` x `duration` would be reserved, without booking it
/// in `profile`.
double earliest_fit(const AvailabilityProfile& profile, std::uint32_t size,
                    double duration) {
  AvailabilityProfile probe = profile;
  return probe.reserve_earliest(size, duration);
}

TEST(AvailabilityProfile, ResetBuildsStepwiseFreeCounts) {
  AvailabilityProfile profile;
  profile.reset(/*now=*/0.0, /*idle=*/10,
                {{20.0, 6}, {10.0, 4}});  // unsorted on purpose
  // 10 free at t=0, 14 from t=10, 20 from t=20.
  EXPECT_EQ(profile.free_now(), 10u);
  EXPECT_DOUBLE_EQ(earliest_fit(profile, 10, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(earliest_fit(profile, 12, 5.0), 10.0);
  EXPECT_DOUBLE_EQ(earliest_fit(profile, 20, 5.0), 20.0);
}

TEST(AvailabilityProfile, EarliestFitHonoursTheWholeWindow) {
  AvailabilityProfile profile;
  profile.reset(0.0, 16, {{10.0, 16}});
  // 16 free now, 32 from t=10. A job of 16 fits immediately whatever its
  // duration; after reserving 16 over [0, 8) a second 16 must wait until
  // the window [t, t+duration) clears the reservation.
  EXPECT_DOUBLE_EQ(profile.reserve_earliest(16, 8.0), 0.0);
  EXPECT_EQ(profile.free_now(), 0u);
  EXPECT_DOUBLE_EQ(earliest_fit(profile, 16, 4.0), 8.0);
  // A wider job must wait for the running job's completion at t=10.
  EXPECT_DOUBLE_EQ(earliest_fit(profile, 32, 4.0), 10.0);
}

TEST(AvailabilityProfile, ReserveCarvesTheProfile) {
  using Points = std::vector<std::pair<double, std::uint32_t>>;
  AvailabilityProfile profile;
  profile.reset(0.0, 8, {});
  EXPECT_DOUBLE_EQ(profile.reserve_earliest(4, 3.0), 0.0);  // 4 of 8 over [0, 3)
  EXPECT_EQ(profile.points(), (Points{{0.0, 4}, {3.0, 8}}));
  // A job within the remaining 4 starts immediately; anything wider waits
  // for the reservation to expire.
  EXPECT_DOUBLE_EQ(earliest_fit(profile, 4, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(earliest_fit(profile, 5, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(earliest_fit(profile, 8, 2.0), 3.0);
  // A second reservation of the whole machine waits for the first to
  // expire and carves [3, 5), past the last breakpoint.
  EXPECT_DOUBLE_EQ(profile.reserve_earliest(8, 2.0), 3.0);
  EXPECT_EQ(profile.points(), (Points{{0.0, 4}, {3.0, 0}, {5.0, 8}}));
  EXPECT_DOUBLE_EQ(earliest_fit(profile, 4, 1.0), 0.0);  // [0, 3) still has 4
  EXPECT_DOUBLE_EQ(earliest_fit(profile, 8, 1.0), 5.0);
}

TEST(AvailabilityProfile, OversizeNeverFits) {
  AvailabilityProfile profile;
  profile.reset(0.0, 8, {{5.0, 8}});
  const auto before = profile.points();
  EXPECT_TRUE(std::isinf(profile.reserve_earliest(64, 1.0)));
  EXPECT_EQ(profile.points(), before);  // nothing reserved
}

TEST(AvailabilityProfile, ReservationSpansSeveralBreakpoints) {
  using Points = std::vector<std::pair<double, std::uint32_t>>;
  AvailabilityProfile profile;
  profile.reset(0.0, 2, {{1.0, 2}, {2.0, 2}, {4.0, 2}});
  // 2, 4, 6, 8 free from t = 0, 1, 2, 4. A job of 3 for 2.5 cannot start
  // at 0 (2 free) and starts at 1, its window [1, 3.5) crossing t=2.
  EXPECT_DOUBLE_EQ(profile.reserve_earliest(3, 2.5), 1.0);
  EXPECT_EQ(profile.points(),
            (Points{{0.0, 2}, {1.0, 1}, {2.0, 3}, {3.5, 6}, {4.0, 8}}));
  // A window ending exactly on a breakpoint inserts none.
  EXPECT_DOUBLE_EQ(profile.reserve_earliest(3, 1.5), 2.0);
  EXPECT_EQ(profile.points(),
            (Points{{0.0, 2}, {1.0, 1}, {2.0, 0}, {3.5, 6}, {4.0, 8}}));
  // A zero-length job reserves nothing.
  EXPECT_DOUBLE_EQ(profile.reserve_earliest(2, 0.0), 0.0);
  EXPECT_EQ(profile.free_now(), 2u);
}

}  // namespace
}  // namespace mcsim
