#include "net/sim.hpp"

#include <gtest/gtest.h>

namespace argus::net {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 30.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, SameTimeEventsKeepScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, EventsMayScheduleEvents) {
  Simulator sim;
  double fired_at = -1;
  sim.schedule(1, [&] {
    sim.schedule(2, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 3.0);
  EXPECT_EQ(sim.executed(), 2u);
}

TEST(SimulatorTest, RunUntilLeavesLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(50, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.now(), 20.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RejectsPastScheduling) {
  Simulator sim;
  sim.schedule(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule(-1, [] {}), std::invalid_argument);
}

TEST(SimulatorTest, TimersFireUnlessCancelled) {
  Simulator sim;
  int fired = 0;
  const TimerId keep = sim.schedule_timer(10, [&] { ++fired; });
  const TimerId drop = sim.schedule_timer(20, [&] { ++fired; });
  EXPECT_NE(keep, drop);
  EXPECT_TRUE(sim.cancel_timer(drop));
  EXPECT_FALSE(sim.cancel_timer(drop));  // second cancel is a no-op
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelledTimerDoesNotAdvanceClock) {
  // A cancelled timer's queue entry must vanish without a trace: the clock
  // ends at the last *live* event, not at the dead timer's deadline.
  Simulator sim;
  sim.schedule(5, [] {});
  const TimerId t = sim.schedule_timer(100, [] {});
  sim.cancel_timer(t);
  EXPECT_EQ(sim.run(), 5.0);
  EXPECT_EQ(sim.executed(), 1u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, TimerMayCancelLaterTimer) {
  Simulator sim;
  bool late_fired = false;
  const TimerId late = sim.schedule_timer(50, [&] { late_fired = true; });
  sim.schedule_timer(10, [&] { sim.cancel_timer(late); });
  EXPECT_EQ(sim.run(), 10.0);
  EXPECT_FALSE(late_fired);
}

TEST(SimulatorTest, DrainUntilDoesNotForceClockForward) {
  // run_until pins now() to the deadline; drain_until reports where the
  // work actually stopped — a bounded round that finishes early ends early.
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(50, [&] { ++fired; });
  EXPECT_EQ(sim.drain_until(30), 10.0);
  EXPECT_EQ(sim.now(), 10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, PendingIsExactUnderCancellation) {
  // pending() counts live work only: a cancelled timer's tombstone slot
  // must not be reported, however long it lingers in the queue.
  Simulator sim;
  sim.schedule(100, [] {});
  std::vector<TimerId> timers;
  for (int i = 0; i < 6; ++i) {
    timers.push_back(sim.schedule_timer(10 + i, [] {}));
  }
  EXPECT_EQ(sim.pending(), 7u);
  EXPECT_TRUE(sim.cancel_timer(timers[1]));
  EXPECT_TRUE(sim.cancel_timer(timers[4]));
  EXPECT_EQ(sim.pending(), 5u);
  sim.run_until(11);  // fires timers[0] + prunes the timers[1] tombstone
  EXPECT_EQ(sim.pending(), 4u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, TombstoneCompactionKeepsLiveOrder) {
  // Cancel far more than half the queue: compaction must sweep the dead
  // entries in one pass while every live event still fires, in order.
  Simulator sim;
  std::vector<int> order;
  std::vector<TimerId> doomed;
  for (int i = 0; i < 64; ++i) {
    if (i % 4 == 0) {
      const int tag = i;
      sim.schedule_timer(static_cast<SimTime>(i) + 1,
                         [&order, tag] { order.push_back(tag); });
    } else {
      doomed.push_back(sim.schedule_timer(static_cast<SimTime>(i) + 1, [&] {
        ADD_FAILURE() << "cancelled timer fired";
      }));
    }
  }
  for (const TimerId id : doomed) EXPECT_TRUE(sim.cancel_timer(id));
  // 48 of 64 cancelled: past the half-queue threshold, so the tombstones
  // are compacted away and pending() is exact without any pops.
  EXPECT_EQ(sim.pending(), 16u);
  sim.run();
  EXPECT_EQ(sim.executed(), 16u);
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i]);
  }
}

TEST(SimulatorTest, CancelAfterCompactionIsIdempotent) {
  Simulator sim;
  std::vector<TimerId> timers;
  for (int i = 0; i < 8; ++i) timers.push_back(sim.schedule_timer(10, [] {}));
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(sim.cancel_timer(timers[i]));
  // The compaction pass already removed these entries; cancelling again
  // must stay a no-op rather than corrupting the live count.
  for (int i = 0; i < 7; ++i) EXPECT_FALSE(sim.cancel_timer(timers[i]));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(SimulatorTest, HeapStressKeepsExactOrder) {
  // Storm of schedules at repeating + spread-out times (clustered small
  // times, a heavy same-time pileup and far-future spikes): events must
  // fire in exact (time, seq) order.
  Simulator sim;
  std::vector<std::pair<double, int>> fired;
  int tag = 0;
  std::uint64_t mix = 0x9e3779b97f4a7c15ull;
  std::vector<std::pair<double, int>> expect;
  for (int i = 0; i < 500; ++i) {
    mix = mix * 6364136223846793005ull + 1442695040888963407ull;
    // Times cluster at small values with occasional far-future spikes.
    double when = static_cast<double>((mix >> 33) % 97);
    if (i % 37 == 0) when += 1e5 + static_cast<double>(i);
    if (i % 11 == 0) when = 42;  // heavy same-time pileup
    const int id = tag++;
    sim.schedule(when, [&fired, &sim, id] {
      fired.emplace_back(sim.now(), id);
    });
    expect.emplace_back(when, id);
  }
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  sim.run();
  ASSERT_EQ(fired.size(), expect.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].first, expect[i].first) << "index " << i;
    EXPECT_EQ(fired[i].second, expect[i].second) << "index " << i;
  }
}

TEST(SimulatorTest, StressWithInterleavedCancellation) {
  // Mixed schedule/cancel churn: live timers all fire exactly once, in
  // order, and pending() stays exact throughout.
  Simulator sim;
  int fired = 0;
  std::vector<TimerId> ids;
  for (int round = 0; round < 50; ++round) {
    for (int j = 0; j < 8; ++j) {
      ids.push_back(sim.schedule_timer(1 + ((round * 13 + j * 7) % 200),
                                       [&fired] { ++fired; }));
    }
    // Cancel every third outstanding timer from this round.
    for (std::size_t k = ids.size() - 8; k < ids.size(); k += 3) {
      sim.cancel_timer(ids[k]);
    }
  }
  const std::size_t live = sim.pending();
  sim.run();
  EXPECT_EQ(static_cast<std::size_t>(fired), live);
  EXPECT_EQ(sim.pending(), 0u);
}

}  // namespace
}  // namespace argus::net
