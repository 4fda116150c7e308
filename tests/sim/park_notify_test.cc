// Clock::Park/Notify: the one wait primitive every cross-activity wait in the
// runtime uses. Covers the SimClock contract (same-instant wakeups, no lost
// wakeups, exact deadlines, parked waiters never holding time back) and the
// RealClock implementation.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "sim/sim_clock.h"

namespace faasm {
namespace {

TEST(ParkNotifyTest, NotifyWakesParkedActivityAtSameInstant) {
  SimExecutor executor;
  SimClock& clock = executor.clock();
  WaitQueue queue;
  std::atomic<bool> notified{false};
  std::atomic<TimeNs> woke_at{-1};
  {
    SimClock::Hold hold(clock);
    executor.Spawn([&] {
      notified = clock.Park(queue, queue.Seq());
      woke_at = clock.Now();
    });
    executor.Spawn([&] {
      clock.SleepFor(3 * kMillisecond + 7);
      clock.Notify(queue);
    });
  }
  executor.JoinAll();
  EXPECT_TRUE(notified.load());
  EXPECT_EQ(woke_at.load(), 3 * kMillisecond + 7);
}

TEST(ParkNotifyTest, NotifyAfterSequenceReadIsNotLost) {
  SimExecutor executor;
  SimClock& clock = executor.clock();
  WaitQueue queue;
  bool notified = false;
  TimeNs returned_at = -1;
  executor.Spawn([&] {
    const uint64_t seen = queue.Seq();
    clock.Notify(queue);  // lands between the read and the park
    notified = clock.Park(queue, seen, kSecond);
    returned_at = clock.Now();
  });
  executor.JoinAll();
  EXPECT_TRUE(notified);
  EXPECT_EQ(returned_at, 0);  // returned at once, not at the deadline
}

TEST(ParkNotifyTest, RacingNotifiesAreNeverLost) {
  // Producer and consumer run concurrently at one virtual instant; every
  // notify races the consumer's predicate check. A lost wakeup would leave
  // the consumer parked until its deadline, moving virtual time.
  constexpr int kRounds = 2000;
  SimExecutor executor;
  SimClock& clock = executor.clock();
  WaitQueue queue;
  std::atomic<int> produced{0};
  std::atomic<int> misses{0};
  {
    SimClock::Hold hold(clock);
    executor.Spawn([&] {
      for (int i = 1; i <= kRounds; ++i) {
        if (!clock.WaitOn(queue, [&] { return produced.load() >= i; }, kSecond)) {
          misses.fetch_add(1);
        }
      }
    });
    executor.Spawn([&] {
      for (int i = 0; i < kRounds; ++i) {
        produced.fetch_add(1);
        clock.Notify(queue);
        if (i % 64 == 0) {
          std::this_thread::yield();
        }
      }
    });
  }
  executor.JoinAll();
  EXPECT_EQ(misses.load(), 0);
  EXPECT_EQ(clock.Now(), 0);
}

TEST(ParkNotifyTest, DeadlineWakeReturnsFalseExactlyAtDeadline) {
  SimExecutor executor;
  SimClock& clock = executor.clock();
  WaitQueue queue;
  bool notified = true;
  TimeNs woke_at = -1;
  bool past_deadline = true;
  TimeNs past_returned_at = -1;
  executor.Spawn([&] {
    notified = clock.Park(queue, queue.Seq(), 5 * kMillisecond);
    woke_at = clock.Now();
    past_deadline = clock.Park(queue, queue.Seq(), kMillisecond);  // already passed
    past_returned_at = clock.Now();
  });
  executor.JoinAll();
  EXPECT_FALSE(notified);
  EXPECT_EQ(woke_at, 5 * kMillisecond);
  EXPECT_FALSE(past_deadline);
  EXPECT_EQ(past_returned_at, 5 * kMillisecond);
}

TEST(ParkNotifyTest, ParkedWaiterWithoutDeadlineDoesNotHoldTimeBack) {
  SimExecutor executor;
  SimClock& clock = executor.clock();
  WaitQueue queue;
  std::atomic<TimeNs> sleeper_done{-1};
  std::atomic<TimeNs> waiter_woke{-1};
  {
    SimClock::Hold hold(clock);
    executor.Spawn([&] {
      clock.Park(queue, queue.Seq());
      waiter_woke = clock.Now();
    });
    executor.Spawn([&] {
      clock.SleepFor(2 * kSecond);
      clock.SleepFor(3 * kSecond);
      sleeper_done = clock.Now();
      clock.Notify(queue);
    });
  }
  executor.JoinAll();
  EXPECT_EQ(sleeper_done.load(), 5 * kSecond);
  EXPECT_EQ(waiter_woke.load(), 5 * kSecond);
}

TEST(ParkNotifyTest, NotifyWakesOnlyItsOwnQueue) {
  SimExecutor executor;
  SimClock& clock = executor.clock();
  WaitQueue mine;
  WaitQueue other;
  std::atomic<bool> notified{true};
  std::atomic<TimeNs> woke_at{-1};
  {
    SimClock::Hold hold(clock);
    executor.Spawn([&] {
      notified = clock.Park(mine, mine.Seq(), 4 * kMillisecond);
      woke_at = clock.Now();
    });
    executor.Spawn([&] {
      clock.SleepFor(kMillisecond);
      clock.Notify(other);
    });
  }
  executor.JoinAll();
  EXPECT_FALSE(notified.load());
  EXPECT_EQ(woke_at.load(), 4 * kMillisecond);
}

TEST(ParkNotifyTest, WaitOnReportsPredicateAtDeadline) {
  SimExecutor executor;
  SimClock& clock = executor.clock();
  WaitQueue queue;
  std::atomic<bool> flag{false};
  std::atomic<bool> timed_out_result{true};
  std::atomic<bool> met_result{false};
  std::atomic<TimeNs> met_at{-1};
  {
    SimClock::Hold hold(clock);
    executor.Spawn([&] {
      timed_out_result = clock.WaitOn(queue, [&] { return flag.load(); }, kMillisecond);
      met_result = clock.WaitOn(queue, [&] { return flag.load(); });
      met_at = clock.Now();
    });
    executor.Spawn([&] {
      clock.SleepFor(2 * kMillisecond);
      flag = true;
      clock.Notify(queue);
    });
  }
  executor.JoinAll();
  EXPECT_FALSE(timed_out_result.load());
  EXPECT_TRUE(met_result.load());
  EXPECT_EQ(met_at.load(), 2 * kMillisecond);
}

TEST(ParkNotifyTest, RealClockParkAndNotify) {
  RealClock& clock = RealClock::Instance();
  WaitQueue queue;
  // Deadline wake: nobody notifies.
  const TimeNs start = clock.Now();
  EXPECT_FALSE(clock.Park(queue, queue.Seq(), start + kMillisecond));
  EXPECT_GE(clock.Now(), start + kMillisecond);
  // Notify from another thread wakes a deadline-free park.
  std::atomic<bool> flag{false};
  std::thread notifier([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    flag = true;
    clock.Notify(queue);
  });
  EXPECT_TRUE(clock.WaitOn(queue, [&] { return flag.load(); }));
  notifier.join();
  // A notify between the read and the park is not lost.
  const uint64_t seen = queue.Seq();
  clock.Notify(queue);
  EXPECT_TRUE(clock.Park(queue, seen));
}

}  // namespace
}  // namespace faasm
