// PollLock under virtual time: blocked acquirers park on the lock and get it
// at the exact instant it is released, never a quantum later.
#include "common/poll_lock.h"

#include <gtest/gtest.h>

#include <atomic>

#include "sim/sim_clock.h"

namespace faasm {
namespace {

TEST(PollLockTest, BlockedAcquirersGetTheLockAtTheReleaseInstant) {
  SimExecutor executor;
  SimClock& clock = executor.clock();
  PollLock lock(&clock);
  std::atomic<TimeNs> reader_in{-1};
  std::atomic<TimeNs> writer_in{-1};
  {
    SimClock::Hold hold(clock);
    executor.Spawn([&] {
      PollLock::WriteGuard guard(lock);
      clock.SleepFor(3 * kMillisecond + 1);
    });
    executor.Spawn([&] {
      clock.SleepFor(kMicrosecond);  // after the writer holds the lock
      PollLock::ReadGuard guard(lock);
      reader_in = clock.Now();
      clock.SleepFor(2 * kMillisecond);
    });
    executor.Spawn([&] {
      clock.SleepFor(2 * kMicrosecond);  // queued behind the writer and reader
      clock.SleepFor(3 * kMillisecond);  // now only the reader holds it
      PollLock::WriteGuard guard(lock);
      writer_in = clock.Now();
    });
  }
  executor.JoinAll();
  EXPECT_EQ(reader_in.load(), 3 * kMillisecond + 1);
  EXPECT_EQ(writer_in.load(), 5 * kMillisecond + 1);
}

TEST(PollLockTest, ManyContendersAllGetExclusiveAccess) {
  SimExecutor executor;
  SimClock& clock = executor.clock();
  PollLock lock(&clock);
  int counter = 0;  // guarded by `lock`
  constexpr int kWorkers = 8;
  constexpr int kRounds = 50;
  {
    SimClock::Hold hold(clock);
    for (int w = 0; w < kWorkers; ++w) {
      executor.Spawn([&] {
        for (int r = 0; r < kRounds; ++r) {
          PollLock::WriteGuard guard(lock);
          const int seen = counter;
          clock.SleepFor(kMicrosecond);
          counter = seen + 1;
        }
      });
    }
  }
  executor.JoinAll();
  EXPECT_EQ(counter, kWorkers * kRounds);
  // Fully serialised, with no idle gap between holders.
  EXPECT_EQ(clock.Now(), kWorkers * kRounds * kMicrosecond);
}

}  // namespace
}  // namespace faasm
