#include "sim/sim_clock.h"

#include <gtest/gtest.h>

#include <atomic>

#include "sim/cpu_model.h"

namespace faasm {
namespace {

TEST(SimClockTest, SingleThreadSleepAdvances) {
  SimExecutor executor;
  TimeNs observed = -1;
  executor.Spawn([&] {
    executor.clock().SleepFor(5 * kSecond);
    observed = executor.clock().Now();
  });
  executor.JoinAll();
  EXPECT_EQ(observed, 5 * kSecond);
}

TEST(SimClockTest, VirtualTimeIsInstantInRealTime) {
  SimExecutor executor;
  Stopwatch wall;
  executor.Spawn([&] { executor.clock().SleepFor(3600 * kSecond); });  // one virtual hour
  executor.JoinAll();
  EXPECT_LT(wall.ElapsedNs(), kSecond);  // well under a real second
}

TEST(SimClockTest, ParallelSleepersOverlapInVirtualTime) {
  SimExecutor executor;
  std::atomic<TimeNs> end_a{0};
  std::atomic<TimeNs> end_b{0};
  {
    SimClock::Hold hold(executor.clock());
    executor.Spawn([&] {
      executor.clock().SleepFor(10 * kSecond);
      end_a = executor.clock().Now();
    });
    executor.Spawn([&] {
      executor.clock().SleepFor(10 * kSecond);
      end_b = executor.clock().Now();
    });
  }
  executor.JoinAll();
  // Both finish at t=10s: they overlapped rather than serialised.
  EXPECT_EQ(end_a.load(), 10 * kSecond);
  EXPECT_EQ(end_b.load(), 10 * kSecond);
}

TEST(SimClockTest, OrderingOfStaggeredDeadlines) {
  SimExecutor executor;
  std::vector<int> order;
  std::mutex order_mutex;
  {
    // Keep the clock from advancing while this (unregistered) thread is
    // still spawning activities.
    SimClock::Hold hold(executor.clock());
    for (int i = 3; i >= 1; --i) {
      executor.Spawn([&, i] {
        executor.clock().SleepFor(i * kSecond);
        std::lock_guard<std::mutex> guard(order_mutex);
        order.push_back(i);
      });
    }
  }
  executor.JoinAll();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimClockTest, WaitForPredicate) {
  SimExecutor executor;
  std::atomic<bool> flag{false};
  std::atomic<TimeNs> waiter_done{0};
  {
    SimClock::Hold hold(executor.clock());
    executor.Spawn([&] {
      executor.clock().SleepFor(2 * kSecond);
      flag = true;
    });
    executor.Spawn([&] {
      const bool ok = executor.clock().WaitFor([&] { return flag.load(); });
      EXPECT_TRUE(ok);
      waiter_done = executor.clock().Now();
    });
  }
  executor.JoinAll();
  EXPECT_GE(waiter_done.load(), 2 * kSecond);
  EXPECT_LT(waiter_done.load(), 2 * kSecond + 10 * kMillisecond);
}

TEST(SimClockTest, WaitForDeadlineExpires) {
  SimExecutor executor;
  bool result = true;
  executor.Spawn([&] {
    result = executor.clock().WaitFor([] { return false; }, kMillisecond, 100 * kMillisecond);
  });
  executor.JoinAll();
  EXPECT_FALSE(result);
}

TEST(SimClockTest, NestedSpawnsParticipate) {
  SimExecutor executor;
  std::atomic<TimeNs> child_end{0};
  executor.Spawn([&] {
    executor.clock().SleepFor(kSecond);
    executor.Spawn([&] {
      executor.clock().SleepFor(kSecond);
      child_end = executor.clock().Now();
    });
  });
  executor.JoinAll();  // loops until nested spawns are drained
  EXPECT_EQ(child_end.load(), 2 * kSecond);
}

// A long-lived executor (one simulated cluster serving a benchmark) spawns far
// more activities over its life than the process can hold threads. Finished
// activities must be reaped as new ones spawn: 40k exceeds what one process
// can keep unjoined (each holds a mapped stack), so without reaping a Spawn
// dies with std::system_error (EAGAIN) part-way through.
TEST(SimExecutorTest, ReapsFinishedActivitiesAcrossManySpawns) {
  constexpr int kActivities = 40000;
  constexpr int kBurst = 64;
  SimExecutor executor;
  std::atomic<int> ran{0};
  // The spawner is itself an activity, as in a cluster: it spawns in bursts and
  // sleeps between them, so each burst can finish before the next starts.
  executor.Spawn([&] {
    for (int i = 0; i < kActivities; ++i) {
      executor.Spawn([&] {
        executor.clock().SleepFor(kMicrosecond);
        ran.fetch_add(1, std::memory_order_relaxed);
      });
      if (i % kBurst == kBurst - 1) {
        executor.clock().SleepFor(2 * kMicrosecond);
      }
    }
  });
  executor.JoinAll();
  EXPECT_EQ(ran.load(), kActivities);
}

TEST(CpuModelTest, UndersubscribedRunsAtFullSpeed) {
  SimExecutor executor;
  HostCpuModel cpu(&executor.clock(), 4);
  TimeNs elapsed = 0;
  executor.Spawn([&] {
    HostCpuModel::Running running(cpu);
    const TimeNs start = executor.clock().Now();
    cpu.Charge(100 * kMillisecond);
    elapsed = executor.clock().Now() - start;
  });
  executor.JoinAll();
  EXPECT_EQ(elapsed, 100 * kMillisecond);
}

TEST(CpuModelTest, OversubscriptionSlowsEveryone) {
  SimExecutor executor;
  HostCpuModel cpu(&executor.clock(), 1);
  std::atomic<TimeNs> end_time{0};
  for (int i = 0; i < 4; ++i) {
    executor.Spawn([&] {
      HostCpuModel::Running running(cpu);
      cpu.Charge(100 * kMillisecond);
      TimeNs now = executor.clock().Now();
      TimeNs prev = end_time.load();
      while (now > prev && !end_time.compare_exchange_weak(prev, now)) {
      }
    });
  }
  executor.JoinAll();
  // 4 runners on 1 core: each 100 ms charge stretches to ~400 ms.
  EXPECT_GE(end_time.load(), 350 * kMillisecond);
}

}  // namespace
}  // namespace faasm
