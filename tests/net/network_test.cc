#include "net/network.h"

#include <gtest/gtest.h>

#include "sim/sim_clock.h"

namespace faasm {
namespace {

TEST(NetworkTest, RpcDeliversAndAccounts) {
  RealClock clock;
  NetworkConfig config;
  config.charge_latency = false;
  InProcNetwork net(&clock, config);
  net.RegisterEndpoint("kvs", [](const Bytes& request) {
    Bytes response = request;
    response.push_back(0xFF);
    return response;
  });
  auto out = net.Call("host-0", "kvs", Bytes{1, 2, 3});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), (Bytes{1, 2, 3, 0xFF}));
  // Each direction pays payload + the fixed per-message envelope.
  const uint64_t overhead = config.per_message_overhead_bytes;
  EXPECT_EQ(net.total_bytes(), 7u + 2 * overhead);  // 3 request + 4 response
  EXPECT_EQ(net.StatsFor("host-0").tx_bytes, 3u + overhead);
  EXPECT_EQ(net.StatsFor("host-0").rx_bytes, 4u + overhead);
  EXPECT_EQ(net.StatsFor("kvs").rx_bytes, 3u + overhead);
}

TEST(NetworkTest, UnknownEndpointFails) {
  RealClock clock;
  NetworkConfig config;
  config.charge_latency = false;
  InProcNetwork net(&clock, config);
  EXPECT_EQ(net.Call("a", "nowhere", {}).status().code(), StatusCode::kUnavailable);
}

TEST(NetworkTest, MailboxSendPoll) {
  RealClock clock;
  NetworkConfig config;
  config.charge_latency = false;
  InProcNetwork net(&clock, config);
  // A mailbox only exists behind a registered endpoint: sends to a missing
  // (or already-removed) receiver fail fast instead of queueing forever.
  EXPECT_EQ(net.Send("host-0", "host-1", Bytes{7}).code(), StatusCode::kUnavailable);
  net.RegisterEndpoint("host-1", [](const Bytes&) { return Bytes{}; });
  EXPECT_FALSE(net.Poll("host-1").has_value());
  EXPECT_EQ(net.PendingCount("host-1"), 0u);
  ASSERT_TRUE(net.Send("host-0", "host-1", Bytes{9}).ok());
  ASSERT_TRUE(net.Send("host-0", "host-1", Bytes{8}).ok());
  EXPECT_EQ(net.PendingCount("host-1"), 2u);
  auto first = net.Poll("host-1");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ((*first)[0], 9);  // FIFO order
  auto second = net.Poll("host-1");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ((*second)[0], 8);
  EXPECT_FALSE(net.Poll("host-1").has_value());
}

TEST(NetworkTest, LatencyChargedToVirtualClock) {
  SimExecutor executor;
  NetworkConfig config;
  config.base_latency_ns = 1 * kMillisecond;
  config.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s: 1000 bytes = 1 ms
  config.per_message_overhead_bytes = 0;  // keep the arithmetic exact below
  InProcNetwork net(&executor.clock(), config);
  net.RegisterEndpoint("svc", [](const Bytes&) { return Bytes(1000); });

  TimeNs elapsed = 0;
  executor.Spawn([&] {
    const TimeNs start = executor.clock().Now();
    auto out = net.Call("host", "svc", Bytes(1000));
    ASSERT_TRUE(out.ok());
    elapsed = executor.clock().Now() - start;
  });
  executor.JoinAll();
  // Two directions: (1 ms latency + 1 ms transfer) each.
  EXPECT_EQ(elapsed, 4 * kMillisecond);
}

TEST(NetworkTest, MailIsDeliveredOneLatencyAfterSend) {
  SimExecutor executor;
  SimClock& clock = executor.clock();
  NetworkConfig config;  // base_latency_ns = 100 us
  InProcNetwork net(&clock, config);
  net.RegisterEndpoint("rx", [](const Bytes&) { return Bytes{}; });
  const TimeNs latency = config.base_latency_ns;
  TimeNs sender_back = -1;
  size_t pending_in_flight = 0;
  bool visible_early = true;
  TimeNs next_delivery = -1;
  std::optional<Bytes> on_time;
  {
    SimClock::Hold hold(clock);
    executor.Spawn([&] {
      ASSERT_TRUE(net.Send("tx", "rx", Bytes{42}).ok());
      sender_back = clock.Now();  // the sender pays the one-way latency
    });
    executor.Spawn([&] {
      clock.SleepUntil(latency - 1);
      pending_in_flight = net.PendingCount("rx");
      visible_early = net.Poll("rx", &next_delivery).has_value();
      clock.SleepUntil(latency);
      on_time = net.Poll("rx");
    });
  }
  executor.JoinAll();
  EXPECT_EQ(sender_back, latency);
  EXPECT_EQ(pending_in_flight, 1u);  // in flight still counts
  EXPECT_FALSE(visible_early);
  EXPECT_EQ(next_delivery, latency);
  ASSERT_TRUE(on_time.has_value());
  EXPECT_EQ((*on_time)[0], 42);
  EXPECT_EQ(net.PendingCount("rx"), 0u);
}

TEST(NetworkTest, ReceiverParkedOnArrivalsWakesAtDelivery) {
  SimExecutor executor;
  SimClock& clock = executor.clock();
  InProcNetwork net(&clock);
  net.RegisterEndpoint("rx", [](const Bytes&) { return Bytes{}; });
  TimeNs received_at = -1;
  int wakes = 0;
  {
    SimClock::Hold hold(clock);
    executor.Spawn([&] {
      WaitQueue& arrivals = net.Arrivals("rx");
      while (true) {
        const uint64_t seen = arrivals.Seq();
        TimeNs next = kNoDeadline;
        if (net.Poll("rx", &next).has_value()) {
          received_at = clock.Now();
          return;
        }
        clock.Park(arrivals, seen, next);
        ++wakes;
      }
    });
    executor.Spawn([&] {
      clock.SleepFor(kMillisecond);
      ASSERT_TRUE(net.Send("tx", "rx", Bytes{1}).ok());
    });
  }
  executor.JoinAll();
  EXPECT_EQ(received_at, kMillisecond + NetworkConfig{}.base_latency_ns);
  EXPECT_EQ(wakes, 2);  // once for the send, once at the delivery time
}

TEST(NetworkTest, DrainMailboxTakesInFlightMail) {
  SimExecutor executor;
  InProcNetwork net(&executor.clock());
  net.RegisterEndpoint("rx", [](const Bytes&) { return Bytes{}; });
  std::vector<Bytes> drained;
  {
    SimClock::Hold hold(executor.clock());
    executor.Spawn([&] { ASSERT_TRUE(net.Send("tx", "rx", Bytes{5}).ok()); });
    executor.Spawn([&] {
      executor.clock().SleepFor(kMicrosecond);  // mid-flight
      drained = net.DrainMailbox("rx");
    });
  }
  executor.JoinAll();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0][0], 5);
  EXPECT_EQ(net.PendingCount("rx"), 0u);
}

TEST(NetworkTest, ResetStatsClears) {
  RealClock clock;
  NetworkConfig config;
  config.charge_latency = false;
  InProcNetwork net(&clock, config);
  net.RegisterEndpoint("svc", [](const Bytes&) { return Bytes{}; });
  ASSERT_TRUE(net.Call("a", "svc", Bytes(10)).ok());
  EXPECT_GT(net.total_bytes(), 0u);
  net.ResetStats();
  EXPECT_EQ(net.total_bytes(), 0u);
}

}  // namespace
}  // namespace faasm
