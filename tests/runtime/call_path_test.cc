// The call path's virtual timing: dispatch is event-driven (a shared call
// starts exactly one network latency after it was sent), Await returns at
// the completion instant, mail lost to a crash fails instead of hanging, and
// the warm-set refresh stays off the submit path.
#include <gtest/gtest.h>

#include "runtime/cluster.h"

namespace faasm {
namespace {

ClusterConfig FourHosts() {
  ClusterConfig config;
  config.hosts = 4;
  config.cores_per_host = 2;
  return config;
}

void RegisterNoop(FaasmCluster& cluster) {
  ASSERT_TRUE(
      cluster.registry().RegisterNative("noop", [](InvocationContext&) { return 0; }).ok());
}

// Makes host-0 the only warm host for "noop" and gives host-1 a fresh cached
// view of that (one call shared 1 -> 0).
void WarmHost0AndViewFromHost1(FaasmInstance& h0, FaasmInstance& h1) {
  auto first = h0.Submit("noop", {});
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(h0.Await(first.value()).value(), 0);
  auto shared = h1.Submit("noop", {});
  ASSERT_TRUE(shared.ok());
  ASSERT_EQ(h1.Await(shared.value()).value(), 0);
}

TEST(CallPathTest, RemoteCallLatencyMatchesNetworkAndOverheadModel) {
  ClusterConfig config = FourHosts();
  FaasmCluster cluster(config);
  RegisterNoop(cluster);
  const TimeNs latency = config.network.base_latency_ns;
  const TimeNs overhead = FaasmInstance::kPerCallOverheadNs;
  CallRecord record;
  TimeNs await_returned = -1;
  cluster.Run([&](Frontend&) {
    FaasmInstance& h0 = cluster.host(0);
    FaasmInstance& h1 = cluster.host(1);
    WarmHost0AndViewFromHost1(h0, h1);
    auto id = h1.Submit("noop", {});
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(h1.Await(id.value()).value(), 0);
    await_returned = cluster.clock().Now();
    record = cluster.calls().Get(id.value()).value();
  });
  ASSERT_EQ(record.executed_on, "host-0");
  // The model: finished - submitted = latency + overhead + reset. Queueing
  // is exactly the one-way delivery latency (no poll quantum), which is
  // stricter than agreeing with the model within 1%.
  EXPECT_EQ(record.started_at - record.submitted_at, latency);
  // Execution is the per-call overhead plus the Faaslet reset, which is
  // charged at its measured real cost (small, never negative).
  const TimeNs reset = record.finished_at - record.started_at - overhead;
  EXPECT_GE(reset, 0);
  EXPECT_LT(reset, kMillisecond);
  // The awaiter wakes at the completion instant.
  EXPECT_EQ(await_returned, record.finished_at);
}

TEST(CallPathTest, KilledHostFailsSharedCallStillInFlight) {
  FaasmCluster cluster(FourHosts());
  RegisterNoop(cluster);
  const TimeNs latency = cluster.network().config().base_latency_ns;
  Result<int> outcome = 0;
  TimeNs sent_at = -1;
  TimeNs failed_at = -1;
  cluster.Run([&](Frontend&) {
    FaasmInstance& h0 = cluster.host(0);
    FaasmInstance& h1 = cluster.host(1);
    WarmHost0AndViewFromHost1(h0, h1);
    sent_at = cluster.clock().Now();
    // Kill host-0 halfway through the shared call's flight.
    cluster.executor().Spawn([&] {
      cluster.clock().SleepFor(latency / 2);
      ASSERT_TRUE(cluster.KillHost("host-0").ok());
    });
    auto id = h1.Submit("noop", {});
    ASSERT_TRUE(id.ok());
    outcome = h1.Await(id.value());
    failed_at = cluster.calls().Get(id.value()).value().finished_at;
  });
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInternal);
  EXPECT_EQ(failed_at, sent_at + latency / 2);
}

TEST(CallPathTest, ExpiredWarmViewIsRefreshedOffTheSubmitPath) {
  ClusterConfig config = FourHosts();
  // Central tier: every SetMembers is a remote RPC to "kvs", so the RPC count
  // and the submit path's virtual time both show a synchronous refetch.
  config.state_tier = StateTier::kCentral;
  FaasmCluster cluster(config);
  RegisterNoop(cluster);
  const TimeNs latency = config.network.base_latency_ns;
  // Messages host-1 sends: its shared calls plus its own kvs RPCs (host-0
  // may cold start a second Faaslet when the two shared calls overlap, and
  // that host's RPCs are not the submitter's).
  auto host1_messages = [&] { return cluster.network().StatsFor("host-1").tx_messages; };
  TimeNs stale_submit_ns = -1;
  uint64_t refresh_rpcs = 0;
  std::string stale_target;
  std::string fresh_target;
  cluster.Run([&](Frontend&) {
    SimClock& clock = cluster.clock();
    FaasmInstance& h0 = cluster.host(0);
    FaasmInstance& h1 = cluster.host(1);
    WarmHost0AndViewFromHost1(h0, h1);
    // The warm set moves to host-2 behind host-1's cached view, which then
    // expires.
    ASSERT_TRUE(cluster.kvs().SetRemove("warm:noop", "host-0").ok());
    ASSERT_TRUE(cluster.kvs().SetAdd("warm:noop", "host-2").ok());
    clock.SleepFor(config.warm_set_ttl_ns + kMillisecond);

    const uint64_t before = host1_messages();
    const TimeNs start = clock.Now();
    auto stale = h1.Submit("noop", {});  // decided from the expired view
    ASSERT_TRUE(stale.ok());
    stale_submit_ns = clock.Now() - start;
    auto during = h1.Submit("noop", {});  // refresh still in flight
    ASSERT_TRUE(during.ok());
    ASSERT_EQ(h1.Await(stale.value()).value(), 0);
    ASSERT_EQ(h1.Await(during.value()).value(), 0);
    clock.SleepFor(kMillisecond);  // let the refresh land
    refresh_rpcs = host1_messages() - before - 2;  // minus the two shared calls

    auto fresh = h1.Submit("noop", {});  // decided from the refreshed view
    ASSERT_TRUE(fresh.ok());
    ASSERT_EQ(h1.Await(fresh.value()).value(), 0);
    stale_target = cluster.calls().Get(stale.value()).value().executed_on;
    fresh_target = cluster.calls().Get(fresh.value()).value().executed_on;
  });
  // The submit paid only the Send's one-way latency, no SetMembers round trip.
  EXPECT_EQ(stale_submit_ns, latency);
  EXPECT_EQ(stale_target, "host-0");
  // Two decisions on the expired view started exactly one refresh...
  EXPECT_EQ(refresh_rpcs, 1u);
  // ...and the next decision used its answer.
  EXPECT_EQ(fresh_target, "host-2");
}

}  // namespace
}  // namespace faasm
