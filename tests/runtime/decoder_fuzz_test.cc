// Hostile-input robustness of the runtime's two wire decoders: the failure
// detector's heartbeat frame (DecodeHeartbeat) and a host's work-sharing
// mailbox (the shared-call frame its dispatcher and crash path decode).
// Valid frames are mutated one byte at a time and truncated, and random
// frames are thrown in; nothing may crash, and a host must keep serving
// (or, once crashed, keep failing its decodable calls) around the junk. A
// decodable frame naming a call id the call table never issued runs nothing.
// Seeded RNG, bounded iterations.
#include <gtest/gtest.h>

#include <atomic>

#include "common/rng.h"
#include "runtime/cluster.h"
#include "runtime/failure_detector.h"

namespace faasm {
namespace {

constexpr uint64_t kSeeds[] = {1, 2};
constexpr int kFramesPerSeed = 24;

Bytes Mutated(const Bytes& valid, Rng& rng) {
  Bytes out = valid;
  out[rng.NextBelow(out.size())] = static_cast<uint8_t>(rng.NextU64());
  return out;
}

// A strict prefix of `valid`: always missing at least its last byte.
Bytes Truncated(const Bytes& valid, Rng& rng) {
  const auto cut = static_cast<std::ptrdiff_t>(rng.NextBelow(valid.size()));
  return Bytes(valid.begin(), valid.begin() + cut);
}

Bytes RandomFrame(Rng& rng) {
  Bytes out(rng.NextBelow(64));
  for (uint8_t& byte : out) {
    byte = static_cast<uint8_t>(rng.NextU64());
  }
  return out;
}

// --- Heartbeats ---------------------------------------------------------------

// A decoded heartbeat is either "" (rejected) or a host name that re-encodes
// to exactly the frame it came from.
void ExpectEmptyOrExactHost(const Bytes& frame) {
  const std::string host = DecodeHeartbeat(frame);
  if (!host.empty()) {
    EXPECT_EQ(EncodeHeartbeat(host), frame);
  }
}

TEST(HeartbeatFuzzTest, MutatedTruncatedAndRandomFramesDecodeToEmptyOrAHost) {
  const Bytes valid = EncodeHeartbeat("host-12");
  for (uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (int i = 0; i < 8 * kFramesPerSeed; ++i) {
      ExpectEmptyOrExactHost(Mutated(valid, rng));
      ExpectEmptyOrExactHost(Truncated(valid, rng));
      ExpectEmptyOrExactHost(RandomFrame(rng));
    }
  }
  // A prefix that keeps the whole tag and part of the name is a (shorter)
  // host name; one that cuts into the tag is rejected.
  EXPECT_EQ(DecodeHeartbeat(Bytes(valid.begin(), valid.begin() + 5)), "ho");
  EXPECT_EQ(DecodeHeartbeat(Bytes(valid.begin(), valid.begin() + 2)), "");
}

// --- Host mailbox ---------------------------------------------------------------

// The shared-call frame a host's mailbox carries (runtime/instance.cc):
// call id, function name, input.
Bytes SharedCallFrame(uint64_t id, const std::string& function, const Bytes& input) {
  Bytes out;
  ByteWriter writer(out);
  writer.Put<uint64_t>(id);
  writer.PutString(function);
  writer.PutBytes(input);
  return out;
}

// Junk no shared-call decoder accepts: strict prefixes of a valid frame,
// and random frames (whose length prefixes overrun the frame).
std::vector<Bytes> UndecodableMail(uint64_t seed) {
  Rng rng(seed);
  const Bytes valid = SharedCallFrame(7, "fn", Bytes{1, 2, 3});
  std::vector<Bytes> mail;
  for (int i = 0; i < kFramesPerSeed; ++i) {
    mail.push_back(Truncated(valid, rng));
    mail.push_back(RandomFrame(rng));
  }
  return mail;
}

TEST(MailboxFuzzTest, DispatcherDropsUndecodableMailAndKeepsServing) {
  ClusterConfig config;
  config.hosts = 1;
  FaasmCluster cluster(config);
  ASSERT_TRUE(cluster.registry().RegisterNative("fn", [](InvocationContext&) { return 0; }).ok());
  FaasmInstance& host = cluster.host(0);

  cluster.Run([&](Frontend&) {
    for (uint64_t seed : kSeeds) {
      for (Bytes& junk : UndecodableMail(seed)) {
        ASSERT_TRUE(cluster.network().Send("fuzzer", host.name(), std::move(junk)).ok());
      }
    }
    // A well-formed call sent after the junk still reaches the dispatcher
    // and runs.
    const uint64_t id = cluster.calls().Create("fn", Bytes{});
    ASSERT_TRUE(
        cluster.network().Send("fuzzer", host.name(), SharedCallFrame(id, "fn", Bytes{})).ok());
    cluster.calls().AwaitFinished(id);
    auto record = cluster.calls().Get(id);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record.value().state, CallState::kDone);
    EXPECT_EQ(record.value().return_code, 0);
    EXPECT_EQ(record.value().executed_on, host.name());
  });
  // Join every activity (the executed count ticks after the call is marked
  // done), then check that the junk executed nothing.
  cluster.Shutdown();
  EXPECT_EQ(host.executed_call_count(), 1u);
}

TEST(MailboxFuzzTest, DecodableMailForAnUnknownCallIdRunsNothing) {
  ClusterConfig config;
  config.hosts = 1;
  FaasmCluster cluster(config);
  std::atomic<int> runs{0};
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("fn",
                                  [&runs](InvocationContext&) {
                                    runs.fetch_add(1);
                                    return 0;
                                  })
                  .ok());
  FaasmInstance& host = cluster.host(0);

  cluster.Run([&](Frontend&) {
    // A well-formed frame naming a registered function under an id the
    // call table never issued.
    constexpr uint64_t kForgedId = 987654;
    ASSERT_FALSE(cluster.calls().Get(kForgedId).ok());
    ASSERT_TRUE(
        cluster.network().Send("fuzzer", host.name(), SharedCallFrame(kForgedId, "fn", {})).ok());
    host.AwaitDrained();
    EXPECT_EQ(runs.load(), 0);
    EXPECT_EQ(host.executed_call_count(), 0u);
    EXPECT_FALSE(cluster.calls().Get(kForgedId).ok());

    // A real call sent afterwards completes, on the Faaslet the dropped
    // mail left in the pool.
    const uint64_t id = cluster.calls().Create("fn", Bytes{});
    ASSERT_TRUE(
        cluster.network().Send("fuzzer", host.name(), SharedCallFrame(id, "fn", Bytes{})).ok());
    cluster.calls().AwaitFinished(id);
    auto record = cluster.calls().Get(id);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record.value().state, CallState::kDone);
    EXPECT_EQ(record.value().executed_on, host.name());
  });
  cluster.Shutdown();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(host.executed_call_count(), 1u);
  EXPECT_EQ(host.cold_start_count(), 1u);
  EXPECT_EQ(host.warm_faaslet_count(), 1u);
}

TEST(MailboxFuzzTest, CrashedHostSkipsUndecodableMailAndFailsTheRest) {
  SimExecutor executor;
  NetworkConfig network_config;
  network_config.charge_latency = false;
  InProcNetwork network(&executor.clock(), network_config);
  FunctionRegistry registry;
  CallTable calls(&executor.clock());
  GlobalFileStore files;
  // Never started: no dispatcher drains the mailbox, so every letter is
  // still there when the host dies.
  FaasmInstance host("host-0", HostSettings{}, &executor, &network, &registry, &calls, &files);
  network.RegisterEndpoint(host.name(), [](const Bytes&) { return Bytes{}; });

  std::vector<uint64_t> ids;
  executor.Spawn([&] {
    for (uint64_t seed : kSeeds) {
      for (Bytes& junk : UndecodableMail(seed)) {
        ASSERT_TRUE(network.Send("fuzzer", host.name(), std::move(junk)).ok());
      }
      const uint64_t id = calls.Create("fn", Bytes{});
      ids.push_back(id);
      ASSERT_TRUE(
          network.Send("fuzzer", host.name(), SharedCallFrame(id, "fn", Bytes{})).ok());
    }
    host.Kill();
    host.FailAbandonedMail();
  });
  executor.JoinAll();

  ASSERT_EQ(ids.size(), std::size(kSeeds));
  for (uint64_t id : ids) {
    auto record = calls.Get(id);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record.value().state, CallState::kFailed);
    EXPECT_NE(record.value().error.find("crashed"), std::string::npos) << record.value().error;
  }
  EXPECT_EQ(network.PendingCount(host.name()), 0u);
}

}  // namespace
}  // namespace faasm
