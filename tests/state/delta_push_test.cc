// Cluster-level delta-push tests: the same SGD training run must converge to
// the same loss regime while moving measurably fewer network bytes when the
// weight vector syncs via dirty-run delta pushes instead of full-value
// pushes; and a small write pushes and replicates one line, not a page.
#include <gtest/gtest.h>

#include "kvs/replication.h"
#include "runtime/cluster.h"
#include "state/state_key_value.h"
#include "workloads/sgd.h"

namespace faasm {
namespace {

struct SgdOutcome {
  uint64_t network_bytes = 0;
  double loss = -1;
  bool ok = false;
};

SgdOutcome RunSgd(bool delta_push) {
  ClusterConfig cluster_config;
  cluster_config.hosts = 2;
  // Pin the centralised tier: this test isolates the delta-vs-full push
  // traffic difference, which the sharded tier would hide (master-local
  // pushes cost zero bytes either way — locked in by sharded_tier_test).
  cluster_config.state_tier = StateTier::kCentral;
  FaasmCluster cluster(cluster_config);

  SgdConfig config;
  // Weights span many state pages while each inter-push window touches only
  // a few of them — the regime where delta push pays off.
  config.n_examples = 512;
  config.n_features = 16384;  // 128 KiB of weights = 32 state pages
  config.nnz_per_example = 4;
  config.n_workers = 4;
  config.n_epochs = 2;
  config.push_interval = 4;
  config.delta_push = delta_push;

  SeedSgdDataset(cluster.kvs(), config);
  EXPECT_TRUE(RegisterSgdFunctions(cluster.registry()).ok());

  SgdOutcome outcome;
  cluster.Run([&](Frontend& frontend) {
    auto result = RunSgdTraining(frontend, config);
    outcome.ok = result.ok();
    outcome.loss = result.ok() ? result.value() : -1;
  });
  outcome.network_bytes = cluster.network_bytes();
  return outcome;
}

TEST(DeltaPushClusterTest, SgdMovesFewerBytesAtEqualLoss) {
  const SgdOutcome delta = RunSgd(/*delta_push=*/true);
  const SgdOutcome full = RunSgd(/*delta_push=*/false);
  ASSERT_TRUE(delta.ok);
  ASSERT_TRUE(full.ok);

  // Equal final loss: both modes land in the same regime, well below the
  // initial MSE of this dataset (~4.0 with 4 unit-variance terms per
  // example), and within noise of each other.
  EXPECT_LT(delta.loss, 2.5);
  EXPECT_LT(full.loss, 2.5);
  EXPECT_NEAR(delta.loss, full.loss, 0.25 * full.loss);

  // The delta run ships only dirtied weight pages and must move measurably
  // less data overall (the shared pull/chain traffic is identical).
  EXPECT_LT(delta.network_bytes, full.network_bytes * 3 / 4)
      << "delta=" << delta.network_bytes << " full=" << full.network_bytes;
}

// A state write on a host that neither masters nor backs up the key, at
// R=2: the push crosses the network to the master, which forwards to the
// backup.
TEST(DeltaPushClusterTest, SmallWriteShipsOneLineToMasterAndBackup) {
  ClusterConfig config;
  config.hosts = 4;
  config.replication_factor = 2;
  FaasmCluster cluster(config);

  const auto snapshot = cluster.shard_map().Snapshot();
  std::string key;
  std::string master;
  std::string backup;
  for (int i = 0; key.empty() && i < 100000; ++i) {
    const std::string probe = "line-" + std::to_string(i);
    const std::string endpoint = cluster.shard_map().MasterFor(probe);
    const auto backups = BackupsFor(snapshot.endpoints(), endpoint, 2);
    if (backups.size() == 1) {
      key = probe;
      master = ShardMap::HostForEndpoint(endpoint);
      backup = ShardMap::HostForEndpoint(backups[0]);
    }
  }
  ASSERT_FALSE(key.empty());
  size_t writer = cluster.host_count();
  for (size_t i = 0; i < cluster.host_count(); ++i) {
    if (cluster.host(i).name() != master && cluster.host(i).name() != backup) {
      writer = i;
      break;
    }
  }
  ASSERT_LT(writer, cluster.host_count());
  constexpr size_t kLine = StateKeyValue::kStateLineBytes;
  ASSERT_TRUE(cluster.kvs().Set(key, Bytes(2 * StateKeyValue::kStatePageBytes, 0)).ok());

  cluster.Run([&](Frontend&) {
    auto kv = cluster.host(writer).tier().Lookup(key);
    ASSERT_TRUE(kv->PullChunk(0, StateKeyValue::kStatePageBytes).ok());

    InProcNetwork& network = cluster.network();
    const std::string master_endpoint = ShardMap::EndpointForHost(master);
    const std::string backup_endpoint = ReplicaEndpointForHost(backup);
    const EndpointStats master_before = network.StatsFor(master_endpoint);
    const EndpointStats backup_before = network.StatsFor(backup_endpoint);
    const KvsServer* master_server = nullptr;
    for (size_t i = 0; i < cluster.host_count(); ++i) {
      if (cluster.host(i).name() == master) {
        master_server = cluster.host(i).shard_server();
      }
    }
    ASSERT_NE(master_server, nullptr);
    const uint64_t writes_before = master_server->write_rpc_count();
    const uint64_t forwards_before = cluster.replication()->stats().forward_rpcs.value();

    uint8_t* counter = kv->WritableData(8, sizeof(uint64_t));
    ASSERT_NE(counter, nullptr);
    counter[0] = 1;
    ASSERT_TRUE(kv->Push().ok());

    // One RPC to the master and one forward to the backup, as with page
    // pushes; each carries one line plus framing, not a 4 KiB page.
    // (The master also receives the backup's small forward ack.)
    const EndpointStats master_after = network.StatsFor(master_endpoint);
    const EndpointStats backup_after = network.StatsFor(backup_endpoint);
    EXPECT_EQ(master_server->write_rpc_count(), writes_before + 1);
    EXPECT_EQ(cluster.replication()->stats().forward_rpcs.value(), forwards_before + 1);
    EXPECT_EQ(backup_after.rx_messages - backup_before.rx_messages, 1u);
    const uint64_t master_rx = master_after.rx_bytes - master_before.rx_bytes;
    const uint64_t backup_rx = backup_after.rx_bytes - backup_before.rx_bytes;
    EXPECT_GE(master_rx, kLine);
    EXPECT_LT(master_rx, 2 * kLine);
    EXPECT_GE(backup_rx, kLine);
    EXPECT_LT(backup_rx, 2 * kLine);
  });

  auto global = cluster.kvs().Get(key);
  ASSERT_TRUE(global.ok());
  EXPECT_EQ(global.value()[8], 1);
}

}  // namespace
}  // namespace faasm
