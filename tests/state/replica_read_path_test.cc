// Cluster-level tests for the three-tier read path (cache → co-located
// replica → master): a backup host's reads are served in-process with zero
// network bytes and zero master read RPCs; non-holders still pay the RPC;
// async replication never serves from a replica; and the scheduler's
// read-mostly affinity widening resolves every holder of a key's shard.
#include <gtest/gtest.h>

#include <memory>

#include "runtime/cluster.h"

namespace faasm {
namespace {

// Resolves the cluster host index running `name`.
size_t HostIndex(FaasmCluster& cluster, const std::string& name) {
  for (size_t i = 0; i < cluster.host_count(); ++i) {
    if (cluster.host(i).name() == name) {
      return i;
    }
  }
  ADD_FAILURE() << "unknown host " << name;
  return 0;
}

// A key mastered by `master` whose first backup is NOT this host (R=2 ring
// walk), plus the backup's host name.
struct HeldKey {
  std::string key;
  std::string master_host;
  std::string backup_host;
};

HeldKey FindHeldKey(const FaasmCluster& cluster) {
  const auto snapshot = cluster.shard_map().Snapshot();
  for (int i = 0; i < 100000; ++i) {
    std::string probe = "held-" + std::to_string(i);
    const std::string master = cluster.shard_map().MasterFor(probe);
    const auto backups = BackupsFor(snapshot.endpoints(), master, 2);
    if (!backups.empty()) {
      return HeldKey{probe, ShardMap::HostForEndpoint(master),
                     ShardMap::HostForEndpoint(backups[0])};
    }
  }
  ADD_FAILURE() << "no held key found";
  return {};
}

uint64_t TotalReadRpcs(FaasmCluster& cluster) {
  uint64_t total = 0;
  for (size_t i = 0; i < cluster.host_count(); ++i) {
    if (const KvsServer* server = cluster.host(i).shard_server()) {
      total += server->read_rpc_count();
    }
  }
  return total;
}

TEST(ReplicaReadPathTest, BackupHostServesReadsWithZeroNetworkBytes) {
  ClusterConfig config;
  config.hosts = 4;
  config.replication_factor = 2;
  ASSERT_TRUE(config.replica_reads);  // the three-tier path is the default
  FaasmCluster cluster(config);

  const HeldKey held = FindHeldKey(cluster);
  ASSERT_TRUE(cluster.kvs().Set(held.key, Bytes{1, 2, 3}).ok());

  cluster.Run([&](Frontend&) {
    FaasmInstance& backup = cluster.host(HostIndex(cluster, held.backup_host));
    const uint64_t rpcs_before = TotalReadRpcs(cluster);
    const uint64_t bytes_before = cluster.network_bytes();

    // Seeding mirrored the key onto the backup (certified at the seed
    // epoch, which has not moved): the read is served in-process.
    auto read = backup.kvs().Read(held.key);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), (Bytes{1, 2, 3}));
    EXPECT_EQ(TotalReadRpcs(cluster), rpcs_before);
    EXPECT_EQ(cluster.network_bytes(), bytes_before);
    EXPECT_EQ(backup.kvs().replica_served_count(), 1u);

    // An acked write through another host's client is observed by the very
    // next replica-served read (sync mode: the ack covers the backup).
    FaasmInstance& master = cluster.host(HostIndex(cluster, held.master_host));
    ASSERT_TRUE(master.kvs().Set(held.key, Bytes{9}).ok());
    auto fresh = backup.kvs().Read(held.key);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(fresh.value(), (Bytes{9}));
    EXPECT_EQ(backup.kvs().replica_served_count(), 2u);

    // A host that holds NO copy still pays the master RPC.
    for (size_t i = 0; i < cluster.host_count(); ++i) {
      FaasmInstance& host = cluster.host(i);
      if (host.name() == held.master_host || host.name() == held.backup_host) {
        continue;
      }
      const uint64_t outsider_rpcs = TotalReadRpcs(cluster);
      ASSERT_TRUE(host.kvs().Read(held.key).ok());
      EXPECT_EQ(TotalReadRpcs(cluster), outsider_rpcs + 1);
      EXPECT_EQ(host.kvs().replica_served_count(), 0u);
    }

    // The per-shard counter matches: both serves hit the backup's mirror.
    ASSERT_NE(cluster.replication(), nullptr);
    EXPECT_EQ(cluster.replication()->ReplicaForHost(held.backup_host)->replica_read_count(),
              2u);
  });
}

TEST(ReplicaReadPathTest, ColdPullOfBackedKeyCostsNoRpc) {
  ClusterConfig config;
  config.hosts = 4;
  config.replication_factor = 2;
  FaasmCluster cluster(config);

  const HeldKey held = FindHeldKey(cluster);
  ASSERT_TRUE(cluster.kvs().Set(held.key, Bytes{4, 5, 6}).ok());

  cluster.Run([&](Frontend&) {
    FaasmInstance& backup = cluster.host(HostIndex(cluster, held.backup_host));
    const uint64_t rpcs_before = TotalReadRpcs(cluster);
    const uint64_t bytes_before = cluster.network_bytes();

    // A cold pull is one whole-value read, which the backup's own certified
    // mirror answers in process: no sizing RPC, no master read RPC.
    auto kv = backup.tier().Lookup(held.key);
    ASSERT_TRUE(kv->Pull().ok());
    EXPECT_EQ(TotalReadRpcs(cluster), rpcs_before);
    EXPECT_EQ(cluster.network_bytes(), bytes_before);
    EXPECT_EQ(backup.kvs().replica_served_count(), 1u);
    EXPECT_EQ(kv->size(), 3u);
    EXPECT_EQ(kv->data()[2], 6);
  });
}

TEST(ReplicaReadPathTest, MembershipChangeInvalidatesUntilReconciled) {
  ClusterConfig config;
  config.hosts = 4;
  config.replication_factor = 2;
  FaasmCluster cluster(config);

  const HeldKey held = FindHeldKey(cluster);
  ASSERT_TRUE(cluster.kvs().Set(held.key, Bytes{5}).ok());

  cluster.Run([&](Frontend&) {
    FaasmInstance& backup = cluster.host(HostIndex(cluster, held.backup_host));
    ASSERT_TRUE(backup.kvs().Read(held.key).ok());
    ASSERT_EQ(backup.kvs().replica_served_count(), 1u);

    // A host joins: the epoch flips, AddHost's Reconcile re-certifies the
    // surviving copies under the NEW epoch. Whether this host still backs
    // the key is a ring question; either way the read returns the acked
    // bytes — the replica tier can change WHO answers, never WHAT.
    ASSERT_TRUE(cluster.AddHost().ok());
    auto read = backup.kvs().Read(held.key);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), (Bytes{5}));
  });
}

TEST(ReplicaReadPathTest, AsyncModeNeverServesFromTheReplica) {
  ClusterConfig config;
  config.hosts = 4;
  config.replication_factor = 2;
  config.replication_sync = false;
  config.replication_max_lag_ops = 1;  // every op ships immediately (caught up)
  ASSERT_TRUE(config.replica_reads);
  FaasmCluster cluster(config);

  const HeldKey held = FindHeldKey(cluster);
  ASSERT_TRUE(cluster.kvs().Set(held.key, Bytes{1}).ok());

  cluster.Run([&](Frontend&) {
    FaasmInstance& backup = cluster.host(HostIndex(cluster, held.backup_host));
    FaasmInstance& master = cluster.host(HostIndex(cluster, held.master_host));
    // Async clusters never wire tier two, even with replica_reads on.
    EXPECT_FALSE(backup.kvs().replica_reads_enabled());
    ASSERT_TRUE(master.kvs().Set(held.key, Bytes{2}).ok());  // ships at lag 1

    // The backup's copy is certified and caught up, and the read tolerates
    // 10 ms of staleness; the master still answers it.
    const uint64_t rpcs_before = TotalReadRpcs(cluster);
    ReadOptions tolerant;
    tolerant.max_staleness = 10 * kMillisecond;
    auto read = backup.kvs().Read(held.key, tolerant);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), (Bytes{2}));
    EXPECT_EQ(backup.kvs().replica_served_count(), 0u);
    EXPECT_EQ(TotalReadRpcs(cluster), rpcs_before + 1);
  });
}

TEST(ReplicaReadPathTest, AsyncLaggingCopyReadsTheAckedBytesFromTheMaster) {
  ClusterConfig config;
  config.hosts = 4;
  config.replication_factor = 2;
  config.replication_sync = false;
  config.replication_max_lag_ops = 1000;  // the queue holds everything
  FaasmCluster cluster(config);

  const HeldKey held = FindHeldKey(cluster);
  ASSERT_TRUE(cluster.kvs().Set(held.key, Bytes{1}).ok());

  cluster.Run([&](Frontend&) {
    FaasmInstance& backup = cluster.host(HostIndex(cluster, held.backup_host));
    FaasmInstance& master = cluster.host(HostIndex(cluster, held.master_host));
    // The write is acked at the master but parked in the async queue, so
    // the backup's copy still holds the old bytes. A tolerant read on the
    // backup goes to the master and gets the ACKED bytes.
    ASSERT_TRUE(master.kvs().Set(held.key, Bytes{7}).ok());
    ReadOptions tolerant;
    tolerant.max_staleness = kSecond;
    auto read = backup.kvs().Read(held.key, tolerant);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), (Bytes{7}));
    EXPECT_EQ(backup.kvs().replica_served_count(), 0u);
  });
}

TEST(ReplicaReadPathTest, ReadMostlyAffinityResolvesEveryHolder) {
  ClusterConfig config;
  config.hosts = 4;
  config.replication_factor = 2;
  FaasmCluster cluster(config);

  const HeldKey held = FindHeldKey(cluster);

  // The registry round-trips the widening flag...
  FunctionOptions options;
  options.state_affinity_key = held.key;
  options.state_affinity_read_mostly = true;
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("reader", [](InvocationContext&) { return 0; }, options)
                  .ok());
  EXPECT_TRUE(cluster.registry().StateAffinityReadMostly("reader"));
  EXPECT_EQ(cluster.registry().StateAffinityKey("reader"), held.key);

  // ...and the holder set the scheduler widens over is master-first and
  // contains exactly the R hosts that can serve the key without a wire hop.
  const auto holders = cluster.host(0).kvs().HolderHostsFor(held.key);
  ASSERT_EQ(holders.size(), 2u);
  EXPECT_EQ(holders[0], held.master_host);
  EXPECT_EQ(holders[1], held.backup_host);

  // A function without the flag keeps the master-only hint (the write-heavy
  // default, unchanged behaviour).
  ASSERT_TRUE(cluster.registry()
                  .RegisterNative("writer", [](InvocationContext&) { return 0; },
                                  FunctionOptions{})
                  .ok());
  EXPECT_FALSE(cluster.registry().StateAffinityReadMostly("writer"));
}

}  // namespace
}  // namespace faasm
