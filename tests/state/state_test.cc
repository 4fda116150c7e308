// Two-tier state tests: replica lifecycle, push/pull (full + chunked), page
// tracking, local and global locks, append.
#include <gtest/gtest.h>

#include "state/local_tier.h"

namespace faasm {
namespace {

class StateTest : public ::testing::Test {
 protected:
  StateTest()
      : network_(&clock_, NoLatency()),
        server_(&store_, &network_),
        kvs_(&network_, "host-0"),
        tier_(&kvs_, &clock_) {}

  static NetworkConfig NoLatency() {
    NetworkConfig config;
    config.charge_latency = false;
    return config;
  }

  void SeedGlobal(const std::string& key, size_t size, uint8_t fill) {
    store_.Set(key, Bytes(size, fill));
  }

  RealClock clock_;
  InProcNetwork network_;
  KvStore store_;
  KvsServer server_;
  KvsClient kvs_;
  LocalTier tier_;
};

TEST_F(StateTest, PullCreatesSizedReplica) {
  SeedGlobal("k", 10000, 0x5A);
  auto kv = tier_.Lookup("k");
  EXPECT_FALSE(kv->allocated());
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_TRUE(kv->allocated());
  EXPECT_EQ(kv->size(), 10000u);
  EXPECT_EQ(kv->data()[0], 0x5A);
  EXPECT_EQ(kv->data()[9999], 0x5A);
}

TEST_F(StateTest, LookupIsSharedPerKey) {
  auto a = tier_.Lookup("k");
  auto b = tier_.Lookup("k");
  EXPECT_EQ(a.get(), b.get());  // same replica object: in-memory sharing
  EXPECT_NE(tier_.Lookup("other").get(), a.get());
}

TEST_F(StateTest, PushWritesGlobal) {
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->EnsureCapacity(128).ok());
  std::memset(kv->data(), 0x7B, 128);
  ASSERT_TRUE(kv->Push().ok());
  EXPECT_EQ(store_.Get("k").value(), Bytes(128, 0x7B));
}

TEST_F(StateTest, ChunkedPullFetchesOnlyTouchedPages) {
  const size_t size = 64 * StateKeyValue::kStatePageBytes;
  SeedGlobal("big", size, 0x11);
  auto kv = tier_.Lookup("big");
  network_.ResetStats();
  // Pull a 2-page window in the middle.
  ASSERT_TRUE(kv->PullChunk(10 * StateKeyValue::kStatePageBytes, 2 * StateKeyValue::kStatePageBytes)
                  .ok());
  EXPECT_EQ(kv->resident_pages(), 2u);
  const uint64_t bytes_after_chunk = network_.total_bytes();
  // Two pages (+ size probe) — far less than the full 256 KiB value.
  EXPECT_LT(bytes_after_chunk, 3 * StateKeyValue::kStatePageBytes);
  EXPECT_EQ(kv->data()[10 * StateKeyValue::kStatePageBytes], 0x11);

  // Re-pulling the same chunk is free (pages resident).
  ASSERT_TRUE(kv->PullChunk(10 * StateKeyValue::kStatePageBytes, StateKeyValue::kStatePageBytes)
                  .ok());
  EXPECT_EQ(network_.total_bytes(), bytes_after_chunk);
}

TEST_F(StateTest, PullAfterInvalidateRefetches) {
  SeedGlobal("k", StateKeyValue::kStatePageBytes, 0x22);
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->Pull().ok());
  store_.Set("k", Bytes(StateKeyValue::kStatePageBytes, 0x33));
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(kv->data()[0], 0x22);  // cached: pages resident, no refetch
  kv->InvalidateReplica();
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(kv->data()[0], 0x33);
}

TEST_F(StateTest, ColdPullIsOneWholeValueRead) {
  // No page present: one whole-value read sized by its reply, never a
  // separate size RPC. That one RPC carries the value, so it is the read.
  constexpr size_t kSize = 3 * StateKeyValue::kStatePageBytes;
  SeedGlobal("k", kSize, 0x5A);
  auto kv = tier_.Lookup("k");
  network_.ResetStats();
  uint64_t reads_before = server_.read_rpc_count();
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(server_.read_rpc_count(), reads_before + 1);
  EXPECT_EQ(network_.StatsFor("host-0").tx_messages, 1u);
  EXPECT_EQ(kv->size(), kSize);
  EXPECT_EQ(kv->resident_pages(), 3u);
  EXPECT_EQ(kv->data()[kSize - 1], 0x5A);

  // Invalidated, and refreshed under a lock with no dirty page: both cold.
  kv->InvalidateReplica();
  reads_before = server_.read_rpc_count();
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(server_.read_rpc_count(), reads_before + 1);
  ASSERT_TRUE(kv->LockGlobalRead().ok());
  EXPECT_EQ(kv->resident_pages(), 0u);
  network_.ResetStats();
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(network_.StatsFor("host-0").tx_messages, 1u);
  ASSERT_TRUE(kv->UnlockGlobalRead().ok());
}

TEST_F(StateTest, WarmPullOfResidentReplicaIsFree) {
  SeedGlobal("k", 2 * StateKeyValue::kStatePageBytes, 0x01);
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->Pull().ok());
  network_.ResetStats();
  const uint64_t reads_before = server_.read_rpc_count();
  ASSERT_TRUE(kv->Pull().ok());
  // Every page present: nothing to fetch, so nothing is sent.
  EXPECT_EQ(server_.read_rpc_count(), reads_before);
  EXPECT_EQ(network_.StatsFor("host-0").tx_messages, 0u);
  EXPECT_EQ(network_.total_bytes(), 0u);
}

TEST_F(StateTest, WarmPullKeepsOldSizeWithOldBytes) {
  // Another host grows the value. A warm pull does not see it: the replica
  // keeps its size and its bytes together, never a new size over old bytes.
  SeedGlobal("k", 1000, 0x01);
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->Pull().ok());
  store_.Set("k", Bytes(3000, 0x02));
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(kv->size(), 1000u);
  EXPECT_EQ(kv->data()[999], 0x01);
  // Past the replica's capacity too: the warm pull does not fail.
  store_.Set("k", Bytes(3 * StateKeyValue::kStatePageBytes, 0x03));
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(kv->size(), 1000u);
  EXPECT_EQ(kv->data()[0], 0x01);
}

TEST_F(StateTest, ColdPullObservesGrowth) {
  // Growth shows at the next cold pull: after InvalidateReplica(), or under
  // a freshly acquired global lock.
  SeedGlobal("k", 1000, 0x01);
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->Pull().ok());
  store_.Set("k", Bytes(2000, 0x02));
  kv->InvalidateReplica();
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(kv->size(), 2000u);
  EXPECT_EQ(kv->data()[0], 0x02);
  EXPECT_EQ(kv->data()[1999], 0x02);

  store_.Set("k", Bytes(3000, 0x03));
  ASSERT_TRUE(kv->LockGlobalRead().ok());
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(kv->size(), 3000u);
  EXPECT_EQ(kv->data()[0], 0x03);
  EXPECT_EQ(kv->data()[2999], 0x03);
  ASSERT_TRUE(kv->UnlockGlobalRead().ok());
}

TEST_F(StateTest, PartialPullRefetchesOldTailPageOnGrowth) {
  // A 3-page replica holds a value ending 100 B into page 1. The value
  // grows into page 2 elsewhere: the pull fetches page 2 and page 1 again,
  // whose bytes past the old end were never local.
  constexpr size_t kPage = StateKeyValue::kStatePageBytes;
  constexpr size_t kOld = kPage + 100;
  constexpr size_t kNew = 2 * kPage + 500;
  SeedGlobal("k", kOld, 0x44);
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->EnsureCapacity(3 * kPage).ok());
  ASSERT_TRUE(kv->Pull().ok());
  ASSERT_EQ(kv->resident_pages(), 2u);
  Bytes grown(kNew, 0x55);
  std::memset(grown.data(), 0x44, kOld);
  store_.Set("k", grown);
  network_.ResetStats();
  ASSERT_TRUE(kv->Pull().ok());
  // The size check, then one ranged read of pages 1-2.
  EXPECT_EQ(network_.StatsFor("host-0").tx_messages, 2u);
  EXPECT_EQ(kv->resident_pages(), 3u);
  EXPECT_EQ(kv->data()[kOld - 1], 0x44);
  EXPECT_EQ(kv->data()[kOld], 0x55);
  EXPECT_EQ(kv->data()[kOld + 100], 0x55);
  EXPECT_EQ(kv->data()[kNew - 1], 0x55);
}

TEST_F(StateTest, ColdPullKeepsWholeLineLocalWrite) {
  // A whole-line write into a never-pulled page pulls nothing, so the next
  // Pull() is cold; its install fills only the clean lines around the write.
  constexpr size_t kLine = StateKeyValue::kStateLineBytes;
  constexpr size_t kPage = StateKeyValue::kStatePageBytes;
  SeedGlobal("k", 2 * kPage, 0xAA);
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->EnsureCapacity(2 * kPage).ok());
  uint8_t* line = kv->WritableData(kLine, kLine);
  ASSERT_NE(line, nullptr);
  std::memset(line, 0xBB, kLine);
  ASSERT_EQ(kv->resident_pages(), 0u);
  const uint64_t reads_before = server_.read_rpc_count();
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(server_.read_rpc_count(), reads_before + 1);
  EXPECT_EQ(kv->resident_pages(), 2u);
  EXPECT_EQ(kv->data()[kLine - 1], 0xAA);
  EXPECT_EQ(kv->data()[kLine], 0xBB);
  EXPECT_EQ(kv->data()[2 * kLine - 1], 0xBB);
  EXPECT_EQ(kv->data()[2 * kLine], 0xAA);
  EXPECT_EQ(kv->data()[kPage], 0xAA);

  ASSERT_TRUE(kv->Push().ok());
  auto global = store_.Get("k").value();
  EXPECT_EQ(global[kLine - 1], 0xAA);
  EXPECT_EQ(global[kLine], 0xBB);
  EXPECT_EQ(global[2 * kLine], 0xAA);
}

TEST_F(StateTest, ColdPullOfMissingKeyAllocatesNothing) {
  auto kv = tier_.Lookup("absent");
  EXPECT_EQ(kv->Pull().code(), StatusCode::kNotFound);
  EXPECT_FALSE(kv->allocated());
}

TEST_F(StateTest, ValueShorterThanCapacityPullsItsOwnLength) {
  // get_state sizes the replica before the first pull; a shorter global
  // value moves only its own bytes and leaves the rest of the replica alone.
  constexpr size_t kValue = StateKeyValue::kStatePageBytes + 100;
  SeedGlobal("k", kValue, 0x44);
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->EnsureCapacity(3 * StateKeyValue::kStatePageBytes).ok());
  network_.ResetStats();
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(network_.StatsFor("host-0").tx_messages, 1u);
  EXPECT_GE(network_.total_bytes(), kValue);
  EXPECT_LT(network_.total_bytes(), kValue + 256);
  EXPECT_EQ(kv->size(), 3 * StateKeyValue::kStatePageBytes);
  EXPECT_EQ(kv->resident_pages(), 2u);
  EXPECT_EQ(kv->data()[kValue - 1], 0x44);
  EXPECT_EQ(kv->data()[kValue], 0x00);

  // The value's tail page counts as present: the warm re-pull is the size
  // check alone.
  network_.ResetStats();
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(network_.StatsFor("host-0").tx_messages, 1u);
  EXPECT_LT(network_.total_bytes(), 256u);
}

TEST_F(StateTest, PushChunkWritesRange) {
  SeedGlobal("k", 8192, 0x00);
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->Pull().ok());
  std::memset(kv->data() + 4096, 0xEE, 100);
  ASSERT_TRUE(kv->PushChunk(4096, 100).ok());
  auto global = store_.Get("k").value();
  EXPECT_EQ(global[4095], 0x00);
  EXPECT_EQ(global[4096], 0xEE);
  EXPECT_EQ(global[4195], 0xEE);
  EXPECT_EQ(global[4196], 0x00);
}

TEST_F(StateTest, PartialPagePushDoesNotMarkPagePresent) {
  // Regression: pushing [0, 100) used to mark all of page 0 present, so a
  // later pull skipped fetching bytes the replica never held and read zeros.
  SeedGlobal("k", 2 * StateKeyValue::kStatePageBytes, 0xAA);
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->EnsureCapacity(2 * StateKeyValue::kStatePageBytes).ok());
  std::memset(kv->data(), 0xBB, 100);
  ASSERT_TRUE(kv->PushChunk(0, 100).ok());
  EXPECT_EQ(kv->resident_pages(), 0u);  // page 0 only partially covered
  ASSERT_TRUE(kv->PullChunk(0, StateKeyValue::kStatePageBytes).ok());
  EXPECT_EQ(kv->data()[0], 0xBB);    // the pushed bytes round-trip via the global tier
  EXPECT_EQ(kv->data()[200], 0xAA);  // bytes the replica never held are fetched, not zeros
}

TEST_F(StateTest, FullyCoveredPagesMarkedPresentByPush) {
  SeedGlobal("k", 3 * StateKeyValue::kStatePageBytes, 0x00);
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->EnsureCapacity(3 * StateKeyValue::kStatePageBytes).ok());
  // [0, page+100): page 0 fully covered, page 1 partially.
  ASSERT_TRUE(kv->PushChunk(0, StateKeyValue::kStatePageBytes + 100).ok());
  EXPECT_EQ(kv->resident_pages(), 1u);
}

TEST_F(StateTest, PushTailPageOfValueCountsAsCovered) {
  // A value ending mid-page: pushing through the end covers the tail page.
  SeedGlobal("k", StateKeyValue::kStatePageBytes + 100, 0x00);
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->Pull().ok());
  kv->InvalidateReplica();
  ASSERT_TRUE(kv->PushChunk(StateKeyValue::kStatePageBytes, 100).ok());
  EXPECT_EQ(kv->resident_pages(), 1u);
}

TEST_F(StateTest, DeltaPushShipsOnlyDirtyRuns) {
  const size_t size = 16 * StateKeyValue::kStatePageBytes;
  SeedGlobal("k", size, 0x00);
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->Pull().ok());

  // Two disjoint dirty runs via the write API.
  uint8_t* first = kv->WritableData(StateKeyValue::kStatePageBytes, 10);
  ASSERT_NE(first, nullptr);
  std::memset(first, 0x11, 10);
  uint8_t* second = kv->WritableData(5 * StateKeyValue::kStatePageBytes,
                                     2 * StateKeyValue::kStatePageBytes);
  ASSERT_NE(second, nullptr);
  std::memset(second, 0x22, 2 * StateKeyValue::kStatePageBytes);

  network_.ResetStats();
  ASSERT_TRUE(kv->Push().ok());
  // One dirty line plus two dirty pages shipped in ONE round trip — not the
  // 64 KiB value, not one RPC per run.
  EXPECT_LT(network_.total_bytes(), 4 * StateKeyValue::kStatePageBytes);
  EXPECT_EQ(network_.StatsFor("host-0").tx_messages, 1u);

  auto global = store_.Get("k").value();
  EXPECT_EQ(global[StateKeyValue::kStatePageBytes], 0x11);
  EXPECT_EQ(global[5 * StateKeyValue::kStatePageBytes], 0x22);
  EXPECT_EQ(global[7 * StateKeyValue::kStatePageBytes - 1], 0x22);
  EXPECT_EQ(global[0], 0x00);
}

TEST_F(StateTest, DeltaPushClearsDirtyAfterSuccess) {
  SeedGlobal("k", 8 * StateKeyValue::kStatePageBytes, 0x00);
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->Pull().ok());
  std::memset(kv->WritableData(0, 100), 0x33, 100);
  ASSERT_TRUE(kv->Push().ok());
  // Nothing dirtied since: a second push moves no bytes at all.
  network_.ResetStats();
  ASSERT_TRUE(kv->Push().ok());
  EXPECT_EQ(network_.total_bytes(), 0u);
}

TEST_F(StateTest, SparseTrackedWriteDoesNotClobberGlobalNeighbours) {
  // Delta pushes ship whole lines, so WritableData covering part of a line
  // on a never-pulled page must fill the page from the global tier first
  // (write-allocate) — otherwise the push would overwrite live global bytes
  // with local zeros.
  SeedGlobal("k", 2 * StateKeyValue::kStatePageBytes, 0xAA);
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->EnsureCapacity(2 * StateKeyValue::kStatePageBytes).ok());
  const uint64_t reads_before = server_.read_rpc_count();
  uint8_t* dst = kv->WritableData(0, 10);
  ASSERT_NE(dst, nullptr);
  EXPECT_EQ(server_.read_rpc_count(), reads_before + 1);  // page 0 pulled
  EXPECT_EQ(kv->resident_pages(), 1u);
  std::memset(dst, 0xBB, 10);
  ASSERT_TRUE(kv->Push().ok());
  auto global = store_.Get("k").value();
  EXPECT_EQ(global[0], 0xBB);
  EXPECT_EQ(global[9], 0xBB);
  // Bytes of page 0 the writer did not touch keep their global value.
  EXPECT_EQ(global[10], 0xAA);
  EXPECT_EQ(global[StateKeyValue::kStatePageBytes - 1], 0xAA);
}

TEST_F(StateTest, WholeLineWriteSkipsWriteAllocatePull) {
  // A write covering whole lines overwrites every byte the push will ship,
  // so a non-present page is not pulled for it. The value's tail counts as
  // covered: [page, page + 100) ends the value mid-line.
  constexpr size_t kLine = StateKeyValue::kStateLineBytes;
  constexpr size_t kPage = StateKeyValue::kStatePageBytes;
  SeedGlobal("k", kPage + 100, 0xAA);
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->EnsureCapacity(kPage + 100).ok());
  const uint64_t reads_before = server_.read_rpc_count();
  uint8_t* lines = kv->WritableData(kLine, 2 * kLine);
  ASSERT_NE(lines, nullptr);
  std::memset(lines, 0xBB, 2 * kLine);
  uint8_t* tail = kv->WritableData(kPage, 100);
  ASSERT_NE(tail, nullptr);
  std::memset(tail, 0xCC, 100);
  EXPECT_EQ(server_.read_rpc_count(), reads_before);
  EXPECT_EQ(kv->resident_pages(), 0u);

  network_.ResetStats();
  ASSERT_TRUE(kv->Push().ok());
  // Only the written lines travel: 2 lines + the 100-byte tail, not 2 pages.
  EXPECT_LT(network_.total_bytes(), 3 * kLine + 100 + 256);
  auto global = store_.Get("k").value();
  EXPECT_EQ(global[kLine - 1], 0xAA);
  EXPECT_EQ(global[kLine], 0xBB);
  EXPECT_EQ(global[3 * kLine - 1], 0xBB);
  EXPECT_EQ(global[3 * kLine], 0xAA);
  EXPECT_EQ(global[kPage - 1], 0xAA);
  EXPECT_EQ(global[kPage], 0xCC);
  EXPECT_EQ(global[kPage + 99], 0xCC);
}

TEST_F(StateTest, WriteAllocatePullKeepsUnpushedDirtyLines) {
  // Whole lines written into a never-pulled page, then a partial-line write
  // on the same page: the write-allocate pull fills the page around the
  // dirty lines instead of fetching stale global bytes over them.
  constexpr size_t kLine = StateKeyValue::kStateLineBytes;
  constexpr size_t kPage = StateKeyValue::kStatePageBytes;
  constexpr size_t kAt = kPage / 2 + 8;  // part of a line past line 0
  SeedGlobal("k", kPage, 0xAA);
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->EnsureCapacity(kPage).ok());
  uint8_t* whole = kv->WritableData(0, kLine);
  ASSERT_NE(whole, nullptr);
  std::memset(whole, 0xBB, kLine);
  const uint64_t reads_before = server_.read_rpc_count();
  uint8_t* partial = kv->WritableData(kAt, 8);
  ASSERT_NE(partial, nullptr);
  std::memset(partial, 0xCC, 8);
  EXPECT_EQ(server_.read_rpc_count(), reads_before + 1);  // partial line: pulled
  EXPECT_EQ(kv->data()[0], 0xBB);                          // kept across the pull
  EXPECT_EQ(kv->data()[kLine], 0xAA);                      // filled by the pull

  ASSERT_TRUE(kv->Push().ok());
  auto global = store_.Get("k").value();
  EXPECT_EQ(global[0], 0xBB);
  EXPECT_EQ(global[kLine - 1], 0xBB);
  EXPECT_EQ(global[kLine], 0xAA);
  EXPECT_EQ(global[kAt - 1], 0xAA);
  EXPECT_EQ(global[kAt], 0xCC);
  EXPECT_EQ(global[kAt + 8], 0xAA);
}

TEST_F(StateTest, ConcurrentHostsWritingOnePageBothLand) {
  // Two hosts pull the same page and write different lines of it. Each
  // delta push ships only its writer's line, so neither erases the other.
  constexpr size_t kPage = StateKeyValue::kStatePageBytes;
  SeedGlobal("k", kPage, 0x00);
  KvsClient other_kvs(&network_, "host-1");
  LocalTier other_tier(&other_kvs, &clock_);
  auto mine = tier_.Lookup("k");
  auto theirs = other_tier.Lookup("k");
  ASSERT_TRUE(mine->Pull().ok());
  ASSERT_TRUE(theirs->Pull().ok());

  std::memset(mine->WritableData(0, 8), 0x11, 8);
  ASSERT_TRUE(mine->Push().ok());
  std::memset(theirs->WritableData(2048, 8), 0x22, 8);
  ASSERT_TRUE(theirs->Push().ok());

  auto global = store_.Get("k").value();
  EXPECT_EQ(global[0], 0x11);
  EXPECT_EQ(global[7], 0x11);
  EXPECT_EQ(global[2048], 0x22);
  EXPECT_EQ(global[2055], 0x22);
  EXPECT_EQ(global[8], 0x00);
}

TEST_F(StateTest, WritableDataOnMissingGlobalValueStillWorks) {
  // Brand-new value: nothing in the global tier to fill from; the pull
  // failure is tolerated and the push creates the value.
  auto kv = tier_.Lookup("fresh");
  ASSERT_TRUE(kv->EnsureCapacity(100).ok());
  uint8_t* dst = kv->WritableData(0, 10);
  ASSERT_NE(dst, nullptr);
  std::memset(dst, 0xCC, 10);
  ASSERT_TRUE(kv->Push().ok());
  EXPECT_EQ(store_.Get("fresh").value()[0], 0xCC);
}

TEST_F(StateTest, UntrackedWritersFallBackToFullPush) {
  // Legacy writers bypass the write API entirely; with no dirty information
  // ever recorded, Push must conservatively ship the whole value.
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->EnsureCapacity(2 * StateKeyValue::kStatePageBytes).ok());
  std::memset(kv->data(), 0x44, 2 * StateKeyValue::kStatePageBytes);
  ASSERT_TRUE(kv->Push().ok());
  EXPECT_EQ(store_.Get("k").value(),
            Bytes(2 * StateKeyValue::kStatePageBytes, 0x44));
}

TEST_F(StateTest, PushFullShipsWholeValueDespiteTracking) {
  SeedGlobal("k", 4 * StateKeyValue::kStatePageBytes, 0x00);
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->Pull().ok());
  std::memset(kv->WritableData(0, 10), 0x55, 10);
  // Out-of-band (untracked) write on another page.
  kv->data()[3 * StateKeyValue::kStatePageBytes] = 0x66;
  ASSERT_TRUE(kv->PushFull().ok());
  auto global = store_.Get("k").value();
  EXPECT_EQ(global[0], 0x55);
  EXPECT_EQ(global[3 * StateKeyValue::kStatePageBytes], 0x66);
  // The full push superseded the pending delta: nothing left to push.
  network_.ResetStats();
  ASSERT_TRUE(kv->Push().ok());
  EXPECT_EQ(network_.total_bytes(), 0u);
}

TEST_F(StateTest, OutOfRangeChunksRejected) {
  SeedGlobal("k", 100, 0x01);
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->Pull().ok());
  EXPECT_EQ(kv->PullChunk(90, 20).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(kv->PushChunk(90, 20).code(), StatusCode::kOutOfRange);
}

TEST_F(StateTest, PushBeforeAllocationFails) {
  auto kv = tier_.Lookup("k");
  EXPECT_EQ(kv->Push().code(), StatusCode::kFailedPrecondition);
}

TEST_F(StateTest, CapacityIsFixedByFirstAllocation) {
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->EnsureCapacity(4096).ok());
  EXPECT_TRUE(kv->EnsureCapacity(2000).ok());  // shrink request is fine
  EXPECT_EQ(kv->EnsureCapacity(1 << 20).code(), StatusCode::kResourceExhausted);
}

TEST_F(StateTest, AppendBypassesReplica) {
  auto kv = tier_.Lookup("events");
  ASSERT_TRUE(kv->Append(Bytes{1, 2}).ok());
  ASSERT_TRUE(kv->Append(Bytes{3}).ok());
  EXPECT_EQ(kv->ReadAppended().value(), (Bytes{1, 2, 3}));
}

TEST_F(StateTest, GlobalLocksSerialiseAcrossTiers) {
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->LockGlobalWrite().ok());
  // Another host cannot take the lock now.
  KvsClient other(&network_, "host-1");
  EXPECT_FALSE(other.TryLockWrite("k").value());
  ASSERT_TRUE(kv->UnlockGlobalWrite().ok());
  EXPECT_TRUE(other.TryLockWrite("k").value());
  ASSERT_TRUE(other.UnlockWrite("k").ok());
}

TEST_F(StateTest, LocalLocksAllowSharedReaders) {
  auto kv = tier_.Lookup("k");
  ASSERT_TRUE(kv->EnsureCapacity(16).ok());
  kv->LockRead();
  kv->LockRead();  // second reader does not deadlock
  kv->UnlockRead();
  kv->UnlockRead();
  kv->LockWrite();
  kv->UnlockWrite();
}

TEST_F(StateTest, TierAccounting) {
  SeedGlobal("a", 1000, 1);
  SeedGlobal("b", 2000, 2);
  ASSERT_TRUE(tier_.Lookup("a")->Pull().ok());
  ASSERT_TRUE(tier_.Lookup("b")->Pull().ok());
  EXPECT_EQ(tier_.key_count(), 2u);
  EXPECT_EQ(tier_.resident_bytes(), 3000u);
  tier_.Clear();
  EXPECT_EQ(tier_.key_count(), 0u);
}

}  // namespace
}  // namespace faasm
