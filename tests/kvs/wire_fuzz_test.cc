// Hostile-input robustness of every KVS wire decoder: the request handlers
// (KvsServer, ReplicaServer), the sub-op codecs (DecodeBatchOp,
// DecodeReplicaOp) and the per-op result decoder (DecodeBatchResult). Valid
// frames are mutated one byte at a time and truncated, and random frames are
// thrown in; every input must come back as a typed Status — never a crash, a
// hang or an out-of-range status code. Seeded RNG, bounded iterations.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "kvs/batch_codec.h"
#include "kvs/kvs_client.h"
#include "kvs/replication.h"
#include "net/framing.h"

namespace faasm {
namespace {

constexpr uint64_t kSeeds[] = {1, 2, 3, 4};
constexpr int kMutationsPerSeed = 600;
constexpr int kTruncationsPerSeed = 200;
constexpr int kRandomFramesPerSeed = 200;

bool KnownCode(uint8_t code) { return code <= static_cast<uint8_t>(StatusCode::kDeadlineExceeded); }
bool KnownStatus(const Status& status) { return KnownCode(static_cast<uint8_t>(status.code())); }

Bytes Mutated(const Bytes& valid, Rng& rng) {
  Bytes out = valid;
  out[rng.NextBelow(out.size())] = static_cast<uint8_t>(rng.NextU64());
  return out;
}

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

KvsBatchOp Op(KvsOp code, std::string key) { return {.op = code, .key = std::move(key)}; }

// Sub-ops of every kind, for the pure decoders.
std::vector<KvsBatchOp> EveryOpKind() {
  std::vector<KvsBatchOp> ops;
  for (KvsOp code :
       {KvsOp::kGet, KvsOp::kDelete, KvsOp::kExists, KvsOp::kSize, KvsOp::kSetMembers}) {
    ops.push_back(Op(code, "key"));
  }
  ops.push_back({.op = KvsOp::kGetRange, .key = "key", .offset = 1, .len = 2});
  ops.push_back({.op = KvsOp::kSet, .key = "key", .bytes = Bytes{1, 2, 3}});
  ops.push_back({.op = KvsOp::kAppend, .key = "key", .bytes = Bytes{4}});
  ops.push_back({.op = KvsOp::kSetRange, .key = "key", .offset = 8, .bytes = Bytes{5, 6}});
  ops.push_back({.op = KvsOp::kSetRanges,
                 .key = "key",
                 .ranges = {ValueRange{0, Bytes{7}}, ValueRange{4, Bytes{8, 9}}}});
  for (KvsOp code : {KvsOp::kSetAdd, KvsOp::kSetRemove, KvsOp::kLockRead, KvsOp::kLockWrite,
                     KvsOp::kUnlockRead, KvsOp::kUnlockWrite}) {
    KvsBatchOp op = Op(code, "key");
    op.member = "host-7";
    ops.push_back(std::move(op));
  }
  return ops;
}

// Sub-ops for the handlers, which EXECUTE what they decode. The store caps
// a value at 64 MiB, so a mutated offset byte of a range write allocates at
// most ~16 MiB (byte 2 of the little-endian offset) and anything higher is
// refused. Value bytes 1..3 are nonzero so a mutated op byte that
// reinterprets a value as an offset lands far past that cap.
std::vector<KvsBatchOp> ExecutableOps() {
  std::vector<KvsBatchOp> ops = EveryOpKind();
  for (KvsBatchOp& op : ops) {
    if (!op.bytes.empty()) {
      op.bytes = Bytes{0x51, 0x52, 0x53, 0x54, 0x55};
    }
  }
  return ops;
}

Bytes Request(KvsOp kind, const std::vector<Bytes>& parts) {
  Bytes request;
  ByteWriter writer(request);
  writer.Put<uint8_t>(static_cast<uint8_t>(kind));
  WriteFrameBatch(writer, parts);
  return request;
}

Bytes InstallRequestFrame() {
  KeyExport record;
  record.has_value = true;
  record.value = Bytes{0x61, 0x62, 0x63};
  record.lock_readers = 1;
  record.set_members = {"host-1", "host-2"};
  record.seq = 9;
  return EncodeInstall("moved-key", record);
}

// Sends `request` and checks the answer is typed: a known status code
// first and, for an accepted batch, one non-empty part per sub-op, each
// opening with a known code. Returns the top-level status.
Status CallTyped(InProcNetwork& network, const std::string& endpoint, const Bytes& request) {
  auto response = network.Call("fuzzer", endpoint, request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (!response.ok()) {
    return response.status();
  }
  ByteReader reader(response.value());
  auto code = reader.Get<uint8_t>();
  EXPECT_TRUE(code.ok() && KnownCode(code.value()));
  if (!code.ok() || !KnownCode(code.value())) {
    return Internal("untyped answer");
  }
  const bool batch = !request.empty() && (request[0] == static_cast<uint8_t>(KvsOp::kBatch) ||
                                          request[0] == static_cast<uint8_t>(KvsOp::kGetBatch));
  if (code.value() == 0 && batch) {
    auto parts = ReadFrameBatch(reader);
    EXPECT_TRUE(parts.ok());
    if (parts.ok()) {
      for (const Bytes& part : parts.value()) {
        EXPECT_TRUE(!part.empty() && KnownCode(part[0]));
      }
    }
  }
  return code.value() == 0 ? OkStatus() : Status(static_cast<StatusCode>(code.value()), "answer");
}

// Runs mutations, truncations and random frames of `valid` requests at
// `endpoint`. Every truncation must fail at the top level.
void FuzzHandler(InProcNetwork& network, const std::string& endpoint,
                 const std::vector<Bytes>& valid) {
  for (const Bytes& request : valid) {
    ASSERT_TRUE(CallTyped(network, endpoint, request).ok());
  }
  for (uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (int i = 0; i < kMutationsPerSeed; ++i) {
      CallTyped(network, endpoint, Mutated(valid[rng.NextBelow(valid.size())], rng));
    }
    for (int i = 0; i < kTruncationsPerSeed; ++i) {
      const Bytes cut = Truncated(valid[rng.NextBelow(valid.size())], rng);
      EXPECT_FALSE(CallTyped(network, endpoint, cut).ok()) << "truncated to " << cut.size();
    }
    for (int i = 0; i < kRandomFramesPerSeed; ++i) {
      CallTyped(network, endpoint, RandomFrame(rng));
    }
  }
}

NetworkConfig NoLatency() {
  NetworkConfig config;
  config.charge_latency = false;
  return config;
}

TEST(KvsWireFuzzTest, KvsServerAnswersHostileRequestsWithTypedStatuses) {
  RealClock clock;
  InProcNetwork network(&clock, NoLatency());
  KvStore store;
  KvsServer server(&store, &network);
  std::vector<Bytes> parts;
  std::vector<Bytes> read_parts;
  for (const KvsBatchOp& op : ExecutableOps()) {
    parts.push_back(EncodeBatchOp(op));
    if (IsReadBatchOp(op.op)) {
      read_parts.push_back(EncodeBatchOp(op));
    }
  }
  FuzzHandler(network, server.endpoint(),
              {Request(KvsOp::kBatch, parts), Request(KvsOp::kGetBatch, read_parts),
               InstallRequestFrame()});
}

TEST(KvsWireFuzzTest, ReplicaServerAnswersHostileRequestsWithTypedStatuses) {
  RealClock clock;
  InProcNetwork network(&clock, NoLatency());
  ReplicaShard shard;
  ReplicaServer server(&shard, &network, "rep:host-1");
  std::vector<Bytes> parts;
  uint64_t seq = 0;
  for (const KvsBatchOp& op : ExecutableOps()) {
    parts.push_back(EncodeReplicaOp(op, ++seq));
  }
  FuzzHandler(network, server.endpoint(), {Request(KvsOp::kBatch, parts), InstallRequestFrame()});
}

// One batch of `ops` to `endpoint`; returns each sub-op's status code.
std::vector<StatusCode> SubOpCodes(InProcNetwork& network, const std::string& endpoint,
                                   const std::vector<Bytes>& ops) {
  auto response = network.Call("fuzzer", endpoint, Request(KvsOp::kBatch, ops));
  EXPECT_TRUE(response.ok());
  std::vector<StatusCode> codes;
  if (!response.ok()) {
    return codes;
  }
  ByteReader reader(response.value());
  EXPECT_EQ(reader.Get<uint8_t>().value(), static_cast<uint8_t>(StatusCode::kOk));
  auto parts = ReadFrameBatch(reader);
  EXPECT_TRUE(parts.ok());
  for (const Bytes& part : parts.value()) {
    codes.push_back(static_cast<StatusCode>(part.at(0)));
  }
  return codes;
}

// Range writes at offset 2^33: a ~30-byte request that, uncapped, would
// resize the value to 8 GiB. Both servers refuse each with kOutOfRange and
// leave no value behind.
std::vector<KvsBatchOp> HugeOffsetWrites() {
  constexpr uint64_t kHugeOffset = uint64_t{1} << 33;
  return {{.op = KvsOp::kSetRange, .key = "huge", .offset = kHugeOffset, .bytes = Bytes{1}},
          {.op = KvsOp::kSetRanges,
           .key = "huge",
           .ranges = {ValueRange{0, Bytes{2}}, ValueRange{kHugeOffset, Bytes{3}}}}};
}

TEST(KvsWireFuzzTest, RangeWritesPastTheValueCapAreRefusedOnBothServers) {
  RealClock clock;
  InProcNetwork network(&clock, NoLatency());
  KvStore store;
  KvsServer server(&store, &network);
  ReplicaShard shard;
  ReplicaServer replica(&shard, &network, "rep:host-1");

  std::vector<Bytes> client_ops;
  std::vector<Bytes> replica_ops;
  uint64_t seq = 0;
  for (const KvsBatchOp& op : HugeOffsetWrites()) {
    client_ops.push_back(EncodeBatchOp(op));
    replica_ops.push_back(EncodeReplicaOp(op, ++seq));
  }
  const std::vector<StatusCode> refused(2, StatusCode::kOutOfRange);
  EXPECT_EQ(SubOpCodes(network, server.endpoint(), client_ops), refused);
  EXPECT_EQ(SubOpCodes(network, replica.endpoint(), replica_ops), refused);
  EXPECT_EQ(store.Size("huge").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(shard.store()->Size("huge").status().code(), StatusCode::kNotFound);
}

void FuzzSubOpDecoder(const std::function<Bytes(const KvsBatchOp&)>& encode,
                      const std::function<Result<KvsBatchOp>(const Bytes&)>& decode) {
  std::vector<Bytes> valid;
  for (const KvsBatchOp& op : EveryOpKind()) {
    valid.push_back(encode(op));
    auto decoded = decode(valid.back());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().op, op.op);
    EXPECT_EQ(encode(decoded.value()), valid.back());  // round trip
  }
  auto typed = [](const Result<KvsBatchOp>& result) {
    return result.ok() || KnownStatus(result.status());
  };
  for (uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (int i = 0; i < kMutationsPerSeed; ++i) {
      EXPECT_TRUE(typed(decode(Mutated(valid[rng.NextBelow(valid.size())], rng))));
    }
    for (int i = 0; i < kTruncationsPerSeed; ++i) {
      auto decoded = decode(Truncated(valid[rng.NextBelow(valid.size())], rng));
      EXPECT_FALSE(decoded.ok());
      EXPECT_TRUE(typed(decoded));
    }
    for (int i = 0; i < kRandomFramesPerSeed; ++i) {
      EXPECT_TRUE(typed(decode(RandomFrame(rng))));
    }
  }
}

TEST(KvsWireFuzzTest, ClientSubOpDecoderSurvivesHostileBytes) {
  FuzzSubOpDecoder(EncodeBatchOp, DecodeBatchOp);
}

TEST(KvsWireFuzzTest, ReplicaSubOpDecoderSurvivesHostileBytes) {
  FuzzSubOpDecoder([](const KvsBatchOp& op) { return EncodeReplicaOp(op, 77); }, DecodeReplicaOp);
}

TEST(KvsWireFuzzTest, ResultDecoderSurvivesHostileBytesForEveryOpKind) {
  for (const KvsBatchOp& op : EveryOpKind()) {
    KvsBatchResult result;
    result.value = Bytes{1, 2, 3};
    result.length = 3;
    result.flag = true;
    result.members = {"host-1", "host-2"};
    const Bytes valid = EncodeBatchResult(op.op, result);
    ASSERT_TRUE(DecodeBatchResult(op.op, valid).status.ok());
    for (uint64_t seed : kSeeds) {
      Rng rng(seed);
      for (int i = 0; i < kMutationsPerSeed / 4; ++i) {
        EXPECT_TRUE(KnownStatus(DecodeBatchResult(op.op, Mutated(valid, rng)).status));
      }
      for (int i = 0; i < kTruncationsPerSeed / 4; ++i) {
        const KvsBatchResult cut = DecodeBatchResult(op.op, Truncated(valid, rng));
        EXPECT_FALSE(cut.status.ok()) << "op " << static_cast<int>(op.op);
        EXPECT_TRUE(KnownStatus(cut.status));
      }
      for (int i = 0; i < kRandomFramesPerSeed / 4; ++i) {
        EXPECT_TRUE(KnownStatus(DecodeBatchResult(op.op, RandomFrame(rng)).status));
      }
    }
  }
}

// A SetMembers answer whose member count is hostile: 0xFFFFFFFF claimed,
// one member present. The decoder must refuse it with a typed error and
// must not reserve room for four billion strings first.
Bytes HostileMembersResult() {
  Bytes part;
  ByteWriter writer(part);
  writer.Put<uint8_t>(static_cast<uint8_t>(StatusCode::kOk));
  writer.Put<uint32_t>(0xFFFFFFFFu);
  writer.PutString("only-one");
  return part;
}

TEST(KvsWireFuzzTest, SetMembersResultClaimingFourBillionMembersIsATypedError) {
  const KvsBatchResult result = DecodeBatchResult(KvsOp::kSetMembers, HostileMembersResult());
  EXPECT_EQ(result.status.code(), StatusCode::kOutOfRange);
  EXPECT_LE(result.members.capacity(), 1024u);

  // The same frame from a hostile server reaches the caller as that error.
  RealClock clock;
  InProcNetwork network(&clock, NoLatency());
  network.RegisterEndpoint("hostile", [](const Bytes&) {
    Bytes response;
    ByteWriter writer(response);
    writer.Put<uint8_t>(static_cast<uint8_t>(StatusCode::kOk));
    WriteFrameBatch(writer, {HostileMembersResult()});
    return response;
  });
  KvsClient client(&network, "host-0", "hostile");
  EXPECT_EQ(client.SetMembers("warm:f").status().code(), StatusCode::kOutOfRange);
  network.UnregisterEndpoint("hostile");
}

}  // namespace
}  // namespace faasm
