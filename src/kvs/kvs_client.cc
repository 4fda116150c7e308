#include "kvs/kvs_client.h"

#include <algorithm>
#include <functional>
#include <map>

#include "kvs/batch_codec.h"
#include "net/framing.h"

namespace faasm {

// The wire codec (WriteStatus/ReadStatus, the batch sub-op dialects) lives
// in kvs/batch_codec.{h,cc}, shared with the replication forward channel.

// --- Server -------------------------------------------------------------------

KvsServer::KvsServer(KvStore* store, InProcNetwork* network, std::string endpoint,
                     const ShardMap* map)
    : store_(store), network_(network), endpoint_(std::move(endpoint)), map_(map) {
  network_->RegisterEndpoint(endpoint_, [this](const Bytes& request) { return Handle(request); });
}

KvsServer::~KvsServer() { network_->UnregisterEndpoint(endpoint_); }

Bytes KvsServer::Handle(const Bytes& request) {
  Bytes response;
  ByteWriter writer(response);
  ByteReader reader(request);

  auto op_byte = reader.Get<uint8_t>();
  const KvsOp op = op_byte.ok() ? static_cast<KvsOp>(op_byte.value()) : KvsOp{};
  if (op == KvsOp::kBatch || op == KvsOp::kGetBatch) {
    // Every client op arrives here: each framed sub-op carries its own key,
    // and ownership is checked per op.
    HandleBatch(reader, writer, /*read_only=*/op == KvsOp::kGetBatch);
  } else if (op == KvsOp::kMigrateInstall) {
    // The migration stream. Exempt from the ownership check: it installs a
    // key BEFORE the epoch flips it to this shard.
    auto install = DecodeInstall(reader);
    if (install.ok()) {
      store_->InstallKey(install.value().key, install.value().record);
    }
    WriteStatus(writer, install.status());
  } else {
    WriteStatus(writer, InvalidArgument("unknown kvs request"));
  }
  return response;
}

void KvsServer::HandleBatch(ByteReader& reader, ByteWriter& writer, bool read_only) {
  auto parts = ReadFrameBatch(reader);
  if (!parts.ok()) {
    WriteStatus(writer, InvalidArgument("malformed batch request"));
    return;
  }
  std::vector<KvsBatchOp> ops;
  ops.reserve(parts.value().size());
  std::vector<KvsBatchResult> results(parts.value().size());
  // Ops the per-op checks already settled keep their slot but are excluded
  // from execution; `to_run[i]` says whether results[i] comes from the store.
  std::vector<bool> to_run(parts.value().size(), false);
  std::vector<const KvsBatchOp*> runnable;
  // Only existence and warm-set probes in a read batch: the scheduler's
  // metadata lookups, tallied as neither reads nor writes.
  bool probes_only = !parts.value().empty();
  for (size_t i = 0; i < parts.value().size(); ++i) {
    auto op = DecodeBatchOp(parts.value()[i]);
    if (!op.ok()) {
      ops.emplace_back();
      results[i].status = op.status();
      probes_only = false;
      continue;
    }
    ops.push_back(std::move(op).value());
    probes_only =
        probes_only && (ops[i].op == KvsOp::kExists || ops[i].op == KvsOp::kSetMembers);
    // A kGetBatch is read-only by contract: a mutating sub-op smuggled in
    // is rejected here, before it can touch the store.
    if (read_only && !IsReadBatchOp(ops[i].op)) {
      results[i].status = InvalidArgument("kvs: mutating op in read batch");
      continue;
    }
    // Epoch-aware ownership check, per sub-op: a request routed under a
    // stale shard map is redirected instead of served (or worse, creating a
    // stranded copy), and a batch straddling a membership change bounces
    // only the moved keys.
    if (map_ != nullptr && map_->MasterFor(ops[i].key) != endpoint_) {
      results[i].status =
          WrongMaster("kvs: '" + ops[i].key + "' is not mastered by " + endpoint_);
      continue;
    }
    to_run[i] = true;
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    if (to_run[i]) {
      runnable.push_back(&ops[i]);
    }
  }
  // A kBatch is one write RPC whatever its sub-ops mix (a group holding no
  // mutation ships as kGetBatch).
  if (!read_only) {
    write_rpcs_.Increment();
  } else if (!probes_only) {
    read_rpcs_.Increment();
  }
  std::vector<KvsBatchResult> executed = store_->ExecuteBatch(runnable);
  for (size_t i = 0, next = 0; i < ops.size(); ++i) {
    if (to_run[i]) {
      results[i] = std::move(executed[next++]);
    }
  }

  WriteStatus(writer, OkStatus());  // framing-level status; per-op below
  BeginFrameBatch(writer, static_cast<uint32_t>(results.size()));
  for (size_t i = 0; i < results.size(); ++i) {
    AppendFrame(writer, EncodeBatchResult(ops[i].op, results[i]));
  }
}

// --- Client -------------------------------------------------------------------

KvsClient::KvsClient(InProcNetwork* network, std::string source, std::string server)
    : network_(network),
      source_(std::move(source)),
      server_(std::move(server)),
      read_cache_(&network->clock(), nullptr) {}

KvsClient::KvsClient(InProcNetwork* network, std::string source, const ShardMap* shards,
                     KvStore* local_store)
    : network_(network),
      source_(std::move(source)),
      shards_(shards),
      local_store_(local_store),
      local_endpoint_(ShardMap::EndpointForHost(source_)),
      read_cache_(&network->clock(), shards) {}

Status KvsClient::RedirectBudgetExhausted(const std::string& key, const std::string& endpoint,
                                          int attempts, const Status& last) {
  return DeadlineExceeded("kvs: retry budget exhausted for key '" + key + "' after " +
                          std::to_string(attempts) + " attempts (last endpoint: " +
                          (endpoint.empty() ? "<local>" : endpoint) +
                          ", last error: " + last.ToString() + ")");
}

KvsClient::Route KvsClient::RouteFor(const std::string& key) const {
  if (shards_ == nullptr) {
    return Route{nullptr, server_};
  }
  std::string master = shards_->MasterFor(key);
  if (local_store_ != nullptr && master == local_endpoint_) {
    // Local fast path: this host IS the key's master. Direct in-process
    // store call; no round trip, no accounted bytes.
    return Route{local_store_, std::move(master)};
  }
  return Route{nullptr, std::move(master)};
}

bool KvsClient::MasterLocal(const std::string& key) const {
  // Defined in terms of RouteFor so the scheduler's placement hint can never
  // diverge from the routing the ops actually take.
  return RouteFor(key).local != nullptr;
}

std::string KvsClient::MasterHostFor(const std::string& key) const {
  if (shards_ == nullptr) {
    return "";
  }
  return ShardMap::HostForEndpoint(shards_->MasterFor(key));
}

std::vector<std::string> KvsClient::HolderHostsFor(const std::string& key) const {
  std::vector<std::string> hosts;
  if (shards_ == nullptr) {
    return hosts;  // centralised mode: no host-colocated holders
  }
  for (const std::string& endpoint : shards_->HoldersFor(key)) {
    const std::string host = ShardMap::HostForEndpoint(endpoint);
    if (!host.empty()) {
      hosts.push_back(host);
    }
  }
  return hosts;
}

bool KvsClient::LocallyBacked(const std::string& master_endpoint) const {
  if (replica_cfg_.replica == nullptr || shards_ == nullptr || local_endpoint_.empty()) {
    return false;
  }
  std::lock_guard<std::mutex> guard(holder_mutex_);
  const uint64_t epoch = shards_->epoch();
  if (epoch != holder_epoch_) {
    // One recompute per flip. A flip racing between the epoch read and the
    // snapshot can memoise the newer set under the older id; the mismatch
    // only costs a spurious attempt or fall-through — ReplicaShard's
    // certified-epoch check is the authoritative validity gate.
    backed_masters_.clear();
    const ShardAssignment snapshot = shards_->Snapshot();
    for (const std::string& endpoint : snapshot.endpoints()) {
      if (endpoint == local_endpoint_) {
        continue;
      }
      for (const std::string& backup :
           BackupsFor(snapshot.endpoints(), endpoint, replica_cfg_.factor)) {
        if (backup == local_endpoint_) {
          backed_masters_.insert(endpoint);
          break;
        }
      }
    }
    holder_epoch_ = epoch;
  }
  return backed_masters_.count(master_endpoint) > 0;
}

bool KvsClient::HasPendingAmbientWrite(const std::string& key) const {
  std::lock_guard<std::mutex> guard(ambient_mutex_);
  for (const OpBatch::Pending& pending : ambient_.ops_) {
    if (pending.op.key == key && IsMutatingOp(pending.op.op)) {
      return true;
    }
  }
  return false;
}

std::optional<Result<Bytes>> KvsClient::TryReplicaRead(const std::string& key,
                                                       const ReadOptions& options) {
  Result<Bytes> result = replica_cfg_.replica->ReadValue(key, options.offset, options.len);
  if (result.ok() || result.status().code() == StatusCode::kNotFound) {
    // Served (a certified copy's NotFound is the truth — the master would
    // answer the same).
    replica_served_.Increment();
    return result;
  }
  if (result.status().code() == StatusCode::kUnavailable) {
    // Our own mirror is fenced: the cluster declared THIS host dead and a
    // zombie is still reading. Feed the detector (it resolves "rep:<host>")
    // and fall through — the master path's ownership checks handle the rest.
    if (suspicion_hook_ != nullptr) {
      suspicion_hook_(ReplicaEndpointForHost(ShardMap::HostForEndpoint(local_endpoint_)));
    }
  }
  // kFailedPrecondition (stale certification) and anything unexpected fall
  // through to the master.
  return std::nullopt;
}

// --- Single ops -------------------------------------------------------------------

namespace {

// The public op's answer: `field` of the result, or its error.
template <typename T>
Result<T> ResultOf(KvsBatchResult&& result, T KvsBatchResult::*field) {
  if (!result.status.ok()) {
    return result.status;
  }
  return std::move(result.*field);
}

}  // namespace

KvsBatchResult KvsClient::RunOne(KvsBatchOp op, const ReadOptions& options) {
  KvsBatchResult result;
  OpBatch::Pending pending;
  pending.op = std::move(op);
  pending.read_options = options;
  pending.done = [&result](KvsBatchResult& landed) { result = std::move(landed); };
  if (!IsReadBatchOp(pending.op.op)) {
    read_cache_.Invalidate(pending.op.key);
  } else if (ServeNearby(pending, RouteFor(pending.op.key), /*may_flush=*/true)) {
    return result;
  }
  std::vector<OpBatch::Pending> group;
  group.push_back(std::move(pending));
  RunGroup(std::move(group));
  return result;
}

Status KvsClient::Set(const std::string& key, const Bytes& value) {
  return RunOne({.op = KvsOp::kSet, .key = key, .bytes = value}).status;
}

Result<Bytes> KvsClient::Read(const std::string& key, const ReadOptions& options) {
  const KvsOp op = options.whole_value() ? KvsOp::kGet : KvsOp::kGetRange;
  return ResultOf(
      RunOne({.op = op, .key = key, .offset = options.offset, .len = options.len}, options),
      &KvsBatchResult::value);
}

Status KvsClient::SetRange(const std::string& key, uint64_t offset, const Bytes& bytes) {
  return RunOne({.op = KvsOp::kSetRange, .key = key, .offset = offset, .bytes = bytes}).status;
}

Status KvsClient::SetRanges(const std::string& key, const std::vector<ValueRange>& ranges) {
  return RunOne({.op = KvsOp::kSetRanges, .key = key, .ranges = ranges}).status;
}

Result<uint64_t> KvsClient::Append(const std::string& key, const Bytes& bytes) {
  return ResultOf(RunOne({.op = KvsOp::kAppend, .key = key, .bytes = bytes}),
                  &KvsBatchResult::length);
}

Status KvsClient::Delete(const std::string& key) {
  return RunOne({.op = KvsOp::kDelete, .key = key}).status;
}

Result<bool> KvsClient::Exists(const std::string& key) {
  return ResultOf(RunOne({.op = KvsOp::kExists, .key = key}), &KvsBatchResult::flag);
}

Result<uint64_t> KvsClient::Size(const std::string& key) {
  return ResultOf(RunOne({.op = KvsOp::kSize, .key = key}), &KvsBatchResult::length);
}

Result<bool> KvsClient::TryLockRead(const std::string& key) {
  auto acquired = ResultOf(RunOne({.op = KvsOp::kLockRead, .key = key, .member = source_}),
                           &KvsBatchResult::flag);
  if (acquired.ok() && acquired.value()) {
    // No stale read under a lock: the first read after acquisition must
    // refetch the bytes the lock serialises, not a leased copy.
    read_cache_.Invalidate(key);
  }
  return acquired;
}

Result<bool> KvsClient::TryLockWrite(const std::string& key) {
  auto acquired = ResultOf(RunOne({.op = KvsOp::kLockWrite, .key = key, .member = source_}),
                           &KvsBatchResult::flag);
  if (acquired.ok() && acquired.value()) {
    read_cache_.Invalidate(key);  // as TryLockRead
  }
  return acquired;
}

Status KvsClient::UnlockRead(const std::string& key) {
  return RunOne({.op = KvsOp::kUnlockRead, .key = key, .member = source_}).status;
}

Status KvsClient::UnlockWrite(const std::string& key) {
  return RunOne({.op = KvsOp::kUnlockWrite, .key = key, .member = source_}).status;
}

Result<bool> KvsClient::SetAdd(const std::string& key, const std::string& member) {
  return ResultOf(RunOne({.op = KvsOp::kSetAdd, .key = key, .member = member}),
                  &KvsBatchResult::flag);
}

Result<bool> KvsClient::SetRemove(const std::string& key, const std::string& member) {
  return ResultOf(RunOne({.op = KvsOp::kSetRemove, .key = key, .member = member}),
                  &KvsBatchResult::flag);
}

Result<std::vector<std::string>> KvsClient::SetMembers(const std::string& key) {
  return ResultOf(RunOne({.op = KvsOp::kSetMembers, .key = key}), &KvsBatchResult::members);
}

// --- Batched ops ----------------------------------------------------------------

OpBatch::Done OpBatch::StatusAck(Ack done) {
  if (done == nullptr) {
    return nullptr;
  }
  return [done = std::move(done)](KvsBatchResult& result) { done(result.status); };
}

void OpBatch::Push(KvsBatchOp op, Done done) {
  Pending pending;
  pending.op = std::move(op);
  pending.done = std::move(done);
  ops_.push_back(std::move(pending));
}

void OpBatch::Set(std::string key, Bytes value, Ack done) {
  Push({.op = KvsOp::kSet, .key = std::move(key), .bytes = std::move(value)},
       StatusAck(std::move(done)));
}

void OpBatch::SetRange(std::string key, uint64_t offset, Bytes bytes, Ack done) {
  Push({.op = KvsOp::kSetRange, .key = std::move(key), .offset = offset, .bytes = std::move(bytes)},
       StatusAck(std::move(done)));
}

void OpBatch::SetRanges(std::string key, std::vector<ValueRange> ranges, Ack done) {
  // Coalesce with an immediately preceding SetRanges on the same key: two
  // pushes of one value in one batch ship as a single sub-op with merged
  // (adjacent/overlapping fused) runs; both acks fire with its status.
  if (!ops_.empty() && ops_.back().op.op == KvsOp::kSetRanges && ops_.back().op.key == key) {
    Pending& prev = ops_.back();
    prev.op.ranges.insert(prev.op.ranges.end(), std::make_move_iterator(ranges.begin()),
                          std::make_move_iterator(ranges.end()));
    prev.op.ranges = MergeValueRanges(std::move(prev.op.ranges));
    if (done != nullptr) {
      if (prev.done == nullptr) {
        prev.done = StatusAck(std::move(done));
      } else {
        prev.done = [first = std::move(prev.done),
                     second = std::move(done)](KvsBatchResult& result) {
          first(result);
          second(result.status);
        };
      }
    }
    return;
  }
  Push({.op = KvsOp::kSetRanges,
        .key = std::move(key),
        .ranges = MergeValueRanges(std::move(ranges))},
       StatusAck(std::move(done)));
}

void OpBatch::Append(std::string key, Bytes bytes, Ack done) {
  Push({.op = KvsOp::kAppend, .key = std::move(key), .bytes = std::move(bytes)},
       StatusAck(std::move(done)));
}

void OpBatch::Delete(std::string key, Ack done) {
  Push({.op = KvsOp::kDelete, .key = std::move(key)}, StatusAck(std::move(done)));
}

void OpBatch::SetAdd(std::string key, std::string member, Ack done) {
  Push({.op = KvsOp::kSetAdd, .key = std::move(key), .member = std::move(member)},
       StatusAck(std::move(done)));
}

void OpBatch::SetRemove(std::string key, std::string member, Ack done) {
  Push({.op = KvsOp::kSetRemove, .key = std::move(key), .member = std::move(member)},
       StatusAck(std::move(done)));
}

void OpBatch::Read(std::string key, ReadOptions options, ReadAck done) {
  Push({.op = options.whole_value() ? KvsOp::kGet : KvsOp::kGetRange,
        .key = std::move(key),
        .offset = options.offset,
        .len = options.len},
       [done = std::move(done)](KvsBatchResult& result) {
         if (result.status.ok()) {
           done(std::move(result.value));
         } else {
           done(result.status);
         }
       });
  ops_.back().read_options = options;
}

Status BatchHandle::Wait(TimeNs deadline_ns) {
  if (shared_ == nullptr) {
    return OkStatus();
  }
  const TimeNs deadline = deadline_ns > 0 ? clock_->Now() + deadline_ns : kNoDeadline;
  // WaitOn re-checks completion after the deadline, so a batch that finished
  // exactly at the deadline still reports its real status.
  clock_->WaitOn(shared_->finished, [this] { return done(); }, deadline);
  std::lock_guard<std::mutex> guard(shared_->mutex);
  if (shared_->outstanding == 0) {
    return shared_->status;
  }
  return DeadlineExceeded("kvs batch wait: " + std::to_string(shared_->outstanding) +
                          " op group(s) still outstanding after " +
                          std::to_string(deadline_ns / kMillisecond) + "ms");
}

bool BatchHandle::done() const {
  if (shared_ == nullptr) {
    return true;
  }
  std::lock_guard<std::mutex> guard(shared_->mutex);
  return shared_->outstanding == 0;
}

void KvsClient::CompleteOp(OpBatch::Pending& pending, KvsBatchResult result) {
  if (pending.done != nullptr) {
    pending.done(result);
    pending.done = nullptr;
  }
}

bool KvsClient::ServeNearby(OpBatch::Pending& pending, const Route& route, bool may_flush) {
  const std::string& key = pending.op.key;
  const ReadOptions& options = pending.read_options;
  // Master-local ops are already free, and caching them would only add
  // staleness.
  if (route.local != nullptr) {
    return false;
  }
  KvsBatchResult served;
  if (pending.op.op == KvsOp::kSize) {
    // A fresh cached value (or size-only entry) answers; a remote answer
    // refreshes the size stamp (RunGroup), so a following Pull's fetch
    // decision and its sizing agree.
    auto size = read_cache_.LookupSize(key, ReadOptions::kLeaseStaleness);
    if (!size.has_value()) {
      return false;
    }
    served.length = *size;
    CompleteOp(pending, std::move(served));
    return true;
  }
  if (pending.op.op != KvsOp::kGet && pending.op.op != KvsOp::kGetRange) {
    return false;
  }
  // Tier one: the read cache.
  const bool cacheable = read_cache_.enabled() && !options.bypass_cache;
  if (cacheable) {
    if (auto hit = read_cache_.Lookup(key, options.offset, options.len, options.max_staleness)) {
      served.value = std::move(*hit);
      CompleteOp(pending, std::move(served));
      return true;
    }
  }
  // Tier two: a co-located replica answers in process when this host mirrors
  // the key's shard and the copy is certified for the live epoch (replica
  // reads are only ever enabled under sync replication).
  if (replica_cfg_.replica == nullptr || !LocallyBacked(route.endpoint)) {
    return false;
  }
  // Read-your-writes: a pending ambient write to this key must land on the
  // master before a replica may answer. A lone op flushes it; a batched read
  // cannot flush from inside its own dispatch and goes to the master.
  if (HasPendingAmbientWrite(key)) {
    if (!may_flush) {
      return false;
    }
    FlushBatch();
  }
  auto from_replica = TryReplicaRead(key, options);
  if (!from_replica.has_value()) {
    return false;
  }
  served.status = from_replica->status();
  if (from_replica->ok()) {
    served.value = std::move(*from_replica).value();
    if (cacheable && options.whole_value()) {
      read_cache_.InsertFull(key, served.value);  // tier two refreshes tier one
    }
  }
  CompleteOp(pending, std::move(served));
  return true;
}

std::vector<KvsBatchResult> KvsClient::RemoteBatch(const std::string& endpoint,
                                                   const std::vector<OpBatch::Pending>& ops) {
  std::vector<Bytes> parts;
  parts.reserve(ops.size());
  bool all_reads = true;
  for (const OpBatch::Pending& pending : ops) {
    parts.push_back(EncodeBatchOp(pending.op));
    all_reads = all_reads && IsReadBatchOp(pending.op.op);
  }
  // A pure read group ships as kGetBatch — the wire-visible read-only twin
  // (the server rejects any mutating sub-op in one).
  Bytes request;
  ByteWriter writer(request);
  writer.Put<uint8_t>(static_cast<uint8_t>(all_reads ? KvsOp::kGetBatch : KvsOp::kBatch));
  WriteFrameBatch(writer, parts);
  auto response = network_->Call(source_, endpoint, request);
  std::vector<KvsBatchResult> results(ops.size());
  auto fail_all = [&](const Status& status) {
    for (KvsBatchResult& result : results) {
      result.status = status;
    }
    return results;
  };
  if (!response.ok()) {
    return fail_all(response.status());
  }
  ByteReader reader(response.value());
  Status framing = ReadStatus(reader);
  if (!framing.ok()) {
    return fail_all(framing);
  }
  auto result_parts = ReadFrameBatch(reader);
  if (!result_parts.ok() || result_parts.value().size() != ops.size()) {
    return fail_all(Internal("kvs: malformed batch response"));
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    results[i] = DecodeBatchResult(ops[i].op.op, result_parts.value()[i]);
  }
  return results;
}

Status KvsClient::RunGroup(std::vector<OpBatch::Pending> ops) {
  Status first_error = OkStatus();
  int attempt = 0;
  while (!ops.empty()) {
    // Regroup by the keys' CURRENT masters: after a kWrongMaster bounce the
    // epoch may have flipped, splitting the survivors across new endpoints.
    std::map<std::string, std::vector<OpBatch::Pending>> groups;
    std::vector<OpBatch::Pending> local;
    for (OpBatch::Pending& pending : ops) {
      Route route = RouteFor(pending.op.key);
      if (route.local != nullptr) {
        local.push_back(std::move(pending));
      } else {
        groups[route.endpoint].push_back(std::move(pending));
      }
    }
    ops.clear();

    auto settle = [&](std::vector<OpBatch::Pending>& group,
                      std::vector<KvsBatchResult> results, const std::string& endpoint) {
      const bool from_remote = !endpoint.empty();
      for (size_t i = 0; i < group.size(); ++i) {
        // kUnavailable bounces like kWrongMaster: the master crashed and its
        // endpoint vanished; the failover epoch flip reroutes the retry. The
        // bounce is also crash evidence — report it so the detector probes
        // the silent host instead of waiting out the heartbeat timeout.
        const bool unavailable = results[i].status.code() == StatusCode::kUnavailable;
        if (unavailable && from_remote && suspicion_hook_ != nullptr) {
          suspicion_hook_(endpoint);
        }
        const bool bounced =
            results[i].status.code() == StatusCode::kWrongMaster || unavailable;
        if (bounced && shards_ != nullptr && attempt < kMaxRedirectRetries) {
          ops.push_back(std::move(group[i]));  // retry just this op
          continue;
        }
        if (bounced && shards_ != nullptr) {
          // Budget ran dry while the op was still bouncing: surface the
          // typed deadline error so the ack can tell an extended outage from
          // a permanent one-shot failure. The op completes — a stranded op
          // must never leave its BatchHandle waiting forever.
          results[i].status = RedirectBudgetExhausted(group[i].op.key, endpoint, attempt,
                                                      results[i].status);
        }
        if (!results[i].status.ok() && first_error.ok()) {
          first_error = results[i].status;
        }
        // A whole-value read that crossed the network refreshes the cache
        // (partial values never populate it, so a lookup can serve any
        // sub-range without inventing bytes), and a size refreshes the stamp.
        if (from_remote && read_cache_.enabled() && results[i].status.ok()) {
          if (group[i].op.op == KvsOp::kGet && !group[i].read_options.bypass_cache) {
            read_cache_.InsertFull(group[i].op.key, results[i].value);
          } else if (group[i].op.op == KvsOp::kSize) {
            read_cache_.InsertSize(group[i].op.key, results[i].length);
          }
        }
        CompleteOp(group[i], std::move(results[i]));
      }
    };

    if (!local.empty()) {
      std::vector<const KvsBatchOp*> pointers;
      pointers.reserve(local.size());
      for (const OpBatch::Pending& pending : local) {
        pointers.push_back(&pending.op);
      }
      settle(local, local_store_->ExecuteBatch(pointers), /*endpoint=*/"");
    }
    for (auto& [endpoint, group] : groups) {
      settle(group, RemoteBatch(endpoint, group), endpoint);
    }

    if (!ops.empty()) {
      ++attempt;
      network_->clock().SleepFor(kRedirectBackoffNs);
    }
  }
  return first_error;
}

BatchHandle KvsClient::DispatchBatch(OpBatch&& batch) {
  BatchHandle handle;
  if (batch.ops_.empty()) {
    return handle;
  }

  // Initial grouping by current master. Each group becomes one activity;
  // the master-local group and single-group batches run inline (no thread
  // spawn for the degenerate cases). Mutating ops drop the key's cached
  // read here (before any RPC, so the cache can never mask an op already
  // accepted into a batch); reads ServeNearby answers (cache or co-located
  // replica) complete immediately with zero network bytes.
  std::map<std::string, std::vector<OpBatch::Pending>> groups;
  // Keys this batch itself mutates: a later read of one in the SAME batch
  // goes to the master — a nearer tier would jump the batch's own write.
  std::set<std::string> mutated_in_batch;
  for (OpBatch::Pending& pending : batch.ops_) {
    Route route = RouteFor(pending.op.key);
    if (!IsReadBatchOp(pending.op.op)) {
      read_cache_.Invalidate(pending.op.key);
      mutated_in_batch.insert(pending.op.key);
    } else if (mutated_in_batch.count(pending.op.key) == 0 &&
               ServeNearby(pending, route, /*may_flush=*/false)) {
      continue;
    }
    const std::string& slot = route.local != nullptr ? local_endpoint_ : route.endpoint;
    groups[slot].push_back(std::move(pending));
  }
  batch.ops_.clear();
  if (groups.empty()) {
    return handle;  // every op was served from the cache
  }
  handle.clock_ = &network_->clock();
  handle.shared_ = std::make_shared<BatchHandle::Shared>();
  handle.shared_->outstanding = static_cast<int>(groups.size());
  {
    // Register before any group runs: a concurrent FlushBatch barrier must
    // see (and wait out) this dispatch even though the ambient batch no
    // longer holds its ops.
    std::lock_guard<std::mutex> guard(ambient_mutex_);
    inflight_.push_back(handle.shared_);
  }

  size_t remote_groups = 0;
  for (const auto& [endpoint, group] : groups) {
    remote_groups += (local_store_ != nullptr && endpoint == local_endpoint_) ? 0 : 1;
  }
  for (auto& [endpoint, group] : groups) {
    auto run = [this, shared = handle.shared_, ops = std::move(group)]() mutable {
      Status status = RunGroup(std::move(ops));
      bool last = false;
      {
        std::lock_guard<std::mutex> guard(shared->mutex);
        if (!status.ok() && shared->status.ok()) {
          shared->status = status;
        }
        shared->outstanding -= 1;
        last = shared->outstanding == 0;
      }
      if (last) {
        {
          std::lock_guard<std::mutex> guard(ambient_mutex_);
          inflight_.erase(std::remove(inflight_.begin(), inflight_.end(), shared),
                          inflight_.end());
        }
        network_->clock().Notify(shared->finished);
      }
    };
    const bool is_local = local_store_ != nullptr && endpoint == local_endpoint_;
    // Pipelining: overlap round trips only when more than one group crosses
    // the network; everything else runs on the caller's activity.
    if (spawner_ != nullptr && !is_local && remote_groups > 1) {
      spawner_(std::move(run));
    } else {
      run();
    }
  }
  return handle;
}

// --- Ambient state-op batching ---------------------------------------------------

namespace {
// Batch scopes are per ACTIVITY: a StateBatch opened by one Faaslet's call
// must not demote a concurrent call's scopeless Push from being its own
// barrier. Every call runs whole on one executor thread, so thread-local
// depth (keyed by client, in case several instances share a thread over its
// lifetime) is exactly per-call scoping.
int& ScopeDepthForThisThread(const void* client) {
  static thread_local std::map<const void*, int> depths;
  return depths[client];
}
}  // namespace

void KvsClient::EnqueueSetRanges(const std::string& key, std::vector<ValueRange> ranges,
                                 OpBatch::Ack done) {
  // Invalidate at ENQUEUE time: this host's own pending (not yet flushed)
  // write must never be masked by a leased read of the old bytes.
  read_cache_.Invalidate(key);
  std::lock_guard<std::mutex> guard(ambient_mutex_);
  ambient_.SetRanges(key, std::move(ranges), std::move(done));
}

void KvsClient::BeginBatchScope() { ++ScopeDepthForThisThread(this); }

void KvsClient::EndBatchScope() {
  int& depth = ScopeDepthForThisThread(this);
  if (depth > 0) {
    --depth;
  }
}

bool KvsClient::InBatchScope() const { return ScopeDepthForThisThread(this) > 0; }

Status KvsClient::FlushBatch() {
  OpBatch taken;
  std::vector<std::shared_ptr<BatchHandle::Shared>> inflight;
  {
    std::lock_guard<std::mutex> guard(ambient_mutex_);
    taken = std::move(ambient_);
    ambient_ = OpBatch{};
    inflight = inflight_;  // dispatches other callers have in flight
  }
  if (taken.empty() && inflight.empty()) {
    return OkStatus();  // idle fast path (hot: every sync point calls this)
  }
  Status status = OkStatus();
  if (!taken.empty()) {
    status = DispatchBatch(std::move(taken)).Wait();
  }
  // Barrier completeness: an op enqueued before this call may have been
  // taken by a concurrent flush that is still dispatching. "FlushBatch
  // returned Ok" must mean EVERY previously enqueued op is durable, so wait
  // those out too (their first error joins the aggregate).
  for (const auto& shared : inflight) {
    BatchHandle other;
    other.shared_ = shared;
    other.clock_ = &network_->clock();
    Status theirs = other.Wait();
    if (status.ok() && !theirs.ok()) {
      status = theirs;
    }
  }
  return status;
}

size_t KvsClient::pending_batch_ops() const {
  std::lock_guard<std::mutex> guard(ambient_mutex_);
  return ambient_.size();
}

}  // namespace faasm
