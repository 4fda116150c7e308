#include "kvs/kv_store.h"

#include <algorithm>

namespace faasm {

namespace {
// Upper bound on the value size a range write may leave. Its offset comes
// straight off the wire, so without a cap one ~30-byte kSetRange could
// resize a value to gigabytes. The largest value any workload or bench
// writes is fig8's full-scale 768x768 double matrix (4.5 MiB; fig6's
// full-scale `sgd:vals` is 4 MiB), so 64 MiB leaves 14x headroom.
constexpr size_t kMaxValueBytes = size_t{64} << 20;

bool RangeIsSane(size_t offset, size_t len) {
  return offset <= kMaxValueBytes && len <= kMaxValueBytes - offset;
}

}  // namespace

// Counts a mutation as in flight from store entry until the update hook
// returned, which is the window the failover quiesce barrier waits out.
struct KvStore::MutationScope {
  explicit MutationScope(KvStore& store) : store_(store) { store_.inflight_.fetch_add(1); }
  ~MutationScope() {
    if (store_.inflight_.fetch_sub(1) == 1) {
      // seq_cst against AwaitQuiescent's store-then-check: either it sees
      // zero, or this load sees its clock.
      if (Clock* clock = store_.quiesce_clock_.load()) {
        clock->Notify(store_.quiesced_);
      }
    }
  }
  KvStore& store_;
};

void KvStore::AwaitQuiescent(Clock& clock) {
  quiesce_clock_.store(&clock);
  clock.WaitOn(quiesced_, [this] { return inflight_.load() == 0; });
}

int& KvStore::HookPause::Depth() {
  static thread_local int depth = 0;
  return depth;
}

Bytes KeyExport::Serialize() const {
  Bytes out;
  ByteWriter writer(out);
  writer.Put<uint8_t>(has_value ? 1 : 0);
  writer.PutBytes(value);
  writer.Put<int32_t>(lock_readers);
  writer.PutString(lock_writer);
  writer.Put<uint32_t>(static_cast<uint32_t>(set_members.size()));
  for (const std::string& member : set_members) {
    writer.PutString(member);
  }
  writer.Put<uint64_t>(seq);
  return out;
}

Result<KeyExport> KeyExport::Deserialize(const Bytes& bytes) {
  KeyExport record;
  ByteReader reader(bytes);
  FAASM_ASSIGN_OR_RETURN(uint8_t has_value, reader.Get<uint8_t>());
  record.has_value = has_value != 0;
  FAASM_ASSIGN_OR_RETURN(record.value, reader.GetBytes());
  FAASM_ASSIGN_OR_RETURN(record.lock_readers, reader.Get<int32_t>());
  FAASM_ASSIGN_OR_RETURN(record.lock_writer, reader.GetString());
  FAASM_ASSIGN_OR_RETURN(uint32_t member_count, reader.Get<uint32_t>());
  record.set_members.reserve(std::min<uint32_t>(member_count, 1024));
  for (uint32_t i = 0; i < member_count; ++i) {
    FAASM_ASSIGN_OR_RETURN(std::string member, reader.GetString());
    record.set_members.push_back(std::move(member));
  }
  FAASM_ASSIGN_OR_RETURN(record.seq, reader.Get<uint64_t>());
  return record;
}

bool KeyExport::SameContent(const KeyExport& other) const {
  return has_value == other.has_value && value == other.value &&
         lock_readers == other.lock_readers && lock_writer == other.lock_writer &&
         set_members == other.set_members;
}

std::vector<ValueRange> MergeValueRanges(std::vector<ValueRange> ranges) {
  // Drop empty ranges up front; they carry no bytes and would only split
  // otherwise-mergeable neighbours.
  ranges.erase(std::remove_if(ranges.begin(), ranges.end(),
                              [](const ValueRange& r) { return r.bytes.empty(); }),
               ranges.end());
  if (ranges.size() <= 1) {
    return ranges;
  }

  // Compute the merged extents: the union of the input intervals, with
  // adjacent ([a,b) + [b,c)) and overlapping intervals fused.
  struct Extent {
    uint64_t start;
    uint64_t end;
  };
  std::vector<Extent> extents;
  extents.reserve(ranges.size());
  for (const ValueRange& range : ranges) {
    extents.push_back(Extent{range.offset, range.offset + range.bytes.size()});
  }
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) { return a.start < b.start; });
  std::vector<Extent> merged;
  merged.push_back(extents[0]);
  for (size_t i = 1; i < extents.size(); ++i) {
    if (extents[i].start <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, extents[i].end);
    } else {
      merged.push_back(extents[i]);
    }
  }
  if (merged.size() == ranges.size()) {
    // Nothing adjacent or overlapping; only the documented sort remains.
    std::sort(ranges.begin(), ranges.end(),
              [](const ValueRange& a, const ValueRange& b) { return a.offset < b.offset; });
    return ranges;
  }

  // Materialise each merged extent, then replay the inputs IN ORIGINAL
  // ORDER so a later (newer) write wins wherever ranges overlapped —
  // exactly what applying them sequentially through SetRanges would do.
  // Every byte of a merged extent is covered by at least one input, so no
  // filler bytes are invented.
  std::vector<ValueRange> out;
  out.reserve(merged.size());
  for (const Extent& extent : merged) {
    out.push_back(ValueRange{extent.start, Bytes(extent.end - extent.start)});
  }
  for (const ValueRange& range : ranges) {
    const auto it = std::upper_bound(
        merged.begin(), merged.end(), range.offset,
        [](uint64_t offset, const Extent& e) { return offset < e.start; });
    const size_t slot = static_cast<size_t>(it - merged.begin()) - 1;
    std::copy(range.bytes.begin(), range.bytes.end(),
              out[slot].bytes.begin() + (range.offset - merged[slot].start));
  }
  return out;
}

bool KvStore::ShouldForward(const KvsBatchOp& op, const KvsBatchResult& result) {
  if (!result.status.ok() || !IsMutatingOp(op.op)) {
    return false;
  }
  // A lock try that did not acquire is a successful op that changed nothing.
  if ((op.op == KvsOp::kLockRead || op.op == KvsOp::kLockWrite) && !result.flag) {
    return false;
  }
  return true;
}

KvsBatchResult KvStore::MutateOne(const KvsBatchOp& op) {
  MutationScope scope(*this);
  const bool forwarding = ForwardingActive();
  KvsBatchResult result;
  uint64_t seq = 0;
  {
    Shard& shard = ShardFor(op.key);
    std::lock_guard<std::mutex> guard(shard.mutex);
    result.status = CheckServableLocked(shard, op.key);
    if (result.status.ok()) {
      result = ApplyLocked(shard, op);
      if (forwarding && ShouldForward(op, result)) {
        // Captured under the shard mutex: for any key, seq order == apply
        // order, which is what lets a backup drop duplicates by floor.
        seq = mutation_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
      }
    }
  }
  if (seq != 0) {
    // Outside the mutex: the hook may cross the network (sync replication
    // acks after the backups applied) and must never hold a shard lock.
    hook_({ForwardedOp{&op, seq}});
  }
  return result;
}

Status KvStore::Set(const std::string& key, Bytes value) {
  KvsBatchOp op;
  op.op = KvsOp::kSet;
  op.key = key;
  op.bytes = std::move(value);
  return MutateOne(op).status;
}

Status KvStore::SetLocked(Shard& shard, const std::string& key, Bytes value) {
  shard.values[key] = std::move(value);
  return OkStatus();
}

Result<Bytes> KvStore::Get(const std::string& key) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mutex);
  FAASM_RETURN_IF_ERROR(CheckServableLocked(shard, key));
  return GetLocked(shard, key);
}

Result<Bytes> KvStore::GetLocked(const Shard& shard, const std::string& key) {
  auto it = shard.values.find(key);
  if (it == shard.values.end()) {
    return NotFound("kvs: no such key: " + key);
  }
  return it->second;
}

bool KvStore::Exists(const std::string& key) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mutex);
  return shard.values.count(key) > 0;
}

Result<size_t> KvStore::Size(const std::string& key) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mutex);
  FAASM_RETURN_IF_ERROR(CheckServableLocked(shard, key));
  auto it = shard.values.find(key);
  if (it == shard.values.end()) {
    return NotFound("kvs: no such key: " + key);
  }
  return it->second.size();
}

Status KvStore::Delete(const std::string& key) {
  KvsBatchOp op;
  op.op = KvsOp::kDelete;
  op.key = key;
  return MutateOne(op).status;
}

Status KvStore::DeleteLocked(Shard& shard, const std::string& key) {
  return shard.values.erase(key) > 0 ? OkStatus() : NotFound("kvs: no such key: " + key);
}

Result<Bytes> KvStore::GetRange(const std::string& key, size_t offset, size_t len) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mutex);
  FAASM_RETURN_IF_ERROR(CheckServableLocked(shard, key));
  return GetRangeLocked(shard, key, offset, len);
}

Result<Bytes> KvStore::GetRangeLocked(const Shard& shard, const std::string& key, size_t offset,
                                      size_t len) {
  auto it = shard.values.find(key);
  if (it == shard.values.end()) {
    return NotFound("kvs: no such key: " + key);
  }
  const Bytes& value = it->second;
  if (offset > value.size()) {
    return OutOfRange("kvs: range start past end of value");
  }
  // `len` may be the whole-value sentinel (UINT64_MAX): clamp without
  // computing offset + len, which would wrap.
  const size_t end = len >= value.size() - offset ? value.size() : offset + len;
  return Bytes(value.begin() + offset, value.begin() + end);
}

Status KvStore::SetRange(const std::string& key, size_t offset, const Bytes& bytes) {
  KvsBatchOp op;
  op.op = KvsOp::kSetRange;
  op.key = key;
  op.offset = offset;
  op.bytes = bytes;
  return MutateOne(op).status;
}

Status KvStore::SetRangeLocked(Shard& shard, const std::string& key, size_t offset,
                               const Bytes& bytes) {
  if (!RangeIsSane(offset, bytes.size())) {
    return OutOfRange("kvs: range write exceeds maximum value size");
  }
  Bytes& value = shard.values[key];
  if (value.size() < offset + bytes.size()) {
    value.resize(offset + bytes.size());
  }
  std::copy(bytes.begin(), bytes.end(), value.begin() + offset);
  return OkStatus();
}

Status KvStore::SetRanges(const std::string& key, const std::vector<ValueRange>& ranges) {
  KvsBatchOp op;
  op.op = KvsOp::kSetRanges;
  op.key = key;
  op.ranges = ranges;
  return MutateOne(op).status;
}

Status KvStore::SetRangesLocked(Shard& shard, const std::string& key,
                                const std::vector<ValueRange>& ranges) {
  for (const ValueRange& range : ranges) {
    if (!RangeIsSane(range.offset, range.bytes.size())) {
      return OutOfRange("kvs: range write exceeds maximum value size");
    }
  }
  Bytes& value = shard.values[key];
  size_t needed = value.size();
  for (const ValueRange& range : ranges) {
    needed = std::max(needed, static_cast<size_t>(range.offset) + range.bytes.size());
  }
  if (value.size() < needed) {
    value.resize(needed);
  }
  for (const ValueRange& range : ranges) {
    std::copy(range.bytes.begin(), range.bytes.end(), value.begin() + range.offset);
  }
  return OkStatus();
}

Result<size_t> KvStore::Append(const std::string& key, const Bytes& bytes) {
  KvsBatchOp op;
  op.op = KvsOp::kAppend;
  op.key = key;
  op.bytes = bytes;
  KvsBatchResult result = MutateOne(op);
  FAASM_RETURN_IF_ERROR(result.status);
  return static_cast<size_t>(result.length);
}

Result<size_t> KvStore::AppendLocked(Shard& shard, const std::string& key, const Bytes& bytes) {
  Bytes& value = shard.values[key];
  value.insert(value.end(), bytes.begin(), bytes.end());
  return value.size();
}

Result<bool> KvStore::TryLockRead(const std::string& key, const std::string& owner) {
  KvsBatchOp op;
  op.op = KvsOp::kLockRead;
  op.key = key;
  op.member = owner;
  KvsBatchResult result = MutateOne(op);
  FAASM_RETURN_IF_ERROR(result.status);
  return result.flag;
}

Result<bool> KvStore::TryLockWrite(const std::string& key, const std::string& owner) {
  KvsBatchOp op;
  op.op = KvsOp::kLockWrite;
  op.key = key;
  op.member = owner;
  KvsBatchResult result = MutateOne(op);
  FAASM_RETURN_IF_ERROR(result.status);
  return result.flag;
}

Status KvStore::UnlockRead(const std::string& key, const std::string& owner) {
  KvsBatchOp op;
  op.op = KvsOp::kUnlockRead;
  op.key = key;
  op.member = owner;
  return MutateOne(op).status;
}

Status KvStore::UnlockWrite(const std::string& key, const std::string& owner) {
  KvsBatchOp op;
  op.op = KvsOp::kUnlockWrite;
  op.key = key;
  op.member = owner;
  return MutateOne(op).status;
}

Result<bool> KvStore::SetAdd(const std::string& key, const std::string& member) {
  KvsBatchOp op;
  op.op = KvsOp::kSetAdd;
  op.key = key;
  op.member = member;
  KvsBatchResult result = MutateOne(op);
  FAASM_RETURN_IF_ERROR(result.status);
  return result.flag;
}

Result<bool> KvStore::SetAddLocked(Shard& shard, const std::string& key,
                                   const std::string& member) {
  return shard.sets[key].insert(member).second;
}

Result<bool> KvStore::SetRemove(const std::string& key, const std::string& member) {
  KvsBatchOp op;
  op.op = KvsOp::kSetRemove;
  op.key = key;
  op.member = member;
  KvsBatchResult result = MutateOne(op);
  FAASM_RETURN_IF_ERROR(result.status);
  return result.flag;
}

Result<bool> KvStore::SetRemoveLocked(Shard& shard, const std::string& key,
                                      const std::string& member) {
  auto it = shard.sets.find(key);
  if (it == shard.sets.end()) {
    return false;
  }
  return it->second.erase(member) > 0;
}

// --- Batched execution ----------------------------------------------------------

KvsBatchResult KvStore::ApplyLocked(Shard& shard, const KvsBatchOp& op) {
  KvsBatchResult result;
  switch (op.op) {
    case KvsOp::kGet: {
      auto value = GetLocked(shard, op.key);
      result.status = value.status();
      if (value.ok()) {
        result.value = std::move(value).value();
      }
      break;
    }
    case KvsOp::kGetRange: {
      auto value = GetRangeLocked(shard, op.key, op.offset, op.len);
      result.status = value.status();
      if (value.ok()) {
        result.value = std::move(value).value();
      }
      break;
    }
    case KvsOp::kSet:
      result.status = SetLocked(shard, op.key, op.bytes);
      break;
    case KvsOp::kSetRange:
      result.status = SetRangeLocked(shard, op.key, op.offset, op.bytes);
      break;
    case KvsOp::kSetRanges:
      result.status = SetRangesLocked(shard, op.key, op.ranges);
      break;
    case KvsOp::kAppend: {
      auto length = AppendLocked(shard, op.key, op.bytes);
      result.status = length.status();
      if (length.ok()) {
        result.length = length.value();
      }
      break;
    }
    case KvsOp::kDelete:
      result.status = DeleteLocked(shard, op.key);
      break;
    case KvsOp::kSetAdd:
    case KvsOp::kSetRemove: {
      auto changed = op.op == KvsOp::kSetAdd ? SetAddLocked(shard, op.key, op.member)
                                             : SetRemoveLocked(shard, op.key, op.member);
      result.status = changed.status();
      if (changed.ok()) {
        result.flag = changed.value();
      }
      break;
    }
    case KvsOp::kExists:
      result.flag = shard.values.count(op.key) > 0;
      break;
    case KvsOp::kSize: {
      auto it = shard.values.find(op.key);
      if (it == shard.values.end()) {
        result.status = NotFound("kvs: no such key: " + op.key);
      } else {
        result.length = it->second.size();
      }
      break;
    }
    case KvsOp::kSetMembers: {
      auto it = shard.sets.find(op.key);
      if (it != shard.sets.end()) {
        result.members.assign(it->second.begin(), it->second.end());
      }
      break;
    }
    // Lock ops, with the owner in `member`.
    case KvsOp::kLockRead: {
      LockState& lock = shard.locks[op.key];
      result.flag = lock.writer.empty();
      if (result.flag) {
        ++lock.readers;
      }
      break;
    }
    case KvsOp::kLockWrite: {
      LockState& lock = shard.locks[op.key];
      result.flag = lock.writer.empty() && lock.readers == 0;
      if (result.flag) {
        lock.writer = op.member;
      }
      break;
    }
    case KvsOp::kUnlockRead: {
      LockState& lock = shard.locks[op.key];
      if (lock.readers <= 0) {
        result.status = FailedPrecondition("kvs: read-unlock without lock: " + op.key);
        break;
      }
      --lock.readers;
      break;
    }
    case KvsOp::kUnlockWrite: {
      LockState& lock = shard.locks[op.key];
      if (lock.writer != op.member) {
        result.status = FailedPrecondition("kvs: write-unlock by non-owner: " + op.key);
        break;
      }
      lock.writer.clear();
      break;
    }
    default:
      result.status = InvalidArgument("kvs: op not batchable");
      break;
  }
  return result;
}

std::vector<KvsBatchResult> KvStore::ExecuteBatch(const std::vector<const KvsBatchOp*>& ops) {
  MutationScope scope(*this);
  const bool forwarding = ForwardingActive();
  std::vector<KvsBatchResult> results(ops.size());
  // Per-op apply sequences, captured under each bucket's shard mutex
  // (0 = not forwarded). The hook fires ONCE for the whole batch, after
  // every mutex is released, so one forward RPC can carry the batch.
  std::vector<uint64_t> seqs;
  if (forwarding) {
    seqs.assign(ops.size(), 0);
  }
  // Bucket op indices by internal shard, preserving request order within
  // each bucket (ops on the same key always share a bucket, so their
  // relative order survives the grouping).
  std::vector<std::vector<size_t>> buckets(kShards);
  for (size_t i = 0; i < ops.size(); ++i) {
    buckets[ShardIndexFor(ops[i]->key)].push_back(i);
  }
  for (size_t s = 0; s < kShards; ++s) {
    if (buckets[s].empty()) {
      continue;
    }
    // One mutex acquisition per touched shard: the whole bucket executes
    // against a single consistent view of the freeze set, migration filter
    // and ownership guard.
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> guard(shard.mutex);
    for (size_t i : buckets[s]) {
      const KvsBatchOp& op = *ops[i];
      Status servable = CheckServableLocked(shard, op.key);
      if (servable.ok()) {
        results[i] = ApplyLocked(shard, op);
        if (forwarding && ShouldForward(op, results[i])) {
          seqs[i] = mutation_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
        }
      } else {
        results[i].status = std::move(servable);
      }
    }
  }
  if (forwarding) {
    std::vector<ForwardedOp> applied;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (seqs[i] != 0) {
        applied.push_back(ForwardedOp{ops[i], seqs[i]});
      }
    }
    if (!applied.empty()) {
      hook_(applied);
    }
  }
  return results;
}

std::vector<KvsBatchResult> KvStore::ExecuteBatch(const std::vector<KvsBatchOp>& ops) {
  std::vector<const KvsBatchOp*> pointers;
  pointers.reserve(ops.size());
  for (const KvsBatchOp& op : ops) {
    pointers.push_back(&op);
  }
  return ExecuteBatch(pointers);
}

std::vector<std::string> KvStore::SetMembers(const std::string& key) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mutex);
  auto it = shard.sets.find(key);
  if (it == shard.sets.end()) {
    return {};
  }
  return std::vector<std::string>(it->second.begin(), it->second.end());
}

std::vector<std::string> KvStore::Keys() const {
  std::set<std::string> keys;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard.mutex);
    for (const auto& [key, value] : shard.values) {
      keys.insert(key);
    }
    for (const auto& [key, lock] : shard.locks) {
      if (lock.readers > 0 || !lock.writer.empty()) {
        keys.insert(key);
      }
    }
    for (const auto& [key, members] : shard.sets) {
      if (!members.empty()) {
        keys.insert(key);
      }
    }
  }
  return std::vector<std::string>(keys.begin(), keys.end());
}

void KvStore::FreezeKey(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mutex);
  shard.frozen.insert(key);
}

void KvStore::UnfreezeKey(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mutex);
  shard.frozen.erase(key);
}

bool KvStore::IsFrozen(const std::string& key) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mutex);
  return shard.frozen.count(key) > 0;
}

void KvStore::SetMigrationFilter(std::function<bool(const std::string&)> filter) {
  KeyPredicate shared =
      filter ? std::make_shared<const std::function<bool(const std::string&)>>(std::move(filter))
             : nullptr;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard.mutex);
    shard.filter = shared;
  }
}

void KvStore::SetOwnershipGuard(std::function<bool(const std::string&)> owns) {
  KeyPredicate shared =
      owns ? std::make_shared<const std::function<bool(const std::string&)>>(std::move(owns))
           : nullptr;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard.mutex);
    shard.owns = shared;
  }
}

KeyExport KvStore::ExportKey(const std::string& key) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mutex);
  KeyExport record;
  // Floor for the installing backup's duplicate filter: any op on this key
  // with seq <= the snapshot's is already folded in (the key's own shard
  // mutex is held, so no smaller-seq op on it can still be mid-apply).
  record.seq = mutation_seq_.load(std::memory_order_relaxed);
  if (auto it = shard.values.find(key); it != shard.values.end()) {
    record.has_value = true;
    record.value = it->second;
  }
  if (auto it = shard.locks.find(key); it != shard.locks.end()) {
    record.lock_readers = it->second.readers;
    record.lock_writer = it->second.writer;
  }
  if (auto it = shard.sets.find(key); it != shard.sets.end()) {
    record.set_members.assign(it->second.begin(), it->second.end());
  }
  return record;
}

void KvStore::InstallKey(const std::string& key, const KeyExport& record) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mutex);
  shard.frozen.erase(key);  // the key is moving (back) in
  if (record.has_value) {
    shard.values[key] = record.value;
  } else {
    shard.values.erase(key);
  }
  if (record.lock_readers > 0 || !record.lock_writer.empty()) {
    shard.locks[key] = LockState{record.lock_readers, record.lock_writer};
  } else {
    shard.locks.erase(key);
  }
  if (!record.set_members.empty()) {
    shard.sets[key] =
        std::set<std::string>(record.set_members.begin(), record.set_members.end());
  } else {
    shard.sets.erase(key);
  }
}

void KvStore::EraseKey(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mutex);
  shard.values.erase(key);
  shard.locks.erase(key);
  shard.sets.erase(key);
  // The ownership guard — not a per-key marker — keeps stragglers off the
  // moved key, and keeps working if mastership later returns here.
  shard.frozen.erase(key);
}

size_t KvStore::key_count() const {
  size_t count = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard.mutex);
    count += shard.values.size();
  }
  return count;
}

size_t KvStore::total_bytes() const {
  size_t bytes = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard.mutex);
    for (const auto& [key, value] : shard.values) {
      bytes += value.size();
    }
  }
  return bytes;
}

}  // namespace faasm
