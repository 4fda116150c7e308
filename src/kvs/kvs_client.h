// KvsServer / KvsClient: the wire between hosts and the global tier.
//
// The global tier is sharded (kvs/router.h): each host serves a KvStore
// shard on "kvs:<host>", and a ShardMap assigns every key a master shard by
// consistent hashing. KvsClient is the routing client — each operation
// resolves its key's master and either
//
//   - takes the LOCAL FAST PATH: when the master is the calling host's own
//     shard, the op is a direct in-process KvStore call. No InProcNetwork
//     round trip, zero accounted network bytes — a replica co-located with
//     its key's master syncs for free (§4.3); or
//   - is serialised through InProcNetwork to the owning endpoint, so the
//     experiments' network-transfer numbers include exactly the cross-host
//     global-tier traffic a sharded Redis/Anna deployment would generate.
//
// MEMBERSHIP CHANGES (kvs/migration.h) make routes stale: an op can resolve
// its master at epoch N and land on a shard that flipped to epoch N+1, or
// reach a key frozen mid-handoff. Both answer kWrongMaster — a server given
// a ShardMap rejects ops for keys it does not master, and the store bounces
// mutations of frozen keys (the local fast path hits the same store-level
// check, so in-process writers cannot slip past a migration either). The
// client treats kWrongMaster as "re-resolve and retry": it backs off a
// quantum of virtual time and routes against the map's current epoch,
// surfacing the error only after kMaxRedirectRetries (a membership change
// that never converges). The kMigrateInstall op is exempt from the
// ownership check: it is how the migration subsystem streams a key into its
// new master before the epoch flips.
//
// CRASHES (runtime/cluster.h KillHost) are discovered the same way, one
// error code earlier: a killed host's endpoints vanish from the network, so
// ops against it fail with kUnavailable at the transport. With a map the
// client treats that exactly like kWrongMaster — back off, re-resolve,
// retry — because the failover path (kvs/replication.h) promotes a backup
// and flips the epoch, after which the retry routes to the new master.
// Without a map, kUnavailable surfaces immediately, like every other error.
//
// Constructed without a ShardMap, the client is an ADAPTER over the same
// machinery: every key resolves to the single configured endpoint (the
// pre-sharding baseline, kept for ablations and component tests), and with
// no map there is no alternate route, so a kWrongMaster answer surfaces to
// the caller as a typed Status (code kWrongMaster) immediately, after
// exactly one round trip, never as a silent success.
//
// ONE REQUEST PATH (the kBatch / kGetBatch wire ops). Every op travels as a
// sub-op of a batch: a single public op (Set, Read, a lock op, ...) is a
// one-op group its caller runs inline, and an OpBatch accumulates many.
// DispatchBatch groups a batch's ops by each key's CURRENT master endpoint:
// every group travels as ONE framed RPC (net/framing.h), the master-local
// group runs in process for zero network bytes, and groups bound for
// different shards are issued concurrently when a spawner is configured — a
// push (or prefetch) touching K keys mastered on M hosts costs at most M
// round trips, overlapped, instead of K serialised ones. A group made
// entirely of reads ships as kGetBatch, the read-only twin the server
// refuses to let mutate anything. The server answers a per-op status vector
// (KvStore::ExecuteBatch runs each touched store shard's group under one
// mutex acquisition), so a batch that straddles a live migration bounces
// ONLY the moving keys with kWrongMaster; the client re-resolves just those
// ops against the new epoch and retries them under the redirect budget.
// Per-op error/ack model: each enqueued op can carry a completion callback,
// invoked exactly once with the op's final status after retries — an op is
// "acked" only when its callback has fired with Ok, which is what the state
// layer's push visibility barrier (FlushBatch) waits for.
//
// THE UNIFIED READ API. Read(key, ReadOptions) is the one read surface:
// whole-value and ranged reads, cached and uncached, single and batched
// (OpBatch::Read) all take it. ReadOptions selects the window
// ({offset, len}, len defaulting to the whole value) and the staleness
// contract ({max_staleness, bypass_cache}).
//
// THE THREE-TIER READ PATH. A read that is not master-local resolves through
// up to three tiers, cheapest first, each with its own staleness contract.
// One function (ServeNearby) makes this decision for single and batched
// reads alike:
//
//   1. READ CACHE (kvs/read_cache.h, opt-in via EnableReadCache): a per-host
//      cache of previously pulled full values. A hit costs nothing and MAY
//      be stale by at most min(lease, max_staleness) of virtual time
//      relative to OTHER hosts' writes.
//   2. CO-LOCATED REPLICA (opt-in via EnableReplicaReads): when this host
//      keeps a backup of the key's shard (replication_factor > 1 and
//      BackupsFor places a copy here), the read is served from the local
//      ReplicaShard in process — zero network bytes — under the validity
//      rules below.
//   3. MASTER: the read's group travels to the master as one kGetBatch
//      (a lone read is a one-op group), always correct, always paid for.
//
// REPLICA-READ VALIDITY. A backup copy serves only when provably current:
//   - SYNC replication: an acked write is applied at every live backup
//     before its ack, so a certified copy can never miss an acked write.
//     Read-your-writes still requires one step — a pending ambient write on
//     the key flushes (a lone Read) or disqualifies the shortcut for that
//     op (batched reads, as does a write earlier in the same batch), so a
//     replica serve never precedes this host's own enqueued write of the key.
//   - Validity is keyed by (key, shard-map epoch) exactly like the read
//     cache: the copy must have been certified (installed or re-anchored by
//     the membership-serialised mirror/Reconcile flows) at the LIVE epoch,
//     so any migration or failover promotion invalidates every replica read
//     at the flip and Reconcile re-certifies afterwards.
//   - A FENCED replica (its host crashed and failed over) answers
//     kUnavailable; the client reports it to the suspicion hook and falls
//     through to the master — a dead host's copies never serve.
//   - ASYNC replication: an acked write may not have reached the copy yet,
//     so replica reads are never enabled — the cluster wires tier two only
//     under sync replication, and every read goes to the master.
//
// READ CACHE COHERENCE (tier one). A cached read is NEVER stale with
// respect to:
//   - this host's own writes — every mutating op, single or batched,
//     invalidates the key's entry before it is sent (ambient pushes at
//     ENQUEUE time);
//   - membership changes — entries are keyed by shard-map epoch, and an
//     epoch flip invalidates implicitly;
//   - reads under a global lock — acquiring TryLockRead/TryLockWrite
//     invalidates the key's entry, so the first read under the lock refetches
//     the bytes the lock serialises. Readers needing one fresh read without
//     a lock pass max_staleness = 0 (or bypass_cache).
// Whole-value serves from tier two refresh tier one (a replica read is as
// authoritative as the RPC it replaced), so later sub-range reads hit cache.
#ifndef FAASM_KVS_KVS_CLIENT_H_
#define FAASM_KVS_KVS_CLIENT_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "kvs/kv_store.h"
#include "kvs/read_cache.h"
#include "kvs/replication.h"
#include "kvs/router.h"
#include "net/network.h"

namespace faasm {

// Registers an RPC endpoint (default name "kvs") that serves a KvStore
// shard. Sharded clusters run one per host on "kvs:<host>". When `map` is
// given, the server validates per-op that it still masters the key under
// the map's current epoch and answers kWrongMaster otherwise, which is what
// redirects clients that raced a membership change.
class KvsServer {
 public:
  KvsServer(KvStore* store, InProcNetwork* network, std::string endpoint = "kvs",
            const ShardMap* map = nullptr);
  ~KvsServer();

  const std::string& endpoint() const { return endpoint_; }

  // kGetBatch RPCs this server answered over the network, except those
  // made only of existence / warm-set probes (kExists, kSetMembers).
  // Master-local reads never reach the server, so this is exactly the
  // cross-host pull RPC count the benches gate on.
  uint64_t read_rpc_count() const { return read_rpcs_.value(); }
  // Write-side twin: kBatch RPCs this server answered. Excludes
  // kMigrateInstall (migration/replication streams are accounted by their
  // own subsystems). Replication tests bound the forwarded-op RPC overhead
  // against this baseline.
  uint64_t write_rpc_count() const { return write_rpcs_.value(); }

 private:
  // Answers kBatch, kGetBatch and the migration stream's kMigrateInstall.
  Bytes Handle(const Bytes& request);
  // kBatch / kGetBatch: decodes the framed sub-ops, pre-checks ownership per
  // op (a batch straddling a membership change bounces only the moved keys),
  // executes the rest through KvStore::ExecuteBatch, and frames the per-op
  // results back. `read_only` (kGetBatch) rejects mutating sub-ops per op.
  void HandleBatch(ByteReader& reader, ByteWriter& writer, bool read_only);

  KvStore* store_;
  InProcNetwork* network_;
  std::string endpoint_;
  const ShardMap* map_;
  Counter read_rpcs_;
  Counter write_rpcs_;
};

// Options of the unified read API (KvsClient::Read / OpBatch::Read):
// the read window and the staleness contract in one place.
struct ReadOptions {
  // `len` sentinel: read from `offset` to the end of the value.
  static constexpr uint64_t kWholeValue = ~uint64_t{0};
  // `max_staleness` sentinel: bound cached reads by the client's lease alone.
  static constexpr TimeNs kLeaseStaleness = -1;

  uint64_t offset = 0;
  uint64_t len = kWholeValue;
  // Tightest staleness this read tolerates from the read cache; 0 forces a
  // fetch (the result still refreshes the cache).
  TimeNs max_staleness = kLeaseStaleness;
  // Skip the cache entirely: neither served from it nor installed into it.
  bool bypass_cache = false;

  bool whole_value() const { return offset == 0 && len == kWholeValue; }
};

// Builder for one batched request: accumulates sub-ops (with optional
// per-op completion callbacks) until a KvsClient dispatches it. Not thread
// safe; build on one thread, then hand over to DispatchBatch.
class OpBatch {
 public:
  // Invoked exactly once with the op's final status (after any redirects).
  using Ack = std::function<void(const Status&)>;
  // Read completion: the value (the requested window), or the op's error.
  using ReadAck = std::function<void(const Result<Bytes>&)>;

  void Set(std::string key, Bytes value, Ack done = nullptr);
  void SetRange(std::string key, uint64_t offset, Bytes bytes, Ack done = nullptr);
  // Consecutive SetRanges on the same key coalesce into one sub-op with the
  // merged (adjacent/overlapping fused) range list; both acks still fire.
  void SetRanges(std::string key, std::vector<ValueRange> ranges, Ack done = nullptr);
  void Append(std::string key, Bytes bytes, Ack done = nullptr);
  void Delete(std::string key, Ack done = nullptr);
  void SetAdd(std::string key, std::string member, Ack done = nullptr);
  void SetRemove(std::string key, std::string member, Ack done = nullptr);
  // The unified read, batched: ships as kGet (whole value) or kGetRange
  // inside the group; served by the cache or a co-located replica under the
  // same rules as KvsClient::Read.
  void Read(std::string key, ReadOptions options, ReadAck done);
  void Read(std::string key, ReadAck done) { Read(std::move(key), ReadOptions{}, std::move(done)); }

  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

 private:
  friend class KvsClient;

  // Completion of one sub-op with its full result (the public acks and the
  // single-op entry points are adapters over it).
  using Done = std::function<void(KvsBatchResult&)>;
  struct Pending {
    KvsBatchOp op;
    Done done;
    ReadOptions read_options;  // read ops: the cache contract
  };

  void Push(KvsBatchOp op, Done done);
  static Done StatusAck(Ack done);

  std::vector<Pending> ops_;
};

// Completion handle for a dispatched batch. Wait() blocks (in virtual time)
// until every per-endpoint group — including per-op redirect retries — has
// finished, and returns the batch's aggregate status: Ok only when every op
// landed. Callers holding several handles pipeline batches to different
// shards: the round trips overlap instead of serialising.
class BatchHandle {
 public:
  // Wait() is deadline-bounded: a batch whose ops never complete (a crashed
  // endpoint with no failover to reroute to, a wedged group activity) makes
  // Wait return kDeadlineExceeded instead of spinning forever. The default
  // budget dwarfs the per-op redirect budget (kMaxRedirectRetries ×
  // kRedirectBackoffNs ≈ 0.41s virtual), so it only fires on genuine wedges.
  static constexpr TimeNs kDefaultWaitDeadlineNs = 30 * kSecond;

  BatchHandle() = default;

  Status Wait() { return Wait(kDefaultWaitDeadlineNs); }
  // deadline_ns <= 0 waits forever (the pre-deadline behaviour; tests only).
  Status Wait(TimeNs deadline_ns);
  bool done() const;

 private:
  friend class KvsClient;

  struct Shared {
    std::mutex mutex;
    int outstanding = 0;
    Status status = OkStatus();  // first op error, sticky
    WaitQueue finished;          // notified when outstanding reaches 0
  };

  std::shared_ptr<Shared> shared_;
  Clock* clock_ = nullptr;
};

// Routing client stub. `source` is the calling host's endpoint name (for
// accounting and lock ownership).
class KvsClient {
 public:
  // Runs a closure concurrently with the caller (the runtime passes the
  // executor's Spawn). Used to overlap per-endpoint batch groups.
  using Spawner = std::function<void(std::function<void()>)>;
  // Centralised mode: every key lives behind the single `server` endpoint.
  KvsClient(InProcNetwork* network, std::string source, std::string server = "kvs");
  // Sharded mode: `shards` maps keys to master endpoints; `local_store` is
  // the shard this host serves on "kvs:<source>" (may be null when the host
  // serves no shard — e.g. an external client — disabling the fast path).
  KvsClient(InProcNetwork* network, std::string source, const ShardMap* shards,
            KvStore* local_store);

  Status Set(const std::string& key, const Bytes& value);
  // The unified read: Read(key) is a whole-value read, Read(key, {.offset,
  // .len}) a ranged one; {.max_staleness, .bypass_cache} pin the staleness
  // contract per read. Master-local reads are in-process like every other
  // op; cross-host reads take the three-tier path above, and whole-value
  // fetches refresh the cache.
  Result<Bytes> Read(const std::string& key, const ReadOptions& options = {});
  Status SetRange(const std::string& key, uint64_t offset, const Bytes& bytes);
  // Batched multi-range write: N ranges cost one round trip (delta push).
  Status SetRanges(const std::string& key, const std::vector<ValueRange>& ranges);
  Result<uint64_t> Append(const std::string& key, const Bytes& bytes);
  Status Delete(const std::string& key);
  Result<bool> Exists(const std::string& key);
  Result<uint64_t> Size(const std::string& key);

  Result<bool> TryLockRead(const std::string& key);
  Result<bool> TryLockWrite(const std::string& key);
  Status UnlockRead(const std::string& key);
  Status UnlockWrite(const std::string& key);

  Result<bool> SetAdd(const std::string& key, const std::string& member);
  Result<bool> SetRemove(const std::string& key, const std::string& member);
  Result<std::vector<std::string>> SetMembers(const std::string& key);

  // --- Batched ops (kBatch) -----------------------------------------------------
  // Dispatches `batch`: ops grouped per current master endpoint, one framed
  // RPC per group (master-local group in process), groups overlapped via the
  // spawner when more than one crosses the network. Per-op kWrongMaster
  // answers are re-resolved and retried individually. Fire-and-collect: use
  // the returned handle (or per-op acks) to learn the outcome.
  BatchHandle DispatchBatch(OpBatch&& batch);
  // DispatchBatch + Wait: the synchronous convenience form.
  Status ExecuteBatchNow(OpBatch&& batch) { return DispatchBatch(std::move(batch)).Wait(); }

  // --- Ambient state-op batching (per-instance lifecycle) -----------------------
  // The runtime enables this per FaasmInstance; the state layer then routes
  // Push() traffic through an ambient OpBatch owned by this client.
  void EnableBatching() { batching_enabled_ = true; }
  void EnableBatching(Spawner spawner) {
    SetSpawner(std::move(spawner));
    batching_enabled_ = true;
  }
  // Concurrency for DispatchBatch groups, independent of the write-batching
  // toggle (read batches pipeline even under the --batch=off ablation).
  void SetSpawner(Spawner spawner) { spawner_ = std::move(spawner); }
  bool batching_enabled() const { return batching_enabled_; }

  // --- Read-side controls --------------------------------------------------------
  // Grouped-read toggle consumed by the state layer's prefetch paths: when
  // off (the --read-batch=off ablation), multi-key reads fall back to one
  // RPC per op. Batches already built still execute either way.
  void set_read_batching(bool on) { read_batching_ = on; }
  bool read_batching() const { return read_batching_; }
  // Turns on the per-host read cache with the given lease (see the coherence
  // rules above). Off by default: cached reads may lag other hosts' writes
  // by up to the lease, which read-modify-write workloads must not opt into.
  void EnableReadCache(TimeNs lease_ns) { read_cache_.set_lease(lease_ns); }
  bool read_cache_enabled() const { return read_cache_.enabled(); }
  const ReadCache& read_cache() const { return read_cache_; }
  // Drops the key's cached read (exposed for DDOs/tests; internal callers
  // are the mutating ops and the lock acquisitions).
  void InvalidateCachedReads(const std::string& key) { read_cache_.Invalidate(key); }

  // --- Replica reads (tier two of the three-tier read path) --------------------
  // Wiring for serving reads from this host's co-located backup copies. The
  // cluster passes the host's own ReplicaShard plus the replication factor,
  // and only under sync replication (see REPLICA-READ VALIDITY above).
  struct ReplicaReadConfig {
    ReplicaShard* replica = nullptr;
    int factor = 1;  // cluster replication factor (backup resolution)
  };
  void EnableReplicaReads(ReplicaReadConfig config) { replica_cfg_ = std::move(config); }
  bool replica_reads_enabled() const { return replica_cfg_.replica != nullptr; }
  // Reads this client served from the co-located replica (each one a
  // cross-host read RPC that never happened — the per-client twin of
  // ReplicaShard::replica_read_count).
  uint64_t replica_served_count() const { return replica_served_.value(); }

  // Enqueues a delta push into the ambient batch (callers: StateKeyValue).
  void EnqueueSetRanges(const std::string& key, std::vector<ValueRange> ranges,
                        OpBatch::Ack done);
  // While at least one scope is open, enqueued ops defer to the next flush
  // barrier; with no scope open each enqueue is flushed by its caller.
  void BeginBatchScope();
  void EndBatchScope();
  bool InBatchScope() const;
  // Flush barrier: dispatches every pending ambient op (grouped, pipelined)
  // and waits for all of them, retries included. The push-visibility point:
  // after FlushBatch returns Ok, every previously enqueued op is durable in
  // the global tier. No-op when nothing is pending.
  Status FlushBatch();
  // Pending ambient ops (tests/diagnostics).
  size_t pending_batch_ops() const;

  // --- Mastership hints (locality-aware scheduling) ---------------------------
  // True when `key` is mastered by this host's own shard: ops on it are
  // in-process and move zero network bytes.
  bool MasterLocal(const std::string& key) const;
  // Host name mastering `key`, or "" when the master is not a host-colocated
  // shard (centralised mode). Pure local computation — no network.
  std::string MasterHostFor(const std::string& key) const;
  // Every host holding a copy of `key` under the current epoch: its master
  // first, then its backups (ShardMap::HoldersFor). The scheduler widens
  // read-mostly state affinity over this set — any holder serves the
  // function's reads without crossing the network. Pure local computation.
  std::vector<std::string> HolderHostsFor(const std::string& key) const;

  const std::string& source() const { return source_; }

  // --- Failure-detection evidence ---------------------------------------------
  // Invoked (when set) with the endpoint of every op that bounced with
  // kUnavailable, BEFORE the retry sleeps. The cluster wires this to
  // FailureDetector::ReportSuspicion so client traffic accelerates crash
  // detection: the client still retries (the bounce is transient once the
  // failover reroutes it), but the detector gets to probe the silent host on
  // its next sweep instead of waiting out the heartbeat timeout. Must be
  // cheap and non-blocking — it runs on the op's own activity.
  using SuspicionHook = std::function<void(const std::string& endpoint)>;
  void SetSuspicionHook(SuspicionHook hook) { suspicion_hook_ = std::move(hook); }

  // Bound on kWrongMaster redirect retries before the error surfaces. The
  // op stalls while its key is frozen mid-migration, so the retry budget
  // (kMaxRedirectRetries × kRedirectBackoffNs of virtual time) must cover a
  // full migration batch: freeze → stream → epoch flip.
  static constexpr int kMaxRedirectRetries = 2048;
  static constexpr TimeNs kRedirectBackoffNs = 200 * kMicrosecond;

 private:
  // Resolved destination of one key's op: in-process store, or endpoint.
  struct Route {
    KvStore* local = nullptr;
    std::string endpoint;
  };
  Route RouteFor(const std::string& key) const;

  // The typed budget-exhaustion error (kDeadlineExceeded): carries the key,
  // the endpoint last tried, the attempt count, and the last transport
  // error, so callers can tell "master gone for good" from "map stale".
  static Status RedirectBudgetExhausted(const std::string& key, const std::string& endpoint,
                                        int attempts, const Status& last);

  // A single public op: a one-op group run inline on the caller's activity
  // through the same tiering (ServeNearby) and RunGroup as a batch, but with
  // no BatchHandle, so no FlushBatch barrier ever waits on it.
  KvsBatchResult RunOne(KvsBatchOp op, const ReadOptions& options = {});
  // The per-op tier decision, the one place it is made: a read whose master
  // is remote is answered by the read cache (reads and sizes), else by the
  // co-located replica (reads); true = `pending` completed here, false = it
  // belongs in its master's group. A pending ambient write on the key blocks
  // the replica: `may_flush` (lone ops) flushes it first, otherwise the read
  // goes to the master.
  bool ServeNearby(OpBatch::Pending& pending, const Route& route, bool may_flush);

  // --- Replica-read internals ---------------------------------------------------
  // True when this host's replica shard backs `master_endpoint`'s primary
  // under the current epoch. Memoised per epoch (the backup set is a pure
  // function of the endpoint set, recomputed once per flip, like the read
  // cache's epoch key).
  bool LocallyBacked(const std::string& master_endpoint) const;
  // Attempts to serve `key`'s read from the co-located replica. Engaged
  // result = the read's final answer (served, counted); nullopt = fall
  // through to the master (not locally backed was already checked by the
  // caller; here: fenced → suspicion hook, or stale certification).
  std::optional<Result<Bytes>> TryReplicaRead(const std::string& key,
                                              const ReadOptions& options);
  // True when the ambient batch holds a not-yet-flushed mutating op on
  // `key` (the read-your-writes trigger).
  bool HasPendingAmbientWrite(const std::string& key) const;

  // One per-endpoint slice of a dispatched batch, or a single op. RunGroup
  // drives it to completion: issue the framed RPC (or the in-process
  // ExecuteBatch), fire the acks of landed ops, and loop the kWrongMaster /
  // kUnavailable bounces through re-resolution + backoff until they land or
  // the retry budget runs out (without a map, a bounce surfaces after one
  // round trip). Returns the group's first op error (Ok when every op
  // landed).
  Status RunGroup(std::vector<OpBatch::Pending> ops);
  // Sends one group's ops to `endpoint` as a single framed RPC — kGetBatch
  // when the whole group is reads, kBatch otherwise — and decodes the
  // per-op results; a transport/framing error fails every op alike.
  std::vector<KvsBatchResult> RemoteBatch(const std::string& endpoint,
                                          const std::vector<OpBatch::Pending>& ops);
  // Completes `pending` with `result`, firing its ack exactly once.
  static void CompleteOp(OpBatch::Pending& pending, KvsBatchResult result);

  InProcNetwork* network_;
  std::string source_;
  std::string server_;  // centralised mode only
  const ShardMap* shards_ = nullptr;
  KvStore* local_store_ = nullptr;
  std::string local_endpoint_;  // "kvs:<source>"

  // Ambient batching state. `ambient_` accumulates under ambient_mutex_;
  // FlushBatch swaps it out and dispatches outside the lock, so concurrent
  // flushes each take disjoint op sets (flushing another caller's ops early
  // is always safe — deferral, never reordering, is the relaxation). For
  // barrier completeness FlushBatch also waits on `inflight_`: batches a
  // CONCURRENT flush already took but has not finished dispatching — without
  // that wait a barrier could report durability for an op another caller is
  // still flying. Batch scopes are per activity (thread-local depth), so a
  // scope on one Faaslet's call never demotes another call's scopeless
  // Push from being its own barrier.
  bool batching_enabled_ = false;
  bool read_batching_ = true;
  Spawner spawner_;
  SuspicionHook suspicion_hook_;
  mutable std::mutex ambient_mutex_;
  OpBatch ambient_;
  std::vector<std::shared_ptr<BatchHandle::Shared>> inflight_;  // guarded by ambient_mutex_

  // Per-host read cache (disabled until EnableReadCache). Thread-safe;
  // consulted/installed only for routes that would cross the network.
  ReadCache read_cache_;

  // Replica-read state (disabled until EnableReplicaReads). The memoised
  // backed-master set is guarded by holder_mutex_ (client ops run on many
  // Faaslet threads at once).
  ReplicaReadConfig replica_cfg_;
  Counter replica_served_;
  mutable std::mutex holder_mutex_;
  mutable uint64_t holder_epoch_ = ~uint64_t{0};       // guarded by holder_mutex_
  mutable std::set<std::string> backed_masters_;       // guarded by holder_mutex_
};

}  // namespace faasm

#endif  // FAASM_KVS_KVS_CLIENT_H_
