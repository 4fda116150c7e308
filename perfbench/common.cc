#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/rng.h"

namespace faasm::perfbench {

// --- Report -------------------------------------------------------------------

void Report::Fail(const std::string& why) {
  std::lock_guard<std::mutex> guard(mutex_);
  ++failed_;
  if (failed_ <= 10) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
}

namespace {

void PrintJsonMetrics(const std::vector<Metric>& metrics) {
  std::printf("\"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), value, metrics[i].unit.c_str());
  }
  std::printf("}");
}

}  // namespace

void Report::Print(bool trace) const {
  std::lock_guard<std::mutex> guard(mutex_);
  for (const std::string& line : notes_) {
    std::printf("# %s\n", line.c_str());
  }
  for (const Metric& m : end_to_end_) {
    std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : layer_) {
    std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              failed_ == 0 && attempted_ > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  PrintJsonMetrics(trace ? layer_ : end_to_end_);
  std::printf("}\n");
  std::fflush(stdout);
}

namespace {

double Percentile(std::vector<double>::const_iterator begin,
                  std::vector<double>::const_iterator end, double p) {
  Summary summary;
  for (auto it = begin; it != end; ++it) {
    summary.Add(*it);
  }
  return summary.count() == 0 ? 0.0 : summary.Percentile(p);
}

}  // namespace

double Median(std::vector<double> values) { return Percentile(values.begin(), values.end(), 50); }

double Samples::P(double p) const {
  std::lock_guard<std::mutex> guard(mutex_);
  return Percentile(values_.begin(), values_.end(), p);
}

double Samples::BlockedP(double p, size_t blocks) const {
  std::lock_guard<std::mutex> guard(mutex_);
  const size_t per_block = values_.size() / blocks;
  if (per_block == 0) {
    return Percentile(values_.begin(), values_.end(), p);
  }
  std::vector<double> block_values;
  for (size_t b = 0; b < blocks; ++b) {
    const auto first = values_.begin() + static_cast<std::ptrdiff_t>(b * per_block);
    block_values.push_back(Percentile(first, first + static_cast<std::ptrdiff_t>(per_block), p));
  }
  return Median(block_values);
}

// --- Counters -------------------------------------------------------------------

namespace {

constexpr double Counters::*kCounterFields[] = {
    &Counters::virt_s,          &Counters::wall_s,
    &Counters::gb_s,            &Counters::net_bytes,
    &Counters::cold_starts,
    &Counters::kvs_read_rpcs,   &Counters::kvs_write_rpcs,
    &Counters::replica_served,  &Counters::repl_forwarded_ops,
    &Counters::repl_forward_rpcs, &Counters::fd_heartbeats,
    &Counters::fd_false_suspicions, &Counters::messages,
    &Counters::kvs_bytes,       &Counters::rep_bytes,
    &Counters::mailbox_bytes,
    &Counters::mailbox_msgs,
};

}  // namespace

Counters Counters::operator-(const Counters& before) const {
  Counters d = *this;
  for (auto field : kCounterFields) {
    d.*field -= before.*field;
  }
  return d;
}

Counters& Counters::operator+=(const Counters& other) {
  for (auto field : kCounterFields) {
    this->*field += other.*field;
  }
  return *this;
}

namespace {

double WallSeconds() {
  static const Stopwatch epoch;
  return static_cast<double>(epoch.ElapsedNs()) / 1e9;
}

}  // namespace

Counters Snapshot(FaasmCluster& cluster) {
  Counters c;
  c.virt_s = static_cast<double>(cluster.clock().Now()) / 1e9;
  c.wall_s = WallSeconds();
  c.gb_s = cluster.billable_gb_seconds();
  c.net_bytes = static_cast<double>(cluster.network_bytes());
  c.cold_starts = static_cast<double>(cluster.cold_start_count());

  InProcNetwork& net = cluster.network();
  double rx_bytes = 0;
  double kvs_msgs = 0;
  double rep_msgs = 0;
  double host_rx_msgs = 0;
  for (size_t i = 0; i < cluster.host_count(); ++i) {
    FaasmInstance& host = cluster.host(i);
    c.replica_served += static_cast<double>(host.kvs().replica_served_count());
    if (const KvsServer* server = host.shard_server()) {
      c.kvs_read_rpcs += static_cast<double>(server->read_rpc_count());
      c.kvs_write_rpcs += static_cast<double>(server->write_rpc_count());
    }
    const EndpointStats h = net.StatsFor(host.name());
    const EndpointStats k = net.StatsFor(ShardMap::EndpointForHost(host.name()));
    const EndpointStats r = net.StatsFor(ReplicaEndpointForHost(host.name()));
    host_rx_msgs += static_cast<double>(h.rx_messages);
    rx_bytes += static_cast<double>(h.rx_bytes + k.rx_bytes + r.rx_bytes);
    c.messages += static_cast<double>(h.rx_messages + k.rx_messages + r.rx_messages);
    c.kvs_bytes += static_cast<double>(k.rx_bytes + k.tx_bytes);
    kvs_msgs += static_cast<double>(k.rx_messages + k.tx_messages);
    c.rep_bytes += static_cast<double>(r.rx_bytes + r.tx_bytes);
    rep_msgs += static_cast<double>(r.rx_messages + r.tx_messages);
  }
  // Replication RPCs run between "kvs:<a>" and "rep:<b>", so they also show
  // on the shard endpoints; take them out of the client<->shard class.
  c.kvs_bytes -= c.rep_bytes;
  kvs_msgs -= rep_msgs;

  double fd_bytes = 0;
  double fd_probes = 0;
  if (const FailureDetector* detector = cluster.failure_detector()) {
    const EndpointStats f = net.StatsFor(detector->config().endpoint);
    rx_bytes += static_cast<double>(f.rx_bytes);
    c.messages += static_cast<double>(f.rx_messages);
    fd_bytes = static_cast<double>(f.rx_bytes + f.tx_bytes);
    fd_probes = static_cast<double>(f.tx_messages);
    c.fd_heartbeats = static_cast<double>(detector->heartbeats_seen());
    c.fd_false_suspicions = static_cast<double>(detector->false_suspicions());
  }
  // Calls still finishing when a snapshot is taken may move a few bytes
  // between the two reads; anything larger means an unclassified endpoint.
  if (std::fabs(rx_bytes - c.net_bytes) > 0.01 * c.net_bytes + 4096) {
    std::fprintf(stderr, "perfbench: warning: endpoint split covers %.0f of %.0f bytes\n",
                 rx_bytes, c.net_bytes);
  }
  c.mailbox_bytes = c.net_bytes - c.kvs_bytes - c.rep_bytes - fd_bytes;
  // A host endpoint receives its mailbox messages, the responses to its own
  // shard RPCs (half the client<->shard messages) and detector probes.
  c.mailbox_msgs = host_rx_msgs - kvs_msgs / 2 - fd_probes;

  if (const ReplicationManager* replication = cluster.replication()) {
    c.repl_forwarded_ops = static_cast<double>(replication->stats().forwarded_ops.value());
    c.repl_forward_rpcs = static_cast<double>(replication->stats().forward_rpcs.value());
  }
  return c;
}

void CallSpans::Record(const CallRecord& record) {
  queue_us.Add(static_cast<double>(record.started_at - record.submitted_at) / 1e3);
  exec_ms.Add(static_cast<double>(record.finished_at - record.started_at) / 1e6);
  if (record.cold_start) {
    cold_ms.Add(static_cast<double>(record.finished_at - record.submitted_at) / 1e6);
  }
}

void CallSpans::RecordRange(const CallTable& calls, uint64_t first, uint64_t end) {
  for (uint64_t id = first; id < end; ++id) {
    auto record = calls.Get(id);
    if (record.ok() && record.value().state == CallState::kDone) {
      Record(record.value());
    }
  }
}

// --- Chain functions --------------------------------------------------------------

namespace {

Samples g_leaf_pull_us;
Samples g_leaf_push_us;
std::atomic<uint64_t> g_leaf_state_ops{0};

uint64_t Fnv1a(const uint8_t* data, size_t len) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < len; ++i) {
    h = (h ^ data[i]) * 1099511628211ull;
  }
  return h;
}

// Input: u32 leaf, u32 page, u8 traced. Output: u64 shared checksum, u64 the
// bumped page's counter.
int LeafFunction(InvocationContext& ctx) {
  ByteReader reader(ctx.Input());
  auto leaf = reader.Get<uint32_t>();
  auto page = reader.Get<uint32_t>();
  auto traced = reader.Get<uint8_t>();
  if (!leaf.ok() || !page.ok() || !traced.ok() || page.value() >= kPagesPerLeaf) {
    return 2;
  }
  Clock& clock = ctx.clock();

  // Re-pull the shared key: drop the local copy, then Pull.
  auto shared = ctx.state().Lookup(kSharedKey);
  shared->InvalidateReplica();
  const TimeNs pull_start = clock.Now();
  if (!shared->Pull().ok()) {
    return 3;
  }
  const TimeNs pull_end = clock.Now();

  // Fresh read of the leaf's page (another host may have bumped it last).
  auto own = ctx.state().Lookup(LeafKey(static_cast<int>(leaf.value())));
  own->InvalidateReplica();
  const size_t offset = size_t{page.value()} * 4096;
  if (!own->PullChunk(offset, 4096).ok()) {
    return 4;
  }

  Stopwatch compute;
  const uint64_t checksum = Fnv1a(shared->data(), shared->size());
  uint8_t* counter_bytes = own->WritableData(offset, sizeof(uint64_t));
  if (counter_bytes == nullptr) {
    return 5;
  }
  uint64_t counter = 0;
  std::memcpy(&counter, counter_bytes, sizeof(counter));
  ++counter;
  std::memcpy(counter_bytes, &counter, sizeof(counter));
  ctx.ChargeCompute(compute.ElapsedNs());

  const TimeNs push_start = clock.Now();
  if (!own->Push().ok()) {
    return 6;
  }
  const TimeNs push_end = clock.Now();
  g_leaf_state_ops.fetch_add(3);
  if (traced.value() != 0) {
    g_leaf_pull_us.Add(static_cast<double>(pull_end - pull_start) / 1e3);
    g_leaf_push_us.Add(static_cast<double>(push_end - push_start) / 1e3);
  }

  Bytes out;
  ByteWriter writer(out);
  writer.Put<uint64_t>(checksum);
  writer.Put<uint64_t>(counter);
  ctx.WriteOutput(std::move(out));
  return 0;
}

// Input: u8 traced, then one u32 page per leaf. Chains the leaves, awaits
// them all, and concatenates their outputs.
int FanFunction(InvocationContext& ctx) {
  ByteReader reader(ctx.Input());
  auto traced = reader.Get<uint8_t>();
  if (!traced.ok()) {
    return 2;
  }
  std::vector<uint64_t> ids;
  for (int leaf = 0; leaf < kFanWidth; ++leaf) {
    auto page = reader.Get<uint32_t>();
    if (!page.ok()) {
      return 2;
    }
    Bytes input;
    ByteWriter writer(input);
    writer.Put<uint32_t>(static_cast<uint32_t>(leaf));
    writer.Put<uint32_t>(page.value());
    writer.Put<uint8_t>(traced.value());
    auto id = ctx.ChainCall("leaf", std::move(input));
    if (!id.ok()) {
      return 3;
    }
    ids.push_back(id.value());
  }
  Bytes out;
  for (uint64_t id : ids) {
    auto code = ctx.AwaitCall(id);
    if (!code.ok() || code.value() != 0) {
      return 4;
    }
    auto output = ctx.GetCallOutput(id);
    if (!output.ok()) {
      return 5;
    }
    out.insert(out.end(), output.value().begin(), output.value().end());
  }
  ctx.WriteOutput(std::move(out));
  return 0;
}

int NoopFunction(InvocationContext&) { return 0; }

}  // namespace

std::string LeafKey(int leaf) { return "chain-leaf-" + std::to_string(leaf); }

Samples& LeafPullUs() { return g_leaf_pull_us; }
Samples& LeafPushUs() { return g_leaf_push_us; }
uint64_t LeafStateOps() { return g_leaf_state_ops.load(); }

uint64_t RegisterChainFunctions(FaasmCluster& cluster, uint64_t seed) {
  (void)cluster.registry().RegisterNative("noop", NoopFunction);
  (void)cluster.registry().RegisterNative("leaf", LeafFunction);
  (void)cluster.registry().RegisterNative("fan", FanFunction);
  Rng rng(seed ^ 0x5eedc4a1ull);
  Bytes shared(kSharedKeyBytes);
  for (auto& b : shared) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  const uint64_t checksum = Fnv1a(shared.data(), shared.size());
  (void)cluster.kvs().Set(kSharedKey, std::move(shared));
  for (int leaf = 0; leaf < kFanWidth; ++leaf) {
    (void)cluster.kvs().Set(LeafKey(leaf), Bytes(kLeafKeyBytes, 0));
  }
  return checksum;
}

Bytes EncodeFanInput(const std::vector<uint32_t>& pages, bool traced) {
  Bytes input;
  ByteWriter writer(input);
  writer.Put<uint8_t>(traced ? 1 : 0);
  for (uint32_t page : pages) {
    writer.Put<uint32_t>(page);
  }
  return input;
}

Result<std::vector<LeafResult>> DecodeFanOutput(const Bytes& output) {
  ByteReader reader(output);
  std::vector<LeafResult> results;
  for (int leaf = 0; leaf < kFanWidth; ++leaf) {
    LeafResult r;
    FAASM_ASSIGN_OR_RETURN(r.shared_checksum, reader.Get<uint64_t>());
    FAASM_ASSIGN_OR_RETURN(r.counter, reader.Get<uint64_t>());
    results.push_back(r);
  }
  return results;
}

LeafCounts ZeroLeafCounts() {
  return LeafCounts(kFanWidth, std::vector<uint64_t>(kPagesPerLeaf, 0));
}

void CheckLeafKeys(FaasmCluster& cluster, const LeafCounts& expected, Report& report) {
  for (int leaf = 0; leaf < kFanWidth; ++leaf) {
    report.Attempt();
    auto value = cluster.kvs().Get(LeafKey(leaf));
    if (!value.ok() || value.value().size() != kLeafKeyBytes) {
      report.Fail("leaf key " + LeafKey(leaf) + " unreadable");
      continue;
    }
    for (size_t page = 0; page < kPagesPerLeaf; ++page) {
      uint64_t counter = 0;
      std::memcpy(&counter, value.value().data() + page * 4096, sizeof(counter));
      if (counter != expected[leaf][page]) {
        report.Fail(LeafKey(leaf) + " page " + std::to_string(page) + " holds " +
                    std::to_string(counter) + ", expected " +
                    std::to_string(expected[leaf][page]));
        break;
      }
    }
  }
}

// --- Probes -------------------------------------------------------------------

double RpcsPerStateOp(const Counters& delta, uint64_t state_ops) {
  return state_ops == 0 ? 0.0
                        : (delta.kvs_read_rpcs + delta.kvs_write_rpcs) /
                              static_cast<double>(state_ops);
}

namespace {

void ProbeCallLatency(FaasmCluster& cluster, Frontend& frontend, int n, uint64_t seed,
                      Samples& out, Report& report) {
  // A seeded think time before each call spreads the calls over the
  // dispatchers' poll phases, as independent callers would be.
  Rng rng(seed ^ 0xca11ull);
  for (int i = 0; i < n; ++i) {
    cluster.clock().SleepFor(static_cast<TimeNs>(rng.NextBelow(kMillisecond)));
    report.Attempt();
    const TimeNs start = cluster.clock().Now();
    auto id = frontend.Submit("noop", Bytes{});
    auto code = id.ok() ? frontend.Await(id.value()) : Result<int>(id.status());
    auto record = id.ok() ? cluster.calls().Get(id.value()) : Result<CallRecord>(id.status());
    if (!code.ok() || code.value() != 0 || !record.ok()) {
      report.Fail("noop call failed");
      continue;
    }
    out.Add(static_cast<double>(record.value().finished_at - start) / 1e3);
  }
}

double ProbeLeafState(FaasmCluster& cluster, Frontend& frontend, int n, uint64_t seed,
                      LeafCounts& expected, uint64_t shared_checksum, Report& report) {
  const Counters before = Snapshot(cluster);
  const uint64_t ops_before = LeafStateOps();
  Rng rng(seed ^ 0x1eafull);
  for (int i = 0; i < n; ++i) {
    report.Attempt();
    const int leaf = i % kFanWidth;
    const auto page = static_cast<uint32_t>(rng.NextBelow(kPagesPerLeaf));
    Bytes input;
    ByteWriter writer(input);
    writer.Put<uint32_t>(static_cast<uint32_t>(leaf));
    writer.Put<uint32_t>(page);
    writer.Put<uint8_t>(1);
    auto id = frontend.Submit("leaf", std::move(input));
    if (!id.ok()) {
      report.Fail("leaf probe refused: " + id.status().ToString());
      continue;
    }
    auto code = frontend.Await(id.value());
    auto output = frontend.Output(id.value());
    const uint64_t want = ++expected[leaf][page];
    if (!code.ok() || code.value() != 0 || !output.ok()) {
      report.Fail("leaf probe failed");
      continue;
    }
    ByteReader reader(output.value());
    auto checksum = reader.Get<uint64_t>();
    auto counter = reader.Get<uint64_t>();
    if (!checksum.ok() || !counter.ok() || checksum.value() != shared_checksum ||
        counter.value() != want) {
      report.Fail("leaf probe returned a wrong checksum or counter");
    }
  }
  return RpcsPerStateOp(Snapshot(cluster) - before, LeafStateOps() - ops_before);
}

void ProbeMlpFaaslet(FaasmCluster& cluster, uint64_t seed, Report& report) {
  const MlpDims dims;
  const std::string function = "infer-u0";
  if (!cluster.registry().Contains(function)) {
    SeedMlpWeights(cluster.kvs(), dims);
    if (!RegisterMlpWasm(cluster.registry(), function, dims).ok()) {
      report.Fail("MLP registration failed");
      return;
    }
  }
  auto spec = cluster.registry().Lookup(function);
  if (!spec.ok()) {
    report.Fail("MLP lookup failed");
    return;
  }
  constexpr int kExecutes = 24;
  constexpr int kRestores = 24;
  Samples execute_us;
  Samples reset_us;
  Samples restore_us;
  double instructions = 0;
  double footprint = 0;
  cluster.Run([&](Frontend&) {
    FaasmInstance& host = cluster.host(0);
    FaasletEnv env;
    env.clock = &cluster.clock();
    env.tier = &host.tier();
    env.files = &cluster.files();
    env.network = &cluster.network();
    env.host_endpoint = host.name();
    env.cpu = &host.cpu();
    auto faaslet = Faaslet::Create(spec.value(), env);
    if (!faaslet.ok() || faaslet.value()->instance() == nullptr) {
      report.Fail("MLP Faaslet creation failed");
      return;
    }
    Faaslet& f = *faaslet.value();
    std::vector<double> per_call;
    for (int i = 0; i < kExecutes; ++i) {
      report.Attempt();
      const auto image = SyntheticImage(dims, seed * 1000003 + static_cast<uint64_t>(i));
      const uint32_t want = MlpReference(cluster.kvs(), dims, image);
      const uint64_t before = f.instance()->instructions_retired();
      Stopwatch execute;
      auto code = f.Execute(EncodeImage(image));
      const double us = static_cast<double>(execute.ElapsedNs()) / 1e3;
      const Bytes output = f.TakeOutput();
      uint32_t got = ~0u;
      if (output.size() == 4) {
        std::memcpy(&got, output.data(), 4);
      }
      if (!code.ok() || code.value() != 0 || got != want) {
        report.Fail("MLP probe output differs from MlpReference");
      }
      if (i > 0) {  // the first call pulls the weights
        execute_us.Add(us);
        per_call.push_back(static_cast<double>(f.instance()->instructions_retired() - before));
      }
      Stopwatch reset;
      if (!f.Reset().ok()) {
        report.Fail("MLP Faaslet reset failed");
      }
      reset_us.Add(static_cast<double>(reset.ElapsedNs()) / 1e3);
    }
    instructions = Median(per_call);
    footprint = static_cast<double>(f.FootprintBytes());
    auto proto = ProtoFaaslet::CaptureFrom(f);
    if (!proto.ok()) {
      report.Fail("proto capture failed");
      return;
    }
    for (int i = 0; i < kRestores; ++i) {
      Stopwatch restore;
      auto restored = Faaslet::CreateFromProto(spec.value(), env, proto.value());
      restore_us.Add(static_cast<double>(restore.ElapsedNs()) / 1e3);
      if (!restored.ok()) {
        report.Fail("proto restore failed");
      }
    }
  });
  const double exec_us = execute_us.P(50);
  report.Layer("core.execute_us", exec_us, "us");
  report.Layer("core.reset_us", reset_us.P(50), "us");
  report.Layer("core.proto_restore_us", restore_us.P(50), "us");
  report.Layer("wasm.mlp_instructions", instructions, "count");
  report.Layer("wasm.mips", exec_us > 0 ? instructions / exec_us : 0.0, "MIPS");
  report.Layer("mem.faaslet_kb", footprint / 1024.0, "KiB");
}

}  // namespace

double ProbeIdleCluster(FaasmCluster& cluster, const Options& options, int call_probes,
                        uint64_t shared_checksum, Samples& call_us, Report& report) {
  LeafCounts leaf_counts = ZeroLeafCounts();
  double rpcs_per_state_op = 0;
  cluster.Run([&](Frontend& frontend) {
    ProbeCallLatency(cluster, frontend, call_probes, options.seed, call_us, report);
    if (options.trace) {
      rpcs_per_state_op = ProbeLeafState(cluster, frontend, 16, options.seed, leaf_counts,
                                         shared_checksum, report);
    }
  });
  if (options.trace) {
    CheckLeafKeys(cluster, leaf_counts, report);
  }
  return rpcs_per_state_op;
}

void AddEndToEndMetrics(const std::vector<double>& setup_s, double net_mb, double gb_s,
                        const Samples& latency_ms, const Samples& call_us, Report& report) {
  report.EndToEnd("setup_s", Median(setup_s), "s");
  report.EndToEnd("ok_frac", 1.0 - report.failed_frac(), "frac");
  report.EndToEnd("net_mb", net_mb, "MB");
  report.EndToEnd("gb_s", gb_s, "GB-s");
  report.EndToEnd("p50_ms", latency_ms.P(50), "ms");
  report.EndToEnd("p90_ms", latency_ms.BlockedP(90, kTailBlocks), "ms");
  report.EndToEnd("call_p50_us", call_us.P(50), "us");
}

void AddLayerMetrics(FaasmCluster& cluster, const LayerInputs& in, uint64_t seed,
                     Report& report) {
  // Counts per unit of work; totals (bytes, cold starts, heartbeats) per
  // timed phase.
  const Counters& d = in.delta;
  const double ops = std::max(in.ops, 1.0);
  const double phases = std::max(in.phases, 1.0);
  report.Layer("runtime.queue_p50_us", in.spans->queue_us.P(50), "us");
  report.Layer("runtime.queue_p99_us", in.spans->queue_us.P(99), "us");
  report.Layer("runtime.exec_p50_ms", in.spans->exec_ms.P(50), "ms");
  report.Layer("runtime.exec_p99_ms", in.spans->exec_ms.P(99), "ms");
  report.Layer("runtime.await_lag_p50_us", in.await_lag_us->P(50), "us");
  report.Layer("runtime.cold_p50_ms", in.cold_p50_ms, "ms");
  report.Layer("runtime.cold_starts", d.cold_starts / phases, "count");
  report.Layer("runtime.warm_faaslets", static_cast<double>(cluster.warm_faaslet_count()),
               "count");
  report.Layer("runtime.mailbox_msgs", d.mailbox_msgs / ops, "count/op");
  report.Layer("runtime.fd_heartbeats", d.fd_heartbeats / phases, "count");
  report.Layer("runtime.fd_false_suspicions", d.fd_false_suspicions / phases, "count");
  report.Layer("runtime.gen_late_max_ms", in.gen_late_max_ms, "ms");

  double peak = 0;
  double resident = 0;
  for (size_t i = 0; i < cluster.host_count(); ++i) {
    peak = std::max(peak,
                    static_cast<double>(cluster.host(i).memory_accountant().peak_bytes()));
    resident += static_cast<double>(cluster.host(i).tier().resident_bytes());
  }
  report.Layer("mem.peak_host_mb", peak / 1e6, "MB");

  report.Layer("state.pull_p50_us", LeafPullUs().P(50), "us");
  report.Layer("state.pull_p99_us", LeafPullUs().P(99), "us");
  report.Layer("state.push_p50_us", LeafPushUs().P(50), "us");
  report.Layer("state.push_p99_us", LeafPushUs().P(99), "us");
  report.Layer("state.resident_mb", resident / 1e6, "MB");

  report.Layer("kvs.read_rpcs", d.kvs_read_rpcs / ops, "count/op");
  report.Layer("kvs.write_rpcs", d.kvs_write_rpcs / ops, "count/op");
  report.Layer("kvs.replica_served", d.replica_served / ops, "count/op");
  report.Layer("kvs.rpcs_per_state_op", in.rpcs_per_state_op, "ratio");
  report.Layer("kvs.repl_forwarded_ops", d.repl_forwarded_ops / ops, "count/op");
  report.Layer("kvs.repl_forward_rpcs", d.repl_forward_rpcs / ops, "count/op");
  report.Layer("kvs.repl_ops_per_rpc",
               d.repl_forward_rpcs > 0 ? d.repl_forwarded_ops / d.repl_forward_rpcs : 0.0,
               "ratio");

  report.Layer("net.messages", d.messages / ops, "count/op");
  report.Layer("net.kvs_mb", d.kvs_bytes / 1e6 / phases, "MB");
  report.Layer("net.rep_mb", d.rep_bytes / 1e6 / phases, "MB");
  report.Layer("net.mailbox_mb", d.mailbox_bytes / 1e6 / phases, "MB");

  report.Layer("sim.wall_s", d.wall_s, "s");
  report.Layer("sim.virt_per_wall", d.wall_s > 0 ? d.virt_s / d.wall_s : 0.0, "ratio");
  report.Layer("trace.p50_overhead_ms", in.traced_p50_ms - in.untraced_p50_ms, "ms");
  ProbeMlpFaaslet(cluster, seed, report);
}

}  // namespace faasm::perfbench
