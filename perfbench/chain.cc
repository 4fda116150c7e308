// chain: a closed loop with one client on the durable configuration
// (replication factor 2, sync forwarding, replica reads, failure detection).
// Each iteration makes one bare no-op call, then one call to "fan", which
// chains kFanWidth leaves and awaits them. Each leaf re-pulls the small
// shared key and bumps one page of its own 32 KiB key, then pushes it. The
// client checks every leaf's reply, and at the end reads each leaf key back
// through cluster.kvs(): every acknowledged bump must be there.
#include <algorithm>
#include <memory>

#include "bench.h"
#include "common/rng.h"

namespace faasm::perfbench {
namespace {

// Iterations per second of --seconds (fixed work; see infer.cc). The
// executor keeps every finished activity's thread until the cluster shuts
// down, so one cluster can host only some 30k calls; an iteration makes ten.
constexpr int kIterationsPerRunSecond = 100;
constexpr int kWarmupIterations = 4;
constexpr int kSetups = 7;

ClusterConfig ChainConfig() {
  ClusterConfig config;
  config.hosts = 4;
  config.cores_per_host = 4;
  config.replication_factor = 2;
  config.replication_sync = true;
  config.replica_reads = true;
  config.failure_detection = true;
  return config;
}

// One iteration's input: the page each leaf bumps.
using Pages = std::vector<uint32_t>;

struct IterationResult {
  double call_us = 0;
  double fan_ms = 0;
  uint64_t first_id = 0;
};

// Each function gets its own Frontend copy, so each stream of calls
// round-robins over all hosts (as a per-service endpoint list does).
struct Clients {
  Frontend noop;
  Frontend fan;
};

// Runs one iteration; returns false (after reporting) on any failure.
bool RunIteration(FaasmCluster& cluster, Clients& clients, const Pages& pages, bool traced,
                  uint64_t shared_checksum, LeafCounts& expected, Samples* await_lag_us,
                  IterationResult* out, Report& report) {
  SimClock& clock = cluster.clock();
  // A call's latency runs from its Submit to its CallTable finished_at; the
  // Await poll after that is the await lag, recorded when traced.
  auto finished = [&](uint64_t id, TimeNs start) -> double {
    auto record = cluster.calls().Get(id);
    if (!record.ok()) {
      return 0;
    }
    if (traced && await_lag_us != nullptr) {
      await_lag_us->Add(static_cast<double>(clock.Now() - record.value().finished_at) / 1e3);
    }
    return static_cast<double>(record.value().finished_at - start);
  };

  report.Attempt();
  const TimeNs call_start = clock.Now();
  auto noop = clients.noop.Submit("noop", Bytes{});
  if (!noop.ok()) {
    report.Fail("noop call refused: " + noop.status().ToString());
    return false;
  }
  out->first_id = noop.value();
  auto noop_code = clients.noop.Await(noop.value());
  out->call_us = finished(noop.value(), call_start) / 1e3;
  if (!noop_code.ok() || noop_code.value() != 0) {
    report.Fail("noop call failed");
    return false;
  }

  report.Attempt();
  const TimeNs fan_start = clock.Now();
  auto fan = clients.fan.Submit("fan", EncodeFanInput(pages, traced));
  if (!fan.ok()) {
    report.Fail("fan call refused: " + fan.status().ToString());
    return false;
  }
  auto fan_code = clients.fan.Await(fan.value());
  out->fan_ms = finished(fan.value(), fan_start) / 1e6;
  for (int leaf = 0; leaf < kFanWidth; ++leaf) {
    ++expected[leaf][pages[leaf]];
  }
  auto output = clients.fan.Output(fan.value());
  if (!fan_code.ok() || fan_code.value() != 0 || !output.ok()) {
    report.Fail("fan call failed");
    return false;
  }
  auto leaves = DecodeFanOutput(output.value());
  if (!leaves.ok()) {
    report.Fail("fan output malformed");
    return false;
  }
  for (int leaf = 0; leaf < kFanWidth; ++leaf) {
    const LeafResult& r = leaves.value()[leaf];
    if (r.shared_checksum != shared_checksum || r.counter != expected[leaf][pages[leaf]]) {
      report.Fail("leaf " + std::to_string(leaf) + " read a stale or wrong value");
      return false;
    }
  }
  return true;
}

}  // namespace

void RunChain(const Options& options, Report& report) {
  const int n_iterations = kIterationsPerRunSecond * options.seconds;
  Rng rng(options.seed);
  auto make_pages = [&rng] {
    Pages pages;
    for (int leaf = 0; leaf < kFanWidth; ++leaf) {
      pages.push_back(static_cast<uint32_t>(rng.NextBelow(kPagesPerLeaf)));
    }
    return pages;
  };
  std::vector<Pages> warmup(kWarmupIterations);
  std::generate(warmup.begin(), warmup.end(), make_pages);
  std::vector<Pages> iterations(n_iterations);
  std::generate(iterations.begin(), iterations.end(), make_pages);

  std::vector<double> setup_s;
  std::unique_ptr<FaasmCluster> cluster;
  uint64_t shared_checksum = 0;
  LeafCounts expected;
  for (int k = 0; k < kSetups; ++k) {
    cluster.reset();
    Stopwatch watch;
    cluster = std::make_unique<FaasmCluster>(ChainConfig());
    shared_checksum = RegisterChainFunctions(*cluster, options.seed);
    expected = ZeroLeafCounts();
    // Warm every function before timing.
    cluster->Run([&](Frontend& frontend) {
      Clients clients{frontend, frontend};
      for (const Pages& pages : warmup) {
        IterationResult ignored;
        RunIteration(*cluster, clients, pages, false, shared_checksum, expected, nullptr,
                     &ignored, report);
      }
    });
    setup_s.push_back(static_cast<double>(watch.ElapsedNs()) / 1e9);
  }

  Samples call_us;
  Samples fan_ms;
  Samples traced_ms;
  Samples untraced_ms;
  Samples await_lag_us;
  std::vector<uint64_t> traced_first_ids;
  const Counters before = Snapshot(*cluster);
  const uint64_t ops_before = LeafStateOps();
  cluster->Run([&](Frontend& frontend) {
    Clients clients{frontend, frontend};
    for (int i = 0; i < n_iterations; ++i) {
      const bool traced = options.trace && i % 2 == 1;
      IterationResult r;
      if (!RunIteration(*cluster, clients, iterations[i], traced, shared_checksum, expected,
                        &await_lag_us, &r, report)) {
        continue;
      }
      call_us.Add(r.call_us);
      fan_ms.Add(r.fan_ms);
      (traced ? traced_ms : untraced_ms).Add(r.fan_ms);
      if (traced) {
        traced_first_ids.push_back(r.first_id);
      }
    }
  });
  const Counters delta = Snapshot(*cluster) - before;
  const uint64_t state_ops = LeafStateOps() - ops_before;
  CheckLeafKeys(*cluster, expected, report);

  report.Note("chain_p50_us " + std::to_string(fan_ms.P(50) * 1e3) + "  chain_p99_us " +
              std::to_string(fan_ms.P(99) * 1e3) + "  call_p50_us " +
              std::to_string(call_us.P(50)));
  AddEndToEndMetrics(setup_s, delta.net_bytes / 1e6, delta.gb_s, fan_ms, call_us, report);

  if (options.trace) {
    // One client, closed loop: an iteration's calls have consecutive ids —
    // its no-op call, its fan, then the fan's leaves.
    CallSpans spans;
    for (uint64_t first : traced_first_ids) {
      spans.RecordRange(cluster->calls(), first, first + 2 + kFanWidth);
    }
    LayerInputs in;
    in.delta = delta;
    in.ops = n_iterations;
    in.rpcs_per_state_op = RpcsPerStateOp(delta, state_ops);
    in.spans = &spans;
    in.await_lag_us = &await_lag_us;
    in.cold_p50_ms = spans.cold_ms.P(50);
    in.traced_p50_ms = traced_ms.P(50);
    in.untraced_p50_ms = untraced_ms.P(50);
    AddLayerMetrics(*cluster, in, options.seed, report);
  }
}

}  // namespace faasm::perfbench
