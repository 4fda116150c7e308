// infer: the wasm MLP served open loop. One generator activity submits
// Poisson arrivals at kRatePerSecond over a pre-warmed pool of kUserPool
// user functions, a kColdShare of them to never-seen users (cold starts, as
// in Fig. 7b). A single collector activity awaits the calls in submission
// order and checks every output class against MlpReference. Latency runs
// from each request's due time to its CallTable finished_at, so a stalled
// generator shows up as latency of the requests it delayed.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "bench.h"
#include "common/rng.h"

namespace faasm::perfbench {
namespace {

constexpr double kRatePerSecond = 25.0;
constexpr double kColdShare = 0.2;
constexpr int kUserPool = 64;
// Requests per second of --seconds (calibrated so a run takes about that
// long on a 4-core machine); fixed work keeps runs comparable.
constexpr int kRequestsPerRunSecond = 60;
constexpr int kSetups = 5;
constexpr int kCallProbes = 400;

struct Request {
  TimeNs due_offset = 0;
  std::string function;
  uint64_t image_index = 0;
  Bytes input;
  uint32_t expected_class = 0;
};

struct Submitted {
  uint64_t id = 0;
  size_t request = 0;
  TimeNs due = 0;
};

std::string PoolUser(int i) { return "infer-u" + std::to_string(i); }
std::string ColdUser(int i) { return "infer-c" + std::to_string(i); }

ClusterConfig InferConfig() {
  ClusterConfig config;  // default: R=1, no failure detector
  config.hosts = 4;
  config.cores_per_host = 4;
  return config;
}

std::unique_ptr<FaasmCluster> SetUp(const Options& options, const MlpDims& dims,
                                    int cold_users, uint64_t* shared_checksum, Report& report) {
  auto cluster = std::make_unique<FaasmCluster>(InferConfig());
  SeedMlpWeights(cluster->kvs(), dims, options.seed);
  auto module = BuildMlpWasmModule(dims);
  if (!module.ok()) {
    report.Fail("MLP module build failed: " + module.status().ToString());
    return cluster;
  }
  for (int i = 0; i < kUserPool; ++i) {
    (void)cluster->registry().RegisterWasm(PoolUser(i), module.value());
  }
  for (int i = 0; i < cold_users; ++i) {
    (void)cluster->registry().RegisterWasm(ColdUser(i), module.value());
  }
  *shared_checksum = RegisterChainFunctions(*cluster, options.seed);
  // Pre-warm the pool: one call per user.
  cluster->Run([&](Frontend& frontend) {
    for (int i = 0; i < kUserPool; ++i) {
      auto code = frontend.Invoke(PoolUser(i), EncodeImage(SyntheticImage(dims, i)));
      if (!code.ok() || code.value() != 0) {
        report.Fail("pre-warm call failed");
      }
    }
  });
  return cluster;
}

}  // namespace

void RunInfer(const Options& options, Report& report) {
  const MlpDims dims;
  const int n_requests = kRequestsPerRunSecond * options.seconds;

  // Inputs from the seed: arrival times, targets and images. Arrivals are a
  // Poisson process conditioned on n_requests arrivals in n / rate seconds
  // (sorted uniform offsets), and exactly kColdShare of the requests go to
  // never-seen users, at seeded positions, so every seed does the same work.
  std::vector<Request> requests(n_requests);
  Rng rng(options.seed);
  const double window_s = n_requests / kRatePerSecond;
  std::vector<double> offsets(n_requests);
  for (double& offset : offsets) {
    offset = rng.NextDouble() * window_s;
  }
  std::sort(offsets.begin(), offsets.end());
  std::vector<char> cold(n_requests, 0);
  const int cold_users = static_cast<int>(std::lround(kColdShare * n_requests));
  std::fill(cold.begin(), cold.begin() + cold_users, 1);
  for (int i = n_requests - 1; i > 0; --i) {  // Fisher-Yates
    const auto j = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(i) + 1));
    std::swap(cold[i], cold[j]);
  }
  int next_cold = 0;
  for (int i = 0; i < n_requests; ++i) {
    requests[i].due_offset = static_cast<TimeNs>(offsets[i] * 1e9);
    requests[i].function = cold[i] ? ColdUser(next_cold++)
                                   : PoolUser(static_cast<int>(rng.NextBelow(kUserPool)));
    requests[i].image_index = options.seed * 1000003 + static_cast<uint64_t>(i);
  }

  std::vector<double> setup_s;
  std::unique_ptr<FaasmCluster> cluster;
  uint64_t shared_checksum = 0;
  for (int k = 0; k < kSetups; ++k) {
    cluster.reset();
    Stopwatch watch;
    cluster = SetUp(options, dims, cold_users, &shared_checksum, report);
    setup_s.push_back(static_cast<double>(watch.ElapsedNs()) / 1e9);
  }
  for (Request& r : requests) {
    const auto image = SyntheticImage(dims, r.image_index);
    r.input = EncodeImage(image);
    r.expected_class = MlpReference(cluster->kvs(), dims, image);
  }

  Samples latency_ms;
  Samples cold_latency_ms;
  Samples traced_latency_ms;
  Samples untraced_latency_ms;
  Samples await_lag_us;
  CallSpans spans;
  TimeNs gen_late_max = 0;

  const Counters before = Snapshot(*cluster);
  cluster->Run([&](Frontend& frontend) {
    SimClock& clock = cluster->clock();
    std::mutex queue_mutex;
    std::vector<Submitted> queue;
    std::atomic<bool> generator_done{false};
    std::atomic<bool> collector_done{false};
    auto queued = [&] {
      std::lock_guard<std::mutex> guard(queue_mutex);
      return queue.size();
    };

    // The collector awaits in submission order through its own Frontend
    // copy (a Frontend serves one activity).
    cluster->executor().Spawn([&, awaiter = frontend]() mutable {
      size_t next = 0;
      for (;;) {
        clock.WaitFor([&] { return queued() > next || generator_done.load(); }, kMillisecond);
        if (queued() == next) {
          if (generator_done.load()) {
            break;
          }
          continue;
        }
        Submitted s;
        {
          std::lock_guard<std::mutex> guard(queue_mutex);
          s = queue[next++];
        }
        const Request& r = requests[s.request];
        const bool traced = options.trace && s.request % 2 == 1;
        const TimeNs await_start = clock.Now();
        auto code = awaiter.Await(s.id);
        const TimeNs await_end = clock.Now();
        auto record = cluster->calls().Get(s.id);
        if (!code.ok() || code.value() != 0 || !record.ok()) {
          report.Fail("inference call failed");
          continue;
        }
        const CallRecord& rec = record.value();
        uint32_t got = ~0u;
        if (rec.output.size() == 4) {
          std::memcpy(&got, rec.output.data(), 4);
        }
        if (got != r.expected_class) {
          report.Fail("inference class differs from MlpReference");
          continue;
        }
        const double ms = static_cast<double>(rec.finished_at - s.due) / 1e6;
        latency_ms.Add(ms);
        (traced ? traced_latency_ms : untraced_latency_ms).Add(ms);
        if (rec.cold_start) {
          cold_latency_ms.Add(ms);
        }
        if (traced) {
          spans.Record(rec);
          if (await_start < rec.finished_at) {
            await_lag_us.Add(static_cast<double>(await_end - rec.finished_at) / 1e3);
          }
        }
      }
      collector_done.store(true);
    });

    const TimeNs start = clock.Now();
    for (size_t i = 0; i < requests.size(); ++i) {
      const TimeNs due = start + requests[i].due_offset;
      if (clock.Now() < due) {
        clock.SleepUntil(due);
      }
      gen_late_max = std::max(gen_late_max, clock.Now() - due);
      report.Attempt();
      auto id = frontend.Submit(requests[i].function, requests[i].input);
      if (!id.ok()) {
        report.Fail("inference request refused: " + id.status().ToString());
        continue;
      }
      std::lock_guard<std::mutex> guard(queue_mutex);
      queue.push_back({id.value(), i, due});
    }
    generator_done.store(true);
    clock.WaitFor([&] { return collector_done.load(); }, kMillisecond);
  });
  const Counters delta = Snapshot(*cluster) - before;

  Samples call_us;
  const double rpcs_per_state_op =
      ProbeIdleCluster(*cluster, options, kCallProbes, shared_checksum, call_us, report);

  report.Note("infer: " + std::to_string(latency_ms.count()) + " requests checked, " +
              std::to_string(cold_latency_ms.count()) + " cold");
  report.Note("infer latency ms: p95 " + std::to_string(latency_ms.P(95)) + "  p98 " +
              std::to_string(latency_ms.P(98)) + "  max " + std::to_string(latency_ms.P(100)));
  report.Note("infer_p50_ms " + std::to_string(latency_ms.P(50)) + "  infer_p99_ms " +
              std::to_string(latency_ms.P(99)) + "  infer_cold_p50_ms " +
              std::to_string(cold_latency_ms.P(50)));
  AddEndToEndMetrics(setup_s, delta.net_bytes / 1e6, delta.gb_s, latency_ms, call_us, report);

  if (options.trace) {
    LayerInputs in;
    in.delta = delta;
    in.ops = static_cast<double>(requests.size());
    in.rpcs_per_state_op = rpcs_per_state_op;
    in.spans = &spans;
    in.await_lag_us = &await_lag_us;
    in.gen_late_max_ms = static_cast<double>(gen_late_max) / 1e6;
    in.cold_p50_ms = cold_latency_ms.P(50);
    in.traced_p50_ms = traced_latency_ms.P(50);
    in.untraced_p50_ms = untraced_latency_ms.P(50);
    AddLayerMetrics(*cluster, in, options.seed, report);
  }
}

}  // namespace faasm::perfbench
