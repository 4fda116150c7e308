// Figure 7: machine-learning inference serving — (a) median latency vs
// throughput for cold-start ratios {0%, 2%, 20%}, (b) latency CDF at a fixed
// rate. FAASM serves the genuine wasm MLP; the baseline serves the native
// twin from containers with calibrated cold starts.
//
//   fig7_inference [--tiny] [--json <path>]
//
// --tiny runs one rate (25 req/s, the perfbench `infer` rate) for four
// seconds, ~100 requests so the p90 has ten beyond it, and skips the CDF.
// Gate (both modes), the paper's shape at that rate and 20% cold starts:
// FAASM's p90 latency is below the container baseline's, whose cold starts
// put seconds into its tail; the run exits 1 otherwise. The medians are
// reported, not gated: FAASM's warm latency is mostly the interpreter's wall
// time charged as guest compute, and it straddles the container model's
// fixed warm latency (3.5 ms) from run to run.
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "baseline/knative.h"
#include "common/stats.h"
#include "runtime/cluster.h"
#include "workloads/inference.h"

namespace faasm {
namespace {

constexpr int kUserPool = 64;  // pre-registered per-user functions

// Registers "infer-u<i>" user functions; cold requests target fresh users.
template <typename RegisterFn>
void RegisterUsers(RegisterFn register_fn, int count) {
  for (int i = 0; i < count; ++i) {
    register_fn("infer-u" + std::to_string(i));
  }
}

struct LoadResult {
  Summary latency_ms;
};

// Open-loop Poisson load: each request is its own simulated activity.
template <typename Cluster, typename Client>
LoadResult RunLoad(Cluster& cluster, double rate_per_s, double cold_ratio, double duration_s,
                   const std::function<uint64_t(Client&, const std::string&, Bytes)>& submit,
                   const std::function<void(Client&, uint64_t)>& await) {
  LoadResult result;
  std::mutex result_mutex;
  const MlpDims dims;

  std::atomic<int> outstanding{0};
  cluster.Run([&](Client& client) {
    Rng rng(1234);
    int next_cold_user = kUserPool;
    double t = 0;
    int request_index = 0;
    SimClock& clock = cluster.clock();
    while (t < duration_s) {
      const double gap = rng.NextExponential(1.0 / rate_per_s);
      t += gap;
      clock.SleepFor(static_cast<TimeNs>(gap * 1e9));
      std::string function;
      if (rng.NextDouble() < cold_ratio) {
        function = "infer-u" + std::to_string(next_cold_user++ % 4096);
      } else {
        function = "infer-u" + std::to_string(request_index % kUserPool);
      }
      const int index = request_index++;
      outstanding.fetch_add(1);
      cluster.executor().Spawn([&, function, index] {
        Client inner_client = client;
        const TimeNs start = cluster.clock().Now();
        auto image = SyntheticImage(dims, index);
        const uint64_t id = submit(inner_client, function, EncodeImage(image));
        if (id != 0) {
          await(inner_client, id);
          const double ms = static_cast<double>(cluster.clock().Now() - start) / 1e6;
          std::lock_guard<std::mutex> guard(result_mutex);
          result.latency_ms.Add(ms);
        }
        outstanding.fetch_sub(1);
      });
    }
    clock.WaitFor([&] { return outstanding.load() == 0; }, kMillisecond,
                  clock.Now() + static_cast<TimeNs>(120 * 1e9));
  });
  return result;
}

LoadResult RunFaasm(double rate, double cold_ratio, double duration_s, int warm_pool) {
  ClusterConfig config;
  config.hosts = 4;
  config.cores_per_host = 4;
  config.max_concurrent_per_host = 256;
  FaasmCluster cluster(config);
  const MlpDims dims;
  SeedMlpWeights(cluster.kvs(), dims);
  auto module = BuildMlpWasmModule(dims).value();
  for (int i = 0; i < 4096 + kUserPool; ++i) {
    (void)cluster.registry().RegisterWasm("infer-u" + std::to_string(i), module);
  }
  // Pre-warm the steady-state user pool.
  cluster.Run([&](Frontend& frontend) {
    for (int i = 0; i < warm_pool; ++i) {
      auto image = SyntheticImage(dims, i);
      auto id = frontend.Submit("infer-u" + std::to_string(i % kUserPool), EncodeImage(image));
      if (id.ok()) {
        (void)frontend.Await(id.value());
      }
    }
  });

  return RunLoad<FaasmCluster, Frontend>(
      cluster, rate, cold_ratio, duration_s,
      [](Frontend& frontend, const std::string& fn, Bytes input) -> uint64_t {
        auto id = frontend.Submit(fn, std::move(input));
        return id.ok() ? id.value() : 0;
      },
      [](Frontend& frontend, uint64_t id) { (void)frontend.Await(id); });
}

LoadResult RunKnative(double rate, double cold_ratio, double duration_s, int warm_pool) {
  ClusterConfig config;
  config.hosts = 4;
  config.cores_per_host = 4;
  KnativeCluster cluster(config, ContainerModel{});
  const MlpDims dims;
  SeedMlpWeights(cluster.kvs(), dims);
  for (int i = 0; i < 4096 + kUserPool; ++i) {
    (void)cluster.registry().RegisterNative("infer-u" + std::to_string(i), MlpInferNative);
  }
  cluster.Run([&](KnativeCluster::Client& client) {
    for (int i = 0; i < warm_pool; ++i) {
      auto image = SyntheticImage(dims, i);
      auto id = client.Submit("infer-u" + std::to_string(i % kUserPool), EncodeImage(image));
      if (id.ok()) {
        (void)client.Await(id.value());
      }
    }
  });

  return RunLoad<KnativeCluster, KnativeCluster::Client>(
      cluster, rate, cold_ratio, duration_s,
      [](KnativeCluster::Client& client, const std::string& fn, Bytes input) -> uint64_t {
        auto id = client.Submit(fn, std::move(input));
        return id.ok() ? id.value() : 0;
      },
      [](KnativeCluster::Client& client, uint64_t id) { (void)client.Await(id); });
}

}  // namespace
}  // namespace faasm

int main(int argc, char** argv) {
  using namespace faasm;
  bool tiny = false;
  std::string json_path;
  FlagTable flags;
  flags.AddBool("--tiny", &tiny, "one rate for four seconds, no CDF (CI smoke)");
  flags.AddString("--json", &json_path, "write the latency rows and the gate as JSON");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }

  PrintHeader("Figure 7a: median inference latency vs throughput");
  PrintContainerCalibration(ContainerModel{});

  constexpr double kGateRate = 25.0;
  const double duration_s = tiny ? 4.0 : 2.0;
  const std::vector<double> rates =
      tiny ? std::vector<double>{kGateRate} : std::vector<double>{2.0, 10.0, 25.0, 50.0};
  struct Row {
    double rate;
    LoadResult faasm, kn0, kn20;
  };
  std::vector<Row> rows;
  std::printf("\n%10s | %12s | %14s %14s\n", "rate(req/s)", "faasm med(ms)", "kn 0% cold",
              "kn 20% cold");
  std::fflush(stdout);
  bool gate_ok = false;
  for (double rate : rates) {
    Row row{rate, RunFaasm(rate, 0.20, duration_s, kUserPool),  // one line covers all ratios
            RunKnative(rate, 0.0, duration_s, kUserPool),
            RunKnative(rate, 0.20, duration_s, kUserPool)};
    std::printf("%10.0f | %12.1f | %14.1f %14.1f\n", rate, row.faasm.latency_ms.Median(),
                row.kn0.latency_ms.Median(), row.kn20.latency_ms.Median());
    std::fflush(stdout);
    if (rate == kGateRate) {
      gate_ok = row.faasm.latency_ms.count() > 0 &&
                row.faasm.latency_ms.Percentile(90) < row.kn20.latency_ms.Percentile(90);
    }
    rows.push_back(std::move(row));
  }

  if (!tiny) {
    PrintHeader("Figure 7b: latency CDF at 10 req/s");
    LoadResult faasm = RunFaasm(10.0, 0.20, duration_s, kUserPool);
    LoadResult kn2 = RunKnative(10.0, 0.02, duration_s, kUserPool);
    LoadResult kn20 = RunKnative(10.0, 0.20, duration_s, kUserPool);
    std::printf("%12s %14s %14s %14s\n", "percentile", "faasm (ms)", "kn 2% (ms)",
                "kn 20% (ms)");
    for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
      std::printf("%11.0f%% %14.1f %14.1f %14.1f\n", p, faasm.latency_ms.Percentile(p),
                  kn2.latency_ms.Percentile(p), kn20.latency_ms.Percentile(p));
    }
    std::printf("\nExpected shape (paper): FAASM cold starts add <1 ms, so one line covers all\n"
                "ratios and the tail stays flat; the container baseline's median explodes once\n"
                "cold-start queueing kicks in, with multi-second tails at 20%% cold.\n");
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"fig7_inference\",\n  \"tiny\": %s,\n",
                 tiny ? "true" : "false");
    std::fprintf(f, "  \"duration_s\": %.1f,\n  \"rows\": [\n", duration_s);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(f,
                   "    {\"rate\": %.0f, \"faasm_requests\": %zu, \"faasm_p50_ms\": %.4f, "
                   "\"faasm_p90_ms\": %.4f, \"kn0_p50_ms\": %.4f, \"kn20_p50_ms\": %.4f, "
                   "\"kn20_p90_ms\": %.4f}%s\n",
                   row.rate, row.faasm.latency_ms.count(), row.faasm.latency_ms.Median(),
                   row.faasm.latency_ms.Percentile(90), row.kn0.latency_ms.Median(),
                   row.kn20.latency_ms.Median(), row.kn20.latency_ms.Percentile(90),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"gate_rate\": %.0f,\n  \"gate_ok\": %s\n}\n", kGateRate,
                 gate_ok ? "true" : "false");
    std::fclose(f);
    std::printf("\n[wrote %s]\n", json_path.c_str());
  }
  if (!gate_ok) {
    std::fprintf(stderr,
                 "FAIL: at %.0f req/s and 20%% cold starts FAASM's p90 latency is not below "
                 "the container baseline's\n",
                 kGateRate);
    return 1;
  }
  return 0;
}
