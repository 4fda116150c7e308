// Figure 6: distributed SGD training — (a) training time, (b) network
// transfers, (c) billable memory — vs number of parallel functions, on FAASM
// and the container baseline. Also reproduces the §6.2 small-data variant
// (pass --small).
//
//   fig6_sgd [--small] [--tier=central|--tier=sharded] [--json <path>]
//
// Exits 1 unless, at every worker count, FAASM completes and accrues less
// billable memory than the baseline, the sharded tier also moves less data,
// and (full sweep) the baseline runs out of host memory at 34 and 38
// workers.
//
// Scale-down vs the paper (documented in EXPERIMENTS.md): synthetic
// RCV1-shaped dataset and proportionally smaller hosts, so the baseline hits
// the same memory wall at high parallelism the paper reports.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "baseline/knative.h"
#include "runtime/cluster.h"
#include "workloads/sgd.h"

namespace faasm {
namespace {

struct Point {
  double seconds = 0;
  double network_mb = 0;
  double billable_gb_s = 0;
  size_t failed = 0;
  bool ok = false;
};

// Global-tier layout under test (--tier=central|sharded; default sharded,
// the production path).
StateTier g_tier = StateTier::kSharded;

ClusterConfig MakeClusterConfig(bool small_data) {
  ClusterConfig config;
  config.hosts = 10;
  config.state_tier = g_tier;
  config.cores_per_host = 4;
  // One training function per core before a host withdraws from the warm set
  // (mirrors the baseline's per-pod concurrency target of 1).
  config.max_concurrent_per_host = 6;
  // Scaled host memory: dataset is ~2000x smaller than RCV1-on-16GB-hosts,
  // hosts shrink accordingly so container copies exhaust memory at high
  // parallelism exactly as in the paper.
  config.host_memory_bytes = small_data ? size_t{512} * 1024 * 1024 : size_t{56} * 1024 * 1024;
  return config;
}

SgdConfig MakeSgdConfig(bool small_data, uint32_t workers) {
  SgdConfig config;
  if (small_data) {
    config.n_examples = 128;  // §6.2: "training examples reduced ... to 128"
    config.n_features = 512;
    config.nnz_per_example = 8;
    config.n_epochs = 1;
  } else {
    config.n_examples = 16384;
    config.n_features = 4096;
    config.nnz_per_example = 32;
    config.n_epochs = 3;
  }
  config.n_workers = workers;
  return config;
}

template <typename Cluster, typename Client>
Point RunOn(Cluster& cluster, const SgdConfig& config,
            const std::function<void(const std::function<void(Client&)>&)>& run) {
  Point point;
  SeedSgdDataset(cluster.kvs(), config);
  if (!RegisterSgdFunctions(cluster.registry()).ok()) {
    return point;
  }
  run([&](Client& client) {
    const TimeNs start = cluster.clock().Now();
    auto result = RunSgdTraining(client, config);
    point.ok = result.ok();
    point.seconds = static_cast<double>(cluster.clock().Now() - start) / 1e9;
    point.network_mb = static_cast<double>(cluster.network_bytes()) / 1e6;
    point.billable_gb_s = cluster.billable_gb_seconds();
  });
  return point;
}

Point RunFaasm(bool small_data, uint32_t workers) {
  FaasmCluster cluster(MakeClusterConfig(small_data));
  const SgdConfig config = MakeSgdConfig(small_data, workers);
  Point point = RunOn<FaasmCluster, Frontend>(
      cluster, config, [&](const std::function<void(Frontend&)>& driver) {
        cluster.Run(driver);
      });
  return point;
}

Point RunKnative(bool small_data, uint32_t workers) {
  ContainerModel model;  // full calibrated costs
  KnativeCluster cluster(MakeClusterConfig(small_data), model);
  const SgdConfig config = MakeSgdConfig(small_data, workers);
  Point point = RunOn<KnativeCluster, KnativeCluster::Client>(
      cluster, config, [&](const std::function<void(KnativeCluster::Client&)>& driver) {
        cluster.Run(driver);
      });
  point.failed = cluster.failed_call_count();
  return point;
}

const char* KnativeStatus(const Point& point) {
  return point.failed > 0 ? "OOM" : (point.ok ? "ok" : "FAILED");
}

}  // namespace
}  // namespace faasm

int main(int argc, char** argv) {
  using namespace faasm;
  bool small = false;
  bool central = false;
  bool sharded = false;
  std::string json_path;
  FlagTable flags;
  flags.AddBool("--small", &small, "Sec 6.2 small-data variant (128 examples, 32 functions)");
  flags.AddBool("--tier=central", &central, "FAASM global tier on one central KVS endpoint");
  flags.AddBool("--tier=sharded", &sharded, "FAASM global tier on per-host masters (default)");
  flags.AddString("--json", &json_path, "write the rows and the gate as JSON");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  if (central && sharded) {
    std::fprintf(stderr, "%s: --tier=central and --tier=sharded are exclusive\n", argv[0]);
    flags.PrintUsage(argv[0]);
    return 2;
  }
  g_tier = central ? StateTier::kCentral : StateTier::kSharded;
  std::printf("[FAASM global tier: %s]\n",
              g_tier == StateTier::kSharded ? "sharded (per-host masters)" : "central");

  struct Row {
    uint32_t workers;
    Point faasm, knative;
  };
  std::vector<Row> rows;
  if (small) {
    PrintHeader("Sec 6.2 small-data variant (128 examples, 32 parallel functions)");
    PrintContainerCalibration(ContainerModel{});
    rows.push_back({32, RunFaasm(true, 32), RunKnative(true, 32)});
    const Point& f = rows.back().faasm;
    const Point& k = rows.back().knative;
    std::printf("%-10s %14s %16s %18s\n", "platform", "time (ms)", "network (MB)",
                "billable (GB-s)");
    std::printf("%-10s %14.0f %16.1f %18.3f\n", "FAASM", f.seconds * 1e3, f.network_mb,
                f.billable_gb_s);
    std::printf("%-10s %14.0f %16.1f %18.3f\n", "Knative", k.seconds * 1e3, k.network_mb,
                k.billable_gb_s);
  } else {
    PrintHeader("Figure 6: SGD training vs parallelism (FAASM vs container baseline)");
    PrintContainerCalibration(ContainerModel{});
    std::printf(
        "[synthetic RCV1-shaped dataset; 10 hosts; scaled-down sizes — see EXPERIMENTS.md]\n");
    std::printf("\n%8s | %12s %12s %12s | %12s %12s %12s %s\n", "workers", "faasm_t(s)",
                "faasm_netMB", "faasm_GBs", "knative_t(s)", "kn_netMB", "kn_GBs", "kn_status");
    for (uint32_t workers : {2u, 5u, 10u, 15u, 20u, 25u, 30u, 34u, 38u}) {
      rows.push_back({workers, RunFaasm(false, workers), RunKnative(false, workers)});
      const Point& f = rows.back().faasm;
      const Point& k = rows.back().knative;
      std::printf("%8u | %12.2f %12.1f %12.3f | %12.2f %12.1f %12.3f %s\n", workers, f.seconds,
                  f.network_mb, f.billable_gb_s, k.seconds, k.network_mb, k.billable_gb_s,
                  KnativeStatus(k));
    }
    std::printf("\nExpected shape (paper): FAASM time keeps improving past the point where the\n"
                "baseline flattens and then exhausts host memory (>30 workers); FAASM moves\n"
                "less data and accrues far less billable memory.\n");
  }

  // The gate, at every worker count: FAASM completes and moves less data and
  // accrues less billable memory than the baseline, whose container copies
  // exhaust the scaled host memory from kOomWorkers on (full sweep only).
  // The data comparison holds for the sharded tier only: the central tier's
  // one KVS endpoint sends every state byte across the network.
  constexpr uint32_t kOomWorkers = 34;
  std::string failure;
  for (const Row& row : rows) {
    const std::string at = " at " + std::to_string(row.workers) + " workers";
    if (!row.faasm.ok) {
      failure = "FAASM training did not complete" + at;
    } else if (!central && row.faasm.network_mb >= row.knative.network_mb) {
      failure = "FAASM moved no less data than the container baseline" + at;
    } else if (row.faasm.billable_gb_s >= row.knative.billable_gb_s) {
      failure = "FAASM accrued no less billable memory than the container baseline" + at;
    } else if (!small && row.workers >= kOomWorkers && row.knative.failed == 0) {
      failure = "the container baseline did not exhaust host memory" + at;
    }
    if (!failure.empty()) {
      break;
    }
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"fig6_sgd\",\n  \"small\": %s,\n  \"tier\": \"%s\",\n",
                 small ? "true" : "false", central ? "central" : "sharded");
    std::fprintf(f, "  \"rows\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(f,
                   "    {\"workers\": %u, \"faasm_ok\": %s, \"faasm_s\": %.4f, "
                   "\"faasm_net_mb\": %.4f, \"faasm_gb_s\": %.6f, \"kn_s\": %.4f, "
                   "\"kn_net_mb\": %.4f, \"kn_gb_s\": %.6f, \"kn_status\": \"%s\"}%s\n",
                   row.workers, row.faasm.ok ? "true" : "false", row.faasm.seconds,
                   row.faasm.network_mb, row.faasm.billable_gb_s, row.knative.seconds,
                   row.knative.network_mb, row.knative.billable_gb_s, KnativeStatus(row.knative),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"gate_ok\": %s\n}\n", failure.empty() ? "true" : "false");
    std::fclose(f);
    std::printf("\n[wrote %s]\n", json_path.c_str());
  }
  if (!failure.empty()) {
    std::fprintf(stderr, "FAIL: %s\n", failure.c_str());
    return 1;
  }
  return 0;
}
