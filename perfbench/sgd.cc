// sgd: HOGWILD SGD (RunSgdTraining) on the fig6-shaped dataset with four
// workers, at replication factor 1. Each training runs on a fresh
// cluster (so every training starts from the same seeded weights), and the
// set-up of each is timed. A training's virtual time is its latency.
#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.h"
#include "workloads/sgd.h"

namespace faasm::perfbench {
namespace {

constexpr uint32_t kEpochs = 3;
// Trainings per second of --seconds (fixed work; see infer.cc).
constexpr double kTrainingsPerRunSecond = 8;
constexpr int kMinTrainings = 3;
constexpr int kCallProbes = 400;
// The seeded dataset's starting loss is ~32 (the labels' variance); three
// epochs bring it well under this bound, so a larger loss means training
// lost updates or read wrong data.
constexpr double kMaxFinalLoss = 8.0;

SgdConfig MakeConfig(uint64_t seed) {
  SgdConfig config;
  config.n_examples = 16384;
  config.n_features = 4096;
  config.nnz_per_example = 32;
  config.n_workers = 4;
  config.n_epochs = kEpochs;
  config.seed = seed;
  return config;
}

ClusterConfig SgdClusterConfig() {
  ClusterConfig config;  // R=1, no failure detector
  config.hosts = 4;
  config.cores_per_host = 4;
  return config;
}

// A Frontend wrapper for RunSgdTraining that records the calls it submits
// and, when traced, the lag between each call's finish and Await's return.
struct TracingClient {
  Frontend& frontend;
  FaasmCluster& cluster;
  bool traced;
  Samples& await_lag_us;
  std::vector<uint64_t>& ids;

  Result<uint64_t> Submit(const std::string& function, Bytes input) {
    auto id = frontend.Submit(function, std::move(input));
    if (id.ok()) {
      ids.push_back(id.value());
    }
    return id;
  }
  Result<int> Await(uint64_t id) {
    const TimeNs start = cluster.clock().Now();
    auto code = frontend.Await(id);
    if (traced) {
      auto record = cluster.calls().Get(id);
      if (record.ok() && start < record.value().finished_at) {
        await_lag_us.Add(
            static_cast<double>(cluster.clock().Now() - record.value().finished_at) / 1e3);
      }
    }
    return code;
  }
  Result<Bytes> Output(uint64_t id) { return frontend.Output(id); }
};

}  // namespace

void RunSgd(const Options& options, Report& report) {
  const SgdConfig config = MakeConfig(options.seed);
  const int trainings = std::max(
      kMinTrainings, static_cast<int>(std::lround(kTrainingsPerRunSecond * options.seconds)));

  std::vector<double> setup_s;
  Samples train_ms;
  Samples traced_ms;
  Samples untraced_ms;
  Samples await_lag_us;
  CallSpans spans;
  Counters total;
  std::vector<double> net_mb;  // per training
  std::vector<double> gb_s;
  std::unique_ptr<FaasmCluster> cluster;
  uint64_t shared_checksum = 0;
  double max_loss = 0;
  for (int t = 0; t < trainings; ++t) {
    cluster.reset();
    Stopwatch watch;
    cluster = std::make_unique<FaasmCluster>(SgdClusterConfig());
    SeedSgdDataset(cluster->kvs(), config);
    if (!RegisterSgdFunctions(cluster->registry()).ok()) {
      report.Fail("sgd function registration failed");
    }
    shared_checksum = RegisterChainFunctions(*cluster, options.seed);
    setup_s.push_back(static_cast<double>(watch.ElapsedNs()) / 1e9);

    const bool traced = options.trace && t % 2 == 1;
    std::vector<uint64_t> ids;
    const Counters before = Snapshot(*cluster);
    cluster->Run([&](Frontend& frontend) {
      TracingClient client{frontend, *cluster, traced, await_lag_us, ids};
      report.Attempt();
      const TimeNs start = cluster->clock().Now();
      auto loss = RunSgdTraining(client, config);
      // Training ends when its last call (the final loss) finished.
      auto last = ids.empty() ? Result<CallRecord>(Internal("no calls"))
                              : cluster->calls().Get(ids.back());
      const double ms =
          last.ok() ? static_cast<double>(last.value().finished_at - start) / 1e6 : 0.0;
      if (!loss.ok()) {
        report.Fail("sgd training failed: " + loss.status().ToString());
        return;
      }
      if (!std::isfinite(loss.value()) || loss.value() > kMaxFinalLoss) {
        report.Fail("sgd final loss " + std::to_string(loss.value()) + " is over the bound");
        return;
      }
      train_ms.Add(ms);
      (traced ? traced_ms : untraced_ms).Add(ms);
      max_loss = std::max(max_loss, loss.value());
    });
    const Counters delta = Snapshot(*cluster) - before;
    total += delta;
    net_mb.push_back(delta.net_bytes / 1e6);
    gb_s.push_back(delta.gb_s);
    if (traced) {
      for (uint64_t id : ids) {
        spans.RecordRange(cluster->calls(), id, id + 1);
      }
    }
  }

  Samples call_us;
  const double rpcs_per_state_op =
      ProbeIdleCluster(*cluster, options, kCallProbes, shared_checksum, call_us, report);

  report.Note("sgd: " + std::to_string(train_ms.count()) + " trainings checked, highest final loss " +
              std::to_string(max_loss));
  report.Note("train_s " + std::to_string(train_ms.P(50) / 1e3) + "  (p99 " +
              std::to_string(train_ms.P(99) / 1e3) + ")");
  AddEndToEndMetrics(setup_s, Median(net_mb), Median(gb_s), train_ms, call_us, report);

  if (options.trace) {
    LayerInputs in;
    in.delta = total;
    in.phases = trainings;
    in.ops = trainings;
    in.rpcs_per_state_op = rpcs_per_state_op;
    in.spans = &spans;
    in.await_lag_us = &await_lag_us;
    in.cold_p50_ms = spans.cold_ms.P(50);
    in.traced_p50_ms = traced_ms.P(50);
    in.untraced_p50_ms = untraced_ms.P(50);
    AddLayerMetrics(*cluster, in, options.seed, report);
  }
}

}  // namespace faasm::perfbench
