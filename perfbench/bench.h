// Shared pieces of the benchmark binary: options, the metric report, the
// cluster counter snapshot every workload diffs around its timed phase, and
// the layer probes that time calls into the runtime's public API.
//
// All timing lives here, in the benchmark's own files: spans are taken
// around calls into each layer (Frontend::Submit/Await, CallTable records,
// StateKeyValue::Pull/Push, Faaslet::Execute/Reset, proto restore), and
// counters are read from the layers' public accessors.
#ifndef FAASM_PERFBENCH_BENCH_H_
#define FAASM_PERFBENCH_BENCH_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.h"
#include "runtime/cluster.h"
#include "workloads/inference.h"

namespace faasm::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

// Every metric a run can print, by name; a run prints the end-to-end set
// (untraced) or the per-layer set (traced) as its result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void EndToEnd(const std::string& name, double value, const std::string& unit) {
    end_to_end_.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer_.push_back({name, value, unit});
  }
  // A human-readable line for the stdout report (never part of the result).
  void Note(const std::string& line) { notes_.push_back(line); }

  // One operation the benchmark attempted and checked. Thread-safe, as is
  // Fail: activities check their own outputs.
  void Attempt(uint64_t n = 1) {
    std::lock_guard<std::mutex> guard(mutex_);
    attempted_ += n;
  }
  // A failed, refused or wrong operation: counted, logged, never dropped.
  void Fail(const std::string& why);

  double failed_frac() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return attempted_ == 0 ? 1.0 : static_cast<double>(failed_) / static_cast<double>(attempted_);
  }

  // Prints the human report, then the result object as the last line.
  void Print(bool trace) const;

 private:
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layer_;
  std::vector<std::string> notes_;
  mutable std::mutex mutex_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Thread-safe sample set (activities record into it concurrently), kept in
// the order the samples were added.
class Samples {
 public:
  void Add(double value) {
    std::lock_guard<std::mutex> guard(mutex_);
    values_.push_back(value);
  }
  size_t count() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return values_.size();
  }
  // Interpolated percentile, 0 when empty.
  double P(double p) const;
  // The median, over `blocks` consecutive equal blocks of the samples, of
  // each block's percentile `p`. A slowdown of the shared machine during
  // part of a run moves it no more than it moves the median.
  double BlockedP(double p, size_t blocks) const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> values_;
};

double Median(std::vector<double> values);

// Blocks the end-to-end p90 is taken over (see Samples::BlockedP).
inline constexpr size_t kTailBlocks = 8;

// Cumulative cluster-wide counters; workloads diff two snapshots taken
// around the timed phase.
struct Counters {
  double virt_s = 0;
  double wall_s = 0;
  double gb_s = 0;
  double net_bytes = 0;
  double cold_starts = 0;
  double kvs_read_rpcs = 0;
  double kvs_write_rpcs = 0;
  double replica_served = 0;
  double repl_forwarded_ops = 0;
  double repl_forward_rpcs = 0;
  double fd_heartbeats = 0;
  double fd_false_suspicions = 0;
  // Network split by endpoint class: client<->shard RPCs ("kvs:<host>"),
  // replication forwarding ("rep:<host>"), and host mailbox traffic (work
  // sharing and chained calls); failure-detector traffic is in none of them.
  double messages = 0;
  double kvs_bytes = 0;
  double rep_bytes = 0;
  double mailbox_bytes = 0;
  double mailbox_msgs = 0;

  Counters operator-(const Counters& before) const;
  Counters& operator+=(const Counters& other);
};

Counters Snapshot(FaasmCluster& cluster);

// Per-call runtime spans read back from CallTable records.
struct CallSpans {
  Samples queue_us;  // started - submitted
  Samples exec_ms;   // finished - started
  Samples cold_ms;   // finished - submitted, cold-start calls only
  // Records every call whose id lies in [first, end).
  void RecordRange(const CallTable& calls, uint64_t first, uint64_t end);
  void Record(const CallRecord& record);
};

// --- Shared functions every workload's cluster registers -------------------
// "noop": the bare call the call-latency probe measures.
// "leaf": the chain leaf — re-pulls the shared key, bumps one page of its own
//   key and pushes it (the chain workload's state ops, and the state-layer
//   probe on the other workloads).
// "fan": chains kFanWidth leaves and awaits them.
inline constexpr int kFanWidth = 8;
inline constexpr size_t kLeafKeyBytes = 32 * 1024;
inline constexpr size_t kSharedKeyBytes = 512;
inline constexpr size_t kPagesPerLeaf = kLeafKeyBytes / 4096;

std::string LeafKey(int leaf);
inline const char* kSharedKey = "chain-shared";

// Registers noop/leaf/fan and seeds the shared and leaf keys from `seed`.
// Returns the expected checksum a leaf reports for the shared key.
uint64_t RegisterChainFunctions(FaasmCluster& cluster, uint64_t seed);

// Leaf/fan wire formats.
Bytes EncodeFanInput(const std::vector<uint32_t>& pages, bool traced);
struct LeafResult {
  uint64_t shared_checksum = 0;
  uint64_t counter = 0;  // the bumped page's counter after the bump
};
Result<std::vector<LeafResult>> DecodeFanOutput(const Bytes& output);

// Leaf state-op spans (virtual µs), recorded by traced leaf calls.
Samples& LeafPullUs();
Samples& LeafPushUs();
uint64_t LeafStateOps();

// The expected per-page counters of every leaf key (client-side model).
using LeafCounts = std::vector<std::vector<uint64_t>>;
LeafCounts ZeroLeafCounts();
// Checks every leaf key's pages in the global tier (read through
// cluster.kvs()) against `expected`: no lost acknowledged write.
void CheckLeafKeys(FaasmCluster& cluster, const LeafCounts& expected, Report& report);

// --- Probes -------------------------------------------------------------------
// Runs after an infer or sgd timed phase: `call_probes` bare no-op calls,
// each timed from Submit to its CallTable finished_at (virtual µs), and, when
// traced, 16 leaf calls so the state layer is timed on that cluster's
// configuration too. Returns the leaf calls' shard RPCs per state op.
double ProbeIdleCluster(FaasmCluster& cluster, const Options& options, int call_probes,
                        uint64_t shared_checksum, Samples& call_us, Report& report);
// Shard RPCs per state op over a counter delta and a leaf-op count delta.
double RpcsPerStateOp(const Counters& delta, uint64_t state_ops);

// The end-to-end metrics every workload prints.
void AddEndToEndMetrics(const std::vector<double>& setup_s, double net_mb, double gb_s,
                        const Samples& latency_ms, const Samples& call_us, Report& report);

// Per-layer metrics every workload reports from its counters and spans.
struct LayerInputs {
  Counters delta;                // summed over the timed phases
  double phases = 1;             // timed phases (sgd: one per training)
  double ops = 1;                // units of work over all timed phases
  double rpcs_per_state_op = 0;  // shard RPCs per leaf state op
  CallSpans* spans = nullptr;
  Samples* await_lag_us = nullptr;
  double gen_late_max_ms = 0;
  double cold_p50_ms = 0;        // median latency of calls that cold-started
  double traced_p50_ms = 0;      // the workload's p50 over traced units
  double untraced_p50_ms = 0;    // ... and over untraced units
};
// Adds them, then times the MLP Faaslet through its public API (Execute,
// Reset, proto restore) and reads its retired-instruction count and
// footprint; seeds the MLP weights and registers it if the cluster lacks it.
void AddLayerMetrics(FaasmCluster& cluster, const LayerInputs& in, uint64_t seed, Report& report);

// Workloads.
void RunInfer(const Options& options, Report& report);
void RunSgd(const Options& options, Report& report);
void RunChain(const Options& options, Report& report);

}  // namespace faasm::perfbench

#endif  // FAASM_PERFBENCH_BENCH_H_
