// Figure 8: distributed divide-and-conquer matrix multiplication — duration
// and network transfer vs matrix size, FAASM vs container baseline. The
// paper's headline: durations are nearly identical while FAASM ships ~13%
// less data by keeping intermediate results in the local tier.
//
// Sizes are scaled down from the paper's 100..8000 sweep so that the real
// leaf computations finish in seconds on this machine (see EXPERIMENTS.md).
//
// GUEST EXECUTION TIER ABLATION (always runs first): the gemm kernel and the
// Fig. 7 inference MLP under the interpreter's execution tiers, composed one
// at a time —
//   baseline    switch dispatch + inline bounds checks + no fusion (the seed)
//   +threaded   computed-goto dispatch
//   +guard      guard-page bounds elision (no inline bounds branches)
//   +fused      superinstruction fusion (the shipping default)
// Every tier must produce the bit-identical checksum, the native twin's
// checksum, and the identical instructions_retired count; a quick OOB probe
// checks that both bounds tiers still convert a wild access into the same
// trap. The MLP runs as a Faaslet, exactly as served (state mapped into guest
// memory, host calls included in the timing); its checksum is the sum of the
// predicted classes, which must match MlpReference. The run GATES on the
// full fast tier reaching >= 2x the baseline's interpreted instructions per
// second on gemm; the MLP rungs are reported, not gated.
//
//   fig8_matmul [--tiny] [--json <path>]
//
// --tiny runs only the ablation at a smaller size (CI smoke); --json writes
// the ablation result (BENCH_guest.json in CI).
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "baseline/knative.h"
#include "common/clock.h"
#include "core/faaslet.h"
#include "runtime/cluster.h"
#include "wasm/instance.h"
#include "workloads/inference.h"
#include "workloads/kernels.h"
#include "workloads/matmul.h"

namespace faasm {
namespace {

// --- Guest execution tier ablation --------------------------------------------

struct GuestTier {
  const char* name;
  wasm::GuestDispatch dispatch;
  wasm::GuestBounds bounds;
  bool fused;
};

constexpr GuestTier kGuestTiers[] = {
    {"baseline", wasm::GuestDispatch::kSwitch, wasm::GuestBounds::kChecked, false},
    {"+threaded", wasm::GuestDispatch::kThreaded, wasm::GuestBounds::kChecked, false},
    {"+guard", wasm::GuestDispatch::kThreaded, wasm::GuestBounds::kGuardPage, false},
    {"+fused", wasm::GuestDispatch::kThreaded, wasm::GuestBounds::kGuardPage, true},
};

struct TierResult {
  double checksum = 0;
  uint64_t retired = 0;
  double seconds = 0;
  double mips = 0;  // interpreted wire instructions per second / 1e6
  bool guard_effective = false;
  bool ok = false;
};

TierResult RunGuestTier(const GuestTier& tier, uint32_t n, int reps) {
  TierResult result;
  const Kernel& gemm = PolybenchKernels()[0];
  auto compiled_fused = gemm.build_wasm();
  if (!compiled_fused.ok()) {
    std::fprintf(stderr, "gemm build failed: %s\n",
                 compiled_fused.status().ToString().c_str());
    return result;
  }
  auto compiled = compiled_fused.value();
  if (!tier.fused) {
    // Recompile the same decoded module with the fusion peephole off.
    wasm::CompileOptions copts;
    copts.fuse_superinstructions = false;
    auto unfused = wasm::CompileModule(compiled->module, copts);
    if (!unfused.ok()) {
      std::fprintf(stderr, "gemm recompile failed: %s\n",
                   unfused.status().ToString().c_str());
      return result;
    }
    compiled = unfused.value();
  }
  wasm::InstanceOptions options;
  options.dispatch = tier.dispatch;
  options.bounds = tier.bounds;
  auto instance = wasm::Instance::Create(compiled, nullptr, nullptr, options);
  if (!instance.ok()) {
    std::fprintf(stderr, "gemm instantiation failed: %s\n",
                 instance.status().ToString().c_str());
    return result;
  }
  auto& inst = *instance.value();
  result.guard_effective = inst.effective_bounds() == wasm::GuestBounds::kGuardPage;

  // Warm-up call: checksum agreement plus page faults out of the timed loop.
  auto warm = inst.CallExport("run", {wasm::MakeI32(static_cast<int32_t>(n))});
  if (!warm.ok()) {
    std::fprintf(stderr, "gemm run failed: %s\n", warm.status().ToString().c_str());
    return result;
  }
  result.checksum = warm.value()[0].f64;

  // Timed reps: best-of to shed scheduler noise; retired is exact per call.
  double best_mips = 0;
  for (int r = 0; r < reps; ++r) {
    const uint64_t retired_before = inst.instructions_retired();
    Stopwatch watch;
    auto out = inst.CallExport("run", {wasm::MakeI32(static_cast<int32_t>(n))});
    const double seconds = static_cast<double>(watch.ElapsedNs()) / 1e9;
    if (!out.ok() || out.value()[0].f64 != result.checksum) {
      std::fprintf(stderr, "gemm rep diverged: %s\n", out.status().ToString().c_str());
      return result;
    }
    result.retired = inst.instructions_retired() - retired_before;
    const double mips = static_cast<double>(result.retired) / seconds / 1e6;
    if (mips > best_mips) {
      best_mips = mips;
      result.seconds = seconds;
    }
  }
  result.mips = best_mips;
  result.ok = true;
  return result;
}

// Both bounds tiers must turn a wild access into the same trap. Returns true
// when checked and guard (as instantiated, post any sanitizer downgrade)
// agree on kMemoryOutOfBounds for `entry(args)`.
bool ProbeOob(const std::shared_ptr<const wasm::CompiledModule>& compiled,
              wasm::ImportResolver* resolver, const std::string& entry,
              const std::vector<wasm::Value>& args) {
  for (auto bounds : {wasm::GuestBounds::kChecked, wasm::GuestBounds::kGuardPage}) {
    wasm::InstanceOptions options;
    options.bounds = bounds;
    auto instance = wasm::Instance::Create(compiled, resolver, nullptr, options);
    if (!instance.ok()) {
      return false;
    }
    auto out = instance.value()->CallExport(entry, args);
    if (out.ok() || out.status().message().find("out of bounds memory access") ==
                        std::string::npos) {
      std::fprintf(stderr, "OOB probe: expected an out-of-bounds trap, got %s\n",
                   out.ok() ? "success" : out.status().ToString().c_str());
      return false;
    }
  }
  return true;
}

bool ProbeOobAgreement() {
  auto compiled = PolybenchKernels()[0].build_wasm();
  // run(n) with a huge n indexes far past the heap: every tier must trap.
  return compiled.ok() && ProbeOob(compiled.value(), nullptr, "run", {wasm::MakeI32(1 << 30)});
}

struct AblationResult {
  TierResult tiers[4];
  double speedup = 0;  // fast tier MIPS / baseline MIPS
  bool agree = false;
  bool oob_ok = false;
  bool gated = false;   // whether the 2x gate applied
  bool gate_ok = true;  // gate verdict (true when not applicable)
  uint32_t n = 0;
};

// Prints the rung table and fills agree/speedup: every rung must reproduce
// `reference` and the baseline's retired count.
void Summarise(AblationResult& result, double reference) {
  std::printf("%-12s %14s %16s %12s %10s\n", "tier", "checksum", "retired", "time(s)",
              "MIPS");
  result.agree = true;
  for (int t = 0; t < 4; ++t) {
    const TierResult& r = result.tiers[t];
    std::printf("%-12s %14.6f %16llu %12.4f %10.1f\n", kGuestTiers[t].name, r.checksum,
                static_cast<unsigned long long>(r.retired), r.seconds, r.mips);
    if (r.checksum != reference || r.retired != result.tiers[0].retired) {
      result.agree = false;
    }
  }
  result.speedup = result.tiers[0].mips > 0 ? result.tiers[3].mips / result.tiers[0].mips : 0;
}

AblationResult RunGuestAblation(uint32_t n, int reps) {
  AblationResult result;
  result.n = n;
  PrintHeader("Guest execution tiers: gemm kernel, interpreted MIPS per tier");
  for (int t = 0; t < 4; ++t) {
    result.tiers[t] = RunGuestTier(kGuestTiers[t], n, reps);
    if (!result.tiers[t].ok) {
      return result;
    }
  }
  Summarise(result, PolybenchKernels()[0].native(n));
  result.oob_ok = ProbeOobAgreement();

  // The 2x gate compares the full fast tier against the seed configuration;
  // it only applies when the fast tiers are actually available (sanitizer
  // builds pin the checked tier, and non-GNU compilers lose computed goto).
  result.gated = result.tiers[3].guard_effective;
  result.gate_ok = !result.gated || result.speedup >= 2.0;

  std::printf("\nfast-tier speedup: %.2fx over the seed interpreter (gate: >= 2x%s)\n",
              result.speedup, result.gated ? "" : ", skipped: fast tiers unavailable");
  std::printf("agreement: checksums %s native, retired counts %s%s\n",
              result.agree ? "match" : "DIVERGE", result.agree ? "identical" : "DIVERGE",
              result.oob_ok ? ", OOB traps agree" : ", OOB PROBE FAILED");
  return result;
}

// --- The same ablation on the inference MLP -------------------------------------

// Runs every rung's MLP Faaslet inside one single-host cluster holding the
// weights. Per rung: one warm-up call (pulls the weights), then `reps` timed
// calls, each on a fresh image and followed by a Reset as in serving. The
// checksum is the sum of predicted classes; `reference` gets MlpReference's.
bool RunMlpTiers(int reps, AblationResult& result, double* reference) {
  const MlpDims dims;
  ClusterConfig config;
  config.hosts = 1;
  FaasmCluster cluster(config);
  SeedMlpWeights(cluster.kvs(), dims);
  auto fused = BuildMlpWasmModule(dims);
  if (!fused.ok()) {
    std::fprintf(stderr, "MLP build failed: %s\n", fused.status().ToString().c_str());
    return false;
  }
  wasm::CompileOptions copts;
  copts.fuse_superinstructions = false;
  auto unfused = wasm::CompileModule(fused.value()->module, copts);
  if (!unfused.ok() || !cluster.registry().RegisterWasm("mlp", fused.value()).ok() ||
      !cluster.registry().RegisterWasm("mlp-unfused", unfused.value()).ok()) {
    std::fprintf(stderr, "MLP registration failed\n");
    return false;
  }
  *reference = 0;
  for (int i = 0; i <= reps; ++i) {
    *reference += MlpReference(cluster.kvs(), dims, SyntheticImage(dims, i));
  }

  bool ok = true;
  cluster.Run([&](Frontend&) {
    FaasmInstance& host = cluster.host(0);
    for (int t = 0; t < 4 && ok; ++t) {
      const GuestTier& tier = kGuestTiers[t];
      TierResult& r = result.tiers[t];
      auto spec = cluster.registry().Lookup(tier.fused ? "mlp" : "mlp-unfused");
      if (!spec.ok()) {
        ok = false;
        return;
      }
      FaasletEnv env;
      env.clock = &cluster.clock();
      env.tier = &host.tier();
      env.files = &cluster.files();
      env.network = &cluster.network();
      env.host_endpoint = host.name();
      env.cpu = &host.cpu();
      env.guest.bounds = tier.bounds;
      env.guest.dispatch = tier.dispatch;
      auto faaslet = Faaslet::Create(spec.value(), env);
      if (!faaslet.ok() || faaslet.value()->instance() == nullptr) {
        std::fprintf(stderr, "MLP Faaslet creation failed (%s)\n", tier.name);
        ok = false;
        return;
      }
      Faaslet& f = *faaslet.value();
      r.guard_effective = f.instance()->effective_bounds() == wasm::GuestBounds::kGuardPage;
      for (int i = 0; i <= reps; ++i) {
        const uint64_t before = f.instance()->instructions_retired();
        Stopwatch watch;
        auto code = f.Execute(EncodeImage(SyntheticImage(dims, i)));
        const double seconds = static_cast<double>(watch.ElapsedNs()) / 1e9;
        const Bytes output = f.TakeOutput();
        if (!code.ok() || code.value() != 0 || output.size() != 4 || !f.Reset().ok()) {
          std::fprintf(stderr, "MLP call failed (%s)\n", tier.name);
          ok = false;
          return;
        }
        uint32_t predicted = 0;
        std::memcpy(&predicted, output.data(), 4);
        r.checksum += predicted;
        if (i == 0) {
          continue;  // warm-up: the first call pulls the weights
        }
        r.retired = f.instance()->instructions_retired() - before;
        const double mips = static_cast<double>(r.retired) / seconds / 1e6;
        if (mips > r.mips) {
          r.mips = mips;
          r.seconds = seconds;
        }
      }
      r.ok = true;
    }
  });
  return ok;
}

// A wild state pointer must trap identically in both bounds tiers: every
// import is stubbed, and get_state hands back an address far past the MLP's
// memory, so the first weight load faults.
bool ProbeMlpOobAgreement() {
  class WildStateResolver : public wasm::ImportResolver {
   public:
    Result<wasm::HostFn> Resolve(const wasm::Import& import, const wasm::FuncType&) override {
      const uint32_t value = import.name == "get_state" ? 0xFFFF0000u : 0;
      return wasm::HostFn(
          [value](wasm::Instance&, const wasm::Value*, size_t, wasm::Value* results) {
            results[0] = wasm::MakeI32(value);
            return OkStatus();
          });
    }
  };
  WildStateResolver resolver;
  auto compiled = BuildMlpWasmModule(MlpDims{});
  return compiled.ok() && ProbeOob(compiled.value(), &resolver, "main", {});
}

// The MLP rungs are reported with the same agreement checks, but not gated.
AblationResult RunMlpAblation(int reps) {
  AblationResult result;
  PrintHeader("Guest execution tiers: inference MLP Faaslet, interpreted MIPS per tier");
  double reference = 0;
  if (!RunMlpTiers(reps, result, &reference)) {
    return result;
  }
  Summarise(result, reference);
  result.oob_ok = ProbeMlpOobAgreement();
  std::printf("\nfast-tier speedup: %.2fx over the seed interpreter (reported, not gated)\n",
              result.speedup);
  std::printf("agreement: checksums %s MlpReference, retired counts %s%s\n",
              result.agree ? "match" : "DIVERGE", result.agree ? "identical" : "DIVERGE",
              result.oob_ok ? ", OOB traps agree" : ", OOB PROBE FAILED");
  return result;
}

void WriteTiers(std::FILE* f, const AblationResult& r, const char* indent) {
  std::fprintf(f, "%s\"tiers\": {\n", indent);
  for (int t = 0; t < 4; ++t) {
    std::fprintf(f, "%s  \"%s\": {\"mips\": %.2f, \"retired\": %llu, \"seconds\": %.6f}%s\n",
                 indent, kGuestTiers[t].name, r.tiers[t].mips,
                 static_cast<unsigned long long>(r.tiers[t].retired), r.tiers[t].seconds,
                 t + 1 < 4 ? "," : "");
  }
  std::fprintf(f, "%s},\n", indent);
}

bool WriteGuestJson(const std::string& path, const AblationResult& r,
                    const AblationResult& mlp) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig8_matmul\",\n  \"mode\": \"guest-tiers\",\n");
  std::fprintf(f, "  \"kernel\": \"gemm\",\n  \"n\": %u,\n", r.n);
  WriteTiers(f, r, "  ");
  std::fprintf(f, "  \"speedup\": %.3f,\n  \"agree\": %s,\n  \"oob_agree\": %s,\n",
               r.speedup, r.agree ? "true" : "false", r.oob_ok ? "true" : "false");
  std::fprintf(f, "  \"gated\": %s,\n  \"gate_ok\": %s,\n", r.gated ? "true" : "false",
               r.gate_ok ? "true" : "false");
  std::fprintf(f, "  \"mlp\": {\n");
  WriteTiers(f, mlp, "    ");
  std::fprintf(f, "    \"speedup\": %.3f,\n    \"agree\": %s,\n    \"oob_agree\": %s\n  }\n}\n",
               mlp.speedup, mlp.agree ? "true" : "false", mlp.oob_ok ? "true" : "false");
  std::fclose(f);
  std::printf("[wrote %s]\n", path.c_str());
  return true;
}

// --- Distributed matmul sweep (the paper figure) -------------------------------

struct Point {
  double seconds = 0;
  double network_mb = 0;
  bool ok = false;
};

ClusterConfig MakeClusterConfig() {
  ClusterConfig config;
  config.hosts = 8;
  config.cores_per_host = 4;
  config.host_memory_bytes = size_t{2} * 1024 * 1024 * 1024;
  config.max_concurrent_per_host = 96;
  return config;
}

Point RunFaasm(uint32_t n) {
  FaasmCluster cluster(MakeClusterConfig());
  MatmulConfig config;
  config.n = n;
  SeedMatmulInputs(cluster.kvs(), config);
  (void)RegisterMatmulFunctions(cluster.registry());
  Point point;
  cluster.Run([&](Frontend& frontend) {
    const TimeNs start = cluster.clock().Now();
    point.ok = RunMatmul(frontend, config).ok();
    point.seconds = static_cast<double>(cluster.clock().Now() - start) / 1e9;
    point.network_mb = static_cast<double>(cluster.network_bytes()) / 1e6;
  });
  return point;
}

Point RunKnative(uint32_t n) {
  KnativeCluster cluster(MakeClusterConfig(), ContainerModel{});
  MatmulConfig config;
  config.n = n;
  SeedMatmulInputs(cluster.kvs(), config);
  (void)RegisterMatmulFunctions(cluster.registry());
  Point point;
  cluster.Run([&](KnativeCluster::Client& client) {
    const TimeNs start = cluster.clock().Now();
    point.ok = RunMatmul(client, config).ok();
    point.seconds = static_cast<double>(cluster.clock().Now() - start) / 1e9;
    point.network_mb = static_cast<double>(cluster.network_bytes()) / 1e6;
  });
  return point;
}

}  // namespace
}  // namespace faasm

int main(int argc, char** argv) {
  using namespace faasm;
  bool tiny = false;
  std::string json_path;
  FlagTable flags;
  flags.AddBool("--tiny", &tiny, "ablation only, smaller kernel size (CI smoke)");
  flags.AddString("--json", &json_path, "write the guest-tier ablation result as JSON");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }

  const AblationResult ablation = RunGuestAblation(tiny ? 40 : 72, tiny ? 3 : 5);
  const AblationResult mlp = RunMlpAblation(tiny ? 3 : 5);
  bool ok = true;
  for (const TierResult& r : ablation.tiers) {
    ok = ok && r.ok;
  }
  for (const TierResult& r : mlp.tiers) {
    ok = ok && r.ok;
  }
  ok = ok && ablation.agree && ablation.oob_ok && ablation.gate_ok;
  ok = ok && mlp.agree && mlp.oob_ok;
  if (!json_path.empty() && !WriteGuestJson(json_path, ablation, mlp)) {
    ok = false;
  }
  if (!ok) {
    std::fprintf(stderr, "guest-tier ablation FAILED\n");
    return 1;
  }
  if (tiny) {
    return 0;
  }

  PrintHeader("Figure 8: distributed matmul (64 mult + 9 merge functions per multiply)");
  PrintContainerCalibration(ContainerModel{});
  std::printf("\n%8s | %12s %14s | %12s %14s | %10s\n", "size", "faasm_t(s)", "faasm_net(MB)",
              "kn_t(s)", "kn_net(MB)", "traffic");
  for (uint32_t n : {128u, 256u, 512u, 768u}) {
    Point f = RunFaasm(n);
    Point k = RunKnative(n);
    std::printf("%8u | %12.2f %14.1f | %12.2f %14.1f | %8.1f%%%s\n", n, f.seconds,
                f.network_mb, k.seconds, k.network_mb,
                k.network_mb > 0 ? 100.0 * (k.network_mb - f.network_mb) / k.network_mb : 0.0,
                (f.ok && k.ok) ? "" : " (FAILED)");
  }
  std::printf("\nExpected shape (paper): near-identical durations once warm, with FAASM\n"
              "moving ~13%% less data across all sizes.\n");
  return 0;
}
