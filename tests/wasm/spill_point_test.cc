// Spill-point tests for the register-resident interpreter state. The dispatch
// loop keeps its pc, stack pointer, locals base and (checked tier) memory
// limit in locals and writes them back to Frame::pc / sp_ only at calls,
// returns and trap exits (interp_body.inc). Each test here targets one of
// those seams, under all 8 dispatch × bounds × fusion configurations:
//
//   - a host import that re-enters the same Instance deep enough to
//     reallocate the value stack and the frame vector: the outer frames'
//     locals, operands and results must survive the reload;
//   - traps raised in a callee right after a call, right after a return and
//     right after a taken branch: status and instructions_retired must be
//     exactly the hand-counted values, which a stale spilled pc would miss;
//   - fuel exhaustion at every budget across the same call/return/branch
//     programs: the trap lands at the first flush point past the budget;
//   - memory.grow (in guest code and inside a host call) followed by an
//     access just past the old size: the cached limit must be refreshed.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mem/linear_memory.h"
#include "wasm/builder.h"
#include "wasm/decoder.h"
#include "wasm/instance.h"

namespace faasm::wasm {
namespace {

struct RunConfig {
  GuestDispatch dispatch;
  GuestBounds bounds;
  bool fused;
  std::string Name() const {
    std::string n = dispatch == GuestDispatch::kThreaded ? "threaded" : "switch";
    n += bounds == GuestBounds::kGuardPage ? "/guard" : "/checked";
    n += fused ? "/fused" : "/unfused";
    return n;
  }
};

std::vector<RunConfig> AllConfigs() {
  std::vector<RunConfig> configs;
  for (auto dispatch : {GuestDispatch::kSwitch, GuestDispatch::kThreaded}) {
    for (auto bounds : {GuestBounds::kChecked, GuestBounds::kGuardPage}) {
      for (bool fused : {true, false}) {
        configs.push_back({dispatch, bounds, fused});
      }
    }
  }
  return configs;
}

std::unique_ptr<Instance> Instantiate(const Bytes& bytes, const RunConfig& config,
                                      ImportResolver* resolver = nullptr) {
  auto decoded = DecodeModule(bytes);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  CompileOptions copts;
  copts.fuse_superinstructions = config.fused;
  auto compiled = CompileModule(std::move(decoded).value(), copts);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  InstanceOptions options;
  options.bounds = config.bounds;
  options.dispatch = config.dispatch;
  auto instance = Instance::Create(compiled.value(), resolver, nullptr, options);
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  return std::move(instance).value();
}

// --- Re-entrant host call reallocating the stack ------------------------------

// main(p) = 5 + outer(p)
// outer(p) = 1000 + 3p + reenter(p) + (p + 100), with 1000 and 3p left on the
//            operand stack across the host call
// reenter(p) (host) = deep(p) + 1, a nested CallExport on the same Instance
// deep(n) = n == 0 ? 0 : deep(n - 1) + n, each frame holding 40 extra locals
//
// deep(500) needs ~500 × 45 value slots, several doublings past the initial
// 4096-slot stack, and 500 frames; both vectors reallocate under outer's feet.
Bytes ReentrantModule() {
  ModuleBuilder b;
  const uint32_t reenter = b.ImportFunction("env", "reenter", {ValType::kI32}, {ValType::kI32});
  auto& main = b.AddFunction("main", {ValType::kI32}, {ValType::kI32});
  auto& outer = b.AddFunction("", {ValType::kI32}, {ValType::kI32});
  auto& deep = b.AddFunction("deep", {ValType::kI32}, {ValType::kI32});

  main.I32Const(5);
  main.LocalGet(0);
  main.Call(outer.index());
  main.Emit(Op::kI32Add);

  const uint32_t l1 = outer.AddLocal(ValType::kI32);
  const uint32_t l2 = outer.AddLocal(ValType::kI32);
  outer.LocalGet(0);
  outer.I32Const(3);
  outer.Emit(Op::kI32Mul);
  outer.LocalSet(l1);
  outer.LocalGet(0);
  outer.I32Const(100);
  outer.Emit(Op::kI32Add);
  outer.LocalSet(l2);
  outer.I32Const(1000);
  outer.LocalGet(l1);
  outer.LocalGet(0);
  outer.Call(reenter);
  outer.Emit(Op::kI32Add);
  outer.Emit(Op::kI32Add);
  outer.LocalGet(l2);
  outer.Emit(Op::kI32Add);

  uint32_t keep = 0;
  for (int k = 0; k < 40; ++k) {
    keep = deep.AddLocal(ValType::kI32);
  }
  deep.LocalGet(0);
  deep.Emit(Op::kI32Eqz);
  deep.If();
  deep.I32Const(0);
  deep.Return();
  deep.End();
  deep.LocalGet(0);
  deep.LocalSet(keep);
  deep.LocalGet(0);
  deep.I32Const(1);
  deep.Emit(Op::kI32Sub);
  deep.Call(deep.index());
  deep.LocalGet(keep);
  deep.Emit(Op::kI32Add);
  return b.Build();
}

TEST(SpillPointTest, ReentrantHostCallReallocatingTheStackPreservesOuterFrames) {
  constexpr int32_t kDepth = 500;
  constexpr int32_t kDeep = kDepth * (kDepth + 1) / 2;
  constexpr int32_t kOuter = 1000 + 3 * kDepth + (kDeep + 1) + (kDepth + 100);
  const Bytes bytes = ReentrantModule();
  uint64_t reference_retired = 0;
  for (const RunConfig& config : AllConfigs()) {
    int nested_calls = 0;
    MapImportResolver resolver;
    resolver.Register("env", "reenter",
                      [&](Instance& inst, const Value* args, size_t, Value* results) {
                        ++nested_calls;
                        auto nested = inst.CallExport("deep", {args[0]});
                        if (!nested.ok()) {
                          return nested.status();
                        }
                        EXPECT_EQ(nested.value()[0].i32, static_cast<uint32_t>(kDeep));
                        results[0] = MakeI32(nested.value()[0].i32 + 1);
                        return OkStatus();
                      });
    auto instance = Instantiate(bytes, config, &resolver);
    // Twice: the second call starts from the grown stack and must see a
    // clean operand stack left by the first.
    for (int round = 0; round < 2; ++round) {
      auto out = instance->CallExport("main", {MakeI32(kDepth)});
      ASSERT_TRUE(out.ok()) << config.Name() << ": " << out.status().ToString();
      EXPECT_EQ(out.value()[0].i32, static_cast<uint32_t>(5 + kOuter)) << config.Name();
    }
    EXPECT_EQ(nested_calls, 2) << config.Name();
    if (reference_retired == 0) {
      reference_retired = instance->instructions_retired();
    }
    EXPECT_EQ(instance->instructions_retired(), reference_retired) << config.Name();
  }
}

// --- Traps right after a call, a return and a taken branch ------------------

enum class Seam { kAfterCall, kAfterReturn, kAfterBranch };
enum class Fault { kNone, kOutOfBounds, kDivideByZero, kUnreachable, kIndirectMismatch };

const char* SeamName(Seam seam) {
  switch (seam) {
    case Seam::kAfterCall: return "after-call";
    case Seam::kAfterReturn: return "after-return";
    case Seam::kAfterBranch: return "after-branch";
  }
  return "?";
}

// Wire instructions the callee runs before the fault snippet.
uint64_t SeamInstructions(Seam seam) {
  switch (seam) {
    case Seam::kAfterCall: return 0;
    case Seam::kAfterReturn: return 4;  // call leaf, i32.const, end, drop
    case Seam::kAfterBranch: return 2;  // local.get, br_if (taken)
  }
  return 0;
}

// Wire instructions of the fault snippet, up to and including the trapping
// one (kNone: the whole benign snippet).
uint64_t FaultInstructions(Fault fault) {
  switch (fault) {
    case Fault::kNone: return 3;
    case Fault::kOutOfBounds: return 2;
    case Fault::kDivideByZero: return 3;
    case Fault::kUnreachable: return 1;
    case Fault::kIndirectMismatch: return 3;
  }
  return 0;
}

const char* FaultMessage(Fault fault) {
  switch (fault) {
    case Fault::kOutOfBounds: return "trap: out of bounds memory access";
    case Fault::kDivideByZero: return "trap: integer divide by zero";
    case Fault::kUnreachable: return "trap: unreachable";
    case Fault::kIndirectMismatch: return "trap: indirect call type mismatch";
    case Fault::kNone: break;
  }
  return "";
}

// run(x) = 1000 + callee(x), with 1000 on the operand stack across the call.
// callee(x) runs the seam prefix, then the fault snippet, which leaves one
// i32 (kNone: 2x, so run(1) = 1002). leaf() = 5 sits in table slot 0 with
// type () -> i32, which call_indirect with type (i32) -> i32 rejects.
Bytes SeamModule(Seam seam, Fault fault) {
  ModuleBuilder b;
  b.AddMemory(1, 1);
  b.AddTable(1);
  auto& run = b.AddFunction("run", {ValType::kI32}, {ValType::kI32});
  auto& callee = b.AddFunction("", {ValType::kI32}, {ValType::kI32});
  auto& leaf = b.AddFunction("", {}, {ValType::kI32});
  b.AddElementSegment(0, {leaf.index()});
  const uint32_t unary_type = b.AddType({ValType::kI32}, {ValType::kI32});

  run.I32Const(1000);
  run.LocalGet(0);
  run.Call(callee.index());
  run.Emit(Op::kI32Add);

  leaf.I32Const(5);

  switch (seam) {
    case Seam::kAfterCall:
      break;
    case Seam::kAfterReturn:
      callee.Call(leaf.index());
      callee.Drop();
      break;
    case Seam::kAfterBranch:
      callee.Block();
      callee.LocalGet(0);
      callee.BrIf(0);  // taken: x = 1
      callee.Unreachable();
      callee.End();
      break;
  }
  switch (fault) {
    case Fault::kNone:
      callee.LocalGet(0);
      callee.I32Const(2);
      callee.Emit(Op::kI32Mul);
      break;
    case Fault::kOutOfBounds:
      callee.I32Const(-65536);
      callee.Load(Op::kI32Load);
      break;
    case Fault::kDivideByZero:
      callee.LocalGet(0);
      callee.I32Const(0);
      callee.Emit(Op::kI32DivU);
      break;
    case Fault::kUnreachable:
      callee.Unreachable();
      break;
    case Fault::kIndirectMismatch:
      callee.LocalGet(0);
      callee.I32Const(0);
      callee.CallIndirect(unary_type);
      break;
  }
  return b.Build();
}

struct Outcome {
  bool ok = false;
  std::string message;
  uint64_t retired = 0;
};

Outcome RunSeam(const Bytes& bytes, const RunConfig& config, uint64_t fuel) {
  auto instance = Instantiate(bytes, config);
  instance->set_fuel_limit(fuel);
  auto out = instance->CallExport("run", {MakeI32(1)});
  Outcome outcome;
  outcome.ok = out.ok();
  if (out.ok()) {
    EXPECT_EQ(out.value()[0].i32, 1002u) << config.Name();
  } else {
    outcome.message = out.status().message();
  }
  outcome.retired = instance->instructions_retired();
  return outcome;
}

TEST(SpillPointTest, TrapsAfterCallReturnAndBranchRetireExactly) {
  for (Seam seam : {Seam::kAfterCall, Seam::kAfterReturn, Seam::kAfterBranch}) {
    for (Fault fault : {Fault::kOutOfBounds, Fault::kDivideByZero, Fault::kUnreachable,
                        Fault::kIndirectMismatch}) {
      const Bytes bytes = SeamModule(seam, fault);
      // run's i32.const, local.get and call precede the callee.
      const uint64_t want_retired = 3 + SeamInstructions(seam) + FaultInstructions(fault);
      for (const RunConfig& config : AllConfigs()) {
        const std::string label = std::string(SeamName(seam)) + " " + FaultMessage(fault) +
                                  " @ " + config.Name();
        const Outcome outcome = RunSeam(bytes, config, /*fuel=*/0);
        ASSERT_FALSE(outcome.ok) << label;
        EXPECT_EQ(outcome.message, FaultMessage(fault)) << label;
        EXPECT_EQ(outcome.retired, want_retired) << label;
      }
    }
  }
}

TEST(SpillPointTest, FuelTrapsAtTheFirstFlushPastTheBudget) {
  // Cumulative retired counts at each flush point (call, return, taken
  // branch) of the benign programs, hand-counted from SeamModule.
  struct Case {
    Seam seam;
    std::vector<uint64_t> flushes;  // last entry = total
  };
  const Case kCases[] = {
      {Seam::kAfterCall, {3, 7, 9}},
      {Seam::kAfterReturn, {3, 4, 6, 11, 13}},
      {Seam::kAfterBranch, {3, 5, 9, 11}},
  };
  for (const Case& c : kCases) {
    const Bytes bytes = SeamModule(c.seam, Fault::kNone);
    const uint64_t total = c.flushes.back();
    for (uint64_t fuel = 1; fuel <= total; ++fuel) {
      uint64_t want_retired = total;
      for (uint64_t flush : c.flushes) {
        if (flush > fuel) {
          want_retired = flush;
          break;
        }
      }
      for (const RunConfig& config : AllConfigs()) {
        const std::string label = std::string(SeamName(c.seam)) + " fuel " +
                                  std::to_string(fuel) + " @ " + config.Name();
        const Outcome outcome = RunSeam(bytes, config, fuel);
        EXPECT_EQ(outcome.ok, fuel >= total) << label << ": " << outcome.message;
        if (!outcome.ok) {
          EXPECT_EQ(outcome.message, "trap: fuel exhausted") << label;
        }
        EXPECT_EQ(outcome.retired, want_retired) << label;
      }
    }
  }
}

// --- memory.grow refreshes the cached limit -----------------------------------

// f(n, overrun): for i in [0, n): old = grow(1); mem[old page] = i + 1 and
// the new page's last byte = 7; acc += both read back. Growth comes from
// memory.grow when `via_host` is false, else from the host import
// env.grow(1), which grows memory outside the dispatch loop. Returns
// acc + memory.size; with overrun != 0, first loads one byte past the end.
Bytes GrowModule(bool via_host) {
  ModuleBuilder b;
  const uint32_t grow =
      b.ImportFunction("env", "grow", {ValType::kI32}, {ValType::kI32});
  b.AddMemory(1, 16);
  auto& f = b.AddFunction("f", {ValType::kI32, ValType::kI32}, {ValType::kI32});
  const uint32_t i = f.AddLocal(ValType::kI32);
  const uint32_t acc = f.AddLocal(ValType::kI32);
  const uint32_t base = f.AddLocal(ValType::kI32);
  f.I32Const(0);
  f.LocalSet(i);
  f.Block();
  f.Loop();
  f.LocalGet(i);
  f.LocalGet(0);
  f.Emit(Op::kI32GeS);
  f.BrIf(1);
  f.I32Const(1);
  if (via_host) {
    f.Call(grow);
  } else {
    f.MemoryGrow();
  }
  f.I32Const(16);
  f.Emit(Op::kI32Shl);
  f.LocalSet(base);  // first byte past the old size
  f.LocalGet(base);
  f.LocalGet(i);
  f.I32Const(1);
  f.Emit(Op::kI32Add);
  f.Store(Op::kI32Store);
  f.LocalGet(base);
  f.I32Const(7);
  f.Store(Op::kI32Store8, static_cast<uint32_t>(kWasmPageBytes - 1));
  f.LocalGet(acc);
  f.LocalGet(base);
  f.Load(Op::kI32Load);
  f.Emit(Op::kI32Add);
  f.LocalGet(base);
  f.Load(Op::kI32Load8U, static_cast<uint32_t>(kWasmPageBytes - 1));
  f.Emit(Op::kI32Add);
  f.LocalSet(acc);
  f.LocalGet(i);
  f.I32Const(1);
  f.Emit(Op::kI32Add);
  f.LocalSet(i);
  f.Br(0);
  f.End();
  f.End();
  f.LocalGet(1);
  f.If();
  f.MemorySize();
  f.I32Const(16);
  f.Emit(Op::kI32Shl);
  f.Load(Op::kI32Load8U);
  f.Drop();
  f.End();
  f.LocalGet(acc);
  f.MemorySize();
  f.Emit(Op::kI32Add);
  return b.Build();
}

TEST(SpillPointTest, AccessJustPastTheOldSizeSucceedsAfterGrowInEveryTier) {
  constexpr int32_t kGrows = 5;
  // sum(i + 1 + 7) for i < n, plus the final 1 + n pages.
  constexpr uint32_t kWant = kGrows * (kGrows + 1) / 2 + 7 * kGrows + 1 + kGrows;
  for (bool via_host : {false, true}) {
    const Bytes bytes = GrowModule(via_host);
    for (const RunConfig& config : AllConfigs()) {
      const std::string label =
          std::string(via_host ? "host grow" : "memory.grow") + " @ " + config.Name();
      MapImportResolver resolver;
      resolver.Register("env", "grow",
                        [](Instance& inst, const Value* args, size_t, Value* results) {
                          results[0] = MakeI32(inst.memory().Grow(args[0].i32));
                          return OkStatus();
                        });
      auto instance = Instantiate(bytes, config, &resolver);
      auto out = instance->CallExport("f", {MakeI32(kGrows), MakeI32(0)});
      ASSERT_TRUE(out.ok()) << label << ": " << out.status().ToString();
      EXPECT_EQ(out.value()[0].i32, kWant) << label;

      // The refreshed limit is the new size, not beyond it.
      auto overrun = Instantiate(bytes, config, &resolver)
                         ->CallExport("f", {MakeI32(kGrows), MakeI32(1)});
      ASSERT_FALSE(overrun.ok()) << label;
      EXPECT_EQ(overrun.status().message(), "trap: out of bounds memory access") << label;
    }
  }
}

}  // namespace
}  // namespace faasm::wasm
