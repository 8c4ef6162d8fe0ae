// The engine ablations (abl4, abl6, abl7) time the KIR engines on the
// knic xmit path with and without guards. An unguarded module can never
// pass the insmod validator (attestation must certify guard
// completeness), so these benches wire the engines directly the way the
// module loader does — kernel address space, module-area globals and
// frame stack, the real policy engine behind the guard symbols — which
// lets every variant share one harness.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/kir/bytecode.hpp"
#include "kop/kir/engine.hpp"
#include "kop/kir/interp.hpp"
#include "kop/kir/module.hpp"
#include "kop/kir/vm.hpp"
#include "kop/policy/engine.hpp"
#include "kop/util/carat_abi.hpp"

namespace kop::bench {

/// Guard, covering-range, intrinsic-guard and CFI calls go to the real
/// policy engine; no other symbol resolves. With the inline fast path on,
/// the engines' pinned-frame checks forward to the engine too (the module
/// loader's wiring), so only deopts pay the bound slow path; with it off
/// every guard takes the slow path.
class PolicyResolver final : public kir::ExternalResolver {
 public:
  PolicyResolver(policy::PolicyEngine* engine, bool inline_fast_path)
      : engine_(engine), fast_(inline_fast_path) {}

  uint64_t Bind(const std::string& name) override {
    if (name == kCaratGuardSymbol) return kGuard;
    if (name == kCaratGuardRangeSymbol) return kGuardRange;
    if (name == kCaratIntrinsicGuardSymbol) return kIntrinsicGuard;
    if (name == kCaratCfiCheckSymbol) return kCfiCheck;
    return kUndefined;
  }

  Result<uint64_t> Call(uint64_t handle, const std::vector<uint64_t>& args,
                        uint64_t /*call_ordinal*/) override {
    bool allowed = false;
    if (handle == kGuard && args.size() == 3) {
      allowed = engine_->Guard(args[0], args[1], args[2]);
    } else if (handle == kGuardRange && args.size() == 4) {
      allowed = engine_->GuardRange(args[0], args[1], args[2], args[3]);
    } else if (handle == kIntrinsicGuard && args.size() == 1) {
      allowed = engine_->IntrinsicGuard(args[0]);
    } else if (handle == kCfiCheck && args.size() == 2) {
      allowed = engine_->CfiCheck(args[0], args[1]);
    } else {
      return NotFound("unresolvable call in bench harness");
    }
    return uint64_t{allowed ? 1u : 0u};
  }

  bool PinGuardFrame() override { return fast_ && engine_->PinFrame(); }
  void UnpinGuardFrame() override { engine_->UnpinFrame(); }
  bool FastGuardRange(uint64_t addr, uint64_t size, uint64_t flags,
                      uint64_t elided, uint64_t /*call_ordinal*/) override {
    return fast_ && engine_->FastGuardRange(addr, size, flags, elided, 0);
  }
  bool FastCfiCheck(uint64_t target, uint64_t set_id,
                    uint64_t /*call_ordinal*/) override {
    return fast_ && engine_->FastCfiCheck(target, set_id, 0);
  }

 private:
  enum Handle : uint64_t {
    kGuard,
    kGuardRange,
    kIntrinsicGuard,
    kCfiCheck,
    kUndefined
  };

  policy::PolicyEngine* engine_;
  bool fast_;
};

/// One engine over `module`, laid out the way insmod does it: globals and
/// a 64 KiB frame stack in the module area, kernel-backed memory, and a
/// PolicyResolver. Members are declared in lifetime order.
struct DirectEngine {
  std::unique_ptr<kernel::KernelMemory> memory;
  std::unique_ptr<PolicyResolver> resolver;
  std::unique_ptr<kir::ExecutionEngine> engine;
};

inline DirectEngine WireEngine(const kir::Module& module,
                               kernel::Kernel& kernel,
                               policy::PolicyEngine& policy, bool bytecode,
                               bool inline_fast_path) {
  std::unordered_map<std::string, uint64_t> globals;
  for (const auto& global : module.globals()) {
    auto addr = kernel.module_area().Kmalloc(
        std::max<uint64_t>(global->size_bytes(), 8));
    if (!addr.ok()) std::abort();
    globals[global->name()] = *addr;
  }
  auto stack = kernel.module_area().Kmalloc(64 * 1024);
  if (!stack.ok()) std::abort();
  kir::InterpConfig config;
  config.stack_base = *stack;
  config.stack_size = 64 * 1024;
  config.max_steps = ~uint64_t{0};

  DirectEngine wired;
  wired.memory = std::make_unique<kernel::KernelMemory>(&kernel);
  wired.resolver = std::make_unique<PolicyResolver>(&policy, inline_fast_path);
  if (bytecode) {
    auto compiled = kir::CompileToBytecode(module);
    if (!compiled.ok()) std::abort();
    auto vm = kir::VM::Create(std::move(*compiled), *wired.memory,
                              *wired.resolver, globals, config);
    if (!vm.ok()) std::abort();
    wired.engine = std::move(*vm);
  } else {
    wired.engine = std::make_unique<kir::Interpreter>(
        module, *wired.memory, *wired.resolver, globals, config);
  }
  return wired;
}

}  // namespace kop::bench
