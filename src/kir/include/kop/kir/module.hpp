// A KIR module: the unit CARAT KOP compiles, signs, validates and loads —
// the analogue of one .ko. Owns globals, functions and the uniqued
// constant pool.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "kop/kir/function.hpp"
#include "kop/kir/value.hpp"

namespace kop::kir {

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Uniqued integer/pointer constant.
  Constant* GetConstant(Type type, uint64_t bits);
  Constant* GetI64(uint64_t bits) { return GetConstant(Type::kI64, bits); }

  /// Define a global variable. Fails (returns nullptr) on duplicate name.
  GlobalVariable* AddGlobal(const std::string& name, uint64_t size_bytes,
                            bool writable, std::string init_bytes = {});
  GlobalVariable* FindGlobal(std::string_view name);
  const std::vector<std::unique_ptr<GlobalVariable>>& globals() const {
    return globals_;
  }

  /// Create a function (definition or external declaration). Fails
  /// (nullptr) on duplicate name.
  Function* CreateFunction(const std::string& name, Type return_type,
                           std::vector<std::pair<Type, std::string>> params,
                           bool is_external = false);
  Function* FindFunction(const std::string& name);
  const Function* FindFunction(const std::string& name) const;
  const std::vector<std::unique_ptr<Function>>& functions() const {
    return functions_;
  }

  /// Names of external declarations (the module's import list).
  std::vector<std::string> ExternalFunctionNames() const;

  /// Position of a function (defined or extern) in declaration order, or
  /// -1 if absent. The basis of the simulated function-address scheme.
  int FunctionIndex(const std::string& name) const;

  /// Total instruction count over all defined functions.
  size_t InstructionCount() const;

  /// Count of load + store instructions (the transform's work list).
  size_t MemoryAccessCount() const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<GlobalVariable>> globals_;
  std::vector<std::unique_ptr<Function>> functions_;
  std::map<std::pair<Type, uint64_t>, std::unique_ptr<Constant>> constants_;
};

// ------------------------------------------------------------------------
// Simulated function addresses. funcaddr materializes one of these; the
// indirect-call dispatch in both engines and the CFI target-set tables
// registered at insmod map them back. Deterministic from declaration
// order alone, so the compiler, the static verifier's re-derivation, the
// loader and both engines agree without any side channel. The base sits
// far outside every simulated RAM region: a module that loads or stores
// through a function pointer faults like any other wild pointer.
inline constexpr uint64_t kFunctionAddrBase = 0xF0DE000000000000ull;
inline constexpr uint64_t kFunctionAddrStride = 16;

inline constexpr uint64_t FunctionAddressForIndex(size_t index) {
  return kFunctionAddrBase + static_cast<uint64_t>(index) * kFunctionAddrStride;
}

/// Index encoded by a simulated function address, or -1 when the address
/// is outside the function-address range, misaligned, or past `count`.
inline constexpr int FunctionIndexForAddress(uint64_t addr, size_t count) {
  if (addr < kFunctionAddrBase) return -1;
  const uint64_t delta = addr - kFunctionAddrBase;
  if (delta % kFunctionAddrStride != 0) return -1;
  const uint64_t index = delta / kFunctionAddrStride;
  if (index >= count) return -1;
  return static_cast<int>(index);
}

}  // namespace kop::kir
