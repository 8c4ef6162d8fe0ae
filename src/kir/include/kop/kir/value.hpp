// KIR value hierarchy. Everything an instruction can use as an operand is
// a Value: integer constants, function arguments, globals, instruction
// results. Values are owned by their defining container (Module owns
// constants and globals, Function owns arguments, BasicBlock owns
// instructions); operands are non-owning Value*.
#pragma once

#include <cstdint>
#include <string>

#include "kop/kir/type.hpp"

namespace kop::kir {

enum class ValueKind : uint8_t {
  kConstant,
  kArgument,
  kGlobal,
  kInstruction,
};

class Value {
 public:
  Value(ValueKind kind, Type type, std::string name)
      : kind_(kind), type_(type), name_(std::move(name)) {}
  virtual ~Value() = default;
  Value(const Value&) = delete;
  Value& operator=(const Value&) = delete;

  ValueKind kind() const { return kind_; }
  Type type() const { return type_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Dense number a consumer (verifier, bytecode lowering) gives the
  /// value in one walk over a function when it starts; meaningless to
  /// everyone else and stale after any mutation. Const because numbering
  /// reads the IR without changing it.
  uint32_t number() const { return number_; }
  void set_number(uint32_t number) const { number_ = number; }

 private:
  ValueKind kind_;
  Type type_;
  mutable uint32_t number_ = 0;
  std::string name_;
};

/// An integer (or pointer) literal, uniqued per (type, bits) by the Module.
class Constant : public Value {
 public:
  Constant(Type type, uint64_t bits)
      : Value(ValueKind::kConstant, type, ""), bits_(ClampToType(bits, type)) {}

  uint64_t bits() const { return bits_; }
  int64_t signed_bits() const { return SignExtend(bits_, type()); }

  static bool classof(const Value* v) {
    return v->kind() == ValueKind::kConstant;
  }

 private:
  uint64_t bits_;
};

/// A formal parameter of a function.
class Argument : public Value {
 public:
  Argument(Type type, std::string name, unsigned index)
      : Value(ValueKind::kArgument, type, std::move(name)), index_(index) {}

  unsigned index() const { return index_; }

  static bool classof(const Value* v) {
    return v->kind() == ValueKind::kArgument;
  }

 private:
  unsigned index_;
};

/// A module-level global variable. Its Value is the *address* (ptr).
/// The concrete address is assigned at load time by the module loader;
/// within the IR a global is symbolic.
class GlobalVariable : public Value {
 public:
  GlobalVariable(std::string name, uint64_t size_bytes, bool writable,
                 std::string init_bytes = {})
      : Value(ValueKind::kGlobal, Type::kPtr, std::move(name)),
        size_bytes_(size_bytes),
        writable_(writable),
        init_bytes_(std::move(init_bytes)) {}

  uint64_t size_bytes() const { return size_bytes_; }
  bool writable() const { return writable_; }
  /// Initial contents (may be shorter than size; rest is zero).
  const std::string& init_bytes() const { return init_bytes_; }

  static bool classof(const Value* v) {
    return v->kind() == ValueKind::kGlobal;
  }

 private:
  uint64_t size_bytes_;
  bool writable_;
  std::string init_bytes_;
};

/// LLVM-style isa/cast helpers (minimal, assert-free dyn variant).
template <typename T>
bool isa(const Value* v) {
  return v != nullptr && T::classof(v);
}

template <typename T>
T* dyn_cast(Value* v) {
  return isa<T>(v) ? static_cast<T*>(v) : nullptr;
}

template <typename T>
const T* dyn_cast(const Value* v) {
  return isa<T>(v) ? static_cast<const T*>(v) : nullptr;
}

}  // namespace kop::kir
