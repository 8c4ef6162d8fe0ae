// KIR instructions. A single Instruction class parameterized by opcode
// keeps the parser, printer, verifier and interpreter in lockstep; the
// handful of opcode-specific fields (predicate, callee, targets, ...)
// live in the instruction and are validated by the verifier.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "kop/kir/value.hpp"

namespace kop::kir {

class BasicBlock;

enum class Opcode : uint8_t {
  // Memory.
  kAlloca,  // result=ptr; alloca_size_ bytes on the interpreter stack
  kLoad,    // result=type(); operand0=ptr
  kStore,   // operand0=value, operand1=ptr
  kGep,     // result=ptr; operand0=base ptr, operand1=index; ptr+idx*scale+off

  // Arithmetic / logic (operand0 op operand1, both of result type).
  kAdd, kSub, kMul, kUDiv, kSDiv, kURem, kSRem,
  kAnd, kOr, kXor, kShl, kLShr, kAShr,

  // Comparison -> i1.
  kICmp,

  // Conversions (operand0 -> result type).
  kZExt, kSExt, kTrunc, kPtrToInt, kIntToPtr,

  // Control flow.
  kBr,      // operand0=i1 cond; targets: true_block, false_block
  kJmp,     // unconditional; target: true_block
  kRet,     // optional operand0
  kPhi,     // operands parallel to incoming_blocks_
  kSelect,  // operand0=i1, operand1, operand2

  // Calls.
  kCall,    // callee by name (intra-module or external); operands=args

  // Indirect control flow. kFuncAddr materializes the simulated address
  // of a named function (defined or declared) as a ptr; kCallIndirect
  // dispatches through a ptr operand. The kop::cfi analysis derives the
  // legal-target set of every kCallIndirect and the CfiInjectionPass
  // gates each one with a carat_cfi_check call.
  kFuncAddr,      // result=ptr; callee_ names the function taken
  kCallIndirect,  // operand0=ptr target, operands 1.. = args

  // Inline assembly marker. Carries opaque text. The CARAT KOP
  // attestation pass refuses to certify modules containing one (§2, §5).
  kInlineAsm,
};

std::string_view OpcodeName(Opcode op);

enum class ICmpPred : uint8_t {
  kEq, kNe, kULt, kULe, kUGt, kUGe, kSLt, kSLe, kSGt, kSGe,
};

std::string_view ICmpPredName(ICmpPred pred);

/// An instruction's operands. Up to three (every opcode but calls and
/// phis) live inside the instruction; more take one heap array.
class OperandList {
 public:
  OperandList() = default;
  OperandList(const OperandList&) = delete;
  OperandList& operator=(const OperandList&) = delete;
  ~OperandList() {
    if (data_ != inline_) delete[] data_;
  }

  Value* const* begin() const { return data_; }
  Value* const* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  Value* operator[](size_t i) const { return data_[i]; }
  Value*& operator[](size_t i) { return data_[i]; }

  void reserve(size_t capacity) {
    if (capacity <= capacity_) return;
    Value** grown = new Value*[capacity];
    std::copy(data_, data_ + size_, grown);
    if (data_ != inline_) delete[] data_;
    data_ = grown;
    capacity_ = static_cast<uint32_t>(capacity);
  }
  void push_back(Value* value) {
    if (size_ == capacity_) reserve(2 * size_t{capacity_});
    data_[size_++] = value;
  }

 private:
  static constexpr uint32_t kInline = 3;
  Value** data_ = inline_;
  uint32_t size_ = 0;
  uint32_t capacity_ = kInline;
  Value* inline_[kInline] = {};
};

class Instruction : public Value {
 public:
  Instruction(Opcode opcode, Type result_type, std::string name)
      : Value(ValueKind::kInstruction, result_type, std::move(name)),
        opcode_(opcode) {}

  Opcode opcode() const { return opcode_; }

  // --- operands ---
  const OperandList& operands() const { return operands_; }
  Value* operand(size_t i) const { return operands_[i]; }
  size_t operand_count() const { return operands_.size(); }
  void AddOperand(Value* v) { operands_.push_back(v); }
  /// Size operand storage once for `count` operands (and a phi's incoming
  /// blocks with them).
  void ReserveOperands(size_t count) {
    operands_.reserve(count);
    if (opcode_ == Opcode::kPhi) incoming_blocks_.reserve(count);
  }
  void SetOperand(size_t i, Value* v) { operands_[i] = v; }

  // --- opcode-specific fields ---
  uint64_t alloca_size() const { return alloca_size_; }
  void set_alloca_size(uint64_t size) { alloca_size_ = size; }

  /// Loaded/stored value type. For kLoad this equals type(); for kStore
  /// it is the type of operand 0.
  Type memory_type() const { return memory_type_; }
  void set_memory_type(Type type) { memory_type_ = type; }

  uint64_t gep_scale() const { return gep_scale_; }
  void set_gep_scale(uint64_t scale) { gep_scale_ = scale; }
  uint64_t gep_offset() const { return gep_offset_; }
  void set_gep_offset(uint64_t offset) { gep_offset_ = offset; }

  ICmpPred icmp_pred() const { return icmp_pred_; }
  void set_icmp_pred(ICmpPred pred) { icmp_pred_ = pred; }

  const std::string& callee() const { return callee_; }
  void set_callee(std::string callee) { callee_ = std::move(callee); }

  const std::string& asm_text() const { return asm_text_; }
  void set_asm_text(std::string text) { asm_text_ = std::move(text); }

  BasicBlock* true_block() const { return true_block_; }
  BasicBlock* false_block() const { return false_block_; }
  void set_true_block(BasicBlock* bb) { true_block_ = bb; }
  void set_false_block(BasicBlock* bb) { false_block_ = bb; }

  const std::vector<BasicBlock*>& incoming_blocks() const {
    return incoming_blocks_;
  }
  void AddIncoming(Value* value, BasicBlock* block) {
    AddOperand(value);
    AddIncomingBlock(block);
  }
  /// The block for the operand added last (the parser adds the value
  /// before it has read the block's label).
  void AddIncomingBlock(BasicBlock* block) { incoming_blocks_.push_back(block); }

  /// The block this instruction currently lives in (maintained by
  /// BasicBlock insert/remove).
  BasicBlock* parent() const { return parent_; }
  void set_parent(BasicBlock* parent) { parent_ = parent; }

  bool IsTerminator() const {
    return opcode_ == Opcode::kBr || opcode_ == Opcode::kJmp ||
           opcode_ == Opcode::kRet;
  }
  bool IsMemoryAccess() const {
    return opcode_ == Opcode::kLoad || opcode_ == Opcode::kStore;
  }

  static bool classof(const Value* v) {
    return v->kind() == ValueKind::kInstruction;
  }

 private:
  Opcode opcode_;
  OperandList operands_;
  uint64_t alloca_size_ = 0;
  Type memory_type_ = Type::kVoid;
  uint64_t gep_scale_ = 1;
  uint64_t gep_offset_ = 0;
  ICmpPred icmp_pred_ = ICmpPred::kEq;
  std::string callee_;
  std::string asm_text_;
  BasicBlock* true_block_ = nullptr;
  BasicBlock* false_block_ = nullptr;
  std::vector<BasicBlock*> incoming_blocks_;
  BasicBlock* parent_ = nullptr;
};

}  // namespace kop::kir
