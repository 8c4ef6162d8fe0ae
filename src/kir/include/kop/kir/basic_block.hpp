// Basic blocks: named, ordered instruction lists ending in a terminator.
// std::list ownership gives the guard-injection pass O(1) insert-before,
// which is all CARAT KOP's transform needs.
#pragma once

#include <list>
#include <memory>
#include <string>

#include "kop/kir/instruction.hpp"

namespace kop::kir {

class Function;

class BasicBlock {
 public:
  using InstList = std::list<std::unique_ptr<Instruction>>;
  using iterator = InstList::iterator;
  using const_iterator = InstList::const_iterator;

  BasicBlock(std::string label, Function* parent)
      : label_(std::move(label)), parent_(parent) {}
  BasicBlock(const BasicBlock&) = delete;
  BasicBlock& operator=(const BasicBlock&) = delete;

  const std::string& label() const { return label_; }
  Function* parent() const { return parent_; }

  /// Position in the function's block list, written by each consumer that
  /// walks the function (Cfg, bytecode lowering) when it starts; stale
  /// after any mutation of the block list.
  uint32_t number() const { return number_; }
  void set_number(uint32_t number) const { number_ = number; }

  iterator begin() { return insts_.begin(); }
  iterator end() { return insts_.end(); }
  const_iterator begin() const { return insts_.begin(); }
  const_iterator end() const { return insts_.end(); }
  bool empty() const { return insts_.empty(); }
  size_t size() const { return insts_.size(); }

  /// Append; returns the instruction for chaining.
  Instruction* Append(std::unique_ptr<Instruction> inst) {
    inst->set_parent(this);
    insts_.push_back(std::move(inst));
    return insts_.back().get();
  }

  /// Insert before `pos`; returns an iterator to the new instruction.
  iterator InsertBefore(iterator pos, std::unique_ptr<Instruction> inst) {
    inst->set_parent(this);
    return insts_.insert(pos, std::move(inst));
  }

  /// Remove and destroy the instruction at `pos`; returns the next one.
  iterator Erase(iterator pos) { return insts_.erase(pos); }

  /// The terminator, or nullptr if the block is unterminated (invalid IR).
  Instruction* Terminator() {
    if (insts_.empty() || !insts_.back()->IsTerminator()) return nullptr;
    return insts_.back().get();
  }
  const Instruction* Terminator() const {
    if (insts_.empty() || !insts_.back()->IsTerminator()) return nullptr;
    return insts_.back().get();
  }

 private:
  std::string label_;
  Function* parent_;
  mutable uint32_t number_ = 0;
  InstList insts_;
};

}  // namespace kop::kir
