// Shared CFG utilities: dense block numbering, predecessor/successor
// edges, reverse postorder and the dominator tree. Lifted out of the
// verifier so every client that reasons about control flow — the SSA
// dominance check, the guard optimizer, the kop::analysis dataflow
// framework — computes these views exactly once and exactly the same
// way. A disagreement between the optimizer's and the verifier's idea of
// "reachable" or "dominates" would be a soundness hole; sharing the code
// removes the possibility.
#pragma once

#include <vector>

#include "kop/kir/function.hpp"

namespace kop::kir {

/// Control-flow views of one function, computed eagerly at construction.
/// Blocks are identified by their creation-order index within the
/// function (the same numbering Function::blocks() exposes). Construction
/// writes that index into each block (BasicBlock::number), so views are
/// plain vectors; a Cfg is valid until the function's block list changes.
class Cfg {
 public:
  explicit Cfg(const Function& fn);

  const Function& function() const { return fn_; }
  size_t size() const { return blocks_.size(); }

  /// Creation-order index of `block` within the function.
  size_t IndexOf(const BasicBlock* block) const { return block->number(); }

  const std::vector<const BasicBlock*>& blocks() const { return blocks_; }
  const std::vector<const BasicBlock*>& preds(const BasicBlock* block) const {
    return preds_[IndexOf(block)];
  }
  const std::vector<const BasicBlock*>& succs(const BasicBlock* block) const {
    return succs_[IndexOf(block)];
  }

  /// Reverse postorder over blocks reachable from the entry. The natural
  /// iteration order for forward dataflow; iterate it backwards for
  /// backward dataflow.
  const std::vector<const BasicBlock*>& ReversePostorder() const {
    return rpo_;
  }

  /// False for blocks no path from the entry reaches.
  bool IsReachable(const BasicBlock* block) const {
    return reachable_[IndexOf(block)];
  }

 private:
  const Function& fn_;
  std::vector<const BasicBlock*> blocks_;
  std::vector<std::vector<const BasicBlock*>> preds_;
  std::vector<std::vector<const BasicBlock*>> succs_;
  std::vector<const BasicBlock*> rpo_;
  std::vector<bool> reachable_;
};

/// Dominator tree over a Cfg (Cooper-Harvey-Kennedy iterative algorithm).
/// The entry block's idom is itself; unreachable blocks have none.
class DominatorTree {
 public:
  explicit DominatorTree(const Cfg& cfg);

  /// Immediate dominator of `block`; the entry maps to itself and
  /// unreachable blocks map to nullptr.
  const BasicBlock* Idom(const BasicBlock* block) const {
    return idom_[cfg_.IndexOf(block)];
  }

  /// True when every path from the entry to `b` passes through `a`
  /// (reflexive: a block dominates itself).
  bool Dominates(const BasicBlock* a, const BasicBlock* b) const;

  /// The raw idom array indexed by block creation order (the historical
  /// ComputeImmediateDominators output shape).
  const std::vector<const BasicBlock*>& idoms() const { return idom_; }

 private:
  const Cfg& cfg_;
  std::vector<const BasicBlock*> idom_;
};

/// Compute the immediate dominator of every block (entry maps to itself).
/// Convenience wrapper over Cfg + DominatorTree kept for callers that
/// need only the array once.
std::vector<const BasicBlock*> ComputeImmediateDominators(const Function& fn);

/// True when block `a` dominates block `b` under `idom` from
/// ComputeImmediateDominators (blocks identified by function block index).
bool BlockDominates(const Function& fn,
                    const std::vector<const BasicBlock*>& idom,
                    const BasicBlock* a, const BasicBlock* b);

}  // namespace kop::kir
