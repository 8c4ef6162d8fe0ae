#include "kop/kir/cfg.hpp"

#include <algorithm>
#include <limits>

namespace kop::kir {

Cfg::Cfg(const Function& fn) : fn_(fn) {
  blocks_.reserve(fn.blocks().size());
  for (const auto& block : fn.blocks()) {
    block->set_number(static_cast<uint32_t>(blocks_.size()));
    blocks_.push_back(block.get());
  }
  preds_.resize(blocks_.size());
  succs_.resize(blocks_.size());
  reachable_.assign(blocks_.size(), false);

  for (const BasicBlock* block : blocks_) {
    const Instruction* term = block->Terminator();
    if (term == nullptr) continue;
    const BasicBlock* targets[2] = {term->true_block(), term->false_block()};
    for (const BasicBlock* target : targets) {
      // A target in another function has no number here. Such IR never
      // comes out of the parser, and bytecode lowering refuses it.
      if (target == nullptr || target->parent() != &fn) continue;
      succs_[IndexOf(block)].push_back(target);
      preds_[IndexOf(target)].push_back(block);
    }
  }

  // Iterative DFS with an explicit post stack; postorder reversed at the
  // end gives reverse postorder over reachable blocks.
  if (blocks_.empty()) return;
  struct Frame {
    const BasicBlock* block;
    size_t next_succ;
  };
  std::vector<Frame> stack{{blocks_[0], 0}};
  reachable_[0] = true;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const auto& succs = succs_[IndexOf(frame.block)];
    bool descended = false;
    while (frame.next_succ < succs.size()) {
      const BasicBlock* succ = succs[frame.next_succ++];
      if (!reachable_[IndexOf(succ)]) {
        reachable_[IndexOf(succ)] = true;
        stack.push_back({succ, 0});
        descended = true;
        break;
      }
    }
    if (!descended && frame.next_succ >= succs.size()) {
      rpo_.push_back(frame.block);
      stack.pop_back();
    }
  }
  std::reverse(rpo_.begin(), rpo_.end());
}

DominatorTree::DominatorTree(const Cfg& cfg)
    : cfg_(cfg), idom_(cfg.size(), nullptr) {
  if (cfg.size() == 0) return;
  const auto& rpo = cfg.ReversePostorder();
  constexpr size_t kUnreached = std::numeric_limits<size_t>::max();
  std::vector<size_t> rpo_pos(cfg.size(), kUnreached);
  for (size_t i = 0; i < rpo.size(); ++i) rpo_pos[cfg.IndexOf(rpo[i])] = i;
  auto pos = [&](const BasicBlock* block) {
    return rpo_pos[cfg.IndexOf(block)];
  };

  const BasicBlock* entry = cfg.blocks()[0];
  idom_[cfg.IndexOf(entry)] = entry;

  auto intersect = [&](const BasicBlock* a,
                       const BasicBlock* b) -> const BasicBlock* {
    while (a != b) {
      while (pos(a) > pos(b)) a = idom_[cfg_.IndexOf(a)];
      while (pos(b) > pos(a)) b = idom_[cfg_.IndexOf(b)];
    }
    return a;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (const BasicBlock* block : rpo) {
      if (block == entry) continue;
      const BasicBlock* new_idom = nullptr;
      for (const BasicBlock* pred : cfg.preds(block)) {
        if (pos(pred) == kUnreached) continue;  // unreachable predecessor
        if (idom_[cfg.IndexOf(pred)] == nullptr) continue;
        new_idom = new_idom == nullptr ? pred : intersect(new_idom, pred);
      }
      if (new_idom != nullptr && idom_[cfg.IndexOf(block)] != new_idom) {
        idom_[cfg.IndexOf(block)] = new_idom;
        changed = true;
      }
    }
  }
}

bool DominatorTree::Dominates(const BasicBlock* a, const BasicBlock* b) const {
  const BasicBlock* entry = cfg_.size() == 0 ? nullptr : cfg_.blocks()[0];
  const BasicBlock* walk = b;
  while (walk != nullptr) {
    if (walk == a) return true;
    if (walk == entry) return false;
    const BasicBlock* up = idom_[cfg_.IndexOf(walk)];
    if (up == walk) return false;  // detached/unreachable
    walk = up;
  }
  return false;
}

std::vector<const BasicBlock*> ComputeImmediateDominators(const Function& fn) {
  const Cfg cfg(fn);
  return DominatorTree(cfg).idoms();
}

bool BlockDominates(const Function& fn,
                    const std::vector<const BasicBlock*>& idom,
                    const BasicBlock* a, const BasicBlock* b) {
  for (size_t i = 0; i < fn.blocks().size(); ++i) {
    fn.blocks()[i]->set_number(static_cast<uint32_t>(i));
  }
  const BasicBlock* entry =
      fn.blocks().empty() ? nullptr : fn.blocks()[0].get();
  const BasicBlock* walk = b;
  while (walk != nullptr) {
    if (walk == a) return true;
    if (walk == entry) return false;
    const BasicBlock* up = idom[walk->number()];
    if (up == walk) return false;  // detached/unreachable
    walk = up;
  }
  return false;
}

}  // namespace kop::kir
