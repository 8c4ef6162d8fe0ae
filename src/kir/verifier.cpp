#include "kop/kir/verifier.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_set>

#include "kop/kir/cfg.hpp"
#include "kop/kir/printer.hpp"

namespace kop::kir {
namespace {

class FunctionVerifier {
 public:
  explicit FunctionVerifier(const Function& fn) : fn_(fn) {}

  Status Run() {
    if (fn_.is_external()) return OkStatus();
    if (fn_.blocks().empty()) {
      return Fail(nullptr, "function has no blocks");
    }
    KOP_RETURN_IF_ERROR(CheckBlocks());
    const Cfg cfg(fn_);
    KOP_RETURN_IF_ERROR(CheckInstructions(cfg));
    KOP_RETURN_IF_ERROR(CheckDominance(cfg));
    return OkStatus();
  }

 private:
  Status Fail(const Instruction* inst, const std::string& msg) const {
    std::string where = "@" + fn_.name();
    if (inst != nullptr && inst->parent() != nullptr) {
      where += ", block " + inst->parent()->label() + ", '" +
               PrintInstruction(*inst) + "'";
    }
    return BadModule("verifier: " + where + ": " + msg);
  }

  Status CheckBlocks() {
    std::unordered_set<std::string_view> labels;
    labels.reserve(fn_.blocks().size());
    for (const auto& block : fn_.blocks()) {
      if (!labels.insert(block->label()).second) {
        return Fail(nullptr, "duplicate block label " + block->label());
      }
      if (block->Terminator() == nullptr) {
        return Fail(nullptr,
                    "block " + block->label() + " has no terminator");
      }
      size_t pos = 0;
      const Instruction* prev = nullptr;
      for (const auto& inst : *block) {
        if (inst->IsTerminator() && pos + 1 != block->size()) {
          return Fail(inst.get(), "terminator in middle of block");
        }
        // Phis must be grouped at the top.
        if (inst->opcode() == Opcode::kPhi && prev != nullptr &&
            prev->opcode() != Opcode::kPhi) {
          return Fail(inst.get(), "phi not at top of block");
        }
        prev = inst.get();
        ++pos;
      }
    }
    return OkStatus();
  }

  Status CheckCall(const Instruction* inst) {
    const Module* module = fn_.parent();
    const Function* callee = module->FindFunction(inst->callee());
    if (callee == nullptr) {
      // Intrinsics ("kir.*") are resolved by the runtime; anything else
      // must be declared so the loader can link it.
      if (inst->callee().rfind("kir.", 0) == 0) return OkStatus();
      return Fail(inst, "call to undeclared function @" + inst->callee());
    }
    if (callee->arg_count() != inst->operand_count()) {
      return Fail(inst, "call argument count mismatch");
    }
    for (size_t i = 0; i < callee->arg_count(); ++i) {
      if (inst->operand(i)->type() != callee->args()[i]->type()) {
        return Fail(inst, "call argument " + std::to_string(i) +
                              " type mismatch");
      }
    }
    if (callee->return_type() != inst->type()) {
      return Fail(inst, "call result type mismatch");
    }
    return OkStatus();
  }

  Status CheckInstructions(const Cfg& cfg) {
    for (const auto& block : fn_.blocks()) {
      for (const auto& inst : *block) {
        for (size_t i = 0; i < inst->operand_count(); ++i) {
          if (inst->operand(i) == nullptr) {
            return Fail(inst.get(),
                        "null operand " + std::to_string(i) +
                            " (undefined forward reference?)");
          }
        }
        switch (inst->opcode()) {
          case Opcode::kLoad:
            if (inst->operand(0)->type() != Type::kPtr) {
              return Fail(inst.get(), "load pointer operand is not ptr");
            }
            if (!IsFirstClass(inst->memory_type())) {
              return Fail(inst.get(), "load of void");
            }
            break;
          case Opcode::kStore:
            if (inst->operand(1)->type() != Type::kPtr) {
              return Fail(inst.get(), "store pointer operand is not ptr");
            }
            if (inst->operand(0)->type() != inst->memory_type()) {
              return Fail(inst.get(), "stored value type mismatch");
            }
            break;
          case Opcode::kGep:
            if (inst->operand(0)->type() != Type::kPtr) {
              return Fail(inst.get(), "gep base is not ptr");
            }
            if (!IsInteger(inst->operand(1)->type())) {
              return Fail(inst.get(), "gep index is not an integer");
            }
            break;
          case Opcode::kAdd:
          case Opcode::kSub:
          case Opcode::kMul:
          case Opcode::kUDiv:
          case Opcode::kSDiv:
          case Opcode::kURem:
          case Opcode::kSRem:
          case Opcode::kAnd:
          case Opcode::kOr:
          case Opcode::kXor:
          case Opcode::kShl:
          case Opcode::kLShr:
          case Opcode::kAShr:
            if (!IsInteger(inst->type()) && inst->type() != Type::kPtr) {
              return Fail(inst.get(), "arithmetic on non-integer type");
            }
            if (inst->operand(0)->type() != inst->type() ||
                inst->operand(1)->type() != inst->type()) {
              return Fail(inst.get(), "binop operand type mismatch");
            }
            break;
          case Opcode::kICmp:
            if (inst->operand(0)->type() != inst->operand(1)->type()) {
              return Fail(inst.get(), "icmp operand type mismatch");
            }
            break;
          case Opcode::kZExt:
          case Opcode::kSExt: {
            const Type from = inst->operand(0)->type();
            if (!IsInteger(from) || !IsInteger(inst->type()) ||
                BitWidth(from) > BitWidth(inst->type())) {
              return Fail(inst.get(), "invalid extension");
            }
            break;
          }
          case Opcode::kTrunc: {
            const Type from = inst->operand(0)->type();
            if (!IsInteger(from) || !IsInteger(inst->type()) ||
                BitWidth(from) < BitWidth(inst->type())) {
              return Fail(inst.get(), "invalid truncation");
            }
            break;
          }
          case Opcode::kPtrToInt:
            if (inst->operand(0)->type() != Type::kPtr ||
                !IsInteger(inst->type())) {
              return Fail(inst.get(), "ptrtoint must be ptr -> integer");
            }
            break;
          case Opcode::kIntToPtr:
            if (!IsInteger(inst->operand(0)->type()) ||
                inst->type() != Type::kPtr) {
              return Fail(inst.get(), "inttoptr must be integer -> ptr");
            }
            break;
          case Opcode::kBr:
            if (inst->operand(0)->type() != Type::kI1) {
              return Fail(inst.get(), "branch condition is not i1");
            }
            if (inst->true_block() == nullptr ||
                inst->false_block() == nullptr) {
              return Fail(inst.get(), "branch with missing target");
            }
            break;
          case Opcode::kJmp:
            if (inst->true_block() == nullptr) {
              return Fail(inst.get(), "jmp with missing target");
            }
            break;
          case Opcode::kRet:
            if (fn_.return_type() == Type::kVoid) {
              if (inst->operand_count() != 0) {
                return Fail(inst.get(), "ret with value in void function");
              }
            } else {
              if (inst->operand_count() != 1 ||
                  inst->operand(0)->type() != fn_.return_type()) {
                return Fail(inst.get(), "ret type mismatch");
              }
            }
            break;
          case Opcode::kPhi: {
            // One incoming value per predecessor, from that predecessor.
            const auto& incoming = inst->incoming_blocks();
            if (incoming.size() != inst->operand_count()) {
              return Fail(inst.get(), "phi operand/block count mismatch");
            }
            const auto& block_preds = cfg.preds(block.get());
            if (incoming.size() != block_preds.size()) {
              return Fail(inst.get(),
                          "phi incoming count does not match predecessors");
            }
            for (const BasicBlock* in : incoming) {
              if (std::find(block_preds.begin(), block_preds.end(), in) ==
                  block_preds.end()) {
                return Fail(inst.get(), "phi incoming block " + in->label() +
                                            " is not a predecessor");
              }
            }
            for (size_t i = 0; i < inst->operand_count(); ++i) {
              if (inst->operand(i)->type() != inst->type()) {
                return Fail(inst.get(), "phi operand type mismatch");
              }
            }
            break;
          }
          case Opcode::kSelect:
            if (inst->operand(0)->type() != Type::kI1) {
              return Fail(inst.get(), "select condition is not i1");
            }
            if (inst->operand(1)->type() != inst->type() ||
                inst->operand(2)->type() != inst->type()) {
              return Fail(inst.get(), "select operand type mismatch");
            }
            break;
          case Opcode::kCall:
            KOP_RETURN_IF_ERROR(CheckCall(inst.get()));
            break;
          case Opcode::kFuncAddr: {
            if (inst->type() != Type::kPtr) {
              return Fail(inst.get(), "funcaddr result is not ptr");
            }
            const Function* taken = fn_.parent()->FindFunction(inst->callee());
            if (taken == nullptr) {
              return Fail(inst.get(),
                          "funcaddr of undeclared function @" + inst->callee());
            }
            break;
          }
          case Opcode::kCallIndirect:
            if (inst->operand_count() == 0 ||
                inst->operand(0)->type() != Type::kPtr) {
              return Fail(inst.get(), "icall target is not ptr");
            }
            for (size_t i = 1; i < inst->operand_count(); ++i) {
              if (!IsFirstClass(inst->operand(i)->type())) {
                return Fail(inst.get(), "icall argument of void type");
              }
            }
            break;
          case Opcode::kAlloca:
            if (inst->alloca_size() == 0) {
              return Fail(inst.get(), "alloca of zero bytes");
            }
            break;
          case Opcode::kInlineAsm:
            break;  // structurally fine; the attestation pass rejects it
        }
      }
    }
    return OkStatus();
  }

  Status CheckDominance(const Cfg& cfg) {
    const DominatorTree domtree(cfg);

    // Number each instruction with its position in its block for the
    // same-block checks.
    for (const auto& block : fn_.blocks()) {
      uint32_t pos = 0;
      for (const auto& inst : *block) inst->set_number(pos++);
    }

    auto value_available = [&](const Value* def, const Instruction* user,
                               const BasicBlock* use_block,
                               size_t use_pos) -> bool {
      if (def->kind() != ValueKind::kInstruction) return true;  // const/arg/global
      const auto* def_inst = static_cast<const Instruction*>(def);
      const BasicBlock* def_block = def_inst->parent();
      if (def_block == use_block) {
        return def_inst->number() < use_pos ||
               user->opcode() == Opcode::kPhi;  // phi handled separately
      }
      return domtree.Dominates(def_block, use_block);
    };

    for (const auto& block : fn_.blocks()) {
      // Skip unreachable blocks (no idom computed).
      if (block.get() != fn_.blocks()[0].get() &&
          domtree.Idom(block.get()) == nullptr) {
        continue;
      }
      size_t pos = 0;
      for (const auto& inst : *block) {
        if (inst->opcode() == Opcode::kPhi) {
          // Each incoming value must dominate the end of its edge block.
          for (size_t i = 0; i < inst->operand_count(); ++i) {
            const Value* def = inst->operand(i);
            if (def->kind() != ValueKind::kInstruction) continue;
            const auto* def_inst = static_cast<const Instruction*>(def);
            const BasicBlock* in = inst->incoming_blocks()[i];
            if (def_inst->parent() != in &&
                !domtree.Dominates(def_inst->parent(), in)) {
              return Fail(inst.get(),
                          "phi incoming value does not dominate edge");
            }
          }
        } else {
          for (size_t i = 0; i < inst->operand_count(); ++i) {
            if (!value_available(inst->operand(i), inst.get(), block.get(),
                                 pos)) {
              return Fail(inst.get(), "use of value %" +
                                          inst->operand(i)->name() +
                                          " not dominated by its definition");
            }
          }
        }
        ++pos;
      }
    }
    return OkStatus();
  }

  const Function& fn_;
};

}  // namespace

Status VerifyFunction(const Function& fn) {
  return FunctionVerifier(fn).Run();
}

Status VerifyModule(const Module& module) {
  std::unordered_set<std::string_view> names;
  names.reserve(module.globals().size() + module.functions().size());
  for (const auto& global : module.globals()) {
    if (!names.insert(global->name()).second) {
      return BadModule("verifier: duplicate global @" + global->name());
    }
  }
  for (const auto& fn : module.functions()) {
    if (!names.insert(fn->name()).second) {
      return BadModule("verifier: duplicate function @" + fn->name());
    }
    KOP_RETURN_IF_ERROR(VerifyFunction(*fn));
  }
  return OkStatus();
}

}  // namespace kop::kir
