#include "kop/kir/bytecode.hpp"

#include <sstream>
#include <unordered_map>

#include "kop/util/bits.hpp"
#include "kop/util/carat_abi.hpp"

namespace kop::kir {
namespace {

/// Value number of a value that has no register.
constexpr uint32_t kNoReg = UINT32_MAX;

constexpr uint64_t MaskOfBits(unsigned bits) {
  if (bits == 0) return 0;
  if (bits >= 64) return ~uint64_t{0};
  return (uint64_t{1} << bits) - 1;
}

/// Compiles one function. The register plan is the simplest dense one:
/// one register per SSA value, no reuse — frames are a few hundred words
/// at most and setup is a single memcpy of the template.
class FunctionCompiler {
 public:
  FunctionCompiler(const Module& module, const Function& fn,
                   BytecodeModule& out, uint64_t& call_ordinal)
      : module_(module), fn_(fn), out_(out), call_ordinal_(call_ordinal) {}

  Result<BytecodeFunction> Compile() {
    bf_.name = fn_.name();
    bf_.return_type = fn_.return_type();

    KOP_RETURN_IF_ERROR(PlanRegisters());
    KOP_RETURN_IF_ERROR(EmitBlocks());
    KOP_RETURN_IF_ERROR(ResolveBranchTargets());
    return std::move(bf_);
  }

 private:
  /// Registers ride in each value's number: an argument's is its index,
  /// constants and globals get theirs on first use, every value-producing
  /// instruction one after them and a void one kNoReg. Constants and
  /// globals are shared by every function, so their numbers are cleared
  /// first.
  Status PlanRegisters() {
    // Arguments first.
    for (const auto& arg : fn_.args()) {
      arg->set_number(next_reg_);
      bf_.arg_masks.push_back(MaskOfBits(BitWidth(arg->type())));
      ++next_reg_;
    }
    bf_.num_args = static_cast<uint16_t>(fn_.arg_count());

    for (const auto& block : fn_.blocks()) {
      for (const auto& inst : *block) {
        for (const Value* operand : inst->operands()) {
          if (isa<Constant>(operand) || isa<GlobalVariable>(operand)) {
            operand->set_number(kNoReg);
          }
        }
      }
    }

    // Constants and globals next, in a contiguous range the frame
    // template pre-fills (globals patched with addresses at VM bind).
    bf_.const_reg_begin = next_reg_;
    for (const auto& block : fn_.blocks()) {
      for (const auto& inst : *block) {
        for (const Value* operand : inst->operands()) {
          if (const auto* c = dyn_cast<Constant>(operand)) {
            if (c->number() != kNoReg) continue;
            c->set_number(next_reg_);
            template_values_.push_back(c->bits());
            KOP_RETURN_IF_ERROR(BumpReg());
          } else if (const auto* g = dyn_cast<GlobalVariable>(operand)) {
            if (g->number() != kNoReg) continue;
            bf_.global_fixups.push_back(
                {next_reg_, InternGlobalName(g->name())});
            g->set_number(next_reg_);
            template_values_.push_back(0);
            KOP_RETURN_IF_ERROR(BumpReg());
          }
        }
      }
    }
    bf_.const_reg_end = next_reg_;

    // One result register per value-producing instruction (phis
    // included: edge moves write them).
    for (const auto& block : fn_.blocks()) {
      for (const auto& inst : *block) {
        if (inst->type() == Type::kVoid) {
          inst->set_number(kNoReg);
          continue;
        }
        inst->set_number(next_reg_);
        KOP_RETURN_IF_ERROR(BumpReg());
      }
    }

    bf_.num_regs = next_reg_;
    bf_.frame_template.assign(bf_.num_regs, 0);
    for (size_t i = 0; i < template_values_.size(); ++i) {
      bf_.frame_template[bf_.const_reg_begin + i] = template_values_[i];
    }
    return OkStatus();
  }

  Status BumpReg() {
    if (next_reg_ == 0xffff) {
      return Internal("function @" + fn_.name() +
                      " exceeds the bytecode register limit (65535)");
    }
    ++next_reg_;
    return OkStatus();
  }

  uint32_t InternGlobalName(const std::string& name) {
    for (uint32_t i = 0; i < out_.global_names.size(); ++i) {
      if (out_.global_names[i] == name) return i;
    }
    out_.global_names.push_back(name);
    return static_cast<uint32_t>(out_.global_names.size() - 1);
  }

  /// The register PlanRegisters gave `v`; an error for a void
  /// instruction or a value of another function.
  Result<uint16_t> RegOf(const Value* v) {
    bool planned = true;
    if (const auto* inst = dyn_cast<Instruction>(v)) {
      planned = inst->number() != kNoReg && inst->parent() != nullptr &&
                inst->parent()->parent() == &fn_;
    } else if (const auto* arg = dyn_cast<Argument>(v)) {
      planned = arg->index() < fn_.arg_count() &&
                fn_.args()[arg->index()].get() == arg;
    }
    if (!planned) {
      return Internal("use of unevaluated value %" + v->name() + " in @" +
                      fn_.name());
    }
    return static_cast<uint16_t>(v->number());
  }

  /// Index of a branch target, numbered by EmitBlocks.
  Result<uint32_t> BlockOf(const BasicBlock* block) {
    if (block == nullptr || block->parent() != &fn_) {
      return Internal("branch to a block outside @" + fn_.name());
    }
    return block->number();
  }

  Status EmitBlocks() {
    for (size_t i = 0; i < fn_.blocks().size(); ++i) {
      fn_.blocks()[i]->set_number(static_cast<uint32_t>(i));
    }
    block_pc_.assign(fn_.blocks().size(), 0);

    uint32_t src_index = 0;
    for (size_t bi = 0; bi < fn_.blocks().size(); ++bi) {
      const BasicBlock& block = *fn_.blocks()[bi];
      block_pc_[bi] = static_cast<uint32_t>(bf_.code.size());
      bool first_non_phi_seen = false;
      for (const auto& inst : block) {
        if (inst->opcode() == Opcode::kPhi) {
          if (first_non_phi_seen) {
            return Internal("phi below the phi group in " + block.label());
          }
          ++src_index;
          continue;
        }
        first_non_phi_seen = true;
        auto emitted = EmitInstruction(*inst, block);
        if (!emitted.ok()) return emitted.status();
        BcInst out = *emitted;
        out.src_index = src_index++;
        bf_.code.push_back(out);
      }
      if (block.Terminator() == nullptr) {
        return Internal("block " + block.label() + " in @" + fn_.name() +
                        " has no terminator");
      }
    }
    return OkStatus();
  }

  /// Phi moves for the edge from `from` to `to`; kNoMoves when `to` has
  /// no phis.
  Result<uint16_t> EdgeMoves(const BasicBlock& from, const BasicBlock* to) {
    std::vector<BcMove> moves;
    for (const auto& inst : *to) {
      if (inst->opcode() != Opcode::kPhi) break;
      bool matched = false;
      for (size_t i = 0; i < inst->incoming_blocks().size(); ++i) {
        if (inst->incoming_blocks()[i] == &from) {
          KOP_ASSIGN_OR_RETURN(const uint16_t src, RegOf(inst->operand(i)));
          KOP_ASSIGN_OR_RETURN(const uint16_t dst, RegOf(inst.get()));
          moves.push_back({src, dst});
          matched = true;
          break;
        }
      }
      if (!matched) {
        return Internal("phi in " + to->label() +
                        " has no incoming entry for edge taken");
      }
    }
    if (moves.empty()) return kNoMoves;
    bf_.edge_moves.push_back(std::move(moves));
    return static_cast<uint16_t>(bf_.edge_moves.size() - 1);
  }

  uint32_t InternExtern(const std::string& name) {
    auto it = extern_index_.find(name);
    if (it != extern_index_.end()) return it->second;
    BcExtern ext;
    ext.name = name;
    ext.is_guard = name == kCaratGuardSymbol;
    ext.is_range_guard = name == kCaratGuardRangeSymbol;
    ext.is_intrinsic_guard = name == kCaratIntrinsicGuardSymbol;
    ext.is_cfi_check = name == kCaratCfiCheckSymbol;
    if (IsIntrinsicName(name)) ext.intrinsic = IntrinsicFromName(name);
    out_.externs.push_back(std::move(ext));
    const uint32_t id = static_cast<uint32_t>(out_.externs.size() - 1);
    extern_index_[name] = id;
    return id;
  }

  Result<BcInst> EmitInstruction(const Instruction& inst,
                                 const BasicBlock& block) {
    BcInst out;
    const Type type = inst.type();
    switch (inst.opcode()) {
      case Opcode::kAlloca: {
        out.op = BcOp::kAlloca;
        KOP_ASSIGN_OR_RETURN(out.dst, RegOf(&inst));
        out.imm = AlignUp(inst.alloca_size(), 16);
        return out;
      }
      case Opcode::kLoad: {
        out.op = BcOp::kLoad;
        KOP_ASSIGN_OR_RETURN(out.dst, RegOf(&inst));
        KOP_ASSIGN_OR_RETURN(out.a, RegOf(inst.operand(0)));
        out.width = static_cast<uint8_t>(StoreSize(inst.memory_type()));
        out.imm = MaskOfBits(BitWidth(type));
        return out;
      }
      case Opcode::kStore: {
        out.op = BcOp::kStore;
        KOP_ASSIGN_OR_RETURN(out.a, RegOf(inst.operand(0)));
        KOP_ASSIGN_OR_RETURN(out.b, RegOf(inst.operand(1)));
        out.width = static_cast<uint8_t>(StoreSize(inst.memory_type()));
        return out;
      }
      case Opcode::kGep: {
        out.op = BcOp::kGep;
        KOP_ASSIGN_OR_RETURN(out.dst, RegOf(&inst));
        KOP_ASSIGN_OR_RETURN(out.a, RegOf(inst.operand(0)));
        KOP_ASSIGN_OR_RETURN(out.b, RegOf(inst.operand(1)));
        out.width = static_cast<uint8_t>(BitWidth(inst.operand(1)->type()));
        out.imm = inst.gep_offset();
        out.imm2 = inst.gep_scale();
        return out;
      }
      case Opcode::kAdd: case Opcode::kSub: case Opcode::kMul:
      case Opcode::kUDiv: case Opcode::kSDiv: case Opcode::kURem:
      case Opcode::kSRem: case Opcode::kAnd: case Opcode::kOr:
      case Opcode::kXor: case Opcode::kShl: case Opcode::kLShr:
      case Opcode::kAShr: {
        // The two opcode enums list the binary ALU block in the same
        // order; translate by offset.
        out.op = static_cast<BcOp>(
            static_cast<uint8_t>(BcOp::kAdd) +
            (static_cast<uint8_t>(inst.opcode()) -
             static_cast<uint8_t>(Opcode::kAdd)));
        KOP_ASSIGN_OR_RETURN(out.dst, RegOf(&inst));
        KOP_ASSIGN_OR_RETURN(out.a, RegOf(inst.operand(0)));
        KOP_ASSIGN_OR_RETURN(out.b, RegOf(inst.operand(1)));
        out.width = static_cast<uint8_t>(BitWidth(type));
        out.imm = MaskOfBits(BitWidth(type));
        return out;
      }
      case Opcode::kICmp: {
        out.op = BcOp::kICmp;
        KOP_ASSIGN_OR_RETURN(out.dst, RegOf(&inst));
        KOP_ASSIGN_OR_RETURN(out.a, RegOf(inst.operand(0)));
        KOP_ASSIGN_OR_RETURN(out.b, RegOf(inst.operand(1)));
        out.aux = static_cast<uint32_t>(inst.icmp_pred());
        out.width = static_cast<uint8_t>(BitWidth(inst.operand(0)->type()));
        out.imm = MaskOfBits(BitWidth(inst.operand(0)->type()));
        return out;
      }
      case Opcode::kZExt: case Opcode::kTrunc:
      case Opcode::kPtrToInt: case Opcode::kIntToPtr: {
        out.op = BcOp::kMove;
        KOP_ASSIGN_OR_RETURN(out.dst, RegOf(&inst));
        KOP_ASSIGN_OR_RETURN(out.a, RegOf(inst.operand(0)));
        out.imm = MaskOfBits(BitWidth(type));
        return out;
      }
      case Opcode::kSExt: {
        out.op = BcOp::kSExt;
        KOP_ASSIGN_OR_RETURN(out.dst, RegOf(&inst));
        KOP_ASSIGN_OR_RETURN(out.a, RegOf(inst.operand(0)));
        out.width = static_cast<uint8_t>(BitWidth(inst.operand(0)->type()));
        out.imm = MaskOfBits(BitWidth(type));
        return out;
      }
      case Opcode::kSelect: {
        out.op = BcOp::kSelect;
        KOP_ASSIGN_OR_RETURN(out.dst, RegOf(&inst));
        KOP_ASSIGN_OR_RETURN(out.a, RegOf(inst.operand(0)));
        KOP_ASSIGN_OR_RETURN(out.b, RegOf(inst.operand(1)));
        KOP_ASSIGN_OR_RETURN(const uint16_t other, RegOf(inst.operand(2)));
        out.aux = other;
        out.imm = MaskOfBits(BitWidth(type));
        return out;
      }
      case Opcode::kBr: {
        out.op = BcOp::kBr;
        KOP_ASSIGN_OR_RETURN(out.a, RegOf(inst.operand(0)));
        KOP_ASSIGN_OR_RETURN(out.aux, BlockOf(inst.true_block()));
        KOP_ASSIGN_OR_RETURN(out.imm, BlockOf(inst.false_block()));
        KOP_ASSIGN_OR_RETURN(out.dst, EdgeMoves(block, inst.true_block()));
        KOP_ASSIGN_OR_RETURN(out.b, EdgeMoves(block, inst.false_block()));
        return out;
      }
      case Opcode::kJmp: {
        out.op = BcOp::kJmp;
        KOP_ASSIGN_OR_RETURN(out.aux, BlockOf(inst.true_block()));
        KOP_ASSIGN_OR_RETURN(out.dst, EdgeMoves(block, inst.true_block()));
        return out;
      }
      case Opcode::kRet: {
        if (inst.operand_count() == 0) {
          out.op = BcOp::kRetVoid;
          return out;
        }
        out.op = BcOp::kRet;
        KOP_ASSIGN_OR_RETURN(out.a, RegOf(inst.operand(0)));
        out.imm = MaskOfBits(BitWidth(fn_.return_type()));
        return out;
      }
      case Opcode::kCall: {
        const uint64_t ordinal = call_ordinal_++;
        const uint32_t arg_offset =
            static_cast<uint32_t>(bf_.call_args.size());
        for (size_t i = 0; i < inst.operand_count(); ++i) {
          KOP_ASSIGN_OR_RETURN(const uint16_t r, RegOf(inst.operand(i)));
          bf_.call_args.push_back(r);
        }
        out.b = static_cast<uint16_t>(inst.operand_count());
        out.imm = arg_offset;
        out.width = static_cast<uint8_t>(BitWidth(type));
        if (type != Type::kVoid) {
          KOP_ASSIGN_OR_RETURN(out.dst, RegOf(&inst));
        }
        const Function* callee = module_.FindFunction(inst.callee());
        if (callee != nullptr && !callee->is_external()) {
          out.op = BcOp::kCallInternal;
          out.aux = out_.function_index.at(inst.callee());
          out.imm2 = MaskOfBits(BitWidth(type));
        } else {
          out.aux = InternExtern(inst.callee());
          const BcExtern& ext = out_.externs[out.aux];
          // Memory guards with the exact ABI arity get the inline ops;
          // malformed guard calls (and intrinsic guards, whose check is
          // not a range test) stay on the out-of-line kGuard path.
          if (ext.is_guard && inst.operand_count() == 3) {
            out.op = BcOp::kGuardInline;
          } else if (ext.is_range_guard && inst.operand_count() == 4) {
            out.op = BcOp::kGuardRange;
          } else if (ext.is_guard || ext.is_range_guard ||
                     ext.is_intrinsic_guard) {
            out.op = BcOp::kGuard;
          } else if (ext.is_cfi_check && inst.operand_count() == 2) {
            out.op = BcOp::kCfiCheck;
          } else {
            out.op = BcOp::kCallExtern;
          }
          out.imm2 = ordinal;
        }
        return out;
      }
      case Opcode::kFuncAddr: {
        const int index = module_.FunctionIndex(inst.callee());
        if (index < 0) {
          return Internal("funcaddr of unknown function @" + inst.callee());
        }
        out.op = BcOp::kFuncAddr;
        KOP_ASSIGN_OR_RETURN(out.dst, RegOf(&inst));
        out.imm = FunctionAddressForIndex(static_cast<size_t>(index));
        return out;
      }
      case Opcode::kCallIndirect: {
        const uint64_t ordinal = call_ordinal_++;
        const uint32_t arg_offset =
            static_cast<uint32_t>(bf_.call_args.size());
        for (size_t i = 1; i < inst.operand_count(); ++i) {
          KOP_ASSIGN_OR_RETURN(const uint16_t r, RegOf(inst.operand(i)));
          bf_.call_args.push_back(r);
        }
        out.op = BcOp::kCallIndirect;
        KOP_ASSIGN_OR_RETURN(out.a, RegOf(inst.operand(0)));
        out.b = static_cast<uint16_t>(inst.operand_count() - 1);
        out.imm = arg_offset;
        out.imm2 = ordinal;
        out.width = static_cast<uint8_t>(BitWidth(type));
        if (type != Type::kVoid) {
          KOP_ASSIGN_OR_RETURN(out.dst, RegOf(&inst));
        }
        return out;
      }
      case Opcode::kInlineAsm:
        out.op = BcOp::kTrap;
        out.aux = static_cast<uint32_t>(bf_.asm_texts.size());
        bf_.asm_texts.push_back(inst.asm_text());
        return out;
      case Opcode::kPhi:
        break;  // handled by the caller; unreachable here
    }
    return Internal("unsupported opcode in bytecode lowering");
  }

  Status ResolveBranchTargets() {
    for (BcInst& inst : bf_.code) {
      if (inst.op == BcOp::kBr) {
        inst.aux = block_pc_[inst.aux];
        inst.imm = block_pc_[inst.imm];
      } else if (inst.op == BcOp::kJmp) {
        inst.aux = block_pc_[inst.aux];
      }
    }
    return OkStatus();
  }

  const Module& module_;
  const Function& fn_;
  BytecodeModule& out_;
  uint64_t& call_ordinal_;
  BytecodeFunction bf_;
  uint16_t next_reg_ = 0;
  std::vector<uint64_t> template_values_;
  std::vector<uint32_t> block_pc_;
  std::unordered_map<std::string, uint32_t> extern_index_;
};

}  // namespace

std::string_view BcOpName(BcOp op) {
  switch (op) {
    case BcOp::kAlloca: return "alloca";
    case BcOp::kLoad: return "load";
    case BcOp::kStore: return "store";
    case BcOp::kGep: return "gep";
    case BcOp::kAdd: return "add";
    case BcOp::kSub: return "sub";
    case BcOp::kMul: return "mul";
    case BcOp::kUDiv: return "udiv";
    case BcOp::kSDiv: return "sdiv";
    case BcOp::kURem: return "urem";
    case BcOp::kSRem: return "srem";
    case BcOp::kAnd: return "and";
    case BcOp::kOr: return "or";
    case BcOp::kXor: return "xor";
    case BcOp::kShl: return "shl";
    case BcOp::kLShr: return "lshr";
    case BcOp::kAShr: return "ashr";
    case BcOp::kICmp: return "icmp";
    case BcOp::kMove: return "move";
    case BcOp::kSExt: return "sext";
    case BcOp::kSelect: return "select";
    case BcOp::kBr: return "br";
    case BcOp::kJmp: return "jmp";
    case BcOp::kRetVoid: return "ret.void";
    case BcOp::kRet: return "ret";
    case BcOp::kCallInternal: return "call.int";
    case BcOp::kCallExtern: return "call.ext";
    case BcOp::kGuard: return "guard";
    case BcOp::kGuardInline: return "guard.inline";
    case BcOp::kGuardRange: return "guard.range";
    case BcOp::kCfiCheck: return "cfi.check";
    case BcOp::kFuncAddr: return "funcaddr";
    case BcOp::kCallIndirect: return "call.ind";
    case BcOp::kTrap: return "trap";
  }
  return "?";
}

Result<BytecodeModule> CompileToBytecode(const Module& module) {
  BytecodeModule bc;
  bc.name = module.name();
  uint32_t defined = 0;
  for (const auto& fn : module.functions()) {
    if (fn->is_external()) continue;
    bc.function_index[fn->name()] = defined++;
  }
  uint64_t call_ordinal = 0;
  bool has_icalls = false;
  for (const auto& fn : module.functions()) {
    if (fn->is_external()) continue;
    FunctionCompiler compiler(module, *fn, bc, call_ordinal);
    auto compiled = compiler.Compile();
    if (!compiled.ok()) return compiled.status();
    for (const BcInst& inst : compiled->code) {
      if (inst.op == BcOp::kCallIndirect) has_icalls = true;
    }
    bc.functions.push_back(std::move(*compiled));
  }
  // Indirect-dispatch table: one entry per IR function in declaration
  // order, mirroring the simulated address space. Extern entries intern
  // their callee after compilation so extern numbering for icall-free
  // modules is untouched.
  if (has_icalls) {
    for (const auto& fn : module.functions()) {
      BcIcallTarget target;
      if (!fn->is_external()) {
        target.is_internal = true;
        target.index = bc.function_index.at(fn->name());
      } else {
        uint32_t id = static_cast<uint32_t>(bc.externs.size());
        for (uint32_t i = 0; i < bc.externs.size(); ++i) {
          if (bc.externs[i].name == fn->name()) {
            id = i;
            break;
          }
        }
        if (id == bc.externs.size()) {
          BcExtern ext;
          ext.name = fn->name();
          ext.is_guard = fn->name() == kCaratGuardSymbol;
          ext.is_range_guard = fn->name() == kCaratGuardRangeSymbol;
          ext.is_intrinsic_guard = fn->name() == kCaratIntrinsicGuardSymbol;
          ext.is_cfi_check = fn->name() == kCaratCfiCheckSymbol;
          if (IsIntrinsicName(fn->name())) {
            ext.intrinsic = IntrinsicFromName(fn->name());
          }
          bc.externs.push_back(std::move(ext));
        }
        target.index = id;
      }
      bc.icall_targets.push_back(target);
    }
  }
  return bc;
}

std::string DisassembleBytecode(const BytecodeModule& bytecode) {
  std::ostringstream out;
  out << "bytecode module \"" << bytecode.name << "\": "
      << bytecode.functions.size() << " functions, "
      << bytecode.externs.size() << " externs\n";
  for (size_t i = 0; i < bytecode.externs.size(); ++i) {
    const BcExtern& ext = bytecode.externs[i];
    out << "  extern " << i << ": @" << ext.name;
    if (ext.is_guard) out << " [guard]";
    if (ext.is_range_guard) out << " [range-guard]";
    if (ext.is_intrinsic_guard) out << " [intrinsic-guard]";
    if (ext.is_cfi_check) out << " [cfi-check]";
    if (ext.intrinsic != Intrinsic::kNone) {
      out << " [intrinsic " << static_cast<uint64_t>(ext.intrinsic) << "]";
    }
    out << "\n";
  }
  for (const BytecodeFunction& fn : bytecode.functions) {
    out << "\nfunc @" << fn.name << ": " << fn.num_regs << " regs ("
        << fn.num_args << " args, consts r" << fn.const_reg_begin << "..r"
        << (fn.const_reg_end == 0 ? 0 : fn.const_reg_end - 1) << "), "
        << fn.code.size() << " insts\n";
    for (uint16_t r = fn.const_reg_begin; r < fn.const_reg_end; ++r) {
      out << "  r" << r << " = " << fn.frame_template[r];
      for (const BcGlobalFixup& fix : fn.global_fixups) {
        if (fix.reg == r) out << "  ; @" << bytecode.global_names[fix.global];
      }
      out << "\n";
    }
    for (size_t pc = 0; pc < fn.code.size(); ++pc) {
      const BcInst& inst = fn.code[pc];
      out << "  " << pc << ": " << BcOpName(inst.op);
      switch (inst.op) {
        case BcOp::kAlloca:
          out << " r" << inst.dst << ", " << inst.imm << " bytes";
          break;
        case BcOp::kLoad:
          out << " r" << inst.dst << ", [r" << inst.a << "], "
              << unsigned{inst.width} << "B";
          break;
        case BcOp::kStore:
          out << " [r" << inst.b << "], r" << inst.a << ", "
              << unsigned{inst.width} << "B";
          break;
        case BcOp::kGep:
          out << " r" << inst.dst << ", r" << inst.a << " + sext(r" << inst.b
              << ")*" << inst.imm2 << " + " << inst.imm;
          break;
        case BcOp::kICmp:
          out << "." << ICmpPredName(static_cast<ICmpPred>(inst.aux)) << " r"
              << inst.dst << ", r" << inst.a << ", r" << inst.b;
          break;
        case BcOp::kSelect:
          out << " r" << inst.dst << ", r" << inst.a << " ? r" << inst.b
              << " : r" << inst.aux;
          break;
        case BcOp::kBr:
          out << " r" << inst.a << ", " << inst.aux << ", " << inst.imm;
          if (inst.dst != kNoMoves) out << " [moves " << inst.dst << "]";
          if (inst.b != kNoMoves) out << " [moves' " << inst.b << "]";
          break;
        case BcOp::kJmp:
          out << " " << inst.aux;
          if (inst.dst != kNoMoves) out << " [moves " << inst.dst << "]";
          break;
        case BcOp::kRetVoid:
          break;
        case BcOp::kRet:
          out << " r" << inst.a;
          break;
        case BcOp::kFuncAddr:
          out << " r" << inst.dst << ", 0x" << std::hex << inst.imm
              << std::dec;
          break;
        case BcOp::kCallIndirect: {
          out << " [r" << inst.a << "] ord " << inst.imm2 << " (";
          for (uint16_t i = 0; i < inst.b; ++i) {
            out << (i ? ", " : "") << "r" << fn.call_args[inst.imm + i];
          }
          out << ")";
          if (inst.width != 0) out << " -> r" << inst.dst;
          break;
        }
        case BcOp::kCallInternal:
        case BcOp::kCallExtern:
        case BcOp::kGuard:
        case BcOp::kGuardInline:
        case BcOp::kGuardRange:
        case BcOp::kCfiCheck: {
          if (inst.op == BcOp::kCallInternal) {
            out << " @" << bytecode.functions[inst.aux].name;
          } else {
            out << " @" << bytecode.externs[inst.aux].name << " ord "
                << inst.imm2;
          }
          out << " (";
          for (uint16_t i = 0; i < inst.b; ++i) {
            out << (i ? ", " : "") << "r" << fn.call_args[inst.imm + i];
          }
          out << ")";
          if (inst.width != 0) out << " -> r" << inst.dst;
          break;
        }
        case BcOp::kTrap:
          out << " \"" << fn.asm_texts[inst.aux] << "\"";
          break;
        default:
          out << " r" << inst.dst << ", r" << inst.a << ", r" << inst.b;
          break;
      }
      out << "\n";
    }
    for (size_t m = 0; m < fn.edge_moves.size(); ++m) {
      out << "  moves " << m << ":";
      for (const BcMove& move : fn.edge_moves[m]) {
        out << " r" << move.dst << "<-r" << move.src;
      }
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace kop::kir
