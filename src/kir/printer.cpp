#include "kop/kir/printer.hpp"

#include <charconv>

#include "kop/kir/type.hpp"

namespace kop::kir {

std::string_view OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kAlloca: return "alloca";
    case Opcode::kLoad: return "load";
    case Opcode::kStore: return "store";
    case Opcode::kGep: return "gep";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kUDiv: return "udiv";
    case Opcode::kSDiv: return "sdiv";
    case Opcode::kURem: return "urem";
    case Opcode::kSRem: return "srem";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kShl: return "shl";
    case Opcode::kLShr: return "lshr";
    case Opcode::kAShr: return "ashr";
    case Opcode::kICmp: return "icmp";
    case Opcode::kZExt: return "zext";
    case Opcode::kSExt: return "sext";
    case Opcode::kTrunc: return "trunc";
    case Opcode::kPtrToInt: return "ptrtoint";
    case Opcode::kIntToPtr: return "inttoptr";
    case Opcode::kBr: return "br";
    case Opcode::kJmp: return "jmp";
    case Opcode::kRet: return "ret";
    case Opcode::kPhi: return "phi";
    case Opcode::kSelect: return "select";
    case Opcode::kCall: return "call";
    case Opcode::kFuncAddr: return "funcaddr";
    case Opcode::kCallIndirect: return "icall";
    case Opcode::kInlineAsm: return "asm";
  }
  return "?";
}

std::string_view ICmpPredName(ICmpPred pred) {
  switch (pred) {
    case ICmpPred::kEq: return "eq";
    case ICmpPred::kNe: return "ne";
    case ICmpPred::kULt: return "ult";
    case ICmpPred::kULe: return "ule";
    case ICmpPred::kUGt: return "ugt";
    case ICmpPred::kUGe: return "uge";
    case ICmpPred::kSLt: return "slt";
    case ICmpPred::kSLe: return "sle";
    case ICmpPred::kSGt: return "sgt";
    case ICmpPred::kSGe: return "sge";
  }
  return "?";
}

namespace {

/// Append every part (strings, views, chars) to `out`.
template <typename... Parts>
void Cat(std::string& out, const Parts&... parts) {
  ((out += parts), ...);
}

void AppendUnsigned(std::string& out, uint64_t value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

void AppendOperand(std::string& out, const Value* v) {
  switch (v->kind()) {
    case ValueKind::kConstant:
      return AppendUnsigned(out, static_cast<const Constant*>(v)->bits());
    case ValueKind::kArgument:
    case ValueKind::kInstruction:
      return Cat(out, '%', v->name());
    case ValueKind::kGlobal:
      return Cat(out, '@', v->name());
  }
  out += '?';
}

void AppendInstruction(std::string& out, const Instruction& inst) {
  const auto def = [&] { Cat(out, '%', inst.name(), " = "); };
  const auto operand = [&](size_t i) { AppendOperand(out, inst.operand(i)); };
  // "TYPE v", typed by the operand itself.
  const auto typed = [&](size_t i) {
    Cat(out, TypeName(inst.operand(i)->type()), ' ');
    operand(i);
  };
  const auto two_operands = [&] {
    operand(0);
    out += ", ";
    operand(1);
  };
  // "(TYPE v, ...)" over the operands from `first` on.
  const auto call_args = [&](size_t first) {
    out += '(';
    for (size_t i = first; i < inst.operand_count(); ++i) {
      if (i > first) out += ", ";
      typed(i);
    }
    out += ')';
  };

  switch (inst.opcode()) {
    case Opcode::kAlloca:
      def();
      out += "alloca ";
      return AppendUnsigned(out, inst.alloca_size());
    case Opcode::kLoad:
      def();
      Cat(out, "load ", TypeName(inst.memory_type()), ", ");
      return operand(0);
    case Opcode::kStore:
      Cat(out, "store ", TypeName(inst.memory_type()), ' ');
      return two_operands();
    case Opcode::kGep:
      def();
      out += "gep ";
      operand(0);
      out += ", ";
      typed(1);
      out += ", ";
      AppendUnsigned(out, inst.gep_scale());
      out += ", ";
      return AppendUnsigned(out, inst.gep_offset());
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
      def();
      Cat(out, OpcodeName(inst.opcode()), ' ', TypeName(inst.type()), ' ');
      return two_operands();
    case Opcode::kICmp:
      def();
      Cat(out, "icmp ", ICmpPredName(inst.icmp_pred()), ' ',
          TypeName(inst.operand(0)->type()), ' ');
      return two_operands();
    case Opcode::kZExt:
    case Opcode::kSExt:
    case Opcode::kTrunc:
    case Opcode::kPtrToInt:
    case Opcode::kIntToPtr:
      def();
      Cat(out, OpcodeName(inst.opcode()), ' ');
      typed(0);
      return Cat(out, " to ", TypeName(inst.type()));
    case Opcode::kBr:
      out += "br ";
      operand(0);
      return Cat(out, ", ", inst.true_block()->label(), ", ",
                 inst.false_block()->label());
    case Opcode::kJmp:
      return Cat(out, "jmp ", inst.true_block()->label());
    case Opcode::kRet:
      if (inst.operand_count() == 0) return Cat(out, "ret void");
      out += "ret ";
      return typed(0);
    case Opcode::kPhi:
      def();
      Cat(out, "phi ", TypeName(inst.type()));
      for (size_t i = 0; i < inst.operand_count(); ++i) {
        out += i == 0 ? " [ " : ", [ ";
        operand(i);
        Cat(out, ", ", inst.incoming_blocks()[i]->label(), " ]");
      }
      return;
    case Opcode::kSelect:
      def();
      out += "select ";
      operand(0);
      Cat(out, ", ", TypeName(inst.type()), ' ');
      operand(1);
      out += ", ";
      return operand(2);
    case Opcode::kCall:
      if (inst.type() != Type::kVoid) def();
      Cat(out, "call ", TypeName(inst.type()), " @", inst.callee());
      return call_args(0);
    case Opcode::kFuncAddr:
      def();
      return Cat(out, "funcaddr @", inst.callee());
    case Opcode::kCallIndirect:
      if (inst.type() != Type::kVoid) def();
      Cat(out, "icall ", TypeName(inst.type()), ' ');
      operand(0);
      return call_args(1);
    case Opcode::kInlineAsm:
      return Cat(out, "asm \"", inst.asm_text(), '"');
  }
}

void AppendFunction(std::string& out, const Function& fn) {
  Cat(out, fn.is_external() ? "extern func @" : "func @", fn.name(), '(');
  for (size_t i = 0; i < fn.arg_count(); ++i) {
    const Argument* arg = fn.args()[i].get();
    if (i > 0) out += ", ";
    out += TypeName(arg->type());
    if (!fn.is_external()) Cat(out, " %", arg->name());
  }
  Cat(out, ") -> ", TypeName(fn.return_type()));
  if (fn.is_external()) {
    out += '\n';
    return;
  }
  out += " {\n";
  for (const auto& block : fn.blocks()) {
    Cat(out, block->label(), ":\n");
    for (const auto& inst : *block) {
      out += "  ";
      AppendInstruction(out, *inst);
      out += '\n';
    }
  }
  out += "}\n";
}

}  // namespace

std::string PrintInstruction(const Instruction& inst) {
  std::string out;
  AppendInstruction(out, inst);
  return out;
}

std::string PrintFunction(const Function& fn) {
  std::string out;
  AppendFunction(out, fn);
  return out;
}

std::string PrintModule(const Module& module) {
  // About 32 bytes a printed instruction; one reservation covers the
  // module in the common case.
  std::string out;
  out.reserve(256 + 32 * module.InstructionCount());
  Cat(out, "module \"", module.name(), "\"\n\n");
  static const char* kHexDigits = "0123456789abcdef";
  for (const auto& global : module.globals()) {
    Cat(out, "global @", global->name(), " size ");
    AppendUnsigned(out, global->size_bytes());
    out += global->writable() ? " rw" : " ro";
    if (!global->init_bytes().empty()) {
      out += " init x\"";
      for (unsigned char byte : global->init_bytes()) {
        Cat(out, kHexDigits[byte >> 4], kHexDigits[byte & 0xf]);
      }
      out += '"';
    }
    out += '\n';
  }
  if (!module.globals().empty()) out += '\n';
  for (const auto& fn : module.functions()) {
    AppendFunction(out, *fn);
    out += '\n';
  }
  return out;
}

}  // namespace kop::kir
