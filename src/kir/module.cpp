#include "kop/kir/module.hpp"

namespace kop::kir {

Function::Function(std::string name, Type return_type,
                   std::vector<std::pair<Type, std::string>> params,
                   bool is_external, Module* parent)
    : name_(std::move(name)),
      return_type_(return_type),
      is_external_(is_external),
      parent_(parent) {
  args_.reserve(params.size());
  unsigned index = 0;
  for (auto& [type, param_name] : params) {
    args_.push_back(
        std::make_unique<Argument>(type, std::move(param_name), index++));
  }
}

BasicBlock* Function::CreateBlock(const std::string& label) {
  std::string unique = label;
  int suffix = 1;
  while (FindBlock(unique) != nullptr) {
    unique = label + "." + std::to_string(suffix++);
  }
  blocks_.push_back(std::make_unique<BasicBlock>(unique, this));
  return blocks_.back().get();
}

BasicBlock* Function::FindBlock(const std::string& label) {
  for (auto& block : blocks_) {
    if (block->label() == label) return block.get();
  }
  return nullptr;
}

size_t Function::InstructionCount() const {
  size_t count = 0;
  for (const auto& block : blocks_) count += block->size();
  return count;
}

Constant* Module::GetConstant(Type type, uint64_t bits) {
  bits = ClampToType(bits, type);
  auto key = std::make_pair(type, bits);
  auto it = constants_.find(key);
  if (it != constants_.end()) return it->second.get();
  auto constant = std::make_unique<Constant>(type, bits);
  Constant* raw = constant.get();
  constants_.emplace(key, std::move(constant));
  return raw;
}

GlobalVariable* Module::AddGlobal(const std::string& name, uint64_t size_bytes,
                                  bool writable, std::string init_bytes) {
  if (FindGlobal(name) != nullptr) return nullptr;
  globals_.push_back(std::make_unique<GlobalVariable>(
      name, size_bytes, writable, std::move(init_bytes)));
  return globals_.back().get();
}

GlobalVariable* Module::FindGlobal(std::string_view name) {
  for (auto& global : globals_) {
    if (global->name() == name) return global.get();
  }
  return nullptr;
}

Function* Module::CreateFunction(
    const std::string& name, Type return_type,
    std::vector<std::pair<Type, std::string>> params, bool is_external) {
  if (FindFunction(name) != nullptr) return nullptr;
  functions_.push_back(std::make_unique<Function>(
      name, return_type, std::move(params), is_external, this));
  return functions_.back().get();
}

Function* Module::FindFunction(const std::string& name) {
  for (auto& fn : functions_) {
    if (fn->name() == name) return fn.get();
  }
  return nullptr;
}

const Function* Module::FindFunction(const std::string& name) const {
  for (const auto& fn : functions_) {
    if (fn->name() == name) return fn.get();
  }
  return nullptr;
}

std::vector<std::string> Module::ExternalFunctionNames() const {
  std::vector<std::string> out;
  for (const auto& fn : functions_) {
    if (fn->is_external()) out.push_back(fn->name());
  }
  return out;
}

int Module::FunctionIndex(const std::string& name) const {
  for (size_t i = 0; i < functions_.size(); ++i) {
    if (functions_[i]->name() == name) return static_cast<int>(i);
  }
  return -1;
}

size_t Module::InstructionCount() const {
  size_t count = 0;
  for (const auto& fn : functions_) count += fn->InstructionCount();
  return count;
}

size_t Module::MemoryAccessCount() const {
  size_t count = 0;
  for (const auto& fn : functions_) {
    for (const auto& block : fn->blocks()) {
      for (const auto& inst : *block) {
        if (inst->IsMemoryAccess()) ++count;
      }
    }
  }
  return count;
}

}  // namespace kop::kir
