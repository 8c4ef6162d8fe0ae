#include "kop/kir/parser.hpp"

#include <array>
#include <charconv>
#include <climits>
#include <vector>

namespace kop::kir {
namespace {

// ---------------------------------------------------------------- lexer --

enum class TokKind : uint8_t {
  kEof,
  kIdent,    // keywords, type names, labels
  kLocal,    // %name
  kGlobal,   // @name
  kInt,      // 123, 0x7b, -5
  kString,   // "..."
  kPunct,    // single char: ( ) { } , : [ ] =
  kArrow,    // ->
};

/// `text` views the source (a name without its sigil, a string body), so a
/// token is valid only while the text handed to ParseModule is.
struct Token {
  TokKind kind = TokKind::kEof;
  char punct = 0;  // kPunct: the character
  int line = 0;
  std::string_view text;
  uint64_t int_value = 0;
};

// Character classes of the "C" locale, one table load per test.
enum : uint8_t {
  kSpace = 1,
  kDigit = 2,
  kXDigit = 4,
  kIdentStart = 8,
  kIdentBody = 16,
  kPunctChar = 32,
};

constexpr std::array<uint8_t, 256> MakeCharClasses() {
  std::array<uint8_t, 256> classes{};
  for (char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    classes[static_cast<unsigned char>(c)] |= kSpace;
  }
  for (int c = '0'; c <= '9'; ++c) classes[c] |= kDigit | kXDigit | kIdentBody;
  for (int c = 'a'; c <= 'z'; ++c) classes[c] |= kIdentStart | kIdentBody;
  for (int c = 'A'; c <= 'Z'; ++c) classes[c] |= kIdentStart | kIdentBody;
  for (int c = 'a'; c <= 'f'; ++c) classes[c] |= kXDigit;
  for (int c = 'A'; c <= 'F'; ++c) classes[c] |= kXDigit;
  classes['_'] |= kIdentStart | kIdentBody;
  classes['.'] |= kIdentStart | kIdentBody;
  classes['$'] |= kIdentBody;
  for (char c : {'(', ')', '{', '}', ',', ':', '[', ']', '='}) {
    classes[static_cast<unsigned char>(c)] |= kPunctChar;
  }
  return classes;
}

constexpr std::array<uint8_t, 256> kCharClasses = MakeCharClasses();

bool IsClass(char c, uint8_t mask) {
  return (kCharClasses[static_cast<unsigned char>(c)] & mask) != 0;
}

/// Names and keywords are a few bytes: comparing inline beats a call to
/// memcmp.
bool SameName(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// Lexes on demand, one token per Next(). A lex error anywhere in the text
/// wins over any parse error, so the parser drains the lexer before it
/// reports one.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  /// Lex the next token into `tok`, a default Token. At the end of the
  /// text, and for good after a lex error (kept for Drain), an EOF token.
  void Next(Token* tok) {
    if (!status_.ok() || !Lex(tok)) *tok = Token{};
    if (tok->kind == TokKind::kEof) tok->line = line_;
  }

  /// Lex the rest of the text; the first lex error, if any.
  const Status& Drain() {
    Token tok;
    do {
      tok = Token{};
      Next(&tok);
    } while (tok.kind != TokKind::kEof);
    return status_;
  }

 private:
  /// False at a lex error, kept in status_.
  bool Lex(Token* tok) {
    SkipWhitespaceAndComments();
    if (pos_ >= text_.size()) return true;  // kEof
    const char c = text_[pos_];
    tok->line = line_;
    if (c == '%' || c == '@') {
      ++pos_;
      tok->kind = c == '%' ? TokKind::kLocal : TokKind::kGlobal;
      tok->text = LexIdentBody();
      if (tok->text.empty()) return Error("empty name after sigil");
    } else if (IsClass(c, kIdentStart)) {
      tok->kind = TokKind::kIdent;
      tok->text = LexIdentBody();
    } else if (IsClass(c, kDigit) || c == '-') {
      return LexNumber(tok);
    } else if (c == '"') {
      return LexString(tok);
    } else if (IsClass(c, kPunctChar)) {
      tok->kind = TokKind::kPunct;
      tok->punct = c;
      ++pos_;
    } else {
      return Error(std::string("unexpected character '") + c + "'");
    }
    return true;
  }

  bool Error(const std::string& msg) {
    status_ = InvalidArgument("kir lex error at line " +
                              std::to_string(line_) + ": " + msg);
    return false;
  }

  // The scanning loops keep the position in a local: stores through a
  // member would have to be redone after every char load.
  void SkipWhitespaceAndComments() {
    size_t pos = pos_;
    int line = line_;
    while (pos < text_.size()) {
      const char c = text_[pos];
      if (c == '\n') {
        ++line;
        ++pos;
      } else if (IsClass(c, kSpace)) {
        ++pos;
      } else if (c == ';') {
        while (pos < text_.size() && text_[pos] != '\n') ++pos;
      } else {
        break;
      }
    }
    pos_ = pos;
    line_ = line;
  }

  std::string_view LexIdentBody() {
    const size_t start = pos_;
    size_t pos = start;
    while (pos < text_.size() && IsClass(text_[pos], kIdentBody)) ++pos;
    pos_ = pos;
    return text_.substr(start, pos - start);
  }

  /// A number, or the "->" arrow that also starts with '-'. Hex digits are
  /// consumed in either base, but a decimal number's value stops at its
  /// first non-decimal digit; values saturate at 2^64-1.
  bool LexNumber(Token* tok) {
    size_t pos = pos_;
    if (text_[pos] == '-' && pos + 1 < text_.size() && text_[pos + 1] == '>') {
      pos_ = pos + 2;
      tok->kind = TokKind::kArrow;
      return true;
    }
    const bool negative = text_[pos] == '-';
    if (negative) ++pos;
    unsigned base = 10;
    if (pos + 1 < text_.size() && text_[pos] == '0' &&
        (text_[pos + 1] == 'x' || text_[pos + 1] == 'X')) {
      base = 16;
      pos += 2;
    }
    uint64_t magnitude = 0;
    bool any_digit = false;
    bool value_done = false;  // a decimal number met a hex letter
    while (pos < text_.size()) {
      const char c = text_[pos];
      if (base == 16 && c == '_') {
        ++pos;
        continue;
      }
      if (!IsClass(c, kXDigit)) break;
      ++pos;
      any_digit = true;
      const bool decimal = IsClass(c, kDigit);
      if (value_done || (base == 10 && !decimal)) {
        value_done = true;
        continue;
      }
      const uint64_t digit = decimal               ? c - '0'
                             : (c >= 'a' && c <= 'f') ? c - 'a' + 10
                                                      : c - 'A' + 10;
      if (__builtin_mul_overflow(magnitude, base, &magnitude) ||
          __builtin_add_overflow(magnitude, digit, &magnitude)) {
        magnitude = UINT64_MAX;
      }
    }
    pos_ = pos;
    if (!any_digit) return Error("malformed number");
    tok->kind = TokKind::kInt;
    tok->int_value = negative ? 0 - magnitude : magnitude;
    return true;
  }

  bool LexString(Token* tok) {
    const size_t start = ++pos_;  // past the opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\n') return Error("unterminated string");
      ++pos_;
    }
    if (pos_ >= text_.size()) return Error("unterminated string");
    tok->kind = TokKind::kString;
    tok->text = text_.substr(start, pos_ - start);
    ++pos_;  // closing quote
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  Status status_;
};

// ------------------------------------------------------------- keywords --

/// Instruction, icmp-predicate and type keywords in one table.
enum class KeywordKind : uint8_t { kOpcode, kPred, kType };

struct Keyword {
  std::string_view name;
  KeywordKind kind;
  uint8_t code;  // an Opcode, ICmpPred or Type, by kind
};

constexpr Keyword Op(std::string_view name, Opcode op) {
  return {name, KeywordKind::kOpcode, static_cast<uint8_t>(op)};
}
constexpr Keyword Pred(std::string_view name, ICmpPred pred) {
  return {name, KeywordKind::kPred, static_cast<uint8_t>(pred)};
}
constexpr Keyword Ty(Type type) {
  return {TypeName(type), KeywordKind::kType, static_cast<uint8_t>(type)};
}

constexpr Keyword kKeywords[] = {
    Op("alloca", Opcode::kAlloca),     Op("load", Opcode::kLoad),
    Op("store", Opcode::kStore),       Op("gep", Opcode::kGep),
    Op("add", Opcode::kAdd),           Op("sub", Opcode::kSub),
    Op("mul", Opcode::kMul),           Op("udiv", Opcode::kUDiv),
    Op("sdiv", Opcode::kSDiv),         Op("urem", Opcode::kURem),
    Op("srem", Opcode::kSRem),         Op("and", Opcode::kAnd),
    Op("or", Opcode::kOr),             Op("xor", Opcode::kXor),
    Op("shl", Opcode::kShl),           Op("lshr", Opcode::kLShr),
    Op("ashr", Opcode::kAShr),         Op("icmp", Opcode::kICmp),
    Op("zext", Opcode::kZExt),         Op("sext", Opcode::kSExt),
    Op("trunc", Opcode::kTrunc),       Op("ptrtoint", Opcode::kPtrToInt),
    Op("inttoptr", Opcode::kIntToPtr), Op("br", Opcode::kBr),
    Op("jmp", Opcode::kJmp),           Op("ret", Opcode::kRet),
    Op("phi", Opcode::kPhi),           Op("select", Opcode::kSelect),
    Op("call", Opcode::kCall),         Op("funcaddr", Opcode::kFuncAddr),
    Op("icall", Opcode::kCallIndirect), Op("asm", Opcode::kInlineAsm),
    Pred("eq", ICmpPred::kEq),         Pred("ne", ICmpPred::kNe),
    Pred("ult", ICmpPred::kULt),       Pred("ule", ICmpPred::kULe),
    Pred("ugt", ICmpPred::kUGt),       Pred("uge", ICmpPred::kUGe),
    Pred("slt", ICmpPred::kSLt),       Pred("sle", ICmpPred::kSLe),
    Pred("sgt", ICmpPred::kSGt),       Pred("sge", ICmpPred::kSGe),
    Ty(Type::kVoid),                   Ty(Type::kI1),
    Ty(Type::kI8),                     Ty(Type::kI16),
    Ty(Type::kI32),                    Ty(Type::kI64),
    Ty(Type::kPtr),
};

constexpr size_t kKeywordSlots = 128;  // power of two, over twice the table

constexpr size_t KeywordHash(std::string_view name) {
  size_t hash = name.size();
  for (char c : name) hash = hash * 31 + static_cast<unsigned char>(c);
  return hash & (kKeywordSlots - 1);
}

/// Open-addressing index into kKeywords: slot -> entry + 1, 0 when empty.
constexpr std::array<uint8_t, kKeywordSlots> MakeKeywordIndex() {
  std::array<uint8_t, kKeywordSlots> index{};
  for (size_t i = 0; i < std::size(kKeywords); ++i) {
    size_t slot = KeywordHash(kKeywords[i].name);
    while (index[slot] != 0) slot = (slot + 1) & (kKeywordSlots - 1);
    index[slot] = static_cast<uint8_t>(i + 1);
  }
  return index;
}

constexpr std::array<uint8_t, kKeywordSlots> kKeywordIndex = MakeKeywordIndex();
static_assert(2 * std::size(kKeywords) <= kKeywordSlots);

/// The code of keyword `name` if it is of `kind`, else -1.
int FindKeyword(std::string_view name, KeywordKind kind) {
  for (size_t slot = KeywordHash(name); kKeywordIndex[slot] != 0;
       slot = (slot + 1) & (kKeywordSlots - 1)) {
    const Keyword& keyword = kKeywords[kKeywordIndex[slot] - 1];
    if (SameName(keyword.name, name)) {
      return keyword.kind == kind ? keyword.code : -1;
    }
  }
  return -1;
}

// ------------------------------------------------------------ name maps --

/// Open-addressing map from a name to `T*`. Keys are views (into the source
/// or into a value's own name), so neither lookups nor inserts copy a name.
template <typename T>
class ViewMap {
 public:
  /// Empty the map, sized for `expected` names without growing.
  void Reset(size_t expected) {
    size_t capacity = 16;
    while (capacity < expected * 2) capacity *= 2;
    slots_.assign(capacity, Slot{});
    count_ = 0;
  }

  T* Find(std::string_view name) const { return slots_[Probe(name)].value; }

  /// Insert, or overwrite the value already held under `name`.
  void Set(std::string_view name, T* value) {
    if ((count_ + 1) * 2 > slots_.size()) Grow();
    Slot& slot = slots_[Probe(name)];
    if (slot.value == nullptr) ++count_;
    slot = {name, value};
  }

 private:
  struct Slot {
    std::string_view name;
    T* value = nullptr;
  };

  /// FNV-1a: names are a few bytes, where it beats a block hash.
  static size_t Hash(std::string_view name) {
    uint64_t hash = 0xcbf29ce484222325ull;
    for (char c : name) {
      hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
    return static_cast<size_t>(hash);
  }

  size_t Probe(std::string_view name) const {
    const size_t mask = slots_.size() - 1;
    size_t i = Hash(name) & mask;
    while (slots_[i].value != nullptr && !SameName(slots_[i].name, name)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    for (const Slot& slot : old) {
      if (slot.value != nullptr) slots_[Probe(slot.name)] = slot;
    }
  }

  std::vector<Slot> slots_ = std::vector<Slot>(16);
  size_t count_ = 0;
};

// --------------------------------------------------------------- parser --

class Parser {
 public:
  explicit Parser(Lexer& lexer) : lexer_(lexer) { tokens_.reserve(256); }

  Result<std::unique_ptr<Module>> Run() {
    KOP_RETURN_IF_ERROR(ExpectIdent("module"));
    std::string_view name;
    KOP_RETURN_IF_ERROR(ExpectString(&name));
    module_ = std::make_unique<Module>(std::string(name));

    while (!AtEof()) {
      // The window holds one top-level item at a time.
      tokens_.erase(tokens_.begin(), tokens_.begin() + pos_);
      pos_ = 0;
      if (PeekIdent("global")) {
        KOP_RETURN_IF_ERROR(ParseGlobal());
      } else if (PeekIdent("extern")) {
        KOP_RETURN_IF_ERROR(ParseExtern());
      } else if (PeekIdent("func")) {
        KOP_RETURN_IF_ERROR(ParseFunction());
      } else {
        return Err("expected 'global', 'extern' or 'func'");
      }
    }
    return std::move(module_);
  }

 private:
  /// An operand before it joins an instruction: a value, or the name of a
  /// local defined further down (patched at the end of the function).
  struct Operand {
    Value* value = nullptr;
    std::string_view forward;
  };

  struct Pending {
    Instruction* inst;
    size_t index;
    std::string_view name;
  };

  // --- token helpers ---

  /// Token `i` of the window, lexed on demand; every index past the end of
  /// the text reads the final EOF token. The reference is good until the
  /// next call lexes.
  const Token& At(size_t i) {
    return i < tokens_.size() ? tokens_[i] : LexUpTo(i);
  }
  [[gnu::noinline]] const Token& LexUpTo(size_t i) {
    while (i >= tokens_.size() &&
           (tokens_.empty() || tokens_.back().kind != TokKind::kEof)) {
      lexer_.Next(&tokens_.emplace_back());
    }
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Peek(size_t ahead = 0) { return At(pos_ + ahead); }
  const Token& Take() {
    const Token& tok = At(pos_);
    if (tok.kind != TokKind::kEof) ++pos_;
    return tok;
  }
  bool AtEof() { return Peek().kind == TokKind::kEof; }

  Status Err(std::string_view msg) {
    std::string text = "kir parse error at line ";
    text += std::to_string(Peek().line);
    text += ": ";
    text += msg;
    return InvalidArgument(std::move(text));
  }

  static bool IsPunct(const Token& tok, char c) {
    return tok.kind == TokKind::kPunct && tok.punct == c;
  }
  bool PeekIdent(std::string_view ident) {
    const Token& tok = Peek();
    return tok.kind == TokKind::kIdent && SameName(tok.text, ident);
  }
  bool PeekPunct(char c) { return IsPunct(Peek(), c); }

  Status ExpectIdent(std::string_view ident) {
    if (!PeekIdent(ident)) return Err("expected '" + std::string(ident) + "'");
    Take();
    return OkStatus();
  }
  Status ExpectPunct(char c) {
    if (!PeekPunct(c)) return Err(std::string("expected '") + c + "'");
    Take();
    return OkStatus();
  }
  Status ExpectArrow() {
    if (Peek().kind != TokKind::kArrow) return Err("expected '->'");
    Take();
    return OkStatus();
  }
  Status ExpectText(TokKind kind, std::string_view what,
                    std::string_view* out) {
    if (Peek().kind != kind) return Err(what);
    *out = Take().text;
    return OkStatus();
  }
  Status ExpectString(std::string_view* out) {
    return ExpectText(TokKind::kString, "expected string literal", out);
  }
  Status ExpectAnyIdent(std::string_view* out) {
    return ExpectText(TokKind::kIdent, "expected identifier", out);
  }
  Status ExpectLocal(std::string_view* out) {
    return ExpectText(TokKind::kLocal, "expected %name", out);
  }
  Status ExpectGlobalName(std::string_view* out) {
    return ExpectText(TokKind::kGlobal, "expected @name", out);
  }
  Status ExpectInt(uint64_t* out) {
    if (Peek().kind != TokKind::kInt) return Err("expected integer");
    *out = Take().int_value;
    return OkStatus();
  }
  Status ExpectType(Type* out) {
    if (Peek().kind != TokKind::kIdent) return Err("expected a type");
    const int type = FindKeyword(Peek().text, KeywordKind::kType);
    if (type < 0) return Err("unknown type '" + std::string(Peek().text) + "'");
    Take();
    *out = static_cast<Type>(type);
    return OkStatus();
  }

  // --- top-level items ---
  Status ParseGlobal() {
    Take();  // 'global'
    std::string_view name;
    KOP_RETURN_IF_ERROR(ExpectGlobalName(&name));
    KOP_RETURN_IF_ERROR(ExpectIdent("size"));
    uint64_t size = 0;
    KOP_RETURN_IF_ERROR(ExpectInt(&size));
    bool writable;
    if (PeekIdent("rw")) {
      writable = true;
      Take();
    } else if (PeekIdent("ro")) {
      writable = false;
      Take();
    } else {
      return Err("expected 'rw' or 'ro'");
    }
    std::string init;
    if (PeekIdent("init")) {
      Take();
      // init x"<hex>"
      if (!PeekIdent("x")) return Err("expected x\"...\" after init");
      Take();
      std::string_view hex;
      KOP_RETURN_IF_ERROR(ExpectString(&hex));
      if (hex.size() % 2 != 0) return Err("odd-length hex init");
      init.reserve(hex.size() / 2);
      auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
      };
      for (size_t i = 0; i < hex.size(); i += 2) {
        const int hi = nibble(hex[i]);
        const int lo = nibble(hex[i + 1]);
        if (hi < 0 || lo < 0) return Err("bad hex digit in init");
        init.push_back(static_cast<char>((hi << 4) | lo));
      }
      if (init.size() > size) return Err("init longer than global size");
    }
    if (module_->AddGlobal(std::string(name), size, writable,
                           std::move(init)) == nullptr) {
      return Err("duplicate global @" + std::string(name));
    }
    return OkStatus();
  }

  /// `( params ) -> type`; named params for definitions, bare types for
  /// declarations (which get the names a0, a1, ...).
  Status ParseSignature(bool named,
                        std::vector<std::pair<Type, std::string>>* params,
                        Type* ret) {
    KOP_RETURN_IF_ERROR(ExpectPunct('('));
    if (!PeekPunct(')')) {
      while (true) {
        Type type;
        KOP_RETURN_IF_ERROR(ExpectType(&type));
        if (named) {
          std::string_view param;
          KOP_RETURN_IF_ERROR(ExpectLocal(&param));
          params->emplace_back(type, std::string(param));
        } else {
          params->emplace_back(type, "a" + std::to_string(params->size()));
        }
        if (PeekPunct(',')) {
          Take();
          continue;
        }
        break;
      }
    }
    KOP_RETURN_IF_ERROR(ExpectPunct(')'));
    KOP_RETURN_IF_ERROR(ExpectArrow());
    return ExpectType(ret);
  }

  Status ParseExtern() {
    Take();  // 'extern'
    KOP_RETURN_IF_ERROR(ExpectIdent("func"));
    std::string_view name;
    KOP_RETURN_IF_ERROR(ExpectGlobalName(&name));
    std::vector<std::pair<Type, std::string>> params;
    Type ret;
    KOP_RETURN_IF_ERROR(ParseSignature(/*named=*/false, &params, &ret));
    if (module_->CreateFunction(std::string(name), ret, std::move(params),
                                /*is_external=*/true) == nullptr) {
      return Err("duplicate function @" + std::string(name));
    }
    return OkStatus();
  }

  Status ParseFunction() {
    Take();  // 'func'
    std::string_view name;
    KOP_RETURN_IF_ERROR(ExpectGlobalName(&name));
    std::vector<std::pair<Type, std::string>> params;
    Type ret;
    KOP_RETURN_IF_ERROR(ParseSignature(/*named=*/true, &params, &ret));

    Function* fn = module_->CreateFunction(std::string(name), ret,
                                           std::move(params),
                                           /*is_external=*/false);
    if (fn == nullptr) return Err("duplicate function @" + std::string(name));
    KOP_RETURN_IF_ERROR(ExpectPunct('{'));

    // Pre-scan the body for labels (ident ':') so blocks exist in source
    // order and branch targets resolve forward; count the definitions so
    // the local map is sized once.
    size_t defs = fn->arg_count();
    labels_.Reset(8);
    int depth = 1;
    for (size_t scan = pos_; depth > 0; ++scan) {
      const Token& tok = At(scan);
      const TokKind kind = tok.kind;
      if (kind == TokKind::kEof) break;
      if (IsPunct(tok, '{')) ++depth;
      if (IsPunct(tok, '}')) --depth;
      if (depth == 0) continue;
      if (kind != TokKind::kIdent && kind != TokKind::kLocal) continue;
      const std::string_view name = tok.text;  // lexing `next` may move tok
      const Token& next = At(scan + 1);
      if (kind == TokKind::kIdent && IsPunct(next, ':')) {
        if (labels_.Find(name) != nullptr) {
          return Err("duplicate label '" + std::string(name) + "'");
        }
        labels_.Set(name, fn->CreateBlock(std::string(name)));
      } else if (kind == TokKind::kLocal && IsPunct(next, '=')) {
        ++defs;
      }
    }
    if (fn->blocks().empty()) return Err("function has no blocks");

    // Value environment: arguments first.
    locals_.Reset(defs);
    pending_.clear();
    for (auto& arg : fn->args()) locals_.Set(arg->name(), arg.get());

    BasicBlock* current = nullptr;
    while (!PeekPunct('}')) {
      if (AtEof()) return Err("unexpected end of input inside function");
      if (Peek().kind == TokKind::kIdent && IsPunct(Peek(1), ':')) {
        current = labels_.Find(Take().text);
        Take();  // ':'
        continue;
      }
      if (current == nullptr) return Err("instruction before first label");
      KOP_RETURN_IF_ERROR(ParseInstruction(fn, current));
    }
    Take();  // '}'

    // Patch forward references to locals (phis).
    for (const Pending& patch : pending_) {
      Value* value = locals_.Find(patch.name);
      if (value == nullptr) {
        return InvalidArgument("kir parse error: undefined value %" +
                               std::string(patch.name) + " in @" +
                               fn->name());
      }
      patch.inst->SetOperand(patch.index, value);
    }
    return OkStatus();
  }

  // --- instruction parsing ---

  Status ParseOperand(Type type, Operand* out) {
    const Token& tok = Peek();
    if (tok.kind == TokKind::kInt) {
      Take();
      out->value = module_->GetConstant(type, tok.int_value);
      return OkStatus();
    }
    if (tok.kind == TokKind::kLocal) {
      Take();
      out->value = locals_.Find(tok.text);
      out->forward = tok.text;
      return OkStatus();
    }
    if (tok.kind == TokKind::kGlobal) {
      Take();
      GlobalVariable* global = module_->FindGlobal(tok.text);
      if (global == nullptr) {
        return Err("undefined global @" + std::string(tok.text));
      }
      out->value = global;
      return OkStatus();
    }
    return Err("expected operand");
  }

  /// Append `operand` to `inst`, leaving a pending patch for a local
  /// defined later (legal only in phis; the verifier rejects the rest).
  void AddOperand(Instruction* inst, const Operand& operand) {
    inst->AddOperand(operand.value);
    if (operand.value == nullptr) {
      pending_.push_back({inst, inst->operand_count() - 1, operand.forward});
    }
  }

  Status ParseOperandInto(Type type, Instruction* inst) {
    Operand operand;
    KOP_RETURN_IF_ERROR(ParseOperand(type, &operand));
    AddOperand(inst, operand);
    return OkStatus();
  }

  Status ParseLabelRef(BasicBlock** out) {
    std::string_view label;
    KOP_RETURN_IF_ERROR(ExpectAnyIdent(&label));
    *out = labels_.Find(label);
    if (*out == nullptr) return Err("unknown label '" + std::string(label) + "'");
    return OkStatus();
  }

  /// Arguments of a call whose '(' was just taken: the count before the
  /// matching ')' (or the end of the token run).
  size_t CountCallArgs() {
    if (PeekPunct(')')) return 0;
    size_t count = 1;
    for (size_t i = pos_;; ++i) {
      const Token& tok = At(i);
      if (tok.kind == TokKind::kEof || IsPunct(tok, ')') || IsPunct(tok, '}')) {
        break;
      }
      if (IsPunct(tok, ',')) ++count;
    }
    return count;
  }

  /// Incoming pairs of a phi at `[ v , label ]`, each 5 tokens, joined by
  /// ','.
  size_t CountPhiIncoming() {
    size_t count = 0;
    for (size_t i = pos_; IsPunct(At(i), '['); i += 6) {
      ++count;
      if (!IsPunct(At(i + 5), ',')) break;
    }
    return count;
  }

  Status ParseCallArgs(Instruction* inst) {
    KOP_RETURN_IF_ERROR(ExpectPunct('('));
    inst->ReserveOperands(inst->operand_count() + CountCallArgs());
    if (!PeekPunct(')')) {
      while (true) {
        Type arg_type;
        KOP_RETURN_IF_ERROR(ExpectType(&arg_type));
        KOP_RETURN_IF_ERROR(ParseOperandInto(arg_type, inst));
        if (PeekPunct(',')) {
          Take();
          continue;
        }
        break;
      }
    }
    return ExpectPunct(')');
  }

  /// Bind `name`, which the instruction already carries, to `inst`.
  Status DefineLocal(std::string_view name, Instruction* inst) {
    if (locals_.Find(name) != nullptr) {
      return Err("redefinition of %" + std::string(name));
    }
    // Keep the function's temp-id counter ahead of explicit %tN names so
    // pass-inserted temporaries never collide with parsed ones.
    if (name.size() > 1 && name[0] == 't' &&
        name.find_first_not_of("0123456789", 1) == std::string_view::npos) {
      unsigned long id = 0;
      if (std::from_chars(name.data() + 1, name.data() + name.size(), id).ec !=
          std::errc()) {
        id = ULONG_MAX;  // out of range saturates, as strtoul does
      }
      inst->parent()->parent()->ReserveTempId(static_cast<unsigned>(id));
    }
    locals_.Set(name, inst);
    return OkStatus();
  }

  Status Finish(Function* fn, BasicBlock* block, std::string_view def_name,
                std::unique_ptr<Instruction> inst) {
    Instruction* raw = block->Append(std::move(inst));
    if (!def_name.empty()) {
      if (raw->type() == Type::kVoid) {
        return Err("cannot name a void-valued instruction");
      }
      return DefineLocal(def_name, raw);
    }
    if (raw->type() != Type::kVoid) {
      if (raw->opcode() != Opcode::kCall &&
          raw->opcode() != Opcode::kCallIndirect) {
        return Err("value-producing instruction must be named");
      }
      // A call whose result is discarded still needs a printable name.
      std::string auto_name;
      do {
        auto_name = "t" + std::to_string(fn->TakeNextTempId());
      } while (locals_.Find(auto_name) != nullptr);
      raw->set_name(std::move(auto_name));
      locals_.Set(raw->name(), raw);
    }
    return OkStatus();
  }

  Status ParseInstruction(Function* fn, BasicBlock* block) {
    // Form 1: "%name = op ..."; Form 2: "op ..." (void ops).
    std::string_view def_name;
    if (Peek().kind == TokKind::kLocal) {
      def_name = Take().text;
      KOP_RETURN_IF_ERROR(ExpectPunct('='));
    }
    std::string_view op_name;
    KOP_RETURN_IF_ERROR(ExpectAnyIdent(&op_name));
    const int code = FindKeyword(op_name, KeywordKind::kOpcode);
    if (code < 0) {
      return Err("unknown instruction '" + std::string(op_name) + "'");
    }
    const auto opcode = static_cast<Opcode>(code);
    std::unique_ptr<Instruction> inst;
    const auto make = [&](Type type, size_t operands) {
      auto made =
          std::make_unique<Instruction>(opcode, type, std::string(def_name));
      made->ReserveOperands(operands);
      return made;
    };

    switch (opcode) {
      case Opcode::kAlloca: {
        uint64_t size = 0;
        KOP_RETURN_IF_ERROR(ExpectInt(&size));
        inst = make(Type::kPtr, 0);
        inst->set_alloca_size(size);
        break;
      }
      case Opcode::kLoad: {
        Type type;
        KOP_RETURN_IF_ERROR(ExpectType(&type));
        KOP_RETURN_IF_ERROR(ExpectPunct(','));
        inst = make(type, 1);
        inst->set_memory_type(type);
        KOP_RETURN_IF_ERROR(ParseOperandInto(Type::kPtr, inst.get()));
        break;
      }
      case Opcode::kStore: {
        Type type;
        KOP_RETURN_IF_ERROR(ExpectType(&type));
        inst = make(Type::kVoid, 2);
        inst->set_memory_type(type);
        KOP_RETURN_IF_ERROR(ParseOperandInto(type, inst.get()));
        KOP_RETURN_IF_ERROR(ExpectPunct(','));
        KOP_RETURN_IF_ERROR(ParseOperandInto(Type::kPtr, inst.get()));
        break;
      }
      case Opcode::kGep: {
        inst = make(Type::kPtr, 2);
        KOP_RETURN_IF_ERROR(ParseOperandInto(Type::kPtr, inst.get()));
        KOP_RETURN_IF_ERROR(ExpectPunct(','));
        Type index_type;
        KOP_RETURN_IF_ERROR(ExpectType(&index_type));
        KOP_RETURN_IF_ERROR(ParseOperandInto(index_type, inst.get()));
        KOP_RETURN_IF_ERROR(ExpectPunct(','));
        uint64_t scale = 0, offset = 0;
        KOP_RETURN_IF_ERROR(ExpectInt(&scale));
        inst->set_gep_scale(scale);
        KOP_RETURN_IF_ERROR(ExpectPunct(','));
        KOP_RETURN_IF_ERROR(ExpectInt(&offset));
        inst->set_gep_offset(offset);
        break;
      }
      case Opcode::kAdd: case Opcode::kSub: case Opcode::kMul:
      case Opcode::kUDiv: case Opcode::kSDiv: case Opcode::kURem:
      case Opcode::kSRem: case Opcode::kAnd: case Opcode::kOr:
      case Opcode::kXor: case Opcode::kShl: case Opcode::kLShr:
      case Opcode::kAShr: {
        Type type;
        KOP_RETURN_IF_ERROR(ExpectType(&type));
        inst = make(type, 2);
        KOP_RETURN_IF_ERROR(ParseOperandInto(type, inst.get()));
        KOP_RETURN_IF_ERROR(ExpectPunct(','));
        KOP_RETURN_IF_ERROR(ParseOperandInto(type, inst.get()));
        break;
      }
      case Opcode::kICmp: {
        std::string_view pred_name;
        KOP_RETURN_IF_ERROR(ExpectAnyIdent(&pred_name));
        const int pred = FindKeyword(pred_name, KeywordKind::kPred);
        if (pred < 0) {
          return Err("unknown icmp predicate '" + std::string(pred_name) +
                     "'");
        }
        Type type;
        KOP_RETURN_IF_ERROR(ExpectType(&type));
        inst = make(Type::kI1, 2);
        inst->set_icmp_pred(static_cast<ICmpPred>(pred));
        KOP_RETURN_IF_ERROR(ParseOperandInto(type, inst.get()));
        KOP_RETURN_IF_ERROR(ExpectPunct(','));
        KOP_RETURN_IF_ERROR(ParseOperandInto(type, inst.get()));
        break;
      }
      case Opcode::kZExt: case Opcode::kSExt: case Opcode::kTrunc:
      case Opcode::kPtrToInt: case Opcode::kIntToPtr: {
        // The result type follows the operand: "OP FROM v to TO".
        Type from, to;
        KOP_RETURN_IF_ERROR(ExpectType(&from));
        Operand operand;
        KOP_RETURN_IF_ERROR(ParseOperand(from, &operand));
        KOP_RETURN_IF_ERROR(ExpectIdent("to"));
        KOP_RETURN_IF_ERROR(ExpectType(&to));
        inst = make(to, 1);
        AddOperand(inst.get(), operand);
        break;
      }
      case Opcode::kBr: {
        inst = make(Type::kVoid, 1);
        KOP_RETURN_IF_ERROR(ParseOperandInto(Type::kI1, inst.get()));
        KOP_RETURN_IF_ERROR(ExpectPunct(','));
        BasicBlock* on_true = nullptr;
        BasicBlock* on_false = nullptr;
        KOP_RETURN_IF_ERROR(ParseLabelRef(&on_true));
        KOP_RETURN_IF_ERROR(ExpectPunct(','));
        KOP_RETURN_IF_ERROR(ParseLabelRef(&on_false));
        inst->set_true_block(on_true);
        inst->set_false_block(on_false);
        break;
      }
      case Opcode::kJmp: {
        BasicBlock* target = nullptr;
        KOP_RETURN_IF_ERROR(ParseLabelRef(&target));
        inst = make(Type::kVoid, 0);
        inst->set_true_block(target);
        break;
      }
      case Opcode::kRet: {
        const bool is_void = PeekIdent("void");
        inst = make(Type::kVoid, is_void ? 0 : 1);
        if (is_void) {
          Take();
        } else {
          Type type;
          KOP_RETURN_IF_ERROR(ExpectType(&type));
          KOP_RETURN_IF_ERROR(ParseOperandInto(type, inst.get()));
        }
        break;
      }
      case Opcode::kPhi: {
        Type type;
        KOP_RETURN_IF_ERROR(ExpectType(&type));
        inst = make(type, CountPhiIncoming());
        while (true) {
          KOP_RETURN_IF_ERROR(ExpectPunct('['));
          Operand operand;
          KOP_RETURN_IF_ERROR(ParseOperand(type, &operand));
          AddOperand(inst.get(), operand);
          KOP_RETURN_IF_ERROR(ExpectPunct(','));
          BasicBlock* from = nullptr;
          KOP_RETURN_IF_ERROR(ParseLabelRef(&from));
          inst->AddIncomingBlock(from);
          KOP_RETURN_IF_ERROR(ExpectPunct(']'));
          if (PeekPunct(',')) {
            Take();
            continue;
          }
          break;
        }
        break;
      }
      case Opcode::kSelect: {
        Operand cond;
        KOP_RETURN_IF_ERROR(ParseOperand(Type::kI1, &cond));
        KOP_RETURN_IF_ERROR(ExpectPunct(','));
        Type type;
        KOP_RETURN_IF_ERROR(ExpectType(&type));
        inst = make(type, 3);
        AddOperand(inst.get(), cond);
        KOP_RETURN_IF_ERROR(ParseOperandInto(type, inst.get()));
        KOP_RETURN_IF_ERROR(ExpectPunct(','));
        KOP_RETURN_IF_ERROR(ParseOperandInto(type, inst.get()));
        break;
      }
      case Opcode::kCall: {
        Type type;
        KOP_RETURN_IF_ERROR(ExpectType(&type));
        std::string_view callee;
        KOP_RETURN_IF_ERROR(ExpectGlobalName(&callee));
        inst = make(type, 0);
        inst->set_callee(std::string(callee));
        KOP_RETURN_IF_ERROR(ParseCallArgs(inst.get()));
        break;
      }
      case Opcode::kFuncAddr: {
        std::string_view callee;
        KOP_RETURN_IF_ERROR(ExpectGlobalName(&callee));
        inst = make(Type::kPtr, 0);
        inst->set_callee(std::string(callee));
        break;
      }
      case Opcode::kCallIndirect: {
        Type type;
        KOP_RETURN_IF_ERROR(ExpectType(&type));
        inst = make(type, 1);
        KOP_RETURN_IF_ERROR(ParseOperandInto(Type::kPtr, inst.get()));
        KOP_RETURN_IF_ERROR(ParseCallArgs(inst.get()));
        break;
      }
      case Opcode::kInlineAsm: {
        std::string_view text;
        KOP_RETURN_IF_ERROR(ExpectString(&text));
        inst = make(Type::kVoid, 0);
        inst->set_asm_text(std::string(text));
        break;
      }
    }
    return Finish(fn, block, def_name, std::move(inst));
  }

  Lexer& lexer_;
  std::vector<Token> tokens_;  // the window: the current top-level item
  size_t pos_ = 0;
  std::unique_ptr<Module> module_;
  ViewMap<Value> locals_;
  ViewMap<BasicBlock> labels_;
  std::vector<Pending> pending_;
};

}  // namespace

Result<std::unique_ptr<Module>> ParseModule(std::string_view text) {
  Lexer lexer(text);
  auto module = Parser(lexer).Run();
  KOP_RETURN_IF_ERROR(lexer.Drain());
  return module;
}

}  // namespace kop::kir
