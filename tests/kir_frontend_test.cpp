// KIR front end: a malformed-input regression suite for the parser and
// byte pins on the printer. The expected strings and digests were recorded
// from the parser and printer this front end replaced, so any drift in an
// error message, a line number, a parsed value or a printed byte fails
// here.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "kop/kir/kir.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/signing/sha256.hpp"
#include "kop/transform/compiler.hpp"

namespace kop::kir {
namespace {

/// What the front end makes of `text`: the parse error, else the verifier
/// error, else "ok" and the module printed back.
std::string Outcome(std::string_view text) {
  auto module = ParseModule(text);
  if (!module.ok()) return module.status().ToString();
  const Status verified = VerifyModule(**module);
  if (!verified.ok()) return verified.ToString();
  return "ok\n" + PrintModule(**module);
}

std::string Digest(std::string_view text) {
  return signing::DigestHex(signing::Sha256::Hash(text));
}

// ------------------------------------------------------ malformed input --

struct Malformed {
  const char* name;
  const char* text;
  const char* outcome;
};

const Malformed kMalformed[] = {
    {"empty_input",
     "",
     "invalid_argument: kir parse error at line 1: expected 'module'"},
    {"lex_empty_global_sigil",
     "module \"m\"\n"
     "global @ size 8 rw\n",
     "invalid_argument: kir lex error at line 2: empty name after sigil"},
    {"lex_empty_local_sigil",
     "module \"m\"\n"
     "func @f() -> void {\n"
     "entry:\n"
     "  % = add i64 1, 2\n"
     "}\n",
     "invalid_argument: kir lex error at line 4: empty name after sigil"},
    {"lex_lone_minus",
     "module \"m\"\n"
     "global @g size - rw\n",
     "invalid_argument: kir lex error at line 2: malformed number"},
    {"lex_hex_prefix_without_digits",
     "module \"m\"\n"
     "global @g size 0xz rw\n",
     "invalid_argument: kir lex error at line 2: malformed number"},
    {"lex_string_broken_by_newline",
     "module \"m\n"
     "\"\n",
     "invalid_argument: kir lex error at line 1: unterminated string"},
    {"lex_string_at_eof",
     "module \"m",
     "invalid_argument: kir lex error at line 1: unterminated string"},
    {"lex_unexpected_character",
     "module \"m\"\n"
     "#\n",
     "invalid_argument: kir lex error at line 2: unexpected character '#'"},
    {"lex_error_beats_earlier_parse_error",
     "bogus\n"
     "\n"
     "$\n",
     "invalid_argument: kir lex error at line 3: unexpected character '$'"},
    {"expected_module",
     "mod \"m\"\n",
     "invalid_argument: kir parse error at line 1: expected 'module'"},
    {"expected_module_name",
     "module m\n",
     "invalid_argument: kir parse error at line 1: expected string literal"},
    {"expected_top_level_item",
     "module \"m\"\n"
     "foo\n",
     "invalid_argument: kir parse error at line 2: expected 'global', 'exter"
     "n' or 'func'"},
    {"global_expected_name",
     "module \"m\"\n"
     "global g size 8 rw\n",
     "invalid_argument: kir parse error at line 2: expected @name"},
    {"global_expected_size",
     "module \"m\"\n"
     "global @g 8 rw\n",
     "invalid_argument: kir parse error at line 2: expected 'size'"},
    {"global_expected_integer",
     "module \"m\"\n"
     "global @g size rw\n",
     "invalid_argument: kir parse error at line 2: expected integer"},
    {"global_expected_access",
     "module \"m\"\n"
     "global @g size 8 rx\n",
     "invalid_argument: kir parse error at line 2: expected 'rw' or 'ro'"},
    {"global_init_without_x",
     "module \"m\"\n"
     "global @g size 8 rw init \"00\"\n",
     "invalid_argument: kir parse error at line 2: expected x\"...\" after i"
     "nit"},
    {"global_init_odd_length",
     "module \"m\"\n"
     "global @g size 8 rw init x\"abc\"\n",
     "invalid_argument: kir parse error at line 3: odd-length hex init"},
    {"global_init_bad_digit",
     "module \"m\"\n"
     "global @g size 8 rw init x\"zz\"\n",
     "invalid_argument: kir parse error at line 3: bad hex digit in init"},
    {"global_init_too_long",
     "module \"m\"\n"
     "global @g size 1 rw init x\"0102\"\n",
     "invalid_argument: kir parse error at line 3: init longer than global s"
     "ize"},
    {"global_duplicate",
     "module \"m\"\n"
     "global @g size 8 rw\n"
     "global @g size 8 ro\n",
     "invalid_argument: kir parse error at line 4: duplicate global @g"},
    {"extern_expected_func",
     "module \"m\"\n"
     "extern @f(i64) -> void\n",
     "invalid_argument: kir parse error at line 2: expected 'func'"},
    {"extern_unknown_type",
     "module \"m\"\n"
     "extern func @f(i128) -> void\n",
     "invalid_argument: kir parse error at line 2: unknown type 'i128'"},
    {"extern_expected_type",
     "module \"m\"\n"
     "extern func @f(%x) -> void\n",
     "invalid_argument: kir parse error at line 2: expected a type"},
    {"extern_expected_close",
     "module \"m\"\n"
     "extern func @f(i64 i64) -> void\n",
     "invalid_argument: kir parse error at line 2: expected ')'"},
    {"extern_expected_arrow",
     "module \"m\"\n"
     "extern func @f(i64) void\n",
     "invalid_argument: kir parse error at line 2: expected '->'"},
    {"extern_duplicate",
     "module \"m\"\n"
     "extern func @f() -> void\n"
     "extern func @f() -> void\n",
     "invalid_argument: kir parse error at line 4: duplicate function @f"},
    {"func_expected_param_name",
     "module \"m\"\n"
     "func @f(i64) -> void {\n"
     "entry:\n"
     "  ret void\n"
     "}\n",
     "invalid_argument: kir parse error at line 2: expected %name"},
    {"func_truncated_params",
     "module \"m\"\n"
     "func @f(\n",
     "invalid_argument: kir parse error at line 3: expected a type"},
    {"func_expected_open_brace",
     "module \"m\"\n"
     "func @f() -> void\n"
     "entry:\n"
     "  ret void\n",
     "invalid_argument: kir parse error at line 3: expected '{'"},
    {"func_no_blocks",
     "module \"m\"\n"
     "func @f() -> void {\n"
     "}\n",
     "invalid_argument: kir parse error at line 3: function has no blocks"},
    {"func_duplicate_label",
     "module \"m\"\n"
     "func @f() -> void {\n"
     "entry:\n"
     "  jmp entry\n"
     "entry:\n"
     "  ret void\n"
     "}\n",
     "invalid_argument: kir parse error at line 3: duplicate label 'entry'"},
    {"func_instruction_before_label",
     "module \"m\"\n"
     "func @f() -> void {\n"
     "  ret void\n"
     "entry:\n"
     "  ret void\n"
     "}\n",
     "invalid_argument: kir parse error at line 3: instruction before first "
     "label"},
    {"func_unterminated",
     "module \"m\"\n"
     "func @f() -> void {\n"
     "entry:\n"
     "  ret void\n",
     "invalid_argument: kir parse error at line 5: unexpected end of input i"
     "nside function"},
    {"func_duplicate",
     "module \"m\"\n"
     "func @f() -> void {\n"
     "entry:\n"
     "  ret void\n"
     "}\n"
     "func @f() -> void {\n"
     "entry:\n"
     "  ret void\n"
     "}\n",
     "invalid_argument: kir parse error at line 6: duplicate function @f"},
    {"undefined_local",
     "module \"m\"\n"
     "func @f() -> i64 {\n"
     "entry:\n"
     "  ret i64 %nope\n"
     "}\n",
     "invalid_argument: kir parse error: undefined value %nope in @f"},
    {"undefined_global",
     "module \"m\"\n"
     "func @f() -> i64 {\n"
     "entry:\n"
     "  %v = load i64, @nope\n"
     "  ret i64 %v\n"
     "}\n",
     "invalid_argument: kir parse error at line 5: undefined global @nope"},
    {"unknown_instruction",
     "module \"m\"\n"
     "func @f() -> void {\n"
     "entry:\n"
     "  frobnicate 1\n"
     "}\n",
     "invalid_argument: kir parse error at line 4: unknown instruction 'frob"
     "nicate'"},
    {"expected_equals",
     "module \"m\"\n"
     "func @f() -> void {\n"
     "entry:\n"
     "  %x add i64 1, 2\n"
     "}\n",
     "invalid_argument: kir parse error at line 4: expected '='"},
    {"expected_opcode",
     "module \"m\"\n"
     "func @f() -> void {\n"
     "entry:\n"
     "  %x = 5\n"
     "}\n",
     "invalid_argument: kir parse error at line 4: expected identifier"},
    {"name_void_instruction",
     "module \"m\"\n"
     "func @f(ptr %p) -> void {\n"
     "entry:\n"
     "  %x = store i64 1, %p\n"
     "  ret void\n"
     "}\n",
     "invalid_argument: kir parse error at line 5: cannot name a void-valued"
     " instruction"},
    {"unnamed_value",
     "module \"m\"\n"
     "func @f() -> void {\n"
     "entry:\n"
     "  add i64 1, 2\n"
     "  ret void\n"
     "}\n",
     "invalid_argument: kir parse error at line 5: value-producing instructi"
     "on must be named"},
    {"redefined_local",
     "module \"m\"\n"
     "func @f(i64 %x) -> i64 {\n"
     "entry:\n"
     "  %x = add i64 1, 2\n"
     "  ret i64 %x\n"
     "}\n",
     "invalid_argument: kir parse error at line 5: redefinition of %x"},
    {"expected_operand",
     "module \"m\"\n"
     "func @f() -> i64 {\n"
     "entry:\n"
     "  ret i64 ,\n"
     "}\n",
     "invalid_argument: kir parse error at line 4: expected operand"},
    {"unknown_label",
     "module \"m\"\n"
     "func @f() -> void {\n"
     "entry:\n"
     "  jmp nowhere\n"
     "}\n",
     "invalid_argument: kir parse error at line 5: unknown label 'nowhere'"},
    {"expected_label",
     "module \"m\"\n"
     "func @f() -> void {\n"
     "entry:\n"
     "  jmp 3\n"
     "}\n",
     "invalid_argument: kir parse error at line 4: expected identifier"},
    {"unknown_predicate",
     "module \"m\"\n"
     "func @f() -> i1 {\n"
     "entry:\n"
     "  %c = icmp foo i64 1, 2\n"
     "  ret i1 %c\n"
     "}\n",
     "invalid_argument: kir parse error at line 4: unknown icmp predicate 'f"
     "oo'"},
    {"cast_expected_to",
     "module \"m\"\n"
     "func @f() -> i64 {\n"
     "entry:\n"
     "  %c = zext i8 1 i64\n"
     "  ret i64 %c\n"
     "}\n",
     "invalid_argument: kir parse error at line 4: expected 'to'"},
    {"br_expected_comma",
     "module \"m\"\n"
     "func @f(i1 %c) -> void {\n"
     "entry:\n"
     "  br %c a, b\n"
     "a:\n"
     "  ret void\n"
     "b:\n"
     "  ret void\n"
     "}\n",
     "invalid_argument: kir parse error at line 4: expected ','"},
    {"phi_expected_bracket",
     "module \"m\"\n"
     "func @f() -> i64 {\n"
     "entry:\n"
     "  jmp m\n"
     "m:\n"
     "  %p = phi i64 1, entry\n"
     "  ret i64 %p\n"
     "}\n",
     "invalid_argument: kir parse error at line 6: expected '['"},
    {"call_expected_paren",
     "module \"m\"\n"
     "extern func @g() -> void\n"
     "func @f() -> void {\n"
     "entry:\n"
     "  call void @g\n"
     "  ret void\n"
     "}\n",
     "invalid_argument: kir parse error at line 6: expected '('"},
    {"call_expected_callee",
     "module \"m\"\n"
     "func @f() -> void {\n"
     "entry:\n"
     "  call void g()\n"
     "  ret void\n"
     "}\n",
     "invalid_argument: kir parse error at line 4: expected @name"},
    {"asm_expected_string",
     "module \"m\"\n"
     "func @f() -> void {\n"
     "entry:\n"
     "  asm nop\n"
     "  ret void\n"
     "}\n",
     "invalid_argument: kir parse error at line 4: expected string literal"},
    {"funcaddr_expected_name",
     "module \"m\"\n"
     "func @f() -> ptr {\n"
     "entry:\n"
     "  %a = funcaddr f\n"
     "  ret ptr %a\n"
     "}\n",
     "invalid_argument: kir parse error at line 4: expected @name"},
    {"icall_expected_paren",
     "module \"m\"\n"
     "func @f(ptr %t) -> void {\n"
     "entry:\n"
     "  icall void %t\n"
     "  ret void\n"
     "}\n",
     "invalid_argument: kir parse error at line 5: expected '('"},
    {"gep_expected_scale",
     "module \"m\"\n"
     "func @f(ptr %p) -> ptr {\n"
     "entry:\n"
     "  %q = gep %p, i64 1, x, 0\n"
     "  ret ptr %q\n"
     "}\n",
     "invalid_argument: kir parse error at line 4: expected integer"},
    {"alloca_expected_size",
     "module \"m\"\n"
     "func @f() -> ptr {\n"
     "entry:\n"
     "  %a = alloca x\n"
     "  ret ptr %a\n"
     "}\n",
     "invalid_argument: kir parse error at line 4: expected integer"},
    {"select_expected_comma",
     "module \"m\"\n"
     "func @f(i1 %c) -> i64 {\n"
     "entry:\n"
     "  %s = select %c i64 1, 2\n"
     "  ret i64 %s\n"
     "}\n",
     "invalid_argument: kir parse error at line 4: expected ','"},
    {"ret_unknown_type",
     "module \"m\"\n"
     "func @f() -> void {\n"
     "entry:\n"
     "  ret nothing\n"
     "}\n",
     "invalid_argument: kir parse error at line 4: unknown type 'nothing'"},
    {"verify_forward_cast",
     "module \"m\"\n"
     "func @f() -> i64 {\n"
     "entry:\n"
     "  %a = zext i8 %b to i64\n"
     "  %b = add i8 1, 2\n"
     "  ret i64 %a\n"
     "}\n",
     "bad_module: verifier: @f, block entry, '%a = zext i8 %b to i64': use o"
     "f value %b not dominated by its definition"},
    {"verify_forward_select",
     "module \"m\"\n"
     "func @f() -> i64 {\n"
     "entry:\n"
     "  %s = select %c, i64 1, 2\n"
     "  %c = icmp eq i64 1, 1\n"
     "  ret i64 %s\n"
     "}\n",
     "bad_module: verifier: @f, block entry, '%s = select %c, i64 1, 2': use"
     " of value %c not dominated by its definition"},
    {"verify_missing_terminator",
     "module \"m\"\n"
     "func @f() -> void {\n"
     "entry:\n"
     "  %x = add i64 1, 2\n"
     "}\n",
     "bad_module: verifier: @f: block entry has no terminator"},
    {"verify_terminator_mid_block",
     "module \"m\"\n"
     "func @f() -> void {\n"
     "entry:\n"
     "  ret void\n"
     "  ret void\n"
     "}\n",
     "bad_module: verifier: @f, block entry, 'ret void': terminator in middl"
     "e of block"},
    {"verify_phi_not_at_top",
     "module \"m\"\n"
     "func @f() -> i64 {\n"
     "entry:\n"
     "  jmp m\n"
     "m:\n"
     "  %x = add i64 1, 2\n"
     "  %p = phi i64 [ 1, entry ]\n"
     "  ret i64 %p\n"
     "}\n",
     "bad_module: verifier: @f, block m, '%p = phi i64 [ 1, entry ]': phi no"
     "t at top of block"},
    {"verify_phi_from_non_predecessor",
     "module \"m\"\n"
     "func @f() -> i64 {\n"
     "entry:\n"
     "  jmp m\n"
     "other:\n"
     "  ret i64 0\n"
     "m:\n"
     "  %p = phi i64 [ 1, other ]\n"
     "  ret i64 %p\n"
     "}\n",
     "bad_module: verifier: @f, block m, '%p = phi i64 [ 1, other ]': phi in"
     "coming block other is not a predecessor"},
    {"verify_call_undeclared",
     "module \"m\"\n"
     "func @f() -> void {\n"
     "entry:\n"
     "  call void @g()\n"
     "  ret void\n"
     "}\n",
     "bad_module: verifier: @f, block entry, 'call void @g()': call to undec"
     "lared function @g"},
    {"verify_call_arity",
     "module \"m\"\n"
     "extern func @g(i64) -> void\n"
     "func @f() -> void {\n"
     "entry:\n"
     "  call void @g()\n"
     "  ret void\n"
     "}\n",
     "bad_module: verifier: @f, block entry, 'call void @g()': call argument"
     " count mismatch"},
    {"verify_ret_mismatch",
     "module \"m\"\n"
     "func @f() -> i64 {\n"
     "entry:\n"
     "  ret i32 1\n"
     "}\n",
     "bad_module: verifier: @f, block entry, 'ret i32 1': ret type mismatch"},
    {"verify_binop_mismatch",
     "module \"m\"\n"
     "func @f(i32 %a) -> i64 {\n"
     "entry:\n"
     "  %x = add i64 %a, 1\n"
     "  ret i64 %x\n"
     "}\n",
     "bad_module: verifier: @f, block entry, '%x = add i64 %a, 1': binop ope"
     "rand type mismatch"},
    {"verify_zero_alloca",
     "module \"m\"\n"
     "func @f() -> ptr {\n"
     "entry:\n"
     "  %a = alloca 0\n"
     "  ret ptr %a\n"
     "}\n",
     "bad_module: verifier: @f, block entry, '%a = alloca 0': alloca of zero"
     " bytes"},
    {"verify_use_not_dominated",
     "module \"m\"\n"
     "func @f(i1 %c) -> i64 {\n"
     "entry:\n"
     "  br %c, a, b\n"
     "a:\n"
     "  %x = add i64 1, 2\n"
     "  jmp b\n"
     "b:\n"
     "  ret i64 %x\n"
     "}\n",
     "bad_module: verifier: @f, block b, 'ret i64 %x': use of value %x not d"
     "ominated by its definition"},
    {"verify_funcaddr_undeclared",
     "module \"m\"\n"
     "func @f() -> ptr {\n"
     "entry:\n"
     "  %a = funcaddr @nope\n"
     "  ret ptr %a\n"
     "}\n",
     "bad_module: verifier: @f, block entry, '%a = funcaddr @nope': funcaddr"
     " of undeclared function @nope"},
    {"verify_bad_extension",
     "module \"m\"\n"
     "func @f(i64 %a) -> i8 {\n"
     "entry:\n"
     "  %x = zext i64 %a to i8\n"
     "  ret i8 %x\n"
     "}\n",
     "bad_module: verifier: @f, block entry, '%x = zext i64 %a to i8': inval"
     "id extension"},
    {"ok_numbers",
     "module \"m\"\n"
     "global @g size 0x1_0 rw init x\"0aFf\"\n"
     "func @f() -> i64 {\n"
     "entry:\n"
     "  %a = add i64 -5, 0x7b\n"
     "  %b = add i64 %a, 12ab\n"
     "  %c = add i64 %b, 99999999999999999999999\n"
     "  %d = add i64 %c, -0x10\n"
     "  %e = add i64 %d, 0XfF\n"
     "  ret i64 %e\n"
     "}\n",
     "ok\n"
     "module \"m\"\n"
     "\n"
     "global @g size 16 rw init x\"0aff\"\n"
     "\n"
     "func @f() -> i64 {\n"
     "entry:\n"
     "  %a = add i64 18446744073709551611, 123\n"
     "  %b = add i64 %a, 12\n"
     "  %c = add i64 %b, 18446744073709551615\n"
     "  %d = add i64 %c, 18446744073709551600\n"
     "  %e = add i64 %d, 255\n"
     "  ret i64 %e\n"
     "}\n"
     "\n"},
    {"ok_names_and_temps",
     "module \"m\" ; comment\n"
     "extern func @g(i64) -> i64\n"
     "func @f(i64 %t7) -> i64 { ; c\n"
     "entry.0:\n"
     "  call i64 @g(i64 %t7)\n"
     "  %t2 = call i64 @g(i64 1)\n"
     "  call i64 @g(i64 %t2)\n"
     "  %x$y = add i64 %t2, 1\n"
     "  jmp .next\n"
     ".next:\n"
     "  ret i64 %x$y\n"
     "}\n",
     "ok\n"
     "module \"m\"\n"
     "\n"
     "extern func @g(i64) -> i64\n"
     "\n"
     "func @f(i64 %t7) -> i64 {\n"
     "entry.0:\n"
     "  %t0 = call i64 @g(i64 %t7)\n"
     "  %t2 = call i64 @g(i64 1)\n"
     "  %t3 = call i64 @g(i64 %t2)\n"
     "  %x$y = add i64 %t2, 1\n"
     "  jmp .next\n"
     ".next:\n"
     "  ret i64 %x$y\n"
     "}\n"
     "\n"},
    {"ok_phi_forward_reference",
     "module \"m\"\n"
     "func @f(i64 %n) -> i64 {\n"
     "entry:\n"
     "  jmp loop\n"
     "loop:\n"
     "  %i = phi i64 [ 0, entry ], [ %j, loop ]\n"
     "  %j = add i64 %i, 1\n"
     "  %c = icmp ult i64 %j, %n\n"
     "  br %c, loop, done\n"
     "done:\n"
     "  ret i64 %j\n"
     "}\n",
     "ok\n"
     "module \"m\"\n"
     "\n"
     "func @f(i64 %n) -> i64 {\n"
     "entry:\n"
     "  jmp loop\n"
     "loop:\n"
     "  %i = phi i64 [ 0, entry ], [ %j, loop ]\n"
     "  %j = add i64 %i, 1\n"
     "  %c = icmp ult i64 %j, %n\n"
     "  br %c, loop, done\n"
     "done:\n"
     "  ret i64 %j\n"
     "}\n"
     "\n"},
    {"ok_every_form",
     "module \"m\"\n"
     "global @g size 16 ro\n"
     "extern func @ext(ptr, i64) -> void\n"
     "func @h(i64 %a) -> i64 {\n"
     "entry:\n"
     "  ret i64 %a\n"
     "}\n"
     "func @f(ptr %p, i1 %c) -> void {\n"
     "entry:\n"
     "  %s = alloca 32\n"
     "  %v = load i32, %p\n"
     "  store i32 %v, %s\n"
     "  %q = gep @g, i32 %v, 4, 8\n"
     "  %w = sext i32 %v to i64\n"
     "  %t = trunc i64 %w to i16\n"
     "  %i = ptrtoint ptr %q to i64\n"
     "  %r = inttoptr i64 %i to ptr\n"
     "  %sel = select %c, ptr %r, %p\n"
     "  %fa = funcaddr @h\n"
     "  %k = icall i64 %fa(i64 %w)\n"
     "  %u = udiv i64 %k, 3\n"
     "  %m = srem i64 %u, 5\n"
     "  %sh = ashr i64 %m, 1\n"
     "  %cmp = icmp sge i64 %sh, 0\n"
     "  call void @ext(ptr %sel, i64 %sh)\n"
     "  asm \"nop\"\n"
     "  br %cmp, a, b\n"
     "a:\n"
     "  ret void\n"
     "b:\n"
     "  ret void\n"
     "}\n",
     "ok\n"
     "module \"m\"\n"
     "\n"
     "global @g size 16 ro\n"
     "\n"
     "extern func @ext(ptr, i64) -> void\n"
     "\n"
     "func @h(i64 %a) -> i64 {\n"
     "entry:\n"
     "  ret i64 %a\n"
     "}\n"
     "\n"
     "func @f(ptr %p, i1 %c) -> void {\n"
     "entry:\n"
     "  %s = alloca 32\n"
     "  %v = load i32, %p\n"
     "  store i32 %v, %s\n"
     "  %q = gep @g, i32 %v, 4, 8\n"
     "  %w = sext i32 %v to i64\n"
     "  %t = trunc i64 %w to i16\n"
     "  %i = ptrtoint ptr %q to i64\n"
     "  %r = inttoptr i64 %i to ptr\n"
     "  %sel = select %c, ptr %r, %p\n"
     "  %fa = funcaddr @h\n"
     "  %k = icall i64 %fa(i64 %w)\n"
     "  %u = udiv i64 %k, 3\n"
     "  %m = srem i64 %u, 5\n"
     "  %sh = ashr i64 %m, 1\n"
     "  %cmp = icmp sge i64 %sh, 0\n"
     "  call void @ext(ptr %sel, i64 %sh)\n"
     "  asm \"nop\"\n"
     "  br %cmp, a, b\n"
     "a:\n"
     "  ret void\n"
     "b:\n"
     "  ret void\n"
     "}\n"
     "\n"},
};

TEST(ParserMalformedTest, RecordedOutcomesMatchByteForByte) {
  for (const Malformed& input : kMalformed) {
    EXPECT_EQ(Outcome(input.text), input.outcome) << input.name;
  }
}

/// A cut may fall between two characters when either is not part of a
/// name, number or string token.
bool InToken(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '.' || c == '$' || c == '%' || c == '@' || c == '-' || c == '"';
}

std::vector<size_t> TokenBoundaries(const std::string& source) {
  std::vector<size_t> cuts;
  for (size_t i = 0; i <= source.size(); ++i) {
    if (i == 0 || i == source.size() || !InToken(source[i - 1]) ||
        !InToken(source[i])) {
      cuts.push_back(i);
    }
  }
  return cuts;
}

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Digest of the outcomes of every token-boundary prefix of `source`, then
/// of 256 copies with one seeded bit flipped. Every input must come back
/// as a Status (or a module the verifier judges) without crashing.
std::string MutantOutcomesDigest(const std::string& name,
                                 const std::string& source) {
  signing::Sha256 hash;
  for (size_t cut : TokenBoundaries(source)) {
    hash.Update(Outcome(std::string_view(source).substr(0, cut)));
    hash.Update("\n");
  }
  uint64_t state = 20261020;
  for (char c : name) state = state * 131 + static_cast<unsigned char>(c);
  for (int i = 0; i < 256; ++i) {
    std::string flipped = source;
    const uint64_t r = SplitMix64(state);
    flipped[r % flipped.size()] ^= static_cast<char>(1u << ((r >> 32) % 8));
    hash.Update(Outcome(flipped));
    hash.Update("\n");
  }
  return signing::DigestHex(hash.Finish());
}

struct ModuleDigest {
  const char* name;
  const char* digest;
};

const ModuleDigest kMutantDigests[] = {
    {"kop_hello",
     "a6b87f0b7a99397eead19af7fd095009cb15ad54702418d2a40018929bf43fb1"},
    {"kop_ringbuf",
     "64f779a642f09fd23e642a92eeb344a44808e234384a1ac5e92f8e9c3bd0a858"},
    {"kop_scribbler",
     "9794bc800501ee069b9438215a55ac297ec4ede061eb22e01e4337a3d91366a1"},
    {"kop_memcopy",
     "caf6503b174666c77c69413097505767de2dea3a89503cdc4c0364f921203af2"},
    {"kop_privuser",
     "c851449fcafc2c900b9feb2e2c52130a63f19a386ed331889e989fe764000971"},
    {"kop_knic",
     "46337a9dfb514602a635dd6284c827d401b7ea4f3a131ff4b56bdabf3c9cc587"},
    {"kop_knic_mq",
     "1ee90e7ba3a998bffb1bb157e7d6e291f366b1e4c2d588b51ef95b887892465b"},
    {"kop_icall",
     "c40200da620316387d016f7c6d910e6c2154859b807f318aec7c7f168dd15c4e"},
};

TEST(ParserMalformedTest, TruncationsAndBitFlipsFailCleanly) {
  const std::vector<kirmods::CorpusEntry> corpus = kirmods::AllCorpusModules();
  ASSERT_EQ(corpus.size(), std::size(kMutantDigests));
  for (size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_EQ(corpus[i].name, kMutantDigests[i].name);
    EXPECT_EQ(MutantOutcomesDigest(corpus[i].name, corpus[i].source),
              kMutantDigests[i].digest)
        << corpus[i].name;
  }
}

// ---------------------------------------------------------- printer pins --

struct CompiledPin {
  bool defaults;  // elide and CFI on; false = both off
  const char* name;
  const char* digest;
};

const CompiledPin kCompiledPins[] = {
    {true, "kop_hello",
     "16ba476f81701b328022faf53ac770744ec497d0b7ebc99c14927a9103b39a20"},
    {true, "kop_ringbuf",
     "fc49de12fd487e9b70bcbd02ebbd605c60ea1e5c7674529a13100b0442e2d876"},
    {true, "kop_scribbler",
     "221249ffb0b5e04be430de645c830fb34d15580e904332c6adc217aa6f9b1f01"},
    {true, "kop_memcopy",
     "d4a972966d927e152a4d6a5937df26d183f7d2b8b6e0f0a666cf3ac92d16dba9"},
    {true, "kop_privuser",
     "555dc1bc9b4deacf77a56fe85e795158d6fad2d26237c16367420e20568e2229"},
    {true, "kop_knic",
     "7775db57b394a9a2e0437c2d6dd68cdd7625afae28e1076434a0177427ce1ef6"},
    {true, "kop_knic_mq",
     "bbfde03663d5a540e885a229a008d6de7d8679fd20cad33cec9418b7d6cf7ab3"},
    {true, "kop_icall",
     "3a41b891d144c6a8e23b9b13205752577a122a70b05f60524af6cab2314d45fc"},
    {true, "kop_synth_4",
     "81a2b5f253482d29cf4e94a4bf0ebc6f1c3b12a3663b4ea9149aa880ffaf77c1"},
    {true, "kop_synth_16",
     "91954a25af897b1061d441abff921ea2c6d7b86ba0f7996bfa7a4852cb246201"},
    {true, "kop_synth_64",
     "faada24b74103dcf683910ba77f28f00527d95a28c50f5fd2b76f2c5527ba2a5"},
    {false, "kop_hello",
     "16ba476f81701b328022faf53ac770744ec497d0b7ebc99c14927a9103b39a20"},
    {false, "kop_ringbuf",
     "fc49de12fd487e9b70bcbd02ebbd605c60ea1e5c7674529a13100b0442e2d876"},
    {false, "kop_scribbler",
     "221249ffb0b5e04be430de645c830fb34d15580e904332c6adc217aa6f9b1f01"},
    {false, "kop_memcopy",
     "313507c2ac5e1a2a7d7677f0ab386e7a84b41d7023768844c14a86ee798c251c"},
    {false, "kop_privuser",
     "555dc1bc9b4deacf77a56fe85e795158d6fad2d26237c16367420e20568e2229"},
    {false, "kop_knic",
     "63180fc9ea69572f84fb14815692fe5a6721f115156c040c1930ffd7c76fad15"},
    {false, "kop_knic_mq",
     "e91d92e2c580d01897d47b73b85175917b5ed6d2de1f4e08471285d7cc387f09"},
    {false, "kop_icall",
     "812a619f1ef030ccfbdb947cfeee5a6f1b135dd6784ed9332a3a1a3169da7ff7"},
    {false, "kop_synth_4",
     "81a2b5f253482d29cf4e94a4bf0ebc6f1c3b12a3663b4ea9149aa880ffaf77c1"},
    {false, "kop_synth_16",
     "91954a25af897b1061d441abff921ea2c6d7b86ba0f7996bfa7a4852cb246201"},
    {false, "kop_synth_64",
     "faada24b74103dcf683910ba77f28f00527d95a28c50f5fd2b76f2c5527ba2a5"},
};

TEST(PrinterPinTest, CompiledTextDigestsMatch) {
  std::vector<kirmods::CorpusEntry> modules = kirmods::AllCorpusModules();
  for (uint32_t functions : {4u, 16u, 64u}) {
    modules.push_back({"kop_synth_" + std::to_string(functions),
                       kirmods::SyntheticModuleSource(functions, 8)});
  }
  size_t checked = 0;
  for (const CompiledPin& pin : kCompiledPins) {
    for (const kirmods::CorpusEntry& entry : modules) {
      if (entry.name != pin.name) continue;
      transform::CompileOptions options;
      options.elide_guards = pin.defaults;
      options.inject_cfi_checks = pin.defaults;
      auto compiled = transform::CompileModuleText(entry.source, options);
      ASSERT_TRUE(compiled.ok()) << pin.name << ": "
                                 << compiled.status().ToString();
      EXPECT_EQ(Digest(compiled->text), pin.digest)
          << pin.name << (pin.defaults ? " (defaults)" : " (elide, CFI off)");
      ++checked;
    }
  }
  EXPECT_EQ(checked, 2 * modules.size());
}

}  // namespace
}  // namespace kop::kir
