#include "kop/fault/forge.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>

#include "kop/analysis/diagnostics.hpp"
#include "kop/analysis/privileged_lint.hpp"
#include "kop/analysis/provenance.hpp"
#include "kop/flight/postmortem.hpp"
#include "kop/kir/coverage.hpp"
#include "kop/kir/module.hpp"
#include "kop/smp/cpu.hpp"
#include "kop/smp/executor.hpp"
#include "kop/transform/compiler.hpp"
#include "kop/util/rng.hpp"
#include "trial_harness.hpp"

namespace kop::fault {
namespace {

using internal::kSentinelBytes;
using internal::TrialContext;
using internal::TrialHooks;

/// Batch width of the fuzz loop. Fixed (and independent of --jobs) so
/// the RNG draw sequence — all of it in the serial construction phase —
/// is identical whatever the worker count.
constexpr uint32_t kBatch = 32;
constexpr uint32_t kProbeBudget = 64;   // ddmin re-executions per repro
constexpr uint32_t kMaxRepros = 3;

/// Fault kinds the mutator may select. Deliberately excludes the kinds
/// that need scenario-specific structure (@vtable, the NIC) — the forge
/// target has neither.
constexpr std::array<FaultKind, 6> kMutableKinds = {
    FaultKind::kNoFault,        FaultKind::kWatchdogExpiry,
    FaultKind::kStoreBitFlip,   FaultKind::kSpuriousViolation,
    FaultKind::kLoadBitFlip,    FaultKind::kKmallocFail,
};

std::string Hex(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%" PRIx64, value);
  return buf;
}

std::string JsonEscape(const std::string& in) {
  return analysis::JsonEscape(in);
}

/// Deterministic addresses every trial sees (fresh kernels allocate
/// identically), measured once by the landmark probe.
struct Landmarks {
  uint64_t sentinel = 0;  // the protected kernel object
  uint64_t scratch = 0;   // @scratch — a harmless stash destination
  uint64_t jar = 0;       // @jar
};

struct BaseSeed {
  std::array<uint64_t, kForgeArgCount> args{};
  FaultPlan plan;
};

/// A (slot, value) substitution the mutator favours: per-argument
/// dictionary entries derived from the analysis stage and the landmark
/// probe (staircase keys for the latch argument, interesting addresses
/// for the stash-pointer argument).
struct Hint {
  uint8_t slot = 0;
  uint64_t value = 0;
};

struct CampaignContext {
  ForgeConfig config;
  std::vector<BaseSeed> bases;
  std::vector<std::string> targets;
  std::vector<uint64_t> dictionary;
  std::vector<Hint> hints;
  Landmarks landmarks;
  internal::Calibration calibration;
};

std::array<uint64_t, kForgeArgCount> BenignArgs(const Landmarks& lm) {
  // Latch locked (key 0), stash aimed at the module's own @scratch,
  // small mixer operands, three arbitrary input-buffer words.
  return {0, lm.scratch, 0x1234, 3, 0b1010, 7, 11, 13};
}

void ForgeWorkload(TrialContext& ctx,
                   const std::array<uint64_t, kForgeArgCount>& args) {
  (void)internal::TrialCall(ctx, "fg_init", {});
  (void)internal::TrialCall(ctx, "fg_fill", {0, args[5]});
  (void)internal::TrialCall(ctx, "fg_fill", {1, args[6]});
  (void)internal::TrialCall(ctx, "fg_fill", {2, args[7]});
  (void)internal::TrialCall(ctx, "fg_latch", {args[0]});
  auto stash = internal::TrialCall(ctx, "fg_stash", {args[1], args[2]});
  if (stash.ok() && *stash == 1) {
    // The analysis-flagged store executed and was allowed.
    ctx.reached_flagged = true;
  } else {
    // Or it executed and was denied: the containment bundle names the
    // function the violation fired in.
    flight::PostmortemBundle bundle;
    if (flight::GlobalPostmortems().Latest(&bundle) &&
        (bundle.vm.function == "fg_stash" ||
         bundle.site_label.find("fg_stash") != std::string::npos)) {
      ctx.reached_flagged = true;
    }
  }
  (void)internal::TrialCall(ctx, "fg_mix", {args[3], args[4]});
}

void ApplyOp(const MutOp& op, std::array<uint64_t, kForgeArgCount>& args,
             FaultPlan& plan) {
  const size_t slot = op.slot % kForgeArgCount;
  switch (op.kind) {
    case MutOpKind::kSetArg:
      args[slot] = op.value;
      break;
    case MutOpKind::kFlipBit:
      args[slot] ^= uint64_t{1} << (op.value % 64);
      break;
    case MutOpKind::kAddDelta:
      args[slot] += op.value;
      break;
    case MutOpKind::kSetByte: {
      const unsigned byte = static_cast<unsigned>((op.value >> 8) % 8);
      args[slot] &= ~(uint64_t{0xff} << (byte * 8));
      args[slot] |= (op.value & 0xff) << (byte * 8);
      break;
    }
    case MutOpKind::kPlanKind:
      plan.kind = kMutableKinds[op.value % kMutableKinds.size()];
      break;
    case MutOpKind::kPlanPoint:
      plan.point = op.value;
      break;
    case MutOpKind::kPlanDetail:
      plan.detail = op.value;
      break;
  }
}

std::pair<std::array<uint64_t, kForgeArgCount>, FaultPlan> Materialize(
    const std::vector<BaseSeed>& bases, const ForgeCase& input) {
  const BaseSeed& base = bases[input.base_seed % bases.size()];
  auto args = base.args;
  FaultPlan plan = base.plan;
  for (const MutOp& op : input.trail) ApplyOp(op, args, plan);
  return {args, plan};
}

/// Execute one forge case against a fresh simulated kernel. Pure in the
/// campaign sense: same case + same context => same row, whichever
/// thread runs it.
ForgeTrialRow ExecuteCase(const CampaignContext& cc, const ForgeCase& input,
                          uint32_t index, PolicyFamily family,
                          kir::CoverageMap* coverage,
                          const std::vector<policy::Region>& extra_regions) {
  ForgeTrialRow row;
  row.index = index;
  row.input = input;
  auto [args, plan] = Materialize(cc.bases, input);
  row.args = args;
  row.plan = plan;

  TrialHooks hooks;
  hooks.want_sentinel = true;
  hooks.harden_sentinel = family == PolicyFamily::kHardened;
  hooks.extra_regions = extra_regions;
  hooks.coverage = coverage;
  const auto workload_args = args;
  hooks.workload = [workload_args](TrialContext& ctx) {
    ForgeWorkload(ctx, workload_args);
  };

  CampaignConfig trial_config;
  trial_config.seed = cc.config.seed;
  trial_config.engine = cc.config.engine;
  trial_config.recovery = cc.config.recovery;
  row.result = internal::RunTrial(trial_config, plan, nullptr, &hooks);
  row.result.index = index;
  row.reached_flagged = hooks.reached_flagged_out;
  row.scribbled = hooks.sentinel_scribbled_out;
  if (coverage != nullptr) row.covered = coverage->CoveredSlots();
  return row;
}

void PushUnique(std::vector<uint64_t>& values, uint64_t value) {
  if (std::find(values.begin(), values.end(), value) == values.end()) {
    values.push_back(value);
  }
}

/// Analysis + landmark stage: compile the target once, harvest flagged
/// paths and icmp constants, and run one fault-free probe to measure
/// addresses and the memory-op space. Everything here is deterministic,
/// so replay tokens can rebuild the identical base-seed set.
Status Prepare(CampaignContext& cc) {
  auto compiled = transform::CompileModuleText(ForgeTargetSource());
  if (!compiled.ok()) return compiled.status();

  analysis::AnalysisReport report;
  analysis::CheckProvenance(*compiled->module, report);
  analysis::CheckPrivileged(*compiled->module, report);
  for (const auto& diag : report.diagnostics) {
    if (diag.severity == analysis::Severity::kNote) continue;
    const std::string target =
        diag.analysis + ":@" + diag.function + "/" + diag.block;
    if (std::find(cc.targets.begin(), cc.targets.end(), target) ==
        cc.targets.end()) {
      cc.targets.push_back(target);
    }
  }

  // Compare harvesting: every icmp constant joins the dictionary, and a
  // function whose equality compares are a run of byte-sized constants
  // (the fg_latch staircase shape) contributes the packed little-endian
  // key — the "magic value" an arg must hold to walk the whole ladder.
  std::vector<uint64_t> keys;
  for (const auto& fn : compiled->module->functions()) {
    uint64_t packed = 0;
    unsigned rungs = 0;
    for (const auto& block : fn->blocks()) {
      for (const auto& inst : *block) {
        if (inst->opcode() != kir::Opcode::kICmp) continue;
        for (const kir::Value* operand : inst->operands()) {
          if (operand == nullptr ||
              operand->kind() != kir::ValueKind::kConstant) {
            continue;
          }
          const uint64_t bits =
              static_cast<const kir::Constant*>(operand)->bits();
          PushUnique(cc.dictionary, bits);
          if (inst->icmp_pred() == kir::ICmpPred::kEq && bits > 0 &&
              bits < 256 && rungs < 8) {
            packed |= bits << (8 * rungs);
            ++rungs;
          }
        }
      }
    }
    if (rungs >= 2) keys.push_back(packed);
  }

  Landmarks lm;
  TrialHooks hooks;
  hooks.want_sentinel = true;
  hooks.harden_sentinel = cc.config.policy == PolicyFamily::kHardened;
  hooks.workload = [&lm](TrialContext& ctx) {
    lm.sentinel = ctx.sentinel_addr;
    if (auto addr = ctx.mod->GlobalAddress("scratch"); addr.ok()) {
      lm.scratch = *addr;
    }
    if (auto addr = ctx.mod->GlobalAddress("jar"); addr.ok()) lm.jar = *addr;
    ForgeWorkload(ctx, BenignArgs(lm));
  };
  CampaignConfig probe_config;
  probe_config.seed = cc.config.seed;
  probe_config.engine = cc.config.engine;
  probe_config.recovery = cc.config.recovery;
  const FaultPlan probe{FaultKind::kWatchdogExpiry, "forge", 0, 0};
  TrialResult probed =
      internal::RunTrial(probe_config, probe, &cc.calibration, &hooks);
  if (!probed.invariant_failures.empty()) {
    return Internal("forge landmark probe misbehaved: " +
                    probed.invariant_failures.front());
  }
  cc.landmarks = lm;

  for (uint64_t key : keys) PushUnique(cc.dictionary, key);
  PushUnique(cc.dictionary, lm.sentinel);
  PushUnique(cc.dictionary, lm.sentinel + 8);
  PushUnique(cc.dictionary, lm.scratch);
  PushUnique(cc.dictionary, lm.jar);
  PushUnique(cc.dictionary, 0);
  PushUnique(cc.dictionary, kernel::kUserSpaceEnd - 8);
  PushUnique(cc.dictionary, kernel::kVmallocBase);

  for (uint64_t key : keys) cc.hints.push_back({0, key});
  cc.hints.push_back({1, lm.sentinel});
  cc.hints.push_back({1, lm.sentinel + 8});
  cc.hints.push_back({1, lm.scratch});
  cc.hints.push_back({1, lm.jar});
  cc.hints.push_back({1, kernel::kUserSpaceEnd - 8});

  BaseSeed benign;
  benign.args = BenignArgs(lm);
  benign.plan = FaultPlan{FaultKind::kNoFault, "forge", 0, 0};
  cc.bases.push_back(benign);
  // One directed base per staircase key: the analysis stage has already
  // opened the latch, so a single dictionary substitution of the stash
  // pointer separates these from the flagged store's worst case.
  for (uint64_t key : keys) {
    BaseSeed directed = benign;
    directed.args[0] = key;
    cc.bases.push_back(directed);
  }
  BaseSeed starved = benign;
  starved.plan = FaultPlan{FaultKind::kWatchdogExpiry, "forge", 200, 0};
  cc.bases.push_back(starved);
  return OkStatus();
}

MutOp RandomOp(Xoshiro256& rng, const CampaignContext& cc) {
  MutOp op;
  const uint64_t roll = rng.NextBelow(100);
  if (roll < 30 && !cc.hints.empty()) {
    const Hint& hint = cc.hints[rng.NextBelow(cc.hints.size())];
    op.kind = MutOpKind::kSetArg;
    op.slot = hint.slot;
    op.value = hint.value;
  } else if (roll < 50 && !cc.dictionary.empty()) {
    op.kind = MutOpKind::kSetArg;
    op.slot = static_cast<uint8_t>(rng.NextBelow(kForgeArgCount));
    op.value = cc.dictionary[rng.NextBelow(cc.dictionary.size())];
  } else if (roll < 65) {
    op.kind = MutOpKind::kFlipBit;
    op.slot = static_cast<uint8_t>(rng.NextBelow(kForgeArgCount));
    op.value = rng.NextBelow(64);
  } else if (roll < 75) {
    op.kind = MutOpKind::kAddDelta;
    op.slot = static_cast<uint8_t>(rng.NextBelow(kForgeArgCount));
    const uint64_t magnitude = rng.NextInRange(1, 16);
    op.value = rng.NextBelow(2) == 0 ? magnitude : ~magnitude + 1;
  } else if (roll < 85) {
    op.kind = MutOpKind::kSetByte;
    op.slot = static_cast<uint8_t>(rng.NextBelow(kForgeArgCount));
    op.value = (rng.NextBelow(8) << 8) | rng.NextBelow(256);
  } else if (roll < 90) {
    op.kind = MutOpKind::kPlanKind;
    op.value = rng.NextBelow(kMutableKinds.size());
  } else if (roll < 95) {
    op.kind = MutOpKind::kPlanPoint;
    op.value =
        rng.NextInRange(1, std::max<uint64_t>(1, cc.calibration.stores));
  } else {
    op.kind = MutOpKind::kPlanDetail;
    op.value = rng.NextBelow(64);
  }
  return op;
}

std::string EncodeTrail(const std::vector<MutOp>& trail) {
  std::ostringstream out;
  for (size_t i = 0; i < trail.size(); ++i) {
    if (i != 0) out << ";";
    char code = '?';
    switch (trail[i].kind) {
      case MutOpKind::kSetArg: code = 'a'; break;
      case MutOpKind::kFlipBit: code = 'f'; break;
      case MutOpKind::kAddDelta: code = 'd'; break;
      case MutOpKind::kSetByte: code = 'b'; break;
      case MutOpKind::kPlanKind: code = 'K'; break;
      case MutOpKind::kPlanPoint: code = 'P'; break;
      case MutOpKind::kPlanDetail: code = 'D'; break;
    }
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%c%u.%" PRIx64, code,
                  static_cast<unsigned>(trail[i].slot), trail[i].value);
    out << buf;
  }
  return out.str();
}

/// Delta-debugging (ddmin) over the mutation trail: find a minimal
/// sub-trail that still violates an invariant, within a fixed probe
/// budget. Returns the minimized case alongside the repro record so the
/// policy-synthesis stage can re-verify against it.
std::pair<MinimizedRepro, ForgeCase> MinimizeRow(const CampaignContext& cc,
                                                 const ForgeTrialRow& row) {
  MinimizedRepro repro;
  repro.trial = row.index;
  repro.failure = row.result.invariant_failures.empty()
                      ? std::string()
                      : row.result.invariant_failures.front();
  uint32_t probes = 0;
  auto violates = [&](const ForgeCase& candidate) -> bool {
    ++probes;
    const ForgeTrialRow probe =
        ExecuteCase(cc, candidate, row.index, cc.config.policy, nullptr, {});
    return !probe.result.invariant_failures.empty();
  };

  ForgeCase best = row.input;
  // The base alone may already violate (trail length 0 is minimal).
  if (!best.trail.empty() && probes < kProbeBudget) {
    ForgeCase bare{best.base_seed, {}};
    if (violates(bare)) best = bare;
  }
  size_t n = 2;
  while (best.trail.size() >= 2 && probes < kProbeBudget) {
    const size_t chunk = (best.trail.size() + n - 1) / n;
    bool reduced = false;
    for (size_t start = 0;
         start < best.trail.size() && probes < kProbeBudget;
         start += chunk) {
      ForgeCase candidate = best;
      const size_t end = std::min(start + chunk, candidate.trail.size());
      candidate.trail.erase(candidate.trail.begin() + start,
                            candidate.trail.begin() + end);
      if (candidate.trail.empty()) continue;
      if (violates(candidate)) {
        best = candidate;
        n = std::max<size_t>(n - 1, 2);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (n >= best.trail.size()) break;
      n = std::min(n * 2, best.trail.size());
    }
  }

  repro.steps = static_cast<uint32_t>(best.trail.size());
  repro.probes = probes;
  repro.token = EncodeForgeToken(cc.config.policy, cc.config.seed, best);
  // Determinism proof: the minimized case replays twice with identical
  // outcome and failure set.
  const ForgeTrialRow a =
      ExecuteCase(cc, best, row.index, cc.config.policy, nullptr, {});
  const ForgeTrialRow b =
      ExecuteCase(cc, best, row.index, cc.config.policy, nullptr, {});
  repro.replays = !a.result.invariant_failures.empty() &&
                  a.result.outcome == b.result.outcome &&
                  a.result.invariant_failures == b.result.invariant_failures;
  return {repro, best};
}

/// Corpus distillation: greedy set cover of every covered slot by the
/// fewest corpus rows (ties to the earliest trial).
std::vector<uint32_t> Distill(
    const std::vector<uint32_t>& corpus,
    const std::vector<std::vector<uint32_t>>& slots) {
  std::set<uint32_t> uncovered;
  for (const auto& list : slots) uncovered.insert(list.begin(), list.end());
  std::vector<uint32_t> picked;
  std::vector<bool> used(corpus.size(), false);
  while (!uncovered.empty()) {
    size_t best = corpus.size();
    size_t best_gain = 0;
    for (size_t i = 0; i < corpus.size(); ++i) {
      if (used[i]) continue;
      size_t gain = 0;
      for (uint32_t slot : slots[i]) gain += uncovered.count(slot);
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == corpus.size()) break;
    used[best] = true;
    picked.push_back(corpus[best]);
    for (uint32_t slot : slots[best]) uncovered.erase(slot);
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

}  // namespace

std::string_view PolicyFamilyName(PolicyFamily family) {
  switch (family) {
    case PolicyFamily::kHardened: return "hardened";
    case PolicyFamily::kWeak: return "weak";
  }
  return "?";
}

std::string_view MutOpKindName(MutOpKind kind) {
  switch (kind) {
    case MutOpKind::kSetArg: return "set-arg";
    case MutOpKind::kFlipBit: return "flip-bit";
    case MutOpKind::kAddDelta: return "add-delta";
    case MutOpKind::kSetByte: return "set-byte";
    case MutOpKind::kPlanKind: return "plan-kind";
    case MutOpKind::kPlanPoint: return "plan-point";
    case MutOpKind::kPlanDetail: return "plan-detail";
  }
  return "?";
}

std::string ForgeTargetSource() {
  return R"(module "kop_forge"

global @latch size 8 rw
global @jar size 8 rw
global @book size 24 rw
global @scratch size 8 rw
global @acc size 8 rw

func @fg_init() -> i64 {
entry:
  store i64 0, @latch
  store i64 0, @jar
  store i64 0, @acc
  store i64 7, @scratch
  ret i64 1
}

func @fg_fill(i64 %i, i64 %v) -> i64 {
entry:
  %m = urem i64 %i, 3
  %slot = gep @book, i64 %m, 8, 0
  store i64 %v, %slot
  ret i64 %m
}

func @fg_latch(i64 %k) -> i64 {
entry:
  %b0 = and i64 %k, 255
  %is0 = icmp eq i64 %b0, 90
  br %is0, s1, no
s1:
  %r1 = lshr i64 %k, 8
  %b1 = and i64 %r1, 255
  %is1 = icmp eq i64 %b1, 195
  br %is1, s2, no
s2:
  %r2 = lshr i64 %k, 16
  %b2 = and i64 %r2, 255
  %is2 = icmp eq i64 %b2, 126
  br %is2, open, no
open:
  store i64 3, @latch
  ret i64 3
no:
  store i64 0, @latch
  ret i64 0
}

func @fg_stash(i64 %addr, i64 %value) -> i64 {
entry:
  %k = load i64, @latch
  %open = icmp eq i64 %k, 3
  br %open, go, locked
go:
  store i64 %value, @jar
  %p = inttoptr i64 %addr to ptr
  store i64 %value, %p
  ret i64 1
locked:
  ret i64 0
}

func @fg_mix(i64 %a, i64 %b) -> i64 {
entry:
  jmp loop
loop:
  %i = phi i64 [ 0, entry ], [ %i1, next ]
  %acc = phi i64 [ %a, entry ], [ %acc2, next ]
  %done = icmp uge i64 %i, 8
  br %done, out, body
body:
  %sh = lshr i64 %b, %i
  %bit = and i64 %sh, 1
  %odd = icmp eq i64 %bit, 1
  br %odd, grow, fold
grow:
  %t1 = add i64 %acc, %i
  jmp next
fold:
  %t2 = mul i64 %acc, 3
  jmp next
next:
  %acc2 = phi i64 [ %t1, grow ], [ %t2, fold ]
  %i1 = add i64 %i, 1
  jmp loop
out:
  store i64 %acc, @acc
  ret i64 %acc
}
)";
}

std::string EncodeForgeToken(PolicyFamily family, uint64_t seed,
                             const ForgeCase& forge_case) {
  std::ostringstream out;
  char seed_hex[32];
  std::snprintf(seed_hex, sizeof(seed_hex), "%" PRIx64, seed);
  out << "forge.v1:" << PolicyFamilyName(family) << ":" << seed_hex << ":"
      << forge_case.base_seed << ":" << EncodeTrail(forge_case.trail);
  return out.str();
}

Result<std::pair<PolicyFamily, std::pair<uint64_t, ForgeCase>>>
ParseForgeToken(const std::string& token) {
  auto fail = [](const std::string& why) {
    return Internal("bad forge token: " + why);
  };
  std::vector<std::string> parts;
  size_t start = 0;
  while (parts.size() < 4) {
    const size_t colon = token.find(':', start);
    if (colon == std::string::npos) return fail("expected 5 ':'-fields");
    parts.push_back(token.substr(start, colon - start));
    start = colon + 1;
  }
  parts.push_back(token.substr(start));

  if (parts[0] != "forge.v1") return fail("unknown version tag");
  PolicyFamily family = PolicyFamily::kHardened;
  if (parts[1] == "weak") {
    family = PolicyFamily::kWeak;
  } else if (parts[1] != "hardened") {
    return fail("unknown policy family '" + parts[1] + "'");
  }
  if (parts[2].empty()) return fail("empty seed");
  char* end = nullptr;
  const uint64_t seed = std::strtoull(parts[2].c_str(), &end, 16);
  if (end == nullptr || *end != '\0') return fail("malformed seed");
  if (parts[3].empty()) return fail("empty base index");
  const uint64_t base = std::strtoull(parts[3].c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return fail("malformed base index");

  ForgeCase forge_case;
  forge_case.base_seed = static_cast<uint32_t>(base);
  std::string trail = parts[4];
  size_t cursor = 0;
  while (cursor < trail.size()) {
    size_t sep = trail.find(';', cursor);
    if (sep == std::string::npos) sep = trail.size();
    const std::string op_text = trail.substr(cursor, sep - cursor);
    cursor = sep + 1;
    if (op_text.size() < 4) return fail("truncated op '" + op_text + "'");
    MutOp op;
    switch (op_text[0]) {
      case 'a': op.kind = MutOpKind::kSetArg; break;
      case 'f': op.kind = MutOpKind::kFlipBit; break;
      case 'd': op.kind = MutOpKind::kAddDelta; break;
      case 'b': op.kind = MutOpKind::kSetByte; break;
      case 'K': op.kind = MutOpKind::kPlanKind; break;
      case 'P': op.kind = MutOpKind::kPlanPoint; break;
      case 'D': op.kind = MutOpKind::kPlanDetail; break;
      default: return fail("unknown op code '" + op_text.substr(0, 1) + "'");
    }
    const size_t dot = op_text.find('.');
    if (dot == std::string::npos || dot < 2) {
      return fail("op missing slot.value in '" + op_text + "'");
    }
    const uint64_t slot =
        std::strtoull(op_text.substr(1, dot - 1).c_str(), &end, 10);
    if (end == nullptr || *end != '\0') return fail("malformed op slot");
    op.slot = static_cast<uint8_t>(slot);
    op.value = std::strtoull(op_text.substr(dot + 1).c_str(), &end, 16);
    if (end == nullptr || *end != '\0') return fail("malformed op value");
    forge_case.trail.push_back(op);
  }
  return std::make_pair(family, std::make_pair(seed, forge_case));
}

ForgeReport RunForge(const ForgeConfig& config) {
  ForgeReport report;
  report.seed = config.seed;
  report.engine = std::string(kernel::ExecEngineName(config.engine));
  report.recovery =
      std::string(resilience::RecoveryPolicyName(config.recovery));
  report.policy = std::string(PolicyFamilyName(config.policy));
  report.coverage_compiled_in = kir::CoverageCompiledIn();

  CampaignContext cc;
  cc.config = config;
  if (Status prep = Prepare(cc); !prep.ok()) {
    ForgeTrialRow row;
    row.result.outcome = "prepare failed";
    row.result.invariant_failures.push_back(prep.ToString());
    report.rows.push_back(std::move(row));
    report.invariant_violations = 1;
    report.trials = 1;
    return report;
  }
  report.analysis_targets = cc.targets;
  report.dictionary = cc.dictionary;

  const uint32_t jobs = std::clamp<uint32_t>(config.jobs, 1, smp::kMaxCpus);

  Xoshiro256 rng(config.seed ^ 0x6b6f703a666f7267ULL);  // "kop:forg"
  kir::CoverageMap merged;
  std::vector<ForgeCase> pool;
  for (uint32_t i = 0; i < cc.bases.size(); ++i) {
    pool.push_back(ForgeCase{i, {}});
  }
  std::vector<std::vector<uint32_t>> corpus_slots;
  uint32_t constructed = 0;

  while (report.rows.size() < config.trials) {
    const uint32_t batch_size = std::min<uint32_t>(
        kBatch, config.trials - static_cast<uint32_t>(report.rows.size()));
    const uint32_t batch_base = static_cast<uint32_t>(report.rows.size());

    // Serial construction: every RNG draw happens here, never in a
    // worker — the whole campaign is one fixed draw sequence.
    std::vector<ForgeCase> batch;
    for (uint32_t b = 0; b < batch_size; ++b) {
      if (constructed < cc.bases.size()) {
        batch.push_back(ForgeCase{constructed, {}});
      } else {
        ForgeCase child = pool[rng.NextBelow(pool.size())];
        const uint64_t extra = 1 + rng.NextBelow(3);
        for (uint64_t e = 0; e < extra; ++e) {
          child.trail.push_back(RandomOp(rng, cc));
        }
        batch.push_back(std::move(child));
      }
      ++constructed;
    }

    // Parallel execution: workers pull trial indices from a shared
    // cursor; each runs under a private flight surface so postmortem
    // capture/reset and the policy/heatmap providers never interleave.
    std::vector<ForgeTrialRow> rows(batch_size);
    std::vector<std::unique_ptr<kir::CoverageMap>> maps(batch_size);
    if (kir::CoverageCompiledIn()) {
      for (auto& map : maps) map = std::make_unique<kir::CoverageMap>();
    }
    std::atomic<uint32_t> cursor{0};
    smp::RunOnCpus(jobs, [&](uint32_t) {
      flight::ScopedFlightIsolation isolation;
      for (;;) {
        const uint32_t i = cursor.fetch_add(1);
        if (i >= batch_size) break;
        rows[i] = ExecuteCase(cc, batch[i], batch_base + i, config.policy,
                              maps[i].get(), {});
      }
    });

    // Serial merge, strictly in trial-index order: corpus admission and
    // new-edge counting depend on merge order, so the order is pinned.
    for (uint32_t i = 0; i < batch_size; ++i) {
      ForgeTrialRow& row = rows[i];
      if (maps[i] != nullptr) {
        row.new_edges =
            static_cast<uint32_t>(merged.MergeCountingNew(*maps[i]));
        if (row.new_edges > 0) {
          row.in_corpus = true;
          pool.push_back(row.input);
          report.corpus.push_back(row.index);
          corpus_slots.push_back(maps[i]->Slots());
        }
      }
      if (row.result.contained) {
        ++report.contained;
      } else {
        ++report.absorbed;
      }
      if (!row.result.invariant_failures.empty()) {
        ++report.invariant_violations;
      }
      if (row.reached_flagged) ++report.flagged_reached;
      report.rows.push_back(std::move(row));
    }
  }

  report.trials = static_cast<uint32_t>(report.rows.size());
  report.covered_edges = merged.CoveredSlots();
  report.coverage_digest = merged.Digest();
  report.distilled = Distill(report.corpus, corpus_slots);

  // Crash minimization + policy synthesis (serial; each probe is one
  // fresh-kernel execution).
  std::vector<std::pair<uint32_t, ForgeCase>> repro_cases;
  if (config.minimize) {
    for (const ForgeTrialRow& row : report.rows) {
      if (row.result.invariant_failures.empty()) continue;
      if (report.repros.size() >= kMaxRepros) break;
      auto [repro, minimized] = MinimizeRow(cc, row);
      repro_cases.emplace_back(row.index, minimized);
      report.repros.push_back(std::move(repro));
    }
  }

  std::set<uint64_t> suggested;
  for (const ForgeTrialRow& row : report.rows) {
    if (!row.scribbled) continue;
    if (!suggested.insert(cc.landmarks.sentinel).second) continue;
    PolicySuggestion suggestion;
    suggestion.base = cc.landmarks.sentinel;
    suggestion.len = kSentinelBytes;
    suggestion.reason =
        "trial #" + std::to_string(row.index) +
        " overwrote the protected kernel object" +
        (cc.targets.empty() ? std::string()
                            : " via " + cc.targets.front());
    suggestion.manager_command = "policy_manager add " + Hex(suggestion.base) +
                                 " " + Hex(suggestion.len) + " none";
    // Verification: replay the (minimized, if available) offending case
    // under the weak family plus the suggested region — the scribble
    // must become a contained violation.
    ForgeCase against = row.input;
    for (const auto& [index, minimized] : repro_cases) {
      if (index == row.index) against = minimized;
    }
    const ForgeTrialRow check = ExecuteCase(
        cc, against, row.index, PolicyFamily::kWeak, nullptr,
        {policy::Region{suggestion.base, suggestion.len, policy::kProtNone}});
    suggestion.verified =
        !check.scribbled && check.result.invariant_failures.empty();
    report.suggestions.push_back(std::move(suggestion));
  }
  return report;
}

Result<ForgeTrialRow> ReplayForge(const ForgeConfig& config,
                                  const std::string& token) {
  auto parsed = ParseForgeToken(token);
  if (!parsed.ok()) return parsed.status();
  CampaignContext cc;
  cc.config = config;
  cc.config.policy = parsed->first;
  cc.config.seed = parsed->second.first;
  KOP_RETURN_IF_ERROR(Prepare(cc));
  std::unique_ptr<kir::CoverageMap> map;
  if (kir::CoverageCompiledIn()) map = std::make_unique<kir::CoverageMap>();
  ForgeTrialRow row = ExecuteCase(cc, parsed->second.second, 0,
                                  cc.config.policy, map.get(), {});
  if (map != nullptr) row.new_edges = static_cast<uint32_t>(row.covered);
  return row;
}

std::string ForgeReport::ToJson() const {
  std::ostringstream out;
  out << "{\"seed\":" << seed << ",\"engine\":\"" << JsonEscape(engine)
      << "\",\"recovery\":\"" << JsonEscape(recovery) << "\",\"policy\":\""
      << JsonEscape(policy) << "\",\"coverage_compiled_in\":"
      << (coverage_compiled_in ? "true" : "false") << ",\"trials\":" << trials
      << ",\"contained\":" << contained << ",\"absorbed\":" << absorbed
      << ",\"invariant_violations\":" << invariant_violations
      << ",\"flagged_reached\":" << flagged_reached
      << ",\"covered_edges\":" << covered_edges
      << ",\"coverage_digest\":" << coverage_digest
      << ",\"analysis_targets\":[";
  for (size_t i = 0; i < analysis_targets.size(); ++i) {
    if (i != 0) out << ",";
    out << "\"" << JsonEscape(analysis_targets[i]) << "\"";
  }
  out << "],\"dictionary\":[";
  for (size_t i = 0; i < dictionary.size(); ++i) {
    if (i != 0) out << ",";
    out << dictionary[i];
  }
  out << "],\"corpus\":[";
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (i != 0) out << ",";
    out << corpus[i];
  }
  out << "],\"distilled\":[";
  for (size_t i = 0; i < distilled.size(); ++i) {
    if (i != 0) out << ",";
    out << distilled[i];
  }
  out << "],\"rows\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const ForgeTrialRow& row = rows[i];
    if (i != 0) out << ",";
    out << "{\"i\":" << row.index << ",\"base\":" << row.input.base_seed
        << ",\"trail\":\"" << JsonEscape(EncodeTrail(row.input.trail))
        << "\",\"kind\":\"" << FaultKindName(row.plan.kind)
        << "\",\"scenario\":\"" << JsonEscape(row.plan.scenario)
        << "\",\"point\":" << row.plan.point
        << ",\"detail\":" << row.plan.detail << ",\"args\":[";
    for (size_t a = 0; a < row.args.size(); ++a) {
      if (a != 0) out << ",";
      out << row.args[a];
    }
    out << "],\"target\":\"" << JsonEscape(row.result.target)
        << "\",\"contained\":" << (row.result.contained ? "true" : "false")
        << ",\"postmortem\":" << (row.result.postmortem ? "true" : "false")
        << ",\"flagged\":" << (row.reached_flagged ? "true" : "false")
        << ",\"scribbled\":" << (row.scribbled ? "true" : "false")
        << ",\"covered\":" << row.covered
        << ",\"new_edges\":" << row.new_edges << ",\"corpus\":"
        << (row.in_corpus ? "true" : "false") << ",\"outcome\":\""
        << JsonEscape(row.result.outcome) << "\",\"invariant_failures\":[";
    for (size_t f = 0; f < row.result.invariant_failures.size(); ++f) {
      if (f != 0) out << ",";
      out << "\"" << JsonEscape(row.result.invariant_failures[f]) << "\"";
    }
    out << "]}";
  }
  out << "],\"repros\":[";
  for (size_t i = 0; i < repros.size(); ++i) {
    const MinimizedRepro& repro = repros[i];
    if (i != 0) out << ",";
    out << "{\"trial\":" << repro.trial << ",\"steps\":" << repro.steps
        << ",\"probes\":" << repro.probes << ",\"replays\":"
        << (repro.replays ? "true" : "false") << ",\"failure\":\""
        << JsonEscape(repro.failure) << "\",\"token\":\""
        << JsonEscape(repro.token) << "\"}";
  }
  out << "],\"suggestions\":[";
  for (size_t i = 0; i < suggestions.size(); ++i) {
    const PolicySuggestion& suggestion = suggestions[i];
    if (i != 0) out << ",";
    out << "{\"base\":\"" << Hex(suggestion.base)
        << "\",\"len\":" << suggestion.len << ",\"reason\":\""
        << JsonEscape(suggestion.reason) << "\",\"manager_command\":\""
        << JsonEscape(suggestion.manager_command) << "\",\"verified\":"
        << (suggestion.verified ? "true" : "false") << "}";
  }
  out << "]}";
  return out.str();
}

std::string ForgeReport::ToText() const {
  std::ostringstream out;
  out << "forge campaign: seed " << seed << ", engine " << engine
      << ", recovery " << recovery << ", policy " << policy << "\n";
  out << trials << " trials: " << contained << " contained, " << absorbed
      << " absorbed, " << invariant_violations << " invariant violation(s)\n";
  if (coverage_compiled_in) {
    out << "coverage: " << covered_edges << " edge slot(s), corpus "
        << corpus.size() << " seed(s), distilled to " << distilled.size()
        << "\n";
  } else {
    out << "coverage: not compiled in (undirected mutation)\n";
  }
  out << "flagged paths: " << analysis_targets.size() << " target(s), reached in "
      << flagged_reached << " trial(s)\n";
  for (const std::string& target : analysis_targets) {
    out << "  target " << target << "\n";
  }
  for (const MinimizedRepro& repro : repros) {
    out << "repro: trial #" << repro.trial << " -> " << repro.steps
        << " step(s) (" << repro.probes << " probes, replays: "
        << (repro.replays ? "yes" : "NO") << ")\n  token " << repro.token
        << "\n";
  }
  for (const PolicySuggestion& suggestion : suggestions) {
    out << "suggest: " << suggestion.manager_command << " ("
        << (suggestion.verified ? "verified" : "UNVERIFIED") << ": "
        << suggestion.reason << ")\n";
  }
  for (const ForgeTrialRow& row : rows) {
    for (const std::string& failure : row.result.invariant_failures) {
      out << "  INVARIANT #" << row.index << " ["
          << FaultKindName(row.plan.kind) << " base " << row.input.base_seed
          << " trail " << EncodeTrail(row.input.trail) << "]: " << failure
          << "\n";
    }
  }
  return out.str();
}

}  // namespace kop::fault
