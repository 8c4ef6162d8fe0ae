// Module-loader edge cases and failure injection: resource exhaustion at
// insmod, runaway modules, wild pointers, oops-not-panic semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/kernel/procfs.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/kir/parser.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/resilience/recovery.hpp"
#include "kop/signing/signer.hpp"
#include "kop/smp/cpu.hpp"
#include "kop/trace/trace.hpp"
#include "kop/transform/attestation.hpp"
#include "kop/transform/compiler.hpp"

namespace kop {
namespace {

using kernel::Kernel;
using kernel::KernelConfig;
using kernel::ModuleLoader;

signing::SignedModule CompileAndSign(const std::string& source) {
  auto compiled = transform::CompileModuleText(source);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return signing::SignModule(compiled->text, compiled->attestation,
                             signing::SigningKey::DevelopmentKey());
}

signing::Keyring TrustedKeyring() {
  signing::Keyring keyring;
  keyring.Trust(signing::SigningKey::DevelopmentKey());
  return keyring;
}

KernelConfig SmallKernel(uint64_t module_area_bytes) {
  KernelConfig config;
  config.ram_bytes = 4ull << 20;
  config.kernel_text_bytes = 1ull << 20;
  config.module_area_bytes = module_area_bytes;
  config.user_bytes = 1ull << 20;
  return config;
}

TEST(LoaderFailureTest, InsmodFailsCleanlyWhenModuleAreaExhausted) {
  // 16 KiB module area: too small for the 64 KiB interpreter stack.
  Kernel kernel(SmallKernel(16 * 1024));
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  auto loaded = loader.Insmod(CompileAndSign(kirmods::RingbufSource()));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kOutOfMemory);
  EXPECT_FALSE(kernel.panicked());
  EXPECT_TRUE(loader.LoadedNames().empty());
}

TEST(LoaderFailureTest, SequentialInsmodUntilFullThenRecover) {
  // Fill the module area with synthetic modules until insmod fails, then
  // rmmod one and verify a new insmod fits again.
  Kernel kernel(SmallKernel(512 * 1024));
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());

  // Each module: 64 KiB stack + text + globals; ~6-7 fit in 512 KiB.
  int loaded_count = 0;
  std::string first_name;
  for (int i = 0; i < 32; ++i) {
    std::string source = kirmods::SyntheticModuleSource(2, 4);
    // Rename so each loads as a distinct module.
    const std::string name = "kop_synth_" + std::to_string(i);
    const size_t pos = source.find("kop_synth");
    source.replace(pos, strlen("kop_synth"), name);
    auto loaded = loader.Insmod(CompileAndSign(source));
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), ErrorCode::kOutOfMemory);
      break;
    }
    if (loaded_count == 0) first_name = name;
    ++loaded_count;
  }
  ASSERT_GT(loaded_count, 2);
  ASSERT_LT(loaded_count, 32);

  // Free one slot; the next insmod succeeds.
  ASSERT_TRUE(loader.Rmmod(first_name).ok());
  std::string source = kirmods::SyntheticModuleSource(2, 4);
  source.replace(source.find("kop_synth"), strlen("kop_synth"),
                 "kop_synth_retry");
  EXPECT_TRUE(loader.Insmod(CompileAndSign(source)).ok());
}

TEST(LoaderFailureTest, RmmodReturnsAllModuleAreaMemory) {
  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  const uint64_t live_before = kernel.module_area().Stats().allocation_count;
  ASSERT_TRUE(loader.Insmod(CompileAndSign(kirmods::MemcopySource())).ok());
  EXPECT_GT(kernel.module_area().Stats().allocation_count, live_before);
  ASSERT_TRUE(loader.Rmmod("kop_memcopy").ok());
  EXPECT_EQ(kernel.module_area().Stats().allocation_count, live_before);
}

TEST(LoaderFailureTest, RunawayRecursionFailsWithoutPanic) {
  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  auto loaded = loader.Insmod(CompileAndSign(R"(module "kop_runaway"
func @spin(i64 %n) -> i64 {
entry:
  %m = add i64 %n, 1
  %r = call i64 @spin(i64 %m)
  ret i64 %r
}
)"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto result = (*loaded)->Call("spin", {0});
  ASSERT_FALSE(result.ok());  // call-depth limit, an oops not a crash
  EXPECT_FALSE(kernel.panicked());
  // The module and kernel remain usable.
  EXPECT_TRUE(loader.Rmmod("kop_runaway").ok());
}

TEST(LoaderFailureTest, InfiniteLoopHitsExecutionBudget) {
  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  // Pin quarantine semantics regardless of the KOP_RECOVERY env default.
  loader.set_recovery_policy(resilience::RecoveryPolicy::kQuarantine);
  auto loaded = loader.Insmod(CompileAndSign(R"(module "kop_looper"
func @forever() -> void {
entry:
  jmp entry
}
)"));
  ASSERT_TRUE(loaded.ok());
  auto result = (*loaded)->Call("forever", {});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("budget"), std::string::npos);
  // lsmod pins the incident: the quarantine that ended it, stamped on
  // the virtual clock, in the LastEvent column.
  const std::string lsmod = kernel::ProcModules(loader);
  EXPECT_NE(lsmod.find("LastEvent"), std::string::npos);
  const std::string expect =
      "quarantine@" + std::to_string((*loaded)->last_event_tsc());
  EXPECT_NE(lsmod.find(expect), std::string::npos) << lsmod;
}

TEST(LoaderFailureTest, WildPointerIsAnOopsNotACrash) {
  // Default-allow policy: the guard permits the access, but the address
  // is unmapped — the simulated fault surfaces as an error return, the
  // kernel survives, and the module stays loaded (a Linux oops).
  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  auto loaded = loader.Insmod(CompileAndSign(kirmods::ScribblerSource()));
  ASSERT_TRUE(loaded.ok());
  auto result = (*loaded)->Call("peek", {0xdead00000000ull});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kOutOfRange);
  EXPECT_FALSE(kernel.panicked());
  // Still usable afterwards.
  auto heap = kernel.heap().Kmalloc(64);
  ASSERT_TRUE(heap.ok());
  EXPECT_TRUE((*loaded)->Call("peek", {*heap}).ok());
}

TEST(LoaderFailureTest, CallIntoMissingEntryPointFails) {
  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  auto loaded = loader.Insmod(CompileAndSign(kirmods::HelloSource()));
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE((*loaded)->Call("does_not_exist", {}).ok());
  EXPECT_FALSE((*loaded)->Call("init", {1, 2, 3}).ok());  // arity mismatch
}

TEST(LoaderFailureTest, GlobalAddressLookup) {
  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  auto loaded = loader.Insmod(CompileAndSign(kirmods::RingbufSource()));
  ASSERT_TRUE(loaded.ok());
  auto buf = (*loaded)->GlobalAddress("buf");
  ASSERT_TRUE(buf.ok());
  EXPECT_GE(*buf, kernel.module_area_base());
  EXPECT_FALSE((*loaded)->GlobalAddress("nonexistent").ok());
}

// ------------------------------------------------- static verification --

/// Sign `source` as a hostile toolchain would: the attestation claims
/// complete (and optimized, so adjacency is not re-checked) guards no
/// matter what the IR contains. The signature itself is genuine.
signing::SignedModule ForgeAttestationAndSign(const std::string& source) {
  auto module = kir::ParseModule(source);
  EXPECT_TRUE(module.ok()) << module.status().ToString();
  transform::AttestationRecord attestation = transform::Attest(**module);
  attestation.guards_complete = true;
  attestation.guards_optimized = true;
  return signing::SignModule(source, attestation,
                             signing::SigningKey::DevelopmentKey());
}

TEST(LoaderStaticVerifyTest, ForgedAttestationRejectedUnderStaticAndBoth) {
  for (const kernel::VerifyMode mode :
       {kernel::VerifyMode::kBoth, kernel::VerifyMode::kStatic}) {
    Kernel kernel;
    auto policy = policy::PolicyModule::Insert(
        &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
    ASSERT_TRUE(policy.ok());
    ModuleLoader loader(&kernel, TrustedKeyring());
    loader.set_verify_mode(mode);
    trace::GlobalTracer().Reset();

    auto loaded = loader.Insmod(
        ForgeAttestationAndSign(kirmods::AdversarialUnguardedSource()));
    ASSERT_FALSE(loaded.ok()) << kernel::VerifyModeName(mode);
    EXPECT_EQ(loaded.status().code(), ErrorCode::kPermissionDenied);
    EXPECT_NE(loaded.status().ToString().find("static verifier"),
              std::string::npos)
        << loaded.status().ToString();
    EXPECT_TRUE(loader.LoadedNames().empty());
#if KOP_TRACE_ENABLED
    EXPECT_EQ(trace::GlobalTracer().event_count(
                  trace::EventId::kModuleStaticReject),
              1u);
#endif
    trace::GlobalTracer().Reset();
  }
}

TEST(LoaderStaticVerifyTest, ForgedAttestationSlipsThroughAttestMode) {
  // The trust gap the static verifier closes: a forged guards-optimized
  // attestation over unguarded IR passes attestation-only validation.
  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  loader.set_verify_mode(kernel::VerifyMode::kAttest);
  auto loaded = loader.Insmod(
      ForgeAttestationAndSign(kirmods::AdversarialUnguardedSource()));
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
}

TEST(LoaderStaticVerifyTest, EachAdversarialModuleRejectedByDefault) {
  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  // The loader honours KOP_VERIFY (the CI matrix sets it); any mode that
  // runs the static verifier must reject these, so only skip under attest.
  ASSERT_EQ(loader.verify_mode(), kernel::DefaultVerifyMode());
  if (loader.verify_mode() == kernel::VerifyMode::kAttest) {
    loader.set_verify_mode(kernel::VerifyMode::kBoth);
  }
  for (const kirmods::CorpusEntry& entry :
       kirmods::AdversarialCorpusModules()) {
    auto loaded = loader.Insmod(ForgeAttestationAndSign(entry.source));
    ASSERT_FALSE(loaded.ok()) << entry.name;
    // Two rejection layers are acceptable: the validator (kBadModule —
    // e.g. a CFI-claiming module with no attested table) or the static
    // verifier (kPermissionDenied). Either way the module never loads.
    EXPECT_TRUE(loaded.status().code() == ErrorCode::kPermissionDenied ||
                loaded.status().code() == ErrorCode::kBadModule)
        << entry.name << ": " << loaded.status().ToString();
  }
}

TEST(LoaderStaticVerifyTest, StaticModeAcceptsProofWithoutAttestedClaim) {
  // A module whose attestation does NOT claim guard completeness but
  // whose IR is provably guarded: rejected when the attestation is the
  // authority (kBoth), accepted when the static proof is (kStatic).
  auto compiled = transform::CompileModuleText(kirmods::RingbufSource());
  ASSERT_TRUE(compiled.ok());
  transform::AttestationRecord attestation = compiled->attestation;
  attestation.guards_complete = false;
  const signing::SignedModule image = signing::SignModule(
      compiled->text, attestation, signing::SigningKey::DevelopmentKey());

  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());

  loader.set_verify_mode(kernel::VerifyMode::kBoth);
  EXPECT_FALSE(loader.Insmod(image).ok());

  loader.set_verify_mode(kernel::VerifyMode::kStatic);
  auto loaded = loader.Insmod(image);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE((*loaded)->Call("rb_init", {}).ok());
}

TEST(LoaderStaticVerifyTest, WidenedCfiSetRejectedInEveryVerifyMode) {
  transform::CompileOptions options;
  options.inject_cfi_checks = true;  // pin: must not follow KOP_CFI
  auto compiled =
      transform::CompileModuleText(kirmods::IcallSource(), options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_TRUE(compiled->attestation.cfi_gated);
  ASSERT_FALSE(compiled->attestation.cfi_sets.empty());

  // Widen set 0 with @h_spare — signature-compatible but never
  // address-taken — and re-sign with a trusted key. The signature is
  // genuine; the claim is wider than the proof, which is exactly the
  // attack the insmod re-derivation exists to stop. CFI provenance is
  // re-proven in EVERY verify mode (a forged table corrupts enforcement
  // even when attestation-only trust is acceptable for guards).
  transform::AttestationRecord forged = compiled->attestation;
  forged.cfi_sets[0].members.push_back("h_spare");
  std::sort(forged.cfi_sets[0].members.begin(),
            forged.cfi_sets[0].members.end());
  const signing::SignedModule image = signing::SignModule(
      compiled->text, forged, signing::SigningKey::DevelopmentKey());

  for (const kernel::VerifyMode mode :
       {kernel::VerifyMode::kStatic, kernel::VerifyMode::kBoth,
        kernel::VerifyMode::kAttest}) {
    Kernel kernel;
    auto policy = policy::PolicyModule::Insert(
        &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
    ASSERT_TRUE(policy.ok());
    ModuleLoader loader(&kernel, TrustedKeyring());
    loader.set_verify_mode(mode);
    auto loaded = loader.Insmod(image);
    ASSERT_FALSE(loaded.ok()) << kernel::VerifyModeName(mode);
    EXPECT_NE(loaded.status().ToString().find("cfi attestation"),
              std::string::npos)
        << loaded.status().ToString();
    EXPECT_TRUE(loader.LoadedNames().empty());
  }

  // The untampered image loads and dispatches through its gate in every
  // mode: honest modules pay no admission cost for CFI.
  const signing::SignedModule good =
      signing::SignModule(compiled->text, compiled->attestation,
                          signing::SigningKey::DevelopmentKey());
  for (const kernel::VerifyMode mode :
       {kernel::VerifyMode::kStatic, kernel::VerifyMode::kBoth,
        kernel::VerifyMode::kAttest}) {
    Kernel kernel;
    auto policy = policy::PolicyModule::Insert(
        &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
    ASSERT_TRUE(policy.ok());
    ModuleLoader loader(&kernel, TrustedKeyring());
    loader.set_verify_mode(mode);
    auto loaded = loader.Insmod(good);
    ASSERT_TRUE(loaded.ok())
        << kernel::VerifyModeName(mode) << ": " << loaded.status().ToString();
    ASSERT_TRUE((*loaded)->Call("vt_init", {}).ok());
    auto r = (*loaded)->Call("vt_call", {0, 5, 3});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, 8u);  // slot 0 is h_add
  }
}

TEST(LoaderStaticVerifyTest, RenumberedCfiSiteRejected) {
  transform::CompileOptions options;
  options.inject_cfi_checks = true;
  auto compiled =
      transform::CompileModuleText(kirmods::IcallSource(), options);
  ASSERT_TRUE(compiled.ok());
  ASSERT_GE(compiled->attestation.cfi_sites.size(), 2u);

  // Point the first icall at the second (narrower) set: a stale or
  // maliciously renumbered site table.
  transform::AttestationRecord forged = compiled->attestation;
  forged.cfi_sites[0].set_id = forged.cfi_sites[1].set_id;

  Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  ModuleLoader loader(&kernel, TrustedKeyring());
  loader.set_verify_mode(kernel::VerifyMode::kBoth);
  auto loaded = loader.Insmod(signing::SignModule(
      compiled->text, forged, signing::SigningKey::DevelopmentKey()));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("cfi attestation"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(LoaderStaticVerifyTest, VerifyModeNamesAndDefault) {
  EXPECT_EQ(kernel::VerifyModeName(kernel::VerifyMode::kAttest), "attest");
  EXPECT_EQ(kernel::VerifyModeName(kernel::VerifyMode::kStatic), "static");
  EXPECT_EQ(kernel::VerifyModeName(kernel::VerifyMode::kBoth), "both");
}

TEST(HeapLedgerTest, FreeFromAnotherCpuLeavesTheAllocatingCpusRollbackSet) {
  // CPU 1's open call allocates twice; CPU 0 frees one of those blocks
  // (a pointer handed across CPUs). CPU 1's rollback must then reclaim
  // only the block still owned, or it would free the other one twice.
  kernel::HeapLedger ledger;
  {
    smp::ScopedCpu cpu1(1);
    ledger.BeginCall();
    ledger.OnAlloc(0x1000);
    ledger.OnAlloc(0x2000);
  }
  ledger.OnFree(0x1000);
  EXPECT_EQ(ledger.LiveSnapshot(), std::vector<uint64_t>{0x2000});
  EXPECT_TRUE(ledger.TakeMyCallNew().empty());  // CPU 0 opened nothing
  smp::ScopedCpu cpu1(1);
  EXPECT_EQ(ledger.TakeMyCallNew(), std::vector<uint64_t>{0x2000});
  EXPECT_TRUE(ledger.TakeMyCallNew().empty());
}

TEST(HeapLedgerTest, ConcurrentCpusKeepTheirOwnRollbackSets) {
  // Four CPUs open calls, allocate, free across CPUs and roll back at
  // once. Every CPU's rollback set must hold exactly its own open call's
  // surviving blocks, and the live set what nobody freed.
  constexpr uint32_t kCpus = 4;
  constexpr uint64_t kCalls = 500;
  kernel::HeapLedger ledger;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> bad_rollbacks{0};
  for (uint32_t cpu = 0; cpu < kCpus; ++cpu) {
    threads.emplace_back([&ledger, &bad_rollbacks, cpu] {
      smp::ScopedCpu bind(cpu);
      // Addresses encode (cpu, call, block) so every block is unique.
      auto addr = [cpu](uint64_t call, uint64_t block) {
        return (uint64_t{cpu + 1} << 32) | (call << 4) | (block << 3);
      };
      const uint32_t next = (cpu + 1) % kCpus;
      const auto foreign = [next](uint64_t call) {
        return (uint64_t{next + 1} << 32) | (call << 4);
      };
      for (uint64_t call = 1; call <= kCalls; ++call) {
        ledger.BeginCall();
        ledger.OnAlloc(addr(call, 0));
        ledger.OnAlloc(addr(call, 1));
        // Free a block the next CPU allocated in an earlier call (it may
        // not exist yet; freeing an unknown address is a no-op).
        if (call > 2) ledger.OnFree(foreign(call - 2));
        if (call % 2 == 0) {
          // Roll back: block 1 survives (block 0 of this call is only
          // ever freed by the previous CPU, two calls from now).
          const std::vector<uint64_t> mine = ledger.TakeMyCallNew();
          for (uint64_t a : mine) {
            if (a != addr(call, 0) && a != addr(call, 1)) ++bad_rollbacks;
          }
          for (uint64_t a : mine) ledger.OnFree(a);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad_rollbacks.load(), 0u);
  // Survivors: block 1 of every odd (committed) call on every CPU, and
  // block 0 of the odd calls whose cross-CPU free raced ahead of the
  // allocation or never came. Nothing from a rolled-back call survives.
  const std::vector<uint64_t> live = ledger.LiveSnapshot();
  uint64_t block1 = 0;
  for (uint64_t a : live) {
    const uint64_t call = (a & 0xffffffffu) >> 4;
    EXPECT_EQ(call % 2, 1u) << std::hex << a;
    if ((a & 8) != 0) ++block1;
  }
  EXPECT_EQ(block1, kCpus * (kCalls / 2));
  EXPECT_EQ(ledger.TakeAllLive().size(), live.size());
  EXPECT_TRUE(ledger.LiveSnapshot().empty());
}


// ---------------------------------------------------------------------
// The bind-once call protocol, on both engines: each external callee is
// bound when the engine is built and every call goes through its handle.
// Through the binding, a withdrawn export must fail and a re-exported
// one resolve, the kernel heap exports must feed the module's ledger, and
// every CPU slot the shared slot builder makes must behave the same.

const char* kBindSource = R"(module "kop_bind"

global @buf size 64 rw
global @cell size 8 rw

extern func @kmalloc(i64) -> i64
extern func @kfree(i64) -> i64

func @peek() -> i64 {
entry:
  %v = load i64, @cell
  ret i64 %v
}

func @gep_back() -> i64 {
entry:
  %p = gep @buf, i32 -1, 8, 16
  %v = ptrtoint ptr %p to i64
  ret i64 %v
}

func @grab(i64 %bytes) -> i64 {
entry:
  %a = call i64 @kmalloc(i64 %bytes)
  ret i64 %a
}

func @drop(i64 %a) -> i64 {
entry:
  %r = call i64 @kfree(i64 %a)
  ret i64 %r
}

func @poke(ptr %addr, i64 %value) -> i64 {
entry:
  store i64 %value, %addr
  ret i64 %value
}

func @fill(i64 %seed) -> i64 {
entry:
  jmp loop
loop:
  %i = phi i64 [ 0, entry ], [ %i1, body ]
  %done = icmp uge i64 %i, 8
  br %done, out, body
body:
  %slot = gep @buf, i64 %i, 8, 0
  %v = mul i64 %i, %seed
  store i64 %v, %slot
  %i1 = add i64 %i, 1
  jmp loop
out:
  ret i64 %i
}

func @mix(i64 %n) -> i64 {
entry:
  jmp loop
loop:
  %i = phi i64 [ 0, entry ], [ %i1, body ]
  %s = phi i64 [ 1, entry ], [ %s1, body ]
  %done = icmp uge i64 %i, %n
  br %done, out, body
body:
  %k = and i64 %i, 7
  %slot = gep @buf, i64 %k, 8, 0
  %v = load i64, %slot
  %x = mul i64 %s, 31
  %s1 = add i64 %x, %v
  %i1 = add i64 %i, 1
  jmp loop
out:
  ret i64 %s
}
)";

class LoaderBindTest : public ::testing::TestWithParam<kernel::ExecEngine> {
 protected:
  void SetUp() override {
    InsertPolicy();
    loader_.set_engine(GetParam());
    loader_.set_recovery_policy(resilience::RecoveryPolicy::kQuarantine);
    auto loaded = loader_.Insmod(CompileAndSign(kBindSource));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    module_ = *loaded;
    ASSERT_EQ(module_->engine_name(), kernel::ExecEngineName(GetParam()));
  }

  /// Default-allow policy that denies user space, quarantining on denial.
  void InsertPolicy() {
    auto inserted = policy::PolicyModule::Insert(
        &kernel_, nullptr, policy::PolicyMode::kDefaultAllow);
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    policy_ = std::move(*inserted);
    policy_->engine().SetViolationAction(policy::ViolationAction::kQuarantine);
    ASSERT_TRUE(policy_->engine()
                    .store()
                    .Add(policy::Region{0, kernel::kUserSpaceEnd,
                                        policy::kProtNone})
                    .ok());
  }

  Kernel kernel_;
  std::unique_ptr<policy::PolicyModule> policy_;
  ModuleLoader loader_{&kernel_, TrustedKeyring()};
  kernel::LoadedModule* module_ = nullptr;
};

TEST_P(LoaderBindTest, NegativeNarrowGepIndexSurvivesSigning) {
  // The signed text must carry the i32 index at its own width: widened
  // to i64 it would read back as +4294967295 elements.
  auto buf = module_->GlobalAddress("buf");
  ASSERT_TRUE(buf.ok());
  auto addr = module_->Call("gep_back", {});
  ASSERT_TRUE(addr.ok()) << addr.status().ToString();
  EXPECT_EQ(*addr, *buf + 8);
}

TEST_P(LoaderBindTest, GuardFailsWhilePolicyModuleIsOutThenResolvesAgain) {
  ASSERT_TRUE(module_->Call("peek", {}).ok());

  policy_.reset();  // rmmod the policy module: carat_guard is unexported
  auto orphaned = module_->Call("peek", {});
  ASSERT_FALSE(orphaned.ok());
  EXPECT_EQ(orphaned.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(orphaned.status().message(),
            "undefined kernel symbol: carat_guard");
  EXPECT_FALSE(module_->quarantined());

  InsertPolicy();
  auto resolved = module_->Call("peek", {});
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_EQ(*resolved, 0u);
}

TEST_P(LoaderBindTest, HeapCallsReachTheLedgerAndQuarantineReclaimsThem) {
  const uint64_t heap_before = kernel_.heap().Stats().allocation_count;
  auto a = module_->Call("grab", {128});
  auto b = module_->Call("grab", {64});
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_NE(*a, 0u);
  ASSERT_NE(*b, 0u);
  EXPECT_EQ(module_->heap_allocations(), (std::vector<uint64_t>{*a, *b}));
  ASSERT_TRUE(module_->Call("drop", {*a}).ok());
  EXPECT_EQ(module_->heap_allocations(), (std::vector<uint64_t>{*b}));
  EXPECT_EQ(kernel_.heap().Stats().allocation_count, heap_before + 1);

  // A store into user space is a guard violation: quarantine reclaims
  // what the module still owns.
  ASSERT_FALSE(module_->Call("poke", {0x1000, 1}).ok());
  ASSERT_TRUE(module_->quarantined());
  EXPECT_TRUE(module_->heap_allocations().empty());
  EXPECT_EQ(kernel_.heap().Stats().allocation_count, heap_before);
}

TEST_P(LoaderBindTest, EveryPreparedCpuSlotReturnsTheSameResults) {
  ASSERT_TRUE(module_->Call("fill", {7}).ok());
  ASSERT_TRUE(module_->PrepareCpus(4).ok());
  ASSERT_EQ(module_->prepared_cpus(), 4u);
  module_->ResetExecStats();

  const std::vector<std::pair<std::string, std::vector<uint64_t>>> script = {
      {"mix", {100}}, {"gep_back", {}}, {"peek", {}}, {"mix", {9}}};
  std::vector<std::vector<uint64_t>> results(4);
  for (uint32_t cpu = 0; cpu < 4; ++cpu) {
    smp::ScopedCpu on(cpu);
    for (const auto& [fn, args] : script) {
      auto result = module_->Call(fn, args);
      ASSERT_TRUE(result.ok()) << "cpu " << cpu << " @" << fn << ": "
                               << result.status().ToString();
      results[cpu].push_back(*result);
    }
  }
  const kir::InterpStats& boot = module_->CpuExecStats(0);
  EXPECT_GT(boot.loads, 0u);
  for (uint32_t cpu = 1; cpu < 4; ++cpu) {
    EXPECT_EQ(results[cpu], results[0]) << "cpu " << cpu;
    const kir::InterpStats& stats = module_->CpuExecStats(cpu);
    EXPECT_EQ(stats.steps, boot.steps) << "cpu " << cpu;
    EXPECT_EQ(stats.loads, boot.loads) << "cpu " << cpu;
    EXPECT_EQ(stats.stores, boot.stores) << "cpu " << cpu;
    EXPECT_EQ(stats.calls_external, boot.calls_external) << "cpu " << cpu;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, LoaderBindTest,
    ::testing::Values(kernel::ExecEngine::kInterp,
                      kernel::ExecEngine::kBytecode),
    [](const ::testing::TestParamInfo<kernel::ExecEngine>& info) {
      return std::string(kernel::ExecEngineName(info.param));
    });

}  // namespace
}  // namespace kop
