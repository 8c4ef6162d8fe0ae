// control_plane: one caller runs a seeded stream of module load cycles,
// CompileModuleText -> SignModule -> Insmod -> one call -> Rmmod, over the
// corpus modules that load cleanly plus synthetic modules of 4, 16 and 64
// functions. About 10% of the images come from the adversarial corpus
// (guards placed wrong, attestation forged and validly signed) and must
// be refused at insmod. Every fourth cycle a /dev/carat ioctl adds or
// removes a decoy region and a guarded call on the resident
// kop_knic_mq driver follows, so the policy layer's write side (frame
// republish) is measured while the datapath layers sit idle.
#include <deque>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "kop/analysis/static_verifier.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/kir/parser.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/policy/ioctl_abi.hpp"
#include "kop/signing/signer.hpp"
#include "kop/signing/validator.hpp"
#include "kop/transform/attestation.hpp"
#include "kop/transform/compiler.hpp"
#include "testbed.hpp"

namespace kopbench {
namespace {

namespace kirmods = kop::kirmods;

// Divisible into 10% for the 6 forged images and 90% for the 7 honest
// modules.
constexpr size_t kPlanLength = 4200;
constexpr uint64_t kWindowCalls = 1200;
constexpr size_t kMaxDecoys = 4;
constexpr size_t kUpdateEvery = 4;  // cycles per policy update
constexpr uint32_t kResidentQueues = 4;

struct Honest {
  std::string name;
  std::string source;
  std::string entry;
  std::vector<uint64_t> args;
};

/// Corpus modules whose one call is safe under the two-region rule, plus
/// the synthetic sizes. Excluded: scribbler (its entries write wherever
/// they are told), privuser (privileged intrinsics are denied), knic and
/// knic_mq (they would reprogram the resident driver's device).
std::vector<Honest> HonestModules() {
  return {
      {"kop_hello", kirmods::HelloSource(), "init", {}},
      {"kop_ringbuf", kirmods::RingbufSource(), "rb_init", {}},
      {"kop_memcopy", kirmods::MemcopySource(), "fill", {16, 7}},
      {"kop_icall", kirmods::IcallSource(), "vt_init", {}},
      {"kop_synth", kirmods::SyntheticModuleSource(4, 8), "work0", {1}},
      {"kop_synth", kirmods::SyntheticModuleSource(16, 8), "work0", {1}},
      {"kop_synth", kirmods::SyntheticModuleSource(64, 8), "work0", {1}},
  };
}

/// What a hostile toolchain ships: the adversarial source with an
/// attestation claiming complete guards, signed with a trusted key.
kop::signing::SignedModule ForgeImage(const std::string& source) {
  auto module = kop::kir::ParseModule(source);
  kop::transform::AttestationRecord attestation =
      module.ok() ? kop::transform::Attest(**module)
                  : kop::transform::AttestationRecord{};
  attestation.guards_complete = true;
  attestation.guards_optimized = true;
  return kop::signing::SignModule(source, attestation,
                                  kop::signing::SigningKey::DevelopmentKey());
}

struct Cycle {
  int honest = -1;       // index into HonestModules, or
  int adversarial = -1;  // index into the forged images
  bool update = false;   // ioctl + resident call after the load cycle
  bool add = false;      // the update adds a decoy (else removes one)
  uint64_t queue = 0, len = 0, n = 0;  // the resident call
};

class ControlStack {
 public:
  ControlStack(uint64_t seed)
      : bed_(Rules::kMatchFirst),
        loader_(&bed_.kernel(), DevelopmentKeyring()) {
    if (!bed_.ok()) {
      error_ = bed_.error();
      return;
    }
    loader_.set_engine(kop::kernel::ExecEngine::kBytecode);
    honest_ = HonestModules();
    for (const kirmods::CorpusEntry& entry :
         kirmods::AdversarialCorpusModules()) {
      forged_.push_back(ForgeImage(entry.source));
    }
    // Exact shares (10% adversarial, honest modules equally), seeded order.
    SeedRng rng(seed);
    plan_.resize(kPlanLength);
    for (size_t i = 0; i < kPlanLength; ++i) {
      if (i < kPlanLength / 10) {
        plan_[i].adversarial = static_cast<int>(i % forged_.size());
      } else {
        plan_[i].honest = static_cast<int>(i % honest_.size());
      }
    }
    Shuffle(plan_, rng);
    for (size_t i = 0; i < kPlanLength; ++i) {
      Cycle& cycle = plan_[i];
      cycle.update = i % kUpdateEvery == kUpdateEvery - 1;
      cycle.add = rng.Below(2) == 0;
      cycle.queue = rng.Below(kResidentQueues);
      cycle.len = 60 + rng.Below(256 - 60 + 1);
      cycle.n = 1 + rng.Below(7);
    }

    double insmod_ms = 0;
    auto loaded = LoadKnicMq(loader_, seed, kResidentQueues, &insmod_ms);
    if (!loaded.ok()) {
      error_ = "load resident: " + loaded.status().ToString();
      return;
    }
    resident_ = *loaded;
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  Testbed& bed() { return bed_; }
  size_t honest_count() const { return honest_.size(); }
  size_t forged_count() const { return forged_.size(); }

  int64_t Call(uint64_t index) { return Run(plan_[index % kPlanLength]); }

  /// One load cycle (and, on update cycles, the policy update and the
  /// guarded resident call after it). Returns the resident's packets.
  int64_t Run(const Cycle& cycle) {
    kop::kernel::Kernel& kernel = bed_.kernel();
    const uint64_t heap_live = kernel.heap().Stats().allocation_count;
    const uint64_t area_live = kernel.module_area().Stats().allocation_count;
    if (cycle.adversarial >= 0) {
      ScopedSpan span(SpanName::kKernelInsmodReject);
      auto loaded = loader_.Insmod(forged_[cycle.adversarial]);
      if (loaded.ok()) {
        Fail("adversarial image loaded: " + (*loaded)->name());
        (void)loader_.Rmmod((*loaded)->name());
        return -1;
      }
    } else {
      const Honest& mod = honest_[cycle.honest];
      std::string text;
      kop::transform::AttestationRecord attestation;
      {
        // The compiler's IR is freed inside the span: releasing it is
        // the compiler's cost too.
        ScopedSpan span(SpanName::kTransformCompile);
        auto compiled = kop::transform::CompileModuleText(mod.source);
        if (!compiled.ok()) return Fail("compile " + mod.name);
        last_instructions_ = compiled->module->InstructionCount();
        text = std::move(compiled->text);
        attestation = std::move(compiled->attestation);
      }
      {
        ScopedSpan span(SpanName::kSigningSign);
        last_image_ = kop::signing::SignModule(
            text, attestation, kop::signing::SigningKey::DevelopmentKey());
      }
      last_source_ = &mod.source;
      kop::Result<kop::kernel::LoadedModule*> loaded =
          kop::Internal("not loaded");
      {
        ScopedSpan span(SpanName::kKernelInsmod);
        loaded = loader_.Insmod(last_image_);
      }
      if (!loaded.ok()) return Fail("insmod " + mod.name);
      {
        ScopedSpan span(SpanName::kModrtCall);
        if (!(*loaded)->Call(mod.entry, mod.args).ok()) {
          return Fail("call " + mod.name + "." + mod.entry);
        }
      }
      ScopedSpan span(SpanName::kKernelRmmod);
      if (!loader_.Rmmod(mod.name).ok()) return Fail("rmmod " + mod.name);
    }
    if (kernel.heap().Stats().allocation_count != heap_live ||
        kernel.module_area().Stats().allocation_count != area_live) {
      return Fail("kmalloc live set differs from before the load");
    }
    if (!cycle.update) return 0;
    {
      ScopedSpan span(SpanName::kPolicyUpdate);
      if (!UpdatePolicy(cycle.add)) return Fail("policy ioctl");
    }
    ScopedSpan span(SpanName::kPolicyRepublishCall);
    auto sent = resident_->Call("mq_send_batch",
                                {kMmio, cycle.queue, cycle.len, cycle.n});
    if (!sent.ok() || *sent != resident_sent_[cycle.queue] + cycle.n) {
      return Fail("resident mq_send_batch");
    }
    resident_sent_[cycle.queue] += cycle.n;
    frames_ += cycle.n;
    bytes_ += cycle.n * cycle.len;
    return static_cast<int64_t>(cycle.n);
  }

  /// Traced runs only, between cycles: parse, validate and analyze the
  /// last honest image directly, to split Insmod into its parts.
  void Probe() {
    if (last_source_ == nullptr) return;
    {
      ScopedSpan span(SpanName::kKirParse);
      (void)kop::kir::ParseModule(*last_source_);
    }
    kop::Result<kop::signing::ValidatedModule> validated =
        kop::Internal("not validated");
    {
      ScopedSpan span(SpanName::kSigningValidate);
      validated = kop::signing::ValidateSignedModule(last_image_,
                                                     loader_.keyring());
    }
    if (validated.ok()) {
      ScopedSpan span(SpanName::kAnalysisVerify);
      (void)kop::analysis::AnalyzeModule(*validated->module);
    }
    last_source_ = nullptr;
  }

  CallFn Fn(bool probes) {
    CallFn fn;
    fn.call = [this](uint32_t, uint64_t i) { return Call(i); };
    if (probes) {
      fn.after = [this](uint32_t, uint64_t) {
        instructions_ += last_instructions_;
        last_instructions_ = 0;  // adversarial cycles compile nothing
        Probe();
      };
    }
    return fn;
  }

  uint64_t instructions() const { return instructions_; }

  void Check(Report& report) {
    for (const std::string& failure : failures_) {
      report.Check(false, "control_plane: " + failure);
    }
    report.Check(!resident_->quarantined(), "control_plane: resident quarantined");
    bed_.CheckDrained(report, kResidentQueues, frames_, bytes_,
                      "control_plane");
  }

 private:
  int64_t Fail(const std::string& what) {
    if (failures_.size() < 16) failures_.push_back(what);
    return -1;
  }

  bool UpdatePolicy(bool add) {
    kop::policy::CaratRegionArg region;
    uint32_t cmd = kop::policy::KOP_IOCTL_ADD_REGION;
    if (decoys_.empty() || (add && decoys_.size() < kMaxDecoys)) {
      // In the non-canonical hole, as fig5 places decoys.
      region.base =
          kop::kernel::kUserSpaceEnd + ((next_decoy_++ % 64 + 2) << 24);
      region.len = 0x1000;
      region.prot = kop::policy::kProtRead;
      decoys_.push_back(region.base);
    } else {
      cmd = kop::policy::KOP_IOCTL_REMOVE_REGION;
      region.base = decoys_.front();
      decoys_.pop_front();
    }
    std::vector<uint8_t> arg = kop::policy::PackArg(region);
    return bed_.kernel()
        .devices()
        .Ioctl(kop::policy::kCaratDevicePath, cmd, arg)
        .ok();
  }

  Testbed bed_;
  kop::kernel::ModuleLoader loader_;
  std::string error_;
  std::vector<Honest> honest_;
  std::vector<kop::signing::SignedModule> forged_;
  std::vector<Cycle> plan_;
  kop::kernel::LoadedModule* resident_ = nullptr;
  uint64_t resident_sent_[kResidentQueues] = {};
  uint64_t frames_ = 0, bytes_ = 0;
  std::deque<uint64_t> decoys_;
  uint64_t next_decoy_ = 0;
  std::vector<std::string> failures_;
  // The last honest cycle's inputs, for Probe.
  kop::signing::SignedModule last_image_;
  const std::string* last_source_ = nullptr;
  uint64_t last_instructions_ = 0;
  uint64_t instructions_ = 0;
};

/// Build the stack and warm it up with one cycle of every honest and
/// every adversarial image, which is also the check that each honest
/// module loads cleanly and each forged one is refused.
std::unique_ptr<ControlStack> SetUp(uint64_t seed, Report& report) {
  auto stack = std::make_unique<ControlStack>(seed);
  if (!stack->ok()) {
    report.Check(false, "control_plane set-up: " + stack->error());
    return nullptr;
  }
  uint64_t failed = 0, calls = 0;
  for (size_t i = 0; i < stack->honest_count(); ++i, ++calls) {
    Cycle cycle;
    cycle.honest = static_cast<int>(i);
    if (stack->Run(cycle) < 0) ++failed;
  }
  for (size_t i = 0; i < stack->forged_count(); ++i, ++calls) {
    Cycle cycle;
    cycle.adversarial = static_cast<int>(i);
    if (stack->Run(cycle) < 0) ++failed;
  }
  report.CountCalls(calls, failed);
  if (failed > 0) {
    stack->Check(report);
    return nullptr;
  }
  return stack;
}

}  // namespace

void RunControlPlane(const Options& options, Report& report) {
  const double freq = kop::sim::MachineModel::R350().freq_hz;
  Cursor cursor(1, 0);
  std::unique_ptr<ControlStack> stack;

  if (!options.trace) {
    report.Set("setup_s", TimeSetUps(
                              [&] {
                                stack = SetUp(options.seed, report);
                                return stack != nullptr;
                              },
                              [&] { stack.reset(); }));
  } else {
    stack = SetUp(options.seed, report);
  }
  if (stack == nullptr) return;

  Counters before, after;
  stack->bed().ReadCounters(&before);
  const WindowStats window = RunWindow(1, kWindowCalls,
                                       stack->bed().kernel().clock(),
                                       stack->Fn(false), cursor);
  stack->bed().ReadCounters(&after);
  EmitWindow(report, window, freq, before, after);

  if (!options.trace) {
    const LoopStats loop =
        RunClosedLoop(1, options.seconds, stack->Fn(false), cursor);
    EmitLoop(report, loop);
    report.Set("loads_per_s", static_cast<double>(loop.calls) / loop.wall_s);
  } else {
    const uint64_t insts_before = stack->instructions();
    const TracedPair pair = RunTracedPair(1, options.seconds, stack->Fn(false),
                                          stack->Fn(true), cursor);
    const LoopStats& traced = pair.traced;
    EmitTraceSummary(report, pair);
    const double compiles =
        static_cast<double>(SpanCount(traced, SpanName::kTransformCompile));
    const double compile_ns = MeanSpanNs(traced, SpanName::kTransformCompile, false);
    const double insts = static_cast<double>(stack->instructions() - insts_before);
    report.Set("transform.compile_ms", compile_ns * 1e-6);
    report.Set("transform.compile_ns_per_inst",
               insts > 0 ? compile_ns * compiles / insts : 0);
    report.Set("kir.parse_us", MeanSpanNs(traced, SpanName::kKirParse, false) * 1e-3);
    report.Set("signing.sign_us",
               MeanSpanNs(traced, SpanName::kSigningSign, false) * 1e-3);
    const double validate_ns =
        MeanSpanNs(traced, SpanName::kSigningValidate, false);
    const double verify_ns = MeanSpanNs(traced, SpanName::kAnalysisVerify, false);
    const double insmod_ns = MeanSpanNs(traced, SpanName::kKernelInsmod, false);
    report.Set("signing.validate_us", validate_ns * 1e-3);
    report.Set("analysis.verify_ms", verify_ns * 1e-6);
    report.Set("kernel.insmod_ms", insmod_ns * 1e-6);
    report.Set("kernel.insmod_self_ms",
               (insmod_ns - validate_ns - verify_ns) * 1e-6);
    report.Set("kernel.rmmod_us",
               MeanSpanNs(traced, SpanName::kKernelRmmod, false) * 1e-3);
    report.Set("modrt.call_ns", MeanSpanNs(traced, SpanName::kModrtCall, false));
    report.Set("policy.update_us",
               MeanSpanNs(traced, SpanName::kPolicyUpdate, false) * 1e-3);
    report.Set("policy.republish_call_us",
               MeanSpanNs(traced, SpanName::kPolicyRepublishCall, false) * 1e-3);
    WriteSpansIfAsked(options, traced);
  }
  stack->Check(report);
}

}  // namespace kopbench
