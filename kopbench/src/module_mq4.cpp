// module_mq4: four callers drive the kop_knic_mq KIR driver, compiled,
// signed and insmod'ed on the bytecode engine with the default
// verify/elide/CFI settings, then prepared for four CPUs. Each caller
// sends mq_send_batch bursts on its own queue (seeded len 60-256 and
// n 1-7; the module's ring has 8 slots). The only workload whose cost is
// KIR dispatch, inline fast-path guards on the pinned frame, the write
// journal and the module-call path; it bypasses net and the native
// driver.
#include <memory>
#include <vector>

#include "harness.hpp"
#include "kop/kernel/module_loader.hpp"
#include "testbed.hpp"

namespace kopbench {
namespace {

constexpr uint32_t kCallers = 4;
constexpr size_t kInputPool = 4095;  // a multiple of the 7 burst sizes
constexpr uint64_t kWarmupCalls = 64;
constexpr uint64_t kWindowCalls = 20000;

class ModuleStack {
 public:
  ModuleStack(uint64_t seed, double* insmod_ms)
      : bed_(Rules::kMatchFirst),
        loader_(&bed_.kernel(), DevelopmentKeyring()) {
    if (!bed_.ok()) {
      error_ = bed_.error();
      return;
    }
    loader_.set_engine(kop::kernel::ExecEngine::kBytecode);
    auto loaded = LoadKnicMq(loader_, seed, kCallers, insmod_ms);
    if (!loaded.ok()) {
      error_ = "load kop_knic_mq: " + loaded.status().ToString();
      return;
    }
    module_ = *loaded;
    if (kop::Status s = loader_.PrepareCpus(kCallers); !s.ok()) {
      error_ = "prepare cpus: " + s.ToString();
      return;
    }
    SeedRng rng(seed);
    for (Caller& c : callers_) {
      // Every burst size 1-7 in equal shares, seeded order and lengths.
      for (size_t i = 0; i < kInputPool; ++i) {
        c.inputs.push_back(Input{60 + rng.Below(256 - 60 + 1), 1 + i % 7});
      }
      Shuffle(c.inputs, rng);
    }
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  Testbed& bed() { return bed_; }

  int64_t Call(uint32_t caller, uint64_t index) {
    Caller& me = callers_[caller];
    const Input& in = me.inputs[index % kInputPool];
    ScopedSpan span(SpanName::kModrtCall);
    auto sent = module_->Call("mq_send_batch", {kMmio, caller, in.len, in.n});
    // The module returns its queue's running send count.
    if (!sent.ok() || *sent != me.frames + in.n) {
      me.error = sent.ok() ? "mq_send_batch returned " + std::to_string(*sent) +
                                 ", expected " + std::to_string(me.frames + in.n)
                           : "mq_send_batch: " + sent.status().ToString();
      return -1;
    }
    me.frames += in.n;
    me.bytes += in.n * in.len;
    return static_cast<int64_t>(in.n);
  }

  CallFn Fn() {
    CallFn fn;
    fn.call = [this](uint32_t c, uint64_t i) { return Call(c, i); };
    // Each CPU's engine has a lifetime budget of InterpConfig::max_steps
    // (50M) that only ResetExecStats replenishes; at ~70 steps per call a
    // CPU exhausts it after ~700k calls (about 12 s on a 4-core host), and
    // from then on every call fails. Reset between slices, with no call in
    // flight, so the loop measures steady-state cost.
    fn.between_slices = [this] { module_->ResetExecStats(); };
    return fn;
  }

  void ReadCounters(Counters* out) {
    bed_.ReadCounters(out);
    for (uint32_t c = 0; c < kCallers; ++c) {
      out->steps += static_cast<double>(module_->CpuExecStats(c).steps);
    }
    out->journal_entries = static_cast<double>(
        module_->journaled_memory().journal().total_entries_recorded());
  }

  void Check(Report& report) {
    report.Check(!module_->quarantined(), "module_mq4: module quarantined");
    uint64_t frames = 0, bytes = 0;
    for (const Caller& c : callers_) {
      frames += c.frames;
      bytes += c.bytes;
      report.Check(c.error.empty(), "module_mq4: " + c.error);
    }
    bed_.CheckDrained(report, kCallers, frames, bytes, "module_mq4");
  }

 private:
  struct Input {
    uint64_t len = 0;
    uint64_t n = 0;
  };
  struct alignas(64) Caller {
    std::vector<Input> inputs;
    uint64_t frames = 0;
    uint64_t bytes = 0;
    std::string error;  // why the caller's last failed call failed
  };

  Testbed bed_;
  kop::kernel::ModuleLoader loader_;
  std::string error_;
  kop::kernel::LoadedModule* module_ = nullptr;
  Caller callers_[kCallers];
};

std::unique_ptr<ModuleStack> SetUp(uint64_t seed, Cursor& cursor,
                                   Report& report, double* insmod_ms) {
  auto stack = std::make_unique<ModuleStack>(seed, insmod_ms);
  if (!stack->ok()) {
    report.Check(false, "module_mq4 set-up: " + stack->error());
    return nullptr;
  }
  cursor.assign(kCallers, 0);
  const WindowStats warm = RunWindow(kCallers, kWarmupCalls,
                                     stack->bed().kernel().clock(),
                                     stack->Fn(), cursor);
  report.CountCalls(warm.calls, warm.failed);
  report.Check(warm.failed == 0, "module_mq4 warm-up failed calls");
  return warm.failed == 0 ? std::move(stack) : nullptr;
}

}  // namespace

void RunModuleMq4(const Options& options, Report& report) {
  const double freq = kop::sim::MachineModel::R350().freq_hz;
  Cursor cursor;
  std::unique_ptr<ModuleStack> stack;
  double insmod_ms = 0;

  if (!options.trace) {
    report.Set("setup_s", TimeSetUps(
                              [&] {
                                stack = SetUp(options.seed, cursor, report,
                                              &insmod_ms);
                                return stack != nullptr;
                              },
                              [&] { stack.reset(); }));
  } else {
    stack = SetUp(options.seed, cursor, report, &insmod_ms);
    report.Set("kernel.insmod_ms", insmod_ms);
  }
  if (stack == nullptr) return;

  Counters before, after;
  stack->ReadCounters(&before);
  const WindowStats window = RunWindow(
      kCallers, kWindowCalls, stack->bed().kernel().clock(), stack->Fn(), cursor);
  stack->ReadCounters(&after);
  EmitWindow(report, window, freq, before, after);

  if (!options.trace) {
    EmitLoop(report,
             RunClosedLoop(kCallers, options.seconds, stack->Fn(), cursor));
  } else {
    const TracedPair pair = RunTracedPair(kCallers, options.seconds * 2 / 3,
                                          stack->Fn(), stack->Fn(), cursor);
    const LoopStats single =
        RunClosedLoop(1, options.seconds / 3, stack->Fn(), cursor);
    const LoopStats& traced = pair.traced;
    report.CountCalls(single.calls, single.failed);
    report.Check(single.failed == 0, "single-caller loop failed calls");
    EmitTraceSummary(report, pair);
    report.Set("smp.host_speedup",
               pair.untraced.pkts_per_s() / single.pkts_per_s());
    report.Set("modrt.call_ns",
               MeanSpanNs(traced, SpanName::kModrtCall, false));
    report.Set("nic.sink_ns", MeanSpanNs(traced, SpanName::kNicSink, false));
    const double steps = report.Get("kir.steps_per_call");
    report.Set("kir.ns_per_step",
               steps > 0 ? MeanSpanNs(traced, SpanName::kModrtCall, true) / steps
                         : 0);
    WriteSpansIfAsked(options, traced);
  }
  stack->Check(report);
}

}  // namespace kopbench
