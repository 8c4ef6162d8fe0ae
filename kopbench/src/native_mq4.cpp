// native_mq4: four callers on four CPUs, one TX queue each, driving the
// native multi-queue e1000e (ProbeMq, 256-entry rings). Each call stages
// a seeded burst of 1-32 FlowSet frames with XmitBatch and then runs
// NapiPoll(budget 32). The guarded driver runs under the two-region rule
// with the match first, so lookup is trivial and the cost left is shared
// cross-CPU state on the guard slow path; a raw BaselineDriver stack
// gives the baseline.
#include <memory>
#include <vector>

#include "harness.hpp"
#include "kop/e1000e/driver.hpp"
#include "kop/net/frame.hpp"
#include "testbed.hpp"

namespace kopbench {
namespace {

using kop::e1000e::BaselineDriver;
using kop::e1000e::CaratDriver;
using kop::e1000e::TxFrame;

constexpr uint32_t kCallers = 4;
constexpr uint32_t kRing = 256;
constexpr uint32_t kBudget = 32;
constexpr uint32_t kMaxBurst = 32;
constexpr uint32_t kStagedPerCaller = 8;
constexpr size_t kBurstPool = 4096;
constexpr uint64_t kWarmupCalls = 64;
constexpr uint64_t kWindowCalls = 3000;

kop::e1000e::GuardedMemOps MakeOps(Testbed& bed, const CaratDriver*) {
  return kop::e1000e::GuardedMemOps(&bed.kernel(), &bed.policy()->engine());
}
kop::e1000e::RawMemOps MakeOps(Testbed& bed, const BaselineDriver*) {
  return kop::e1000e::RawMemOps(&bed.kernel());
}

template <typename DriverT>
class MqStack {
 public:
  MqStack(uint64_t seed)
      : bed_(std::is_same_v<DriverT, CaratDriver> ? Rules::kMatchFirst
                                                  : Rules::kNone) {
    if (!bed_.ok()) return;
    auto driver = DriverT::ProbeMq(MakeOps(bed_, static_cast<DriverT*>(nullptr)),
                                   kMmio, kRing, kCallers);
    if (!driver.ok()) {
      error_ = "probe: " + driver.status().ToString();
      return;
    }
    driver_ = std::make_unique<DriverT>(*driver);
    // Each caller transmits its own flows' frames from its own staging
    // buffers; XmitBatch needs frames of at least kEthZlen.
    const kop::net::FlowSet flows(kCallers * kStagedPerCaller, seed);
    SeedRng rng(seed);
    for (uint32_t c = 0; c < kCallers; ++c) {
      for (uint32_t j = 0; j < kStagedPerCaller; ++j) {
        auto wire = flows.MakeWire(c * kStagedPerCaller + j, 0);
        wire.resize(std::max<size_t>(wire.size(), kop::e1000e::kEthZlen), 0);
        auto addr = bed_.kernel().heap().Kmalloc(2048, 64);
        if (!addr.ok() ||
            !bed_.kernel().mem().Write(*addr, wire.data(), wire.size()).ok()) {
          error_ = "staging buffer";
          return;
        }
        callers_[c].staged[j] = TxFrame{*addr, static_cast<uint32_t>(wire.size())};
      }
      std::vector<uint32_t>& bursts = callers_[c].bursts;
      for (size_t i = 0; i < kBurstPool; ++i) {
        bursts.push_back(1 + static_cast<uint32_t>(i % kMaxBurst));
      }
      Shuffle(bursts, rng);
    }
  }

  bool ok() const { return bed_.ok() && error_.empty(); }
  std::string error() const { return bed_.ok() ? error_ : bed_.error(); }
  Testbed& bed() { return bed_; }

  /// XmitBatch of the caller's next seeded burst on its own queue, then
  /// one NAPI poll.
  int64_t Call(uint32_t caller, uint64_t index) {
    Caller& me = callers_[caller];
    const uint32_t n = me.bursts[index % kBurstPool];
    TxFrame frames[kMaxBurst];
    uint64_t bytes = 0;
    for (uint32_t k = 0; k < n; ++k) {
      frames[k] = me.staged[(index + k) % kStagedPerCaller];
      bytes += frames[k].len;
    }
    uint32_t queued = 0;
    {
      ScopedSpan span(SpanName::kE1000eBatch);
      if (!driver_->XmitBatch(caller, frames, n, &queued).ok()) return -1;
    }
    if (queued != n) return -1;
    ScopedSpan span(SpanName::kE1000ePoll);
    auto work = driver_->NapiPoll(caller, kBudget, nullptr);
    if (!work.ok()) return -1;
    me.frames += n;
    me.bytes += bytes;
    ++me.polls;
    me.poll_work += *work;
    return n;
  }

  CallFn Fn() {
    CallFn fn;
    fn.call = [this](uint32_t c, uint64_t i) { return Call(c, i); };
    return fn;
  }

  /// Polls and the descriptors they reclaimed, summed over callers.
  void PollTotals(double* polls, double* work) const {
    *polls = *work = 0;
    for (const Caller& c : callers_) {
      *polls += static_cast<double>(c.polls);
      *work += static_cast<double>(c.poll_work);
    }
  }

  void DrainAndCheck(Report& report, const char* what) {
    uint64_t frames = 0, bytes = 0, tx_packets = 0;
    for (uint32_t q = 0; q < kCallers; ++q) {
      for (int spins = 0; spins < 16; ++spins) {
        auto work = driver_->NapiPoll(q, 64, nullptr);
        report.Check(work.ok(), std::string(what) + ": drain poll");
        if (!work.ok() || *work == 0) break;
      }
      auto counters = driver_->CountersOn(q);
      report.Check(counters.ok() && counters->tx_cleaned == counters->tx_packets,
                   std::string(what) + ": descriptors in flight after drain");
      if (counters.ok()) tx_packets += counters->tx_packets;
      frames += callers_[q].frames;
      bytes += callers_[q].bytes;
    }
    report.Check(tx_packets == frames,
                 std::string(what) + ": driver tx_packets != frames sent");
    bed_.CheckDrained(report, kCallers, frames, bytes, what);
  }

 private:
  // One cache line per caller: the benchmark's own bookkeeping must not
  // add the cross-CPU sharing this workload exists to expose.
  struct alignas(64) Caller {
    TxFrame staged[kStagedPerCaller];
    std::vector<uint32_t> bursts;
    uint64_t frames = 0;
    uint64_t bytes = 0;
    uint64_t polls = 0;
    uint64_t poll_work = 0;
  };

  Testbed bed_;
  std::string error_;
  std::unique_ptr<DriverT> driver_;
  Caller callers_[kCallers];
};

template <typename DriverT>
std::unique_ptr<MqStack<DriverT>> SetUp(uint64_t seed, Cursor& cursor,
                                        Report& report) {
  auto stack = std::make_unique<MqStack<DriverT>>(seed);
  if (!stack->ok()) {
    report.Check(false, "native_mq4 set-up: " + stack->error());
    return nullptr;
  }
  cursor.assign(kCallers, 0);
  const WindowStats warm = RunWindow(kCallers, kWarmupCalls,
                                     stack->bed().kernel().clock(),
                                     stack->Fn(), cursor);
  report.CountCalls(warm.calls, warm.failed);
  report.Check(warm.failed == 0, "native_mq4 warm-up failed calls");
  return warm.failed == 0 ? std::move(stack) : nullptr;
}

template <typename DriverT>
WindowStats Window(MqStack<DriverT>& stack, Cursor& cursor, Counters* before,
                   Counters* after, double* reclaim_per_poll) {
  double polls0, work0, polls1, work1;
  stack.PollTotals(&polls0, &work0);
  stack.bed().ReadCounters(before);
  WindowStats w = RunWindow(kCallers, kWindowCalls,
                            stack.bed().kernel().clock(), stack.Fn(), cursor);
  stack.bed().ReadCounters(after);
  stack.PollTotals(&polls1, &work1);
  *reclaim_per_poll = (work1 - work0) / (polls1 - polls0) / kBudget;
  return w;
}

double DriverNsPerPacket(const LoopStats& loop) {
  double total = 0;
  for (const SpanLog& log : loop.spans) {
    total += log.totals(SpanName::kE1000eBatch).total_ns +
             log.totals(SpanName::kE1000ePoll).total_ns;
  }
  return loop.packets > 0 ? total / static_cast<double>(loop.packets) : 0;
}

}  // namespace

void RunNativeMq4(const Options& options, Report& report) {
  const double freq = kop::sim::MachineModel::R350().freq_hz;
  Cursor cursor, raw_cursor;
  std::unique_ptr<MqStack<CaratDriver>> stack;

  if (!options.trace) {
    report.Set("setup_s", TimeSetUps(
                              [&] {
                                stack = SetUp<CaratDriver>(options.seed,
                                                           cursor, report);
                                return stack != nullptr;
                              },
                              [&] { stack.reset(); }));
  } else {
    stack = SetUp<CaratDriver>(options.seed, cursor, report);
  }
  if (stack == nullptr) return;

  Counters before, after;
  double reclaim = 0;
  const WindowStats window = Window(*stack, cursor, &before, &after, &reclaim);
  EmitWindow(report, window, freq, before, after);
  report.Set("e1000e.reclaim_per_poll", reclaim);

  auto raw = SetUp<BaselineDriver>(options.seed, raw_cursor, report);
  if (raw == nullptr) return;
  Counters raw_before, raw_after;
  double raw_reclaim = 0;
  const WindowStats raw_window =
      Window(*raw, raw_cursor, &raw_before, &raw_after, &raw_reclaim);
  EmitGuardOverhead(report, window, raw_window, freq);

  if (!options.trace) {
    EmitLoop(report,
             RunClosedLoop(kCallers, options.seconds, stack->Fn(), cursor));
  } else {
    const TracedPair pair = RunTracedPair(kCallers, options.seconds / 2,
                                          stack->Fn(), stack->Fn(), cursor);
    const LoopStats single =
        RunClosedLoop(1, options.seconds / 4, stack->Fn(), cursor);
    const TracedPair raw_pair = RunTracedPair(
        kCallers, options.seconds / 4, raw->Fn(), raw->Fn(), raw_cursor);
    const LoopStats& traced = pair.traced;
    const LoopStats& raw_traced = raw_pair.traced;
    report.CountCalls(single.calls, single.failed);
    report.CountCalls(raw_pair.untraced.calls + raw_traced.calls,
                      raw_pair.untraced.failed + raw_traced.failed);
    report.Check(single.failed + raw_pair.untraced.failed +
                         raw_traced.failed == 0,
                 "single-caller or raw loop failed calls");
    EmitTraceSummary(report, pair);
    report.Set("smp.host_speedup",
               pair.untraced.pkts_per_s() / single.pkts_per_s());
    report.Set("e1000e.batch_ns",
               MeanSpanNs(traced, SpanName::kE1000eBatch, false));
    report.Set("e1000e.poll_ns",
               MeanSpanNs(traced, SpanName::kE1000ePoll, false));
    report.Set("e1000e.batch_raw_ns",
               MeanSpanNs(raw_traced, SpanName::kE1000eBatch, false));
    report.Set("e1000e.poll_raw_ns",
               MeanSpanNs(raw_traced, SpanName::kE1000ePoll, false));
    report.Set("nic.sink_ns", MeanSpanNs(traced, SpanName::kNicSink, false));
    const double raw_ns = DriverNsPerPacket(raw_traced);
    report.Set("e1000e.xmit_ns", raw_ns);
    const double guards = report.Get("policy.guards_per_pkt");
    report.Set("policy.guard_ns",
               guards > 0 ? (DriverNsPerPacket(traced) - raw_ns) / guards : 0);
    WriteSpansIfAsked(options, traced);
  }
  stack->DrainAndCheck(report, "native_mq4 guarded");
  raw->DrainAndCheck(report, "native_mq4 raw");
}

}  // namespace kopbench
