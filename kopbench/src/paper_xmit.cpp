// paper_xmit: the paper's experiment at its worst case. One caller sends
// PacketSocket::Sendmsg into the CARAT-guarded native e1000e on the R350
// model, frames of {64, 128, 256, 1500} B in a seeded order, with the
// two-region rule behind 62 decoys so every guard scans the full
// 64-entry table (Fig 5 n=64, Fig 6 small frames). A raw BaselineDriver
// stack sends the same frames with the same socket noise stream for the
// guarded-vs-raw delta.
#include <memory>
#include <vector>

#include "harness.hpp"
#include "kop/e1000e/driver.hpp"
#include "kop/net/frame.hpp"
#include "kop/net/socket.hpp"
#include "testbed.hpp"

namespace kopbench {
namespace {

using kop::e1000e::BaselineDriver;
using kop::e1000e::CaratDriver;

// Each size costs a distinct amount per call, so per-call latency is a
// mix of four modes. With equal shares the median falls exactly between
// two modes and flips between them from run to run; these shares put the
// host and the virtual medians inside a mode and the p99s inside the
// slowest size's tail (64 B on the host, 1500 B on the virtual clock).
struct SizeShare {
  uint32_t bytes;
  uint32_t tenths;
};
constexpr SizeShare kSizes[] = {{64, 2}, {128, 4}, {256, 2}, {1500, 2}};
constexpr size_t kPoolFrames = 4000;
constexpr uint64_t kWarmupCalls = 512;
constexpr uint64_t kWindowCalls = 40000;

/// Testbed + native driver + net device + socket.
class XmitStack {
 public:
  XmitStack(bool guarded, uint64_t noise_seed)
      : bed_(guarded ? Rules::kScanAll : Rules::kNone) {
    if (!bed_.ok()) return;
    kop::kernel::Kernel* kernel = &bed_.kernel();
    if (guarded) {
      auto driver = CaratDriver::Probe(
          kop::e1000e::GuardedMemOps(kernel, &bed_.policy()->engine()), kMmio);
      if (!driver.ok()) return;
      carat_ = std::make_unique<CaratDriver>(*driver);
      netdev_ = std::make_unique<kop::net::DriverNetDevice<CaratDriver>>(
          carat_.get());
    } else {
      auto driver =
          BaselineDriver::Probe(kop::e1000e::RawMemOps(kernel), kMmio);
      if (!driver.ok()) return;
      raw_ = std::make_unique<BaselineDriver>(*driver);
      netdev_ = std::make_unique<kop::net::DriverNetDevice<BaselineDriver>>(
          raw_.get());
    }
    span_netdev_ = std::make_unique<SpanNetDevice>(netdev_.get());
    socket_ = std::make_unique<kop::net::PacketSocket>(
        kernel, span_netdev_.get(), noise_seed);
  }

  bool ok() const { return socket_ != nullptr && socket_->skb_addr() != 0; }
  Testbed& bed() { return bed_; }

  int64_t Send(const std::vector<uint8_t>& frame) {
    ScopedSpan span(SpanName::kNetSendmsg);
    auto sent = socket_->Sendmsg(frame);
    if (!sent.ok()) return -1;
    ++frames_;
    bytes_ += frame.size();
    return 1;
  }

  /// The measurement tool's inter-call overhead (PacketGun's loop).
  void BetweenCalls() {
    bed_.kernel().clock().Advance(bed_.kernel().machine().inter_call_cycles);
  }

  void DrainAndCheck(Report& report, const char* what) {
    auto cleaned = carat_ ? carat_->CleanTxRing() : raw_->CleanTxRing();
    report.Check(cleaned.ok(), std::string(what) + ": final reclaim");
    auto counters = carat_ ? carat_->Counters() : raw_->Counters();
    report.Check(counters.ok() && counters->tx_packets == frames_,
                 std::string(what) + ": driver tx_packets != frames sent");
    bed_.CheckDrained(report, 1, frames_, bytes_, what);
  }

 private:
  Testbed bed_;
  std::unique_ptr<CaratDriver> carat_;
  std::unique_ptr<BaselineDriver> raw_;
  std::unique_ptr<kop::net::NetDevice> netdev_;
  std::unique_ptr<SpanNetDevice> span_netdev_;
  std::unique_ptr<kop::net::PacketSocket> socket_;
  uint64_t frames_ = 0;
  uint64_t bytes_ = 0;
};

std::vector<std::vector<uint8_t>> MakeFramePool(uint64_t seed) {
  SeedRng rng(seed);
  std::vector<uint32_t> sizes;
  for (const SizeShare& share : kSizes) {
    sizes.insert(sizes.end(), kPoolFrames * share.tenths / 10, share.bytes);
  }
  Shuffle(sizes, rng);
  std::vector<std::vector<uint8_t>> pool;
  pool.reserve(sizes.size());
  for (uint32_t size : sizes) {
    pool.push_back(
        kop::net::MakeTestFrame(size, static_cast<uint8_t>(rng.Next()))
            .Serialize());
  }
  return pool;
}

CallFn SendFn(XmitStack& stack,
              const std::vector<std::vector<uint8_t>>& pool) {
  CallFn fn;
  fn.call = [&stack, &pool](uint32_t, uint64_t index) {
    return stack.Send(pool[index % pool.size()]);
  };
  fn.after = [&stack](uint32_t, uint64_t) { stack.BetweenCalls(); };
  return fn;
}

/// Build a stack and warm it up; null (with a failed check) on error.
std::unique_ptr<XmitStack> SetUp(bool guarded, const Options& options,
                                 const std::vector<std::vector<uint8_t>>& pool,
                                 Cursor& cursor, Report& report) {
  auto stack = std::make_unique<XmitStack>(guarded, options.seed);
  if (!stack->ok()) {
    report.Check(false, "paper_xmit set-up: " + stack->bed().error());
    return nullptr;
  }
  cursor.assign(1, 0);
  const WindowStats warm = RunWindow(1, kWarmupCalls,
                                     stack->bed().kernel().clock(),
                                     SendFn(*stack, pool), cursor);
  report.CountCalls(warm.calls, warm.failed);
  report.Check(warm.failed == 0, "paper_xmit warm-up failed calls");
  return warm.failed == 0 ? std::move(stack) : nullptr;
}

WindowStats Window(XmitStack& stack, const std::vector<std::vector<uint8_t>>& pool,
                   Cursor& cursor, Counters* before, Counters* after) {
  stack.bed().ReadCounters(before);
  WindowStats w = RunWindow(1, kWindowCalls, stack.bed().kernel().clock(),
                            SendFn(stack, pool), cursor);
  stack.bed().ReadCounters(after);
  return w;
}

}  // namespace

void RunPaperXmit(const Options& options, Report& report) {
  const auto pool = MakeFramePool(options.seed);
  const double freq = kop::sim::MachineModel::R350().freq_hz;
  Cursor cursor, raw_cursor;
  std::unique_ptr<XmitStack> stack;

  if (!options.trace) {
    const double setup_s = TimeSetUps(
        [&] {
          stack = SetUp(true, options, pool, cursor, report);
          return stack != nullptr;
        },
        [&] { stack.reset(); });
    report.Set("setup_s", setup_s);
  } else {
    stack = SetUp(true, options, pool, cursor, report);
  }
  if (stack == nullptr) return;

  Counters before, after;
  const WindowStats window = Window(*stack, pool, cursor, &before, &after);
  EmitWindow(report, window, freq, before, after);

  auto raw = SetUp(false, options, pool, raw_cursor, report);
  if (raw == nullptr) return;
  Counters raw_before, raw_after;
  const WindowStats raw_window =
      Window(*raw, pool, raw_cursor, &raw_before, &raw_after);
  EmitGuardOverhead(report, window, raw_window, freq);

  if (!options.trace) {
    EmitLoop(report,
             RunClosedLoop(1, options.seconds, SendFn(*stack, pool), cursor));
  } else {
    const TracedPair pair =
        RunTracedPair(1, options.seconds * 2 / 3, SendFn(*stack, pool),
                      SendFn(*stack, pool), cursor);
    const TracedPair raw_pair =
        RunTracedPair(1, options.seconds / 3, SendFn(*raw, pool),
                      SendFn(*raw, pool), raw_cursor);
    const LoopStats& traced = pair.traced;
    const LoopStats& raw_traced = raw_pair.traced;
    report.CountCalls(raw_pair.untraced.calls + raw_traced.calls,
                      raw_pair.untraced.failed + raw_traced.failed);
    report.Check(raw_pair.untraced.failed + raw_traced.failed == 0,
                 "raw traced-run loop failed calls");
    EmitTraceSummary(report, pair);
    report.Set("net.sendmsg_self_ns",
               MeanSpanNs(traced, SpanName::kNetSendmsg, true));
    report.Set("nic.sink_ns", MeanSpanNs(traced, SpanName::kNicSink, false));
    // Driver time per packet: every span inside the netdev, including
    // the NIC model and sink underneath it.
    auto driver_ns_per_pkt = [](const LoopStats& loop) {
      double total = 0;
      for (const SpanLog& log : loop.spans) {
        total += log.totals(SpanName::kE1000eXmit).total_ns;
      }
      return loop.packets > 0 ? total / static_cast<double>(loop.packets) : 0;
    };
    const double raw_ns = driver_ns_per_pkt(raw_traced);
    report.Set("e1000e.xmit_ns", raw_ns);
    const double guards = report.Get("policy.guards_per_pkt");
    report.Set("policy.guard_ns",
               guards > 0 ? (driver_ns_per_pkt(traced) - raw_ns) / guards : 0);
    WriteSpansIfAsked(options, traced);
  }
  stack->DrainAndCheck(report, "paper_xmit guarded");
  raw->DrainAndCheck(report, "paper_xmit raw");
}

}  // namespace kopbench
