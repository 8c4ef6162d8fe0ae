// Benchmark-side spans: wall-clock scopes recorded by the benchmark's own
// code around each call into a layer of the simulator (nothing under
// src/ is instrumented). Spans nest per caller thread; each records its
// name, start, end, parent and the id of the top-level call it belongs
// to. Self time (duration minus the time covered by child spans) is
// folded into per-name totals as each span closes, and the first spans
// of each thread are kept in memory so they can be written out when the
// run ends.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "kop/net/socket.hpp"
#include "kop/nic/packet_sink.hpp"

namespace kopbench {

/// Monotonic host time in nanoseconds.
int64_t NowNs();

/// Every span the benchmark records. The prefix before the first '.' is
/// the repository module (layer) the span's time is charged to.
enum class SpanName : uint8_t {
  kNetSendmsg,          // PacketSocket::Sendmsg
  kE1000eXmit,          // Driver::XmitFrame / CleanTxRing via the netdev
  kE1000eBatch,         // Driver::XmitBatch
  kE1000ePoll,          // Driver::NapiPoll
  kNicSink,             // PacketSink::Deliver, called by the NIC model
  kModrtCall,           // LoadedModule::Call
  kTransformCompile,    // transform::CompileModuleText
  kSigningSign,         // signing::SignModule
  kKernelInsmod,        // ModuleLoader::Insmod
  kKernelInsmodReject,  // ModuleLoader::Insmod of an image it must refuse
  kKernelRmmod,         // ModuleLoader::Rmmod
  kPolicyUpdate,        // one /dev/carat add/remove ioctl
  kPolicyRepublishCall, // first guarded module call after an update
  // Probes: direct calls outside any top-level call, made only in traced
  // runs to split Insmod.
  kKirParse,            // kir::ParseModule
  kSigningValidate,     // signing::ValidateSignedModule
  kAnalysisVerify,      // analysis::AnalyzeModule
  kCount,
};
inline constexpr size_t kSpanNameCount = static_cast<size_t>(SpanName::kCount);

const char* SpanNameString(SpanName name);

/// Call id given to spans that belong to no top-level call (probes).
inline constexpr uint64_t kNoCall = ~uint64_t{0};

struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the same thread's records, -1 = root
  uint64_t call = kNoCall;
  SpanName name = SpanName::kCount;
};

struct SpanTotals {
  uint64_t count = 0;
  double total_ns = 0;  // sum of durations
  double self_ns = 0;   // sum of durations minus child coverage
};

/// One caller thread's spans. Cache-line aligned so neighbouring
/// callers' logs share no line.
class alignas(64) SpanLog {
 public:
  explicit SpanLog(size_t keep_records);

  /// Spans opened from now on belong to top-level call `call`.
  void SetCall(uint64_t call) { call_ = call; }

  void Open(SpanName name);
  void Close();

  const SpanTotals& totals(SpanName name) const {
    return totals_[static_cast<size_t>(name)];
  }
  /// Sum of the durations of root spans inside top-level calls, which
  /// equals the sum of every in-call span's self time.
  double in_call_root_ns() const { return in_call_root_ns_; }
  const std::vector<SpanRecord>& records() const { return records_; }

 private:
  struct OpenSpan {
    SpanName name;
    int64_t start_ns;
    double child_ns;
    int64_t record;  // index in records_, -1 when not kept
  };
  uint64_t call_ = kNoCall;
  size_t keep_;
  std::vector<OpenSpan> stack_;
  std::vector<SpanRecord> records_;
  std::array<SpanTotals, kSpanNameCount> totals_{};
  double in_call_root_ns_ = 0;
};

/// The calling thread's active log; null when the thread is untraced.
SpanLog*& CurrentSpanLog();

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name) : log_(CurrentSpanLog()) {
    if (log_ != nullptr) log_->Open(name);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

/// Write every kept span as one JSON object per line.
void WriteSpans(std::FILE* out, const std::vector<SpanLog>& logs);

/// PacketSink decorator charging each delivered frame to `nic`.
class SpanSink final : public kop::nic::PacketSink {
 public:
  explicit SpanSink(kop::nic::PacketSink* inner) : inner_(inner) {}
  void Deliver(const std::vector<uint8_t>& frame) override {
    ScopedSpan span(SpanName::kNicSink);
    inner_->Deliver(frame);
  }

 private:
  kop::nic::PacketSink* inner_;
};

/// NetDevice decorator charging time inside the driver to `e1000e`, so
/// the socket's own work is Sendmsg's self time.
class SpanNetDevice final : public kop::net::NetDevice {
 public:
  explicit SpanNetDevice(kop::net::NetDevice* inner) : inner_(inner) {}
  kop::Status Xmit(uint64_t frame_addr, uint32_t len) override {
    ScopedSpan span(SpanName::kE1000eXmit);
    return inner_->Xmit(frame_addr, len);
  }
  kop::Status CleanTx() override {
    ScopedSpan span(SpanName::kE1000eXmit);
    return inner_->CleanTx();
  }

 private:
  kop::net::NetDevice* inner_;
};

}  // namespace kopbench
