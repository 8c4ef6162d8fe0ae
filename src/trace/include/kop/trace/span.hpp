// kop::trace spans — nested RAII latency scopes over the virtual clock,
// the flight-recorder half of the observability stack. A `KOP_SPAN`
// scope stamps its begin/end on the per-CPU virtual clock and, when it
// closes, appends one record (begin tsc, duration, kind, depth, arg) to
// the calling thread's lane of the tracer's ring: the same single-writer
// lane its tracepoints go to, so a span costs no lock either. The ring
// is the always-on last-N "flight recorder": it survives containment, so
// the moments before a quarantine are always available to a postmortem
// bundle. Every span also feeds a per-CPU per-kind HistogramCell, folded
// exactly on read for interpolated p50/p90/p99/p999 queries. Like
// tracepoints, spans never charge simulated cycles, and the whole layer
// compiles out when the build sets KOP_SPANS_ENABLED=0.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "kop/smp/cpu.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/trace/trace.hpp"

namespace kop::trace {

/// The instrumented seams of a contained module call, outermost first.
/// Keep kSpanKinds in span.cpp in sync when adding one.
enum class SpanKind : uint8_t {
  kModuleCall = 0,   // LoadedModule::Call, end to end
  kEngineDispatch,   // the engine executing module code
  kGuardDecision,    // one policy guard check
  kJournalCommit,    // committing the call's write journal
  kJournalRollback,  // undoing the journal after containment
  kRecovery,         // containment + recovery (quarantine/restart)
  kNapiPoll,         // one NAPI poll iteration on a TX/RX queue pair
  kXmitBatch,        // staging a descriptor batch behind one doorbell
  kSpanKindCount,
};

inline constexpr size_t kSpanKindCount =
    static_cast<size_t>(SpanKind::kSpanKindCount);

/// Stable wire name, e.g. "span.guard_decision".
std::string_view SpanKindName(SpanKind kind);

/// One completed span, decoded from its lane record. `begin_tsc`/
/// `end_tsc` are virtual cycles on the recording CPU's clock; `depth` is
/// the thread's span-nesting depth at begin (module call = 0); `seq` is
/// the lane's record ordinal tagged with the lane, like TraceRecord::seq
/// (see MakeSeq).
struct SpanEvent {
  uint64_t begin_tsc = 0;
  uint64_t end_tsc = 0;
  uint64_t seq = 0;
  uint64_t arg = 0;
  SpanKind kind = SpanKind::kModuleCall;
  uint16_t cpu = 0;
  uint16_t depth = 0;
  uint64_t duration() const {
    return end_tsc >= begin_tsc ? end_tsc - begin_tsc : 0;
  }
};

/// Folded (all-CPU) latency summary for one span kind.
struct SpanStats {
  uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

namespace detail {
/// Spans the calling thread has open (BeginSpan without EndSpan yet).
extern constinit thread_local uint16_t t_span_depth;
}  // namespace detail

/// Spans as records in a TraceRing's per-thread lanes, plus per-CPU
/// per-kind duration histograms. The write path touches only the calling
/// thread's lane and its CPU's histogram cells; all folding happens on
/// the read side. GlobalSpans() writes into the global tracer's ring, so
/// its spans and tracepoints share lanes and budget.
class SpanRecorder {
 public:
  /// A recorder writing into `ring`'s lanes.
  explicit SpanRecorder(TraceRing& ring) : ring_(&ring) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  TraceRing& ring() { return *ring_; }

  /// Open a span on the calling thread: bumps its nesting depth and
  /// returns the begin timestamp (virtual cycles; 0 with no clock).
  uint64_t BeginSpan() {
    ++detail::t_span_depth;
    return NowTsc(smp::CurrentCpu());
  }

  /// Close a span opened by BeginSpan on the same thread.
  void EndSpan(SpanKind kind, uint64_t begin_tsc, uint64_t arg) {
    EndSpan(ring_->MyLane(), kind, begin_tsc, arg);
  }
  /// The same, into `lane`, which must be ring().MyLane() (callers that
  /// close many spans resolve it once).
  void EndSpan(TraceRing::Lane& lane, SpanKind kind, uint64_t begin_tsc,
               uint64_t arg);

  /// All retained spans merged across lanes, ordered by (begin_tsc, seq).
  std::vector<SpanEvent> Snapshot() const;

  /// The newest `n` spans recorded on `cpu`, oldest first: the flight-
  /// recorder tail a postmortem bundle embeds. Lanes merge by end time,
  /// each keeping its own completion order.
  std::vector<SpanEvent> Tail(uint32_t cpu, size_t n) const;

  /// Fold the per-CPU histograms for `kind` and compute interpolated
  /// percentiles — exact on read, nothing precomputed on the write path.
  SpanStats Stats(SpanKind kind) const;

  /// Spans recorded on every lane, folded.
  uint64_t total_recorded() const { return ring_->span_count(); }

  /// Human-readable per-kind latency table.
  std::string RenderText() const;

  /// Prometheus text exposition of the folded span histograms.
  std::string RenderPrometheus() const;

  /// Drop histograms, the calling thread's depth, and the ring's
  /// records: for GlobalSpans() that is the global tracer's ring, so its
  /// tracepoint records go too. Enable kept; NOT safe against concurrent
  /// writers.
  void Reset();

 private:
  /// `cpu`'s virtual time, truncated the way VirtualClock::ReadTsc reads
  /// the calling CPU's (the caller has already read its CPU id).
  static uint64_t NowTsc(uint32_t cpu) {
    const sim::VirtualClock* clock = GlobalTracer().clock();
    return clock != nullptr ? static_cast<uint64_t>(clock->CpuCycles(cpu))
                            : 0;
  }

  TraceRing* ring_;
  std::atomic<bool> enabled_{true};
  std::array<Log2Histogram, kSpanKindCount> hist_;  // per-CPU cells each
};

inline void SpanRecorder::EndSpan(TraceRing::Lane& lane, SpanKind kind,
                                  uint64_t begin_tsc, uint64_t arg) {
  const uint32_t cpu = smp::CurrentCpu();
  const uint64_t end_tsc = NowTsc(cpu);
  if (detail::t_span_depth > 0) --detail::t_span_depth;
  const uint64_t duration = end_tsc >= begin_tsc ? end_tsc - begin_tsc : 0;
  TraceRecord record;
  record.tsc = begin_tsc;
  record.event = EventId::kSpan;
  record.cpu = static_cast<uint16_t>(cpu);
  record.aux = static_cast<uint32_t>(kind) |
               uint32_t{detail::t_span_depth} << 16;
  record.args[0] = duration;
  record.args[1] = arg;
  ring_->Append(lane, record);
  const size_t k = static_cast<size_t>(kind);
  hist_[k < kSpanKindCount ? k : 0].Observe(static_cast<double>(duration));
}

/// The recorder every KOP_SPAN scope records into.
inline SpanRecorder& GlobalSpans() {
  static SpanRecorder recorder(GlobalTracer().ring());
  return recorder;
}

/// The RAII scope behind KOP_SPAN. Reads the enable flag once at entry;
/// a disabled recorder costs one relaxed load and a branch.
class SpanScope {
 public:
  explicit SpanScope(SpanKind kind, uint64_t arg = 0)
      : kind_(kind), arg_(arg), active_(GlobalSpans().enabled()) {
    if (active_) begin_ = GlobalSpans().BeginSpan();
  }
  ~SpanScope() {
    if (active_) GlobalSpans().EndSpan(kind_, begin_, arg_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanKind kind_;
  uint64_t arg_;
  uint64_t begin_ = 0;
  bool active_;
};

}  // namespace kop::trace

// Compile-time switch, mirroring KOP_TRACE_ENABLED: the build defines
// KOP_SPANS_ENABLED globally (CMake option, default ON); with it off
// every KOP_SPAN site compiles to nothing — no object, no destructor,
// no argument evaluation (the arguments stay named inside an unevaluated
// sizeof, as with KOP_TRACE).
#ifndef KOP_SPANS_ENABLED
#define KOP_SPANS_ENABLED 1
#endif

#if KOP_SPANS_ENABLED
#define KOP_SPAN_CONCAT_INNER(a, b) a##b
#define KOP_SPAN_CONCAT(a, b) KOP_SPAN_CONCAT_INNER(a, b)
#define KOP_SPAN(kind, ...)                                 \
  ::kop::trace::SpanScope KOP_SPAN_CONCAT(kop_span_scope_,  \
                                          __LINE__)(        \
      ::kop::trace::SpanKind::kind __VA_OPT__(, ) __VA_ARGS__)
#else
namespace kop::trace {
/// Declared, never defined: only named in unevaluated operands.
template <typename... Args>
int CompiledOutSite(const Args&...);
}  // namespace kop::trace
#define KOP_SPAN(kind, ...) \
  ((void)sizeof(::kop::trace::CompiledOutSite(__VA_ARGS__)))
#endif
