// kop::trace spans — nested RAII latency scopes over the virtual clock,
// the flight-recorder half of the observability stack. A `KOP_SPAN`
// scope stamps its begin/end on the per-CPU virtual clock and records a
// fixed-size SpanEvent into an always-on per-CPU last-N ring (the
// "flight recorder": it survives containment, so the moments before a
// quarantine are always available to a postmortem bundle). Every span
// also feeds a per-CPU per-kind Log2Histogram, folded exactly on read
// for interpolated p50/p90/p99/p999 queries. Like tracepoints, spans
// never charge simulated cycles, and the whole layer compiles out when
// the build sets KOP_SPANS_ENABLED=0.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "kop/smp/cpu.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/util/spinlock.hpp"

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

/// One completed span. `begin_tsc`/`end_tsc` are virtual cycles on the
/// recording CPU's clock; `depth` is the span-nesting depth at begin
/// (module call = 0); `seq` is the recording CPU's completion ordinal
/// tagged with the CPU, like TraceRecord::seq (see MakeSeq).
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

/// Per-CPU span rings plus per-CPU per-kind duration histograms. The
/// write path touches only the recording CPU's cache-line-padded slot
/// (one spinlock that is never contended when CPUs stay on their own
/// ring), including the seq, which comes from that slot's own count;
/// all cross-CPU folding happens on the read side.
class SpanRecorder {
 public:
  /// `per_cpu_capacity` rounded up to a power of two (min 64).
  explicit SpanRecorder(size_t per_cpu_capacity = 256);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Open a span on the current CPU: bumps the nesting depth and returns
  /// the begin timestamp (virtual cycles; 0 with no clock registered).
  uint64_t BeginSpan();

  /// Close a span opened by BeginSpan on the same CPU.
  void EndSpan(SpanKind kind, uint64_t begin_tsc, uint64_t arg);

  /// All retained spans merged across CPUs, ordered by (begin_tsc, seq).
  std::vector<SpanEvent> Snapshot() const;

  /// The newest `n` spans recorded on `cpu`, oldest first — the flight-
  /// recorder tail a postmortem bundle embeds.
  std::vector<SpanEvent> Tail(uint32_t cpu, size_t n) const;

  /// Fold the per-CPU histograms for `kind` and compute interpolated
  /// percentiles — exact on read, nothing precomputed on the write path.
  SpanStats Stats(SpanKind kind) const;

  /// Lifetime spans recorded on `cpu` for `kind` (0 = all kinds).
  uint64_t CpuCount(uint32_t cpu, SpanKind kind) const;

  /// Spans recorded on every CPU, folded.
  uint64_t total_recorded() const;

  /// Human-readable per-kind latency table.
  std::string RenderText() const;

  /// Prometheus text exposition of the folded span histograms.
  std::string RenderPrometheus() const;

  /// Drop retained spans, histograms, and depth state (enable kept).
  void Reset();

 private:
  struct alignas(64) Cpu {
    mutable Spinlock lock;
    std::vector<SpanEvent> slots;
    uint64_t count = 0;  // spans recorded on this CPU, ever
    uint16_t depth = 0;  // currently open spans (write path only)
    std::array<HistogramCell, kSpanKindCount> hist;
  };

  Cpu& Mine();

  size_t per_cpu_capacity_;
  uint64_t mask_;
  std::atomic<bool> enabled_{true};
  std::array<std::unique_ptr<Cpu>, smp::kMaxCpus> cpus_;
};

/// The recorder every KOP_SPAN scope records into.
SpanRecorder& GlobalSpans();

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
// no argument evaluation.
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
#define KOP_SPAN(kind, ...) ((void)0)
#endif
