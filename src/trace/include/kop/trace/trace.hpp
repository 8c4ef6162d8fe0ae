// kop::trace — the ftrace analogue for the simulated kernel. Static
// tracepoints (`KOP_TRACE(event, args...)`) record fixed-size records
// (virtual-cycle timestamp, event id, up to four integer args) into the
// recording CPU's lane of a fixed-budget ring; nothing on the record path
// is shared between CPUs. Tracepoints compile out entirely when the build
// sets KOP_TRACE_ENABLED=0, so the hot seams (guards, descriptor
// fetches, ioctls) carry zero code when observability is off. All
// timestamps come from the virtual clock — instrumentation never charges
// simulated cycles, so enabling tracing cannot perturb an experiment.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "kop/sim/clock.hpp"
#include "kop/smp/cpu.hpp"
#include "kop/util/spinlock.hpp"

namespace kop::trace {

/// Every static tracepoint in the tree. Keep EventName/EventCategory/
/// EventArgNames in trace.cpp in sync when adding one.
enum class EventId : uint16_t {
  kNone = 0,
  // Guard runtime (policy engine).
  kGuardCheck,        // addr, size, access_flags, site token
  kGuardDeny,         // addr, size, access_flags, site token
  kIntrinsicCheck,    // intrinsic id, allowed, 0, site token
  kPolicyLookup,      // entries scanned, table size
  // Module lifecycle (loader + validator).
  kModuleVerify,      // ok (1/0)
  kModuleLoad,        // instructions, guard count
  kModuleQuarantine,  // violating addr, size, site token
  kModuleStaticReject,  // error count, instruction count
  // Resilience (transactional module calls + recovery).
  kModuleRollback,    // journal entries undone, bytes restored, reason
  kModuleTimeout,     // steps at expiry, per-call step budget
  kModuleRestart,     // attempt number, ok (1/0)
  kFaultInjected,     // injector kind, injection point, detail
  // NIC hardware (DMA engine) and driver transmit path.
  kNicDescFetch,      // descriptor addr, head index
  kNicXmit,           // frame bytes, ring occupancy after
  kXmitFrame,         // frame bytes, descriptor slot
  // Kernel core.
  kPanic,             // 0
  kIoctl,             // cmd, device ordinal
  // Flight recorder (kop::flight).
  kPostmortemCapture,  // reason ordinal, incident count, cpu
  kEventCount,
};

inline constexpr size_t kEventCount =
    static_cast<size_t>(EventId::kEventCount);

/// Stable wire name, e.g. "guard.check".
std::string_view EventName(EventId id);

/// Subsystem bucket, e.g. "guard", "loader", "nic", "kernel".
std::string_view EventCategory(EventId id);

/// Display names of the four args (nullptr-terminated early when fewer).
std::array<const char*, 4> EventArgNames(EventId id);

/// `seq` packs the recording CPU into its top bits above that CPU's own
/// firing ordinal, so it is unique across CPUs and increases within each
/// CPU (monotonic even after the lane wraps) without a shared counter.
/// CPU 0's seq is just its ordinal, so a single-CPU run numbers records
/// 0, 1, 2, ... exactly as a global counter would.
inline constexpr unsigned kSeqCpuShift = 48;
inline constexpr uint64_t MakeSeq(uint32_t cpu, uint64_t ordinal) {
  return (uint64_t{cpu} << kSeqCpuShift) | ordinal;
}
inline constexpr uint32_t SeqCpu(uint64_t seq) {
  return static_cast<uint32_t>(seq >> kSeqCpuShift);
}
inline constexpr uint64_t SeqOrdinal(uint64_t seq) {
  return seq & ((uint64_t{1} << kSeqCpuShift) - 1);
}

/// One tracepoint firing. Fixed size; `seq` is the per-CPU firing
/// ordinal tagged with the CPU (see MakeSeq); `cpu` is the simulated CPU
/// the tracepoint fired on (thread id in Chrome-trace exports).
struct TraceRecord {
  uint64_t tsc = 0;   // virtual cycles at firing time
  uint64_t seq = 0;
  EventId event = EventId::kNone;
  uint16_t cpu = 0;
  uint32_t pad32 = 0;
  uint64_t args[4] = {0, 0, 0, 0};
};

/// Fixed-budget ring of TraceRecords with one lane per recording CPU,
/// ftrace's per-cpu ring buffers. A CPU's lane is allocated on its first
/// record; appends, per-event counts and seq numbering touch only that
/// lane (its spinlock is never contended while CPUs stay on their own
/// lane), and every total is folded across lanes on read.
///
/// `capacity` is the record budget of the whole ring. Lanes share it:
/// each lane may hold at most capacity / lanes (rounded down to a power
/// of two), so a lone CPU keeps the newest `capacity` records exactly as
/// a single ring would, and N CPUs together never hold more. Lanes start
/// small and double until they reach that share; a new lane lowers the
/// share and trims larger lanes to their newest records. Once a lane is
/// full it overwrites its oldest records (ftrace overwrite mode).
class TraceRing {
 public:
  /// `capacity` is rounded up to a power of two (min 64).
  explicit TraceRing(size_t capacity = 1 << 14);
  ~TraceRing();
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Append into the lane of `record.cpu` (< smp::kMaxCpus), the CPU
  /// the record was stamped on; it assigns `record.seq`.
  void Append(TraceRecord record);

  /// The record budget shared by all lanes.
  size_t capacity() const { return capacity_; }
  /// Total records ever appended (including overwritten ones).
  uint64_t total_appended() const;
  uint64_t dropped() const;
  /// Lifetime appends of `id`, folded across lanes.
  uint64_t event_count(EventId id) const;

  /// Retained records merged across lanes into one stream ordered by
  /// virtual-clock timestamp (seq breaks ties), so an SMP run exports a
  /// monotonic timeline instead of lane-concatenation order. Per-CPU
  /// virtual clocks are monotone, so within a lane this degenerates to
  /// append (seq) order.
  std::vector<TraceRecord> Snapshot() const;

  /// Drop every lane (the next record on each CPU allocates a fresh
  /// one). NOT safe against concurrent Append.
  void Clear();

 private:
  struct Lane;

  Lane& MyLane(uint32_t cpu);
  Lane& AddLane(uint32_t cpu);
  /// fn(lane) for every allocated lane, under that lane's lock.
  template <typename Fn>
  void ForEachLane(Fn&& fn) const;

  size_t capacity_;
  std::array<std::atomic<Lane*>, smp::kMaxCpus> lanes_{};
  Spinlock add_lock_;  // serializes lane creation and re-sharing
  uint32_t lane_count_ = 0;  // guarded by add_lock_
};

/// The process-wide tracer: the ring, an enable switch, per-event
/// counters, and the virtual clock used for timestamps. The Kernel
/// registers its clock at construction; with no clock registered,
/// records carry tsc 0.
class Tracer {
 public:
  Tracer() = default;

  void SetClock(const sim::VirtualClock* clock) {
    clock_.store(clock, std::memory_order_release);
  }
  const sim::VirtualClock* clock() const {
    return clock_.load(std::memory_order_acquire);
  }

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// The tracepoint body. Cheap no-op when runtime-disabled; not emitted
  /// at all when compile-time disabled (see KOP_TRACE below).
  void Record(EventId event, uint64_t a0 = 0, uint64_t a1 = 0,
              uint64_t a2 = 0, uint64_t a3 = 0);

  TraceRing& ring() { return ring_; }
  const TraceRing& ring() const { return ring_; }

  /// Lifetime firings per event id (index by EventId value).
  uint64_t event_count(EventId id) const { return ring_.event_count(id); }

  /// Clear the ring and per-event counters (clock and enable kept).
  void Reset();

 private:
  std::atomic<bool> enabled_{true};
  std::atomic<const sim::VirtualClock*> clock_{nullptr};
  TraceRing ring_;
};

/// The tracer every KOP_TRACE site records into.
inline Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

}  // namespace kop::trace

// Compile-time switch. The build defines KOP_TRACE_ENABLED globally
// (CMake option, default ON); with it off every KOP_TRACE site compiles
// to nothing — no load, no branch, no argument evaluation. The arguments
// stay named inside an unevaluated sizeof, so a value computed only for
// a tracepoint is still a used variable in a trace-off build.
#ifndef KOP_TRACE_ENABLED
#define KOP_TRACE_ENABLED 1
#endif

#if KOP_TRACE_ENABLED
#define KOP_TRACE(event, ...)                       \
  ::kop::trace::GlobalTracer().Record(              \
      ::kop::trace::EventId::event __VA_OPT__(, ) __VA_ARGS__)
#else
namespace kop::trace {
/// Declared, never defined: only named in unevaluated operands.
template <typename... Args>
int CompiledOutSite(const Args&...);
}  // namespace kop::trace
#define KOP_TRACE(event, ...) \
  ((void)sizeof(::kop::trace::CompiledOutSite(__VA_ARGS__)))
#endif
