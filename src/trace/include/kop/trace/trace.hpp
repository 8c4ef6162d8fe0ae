// kop::trace — the ftrace analogue for the simulated kernel. Static
// tracepoints (`KOP_TRACE(event, args...)`) record fixed-size records
// (virtual-cycle timestamp, event id, four integer args, an aux word)
// into the recording thread's own lane of a fixed-budget ring, with no
// lock; completed spans (span.hpp) share the lanes. Tracepoints compile
// out entirely when the build sets KOP_TRACE_ENABLED=0, so the hot seams
// (guards, descriptor fetches, ioctls) carry zero code when observability
// is off. All timestamps come from the virtual clock — instrumentation
// never charges simulated cycles, so enabling tracing cannot perturb an
// experiment.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "kop/sim/clock.hpp"
#include "kop/smp/cpu.hpp"
#include "kop/smp/percpu.hpp"

namespace kop::trace {

/// Every static tracepoint in the tree. Keep kEvents in trace.cpp in
/// sync when adding one.
enum class EventId : uint16_t {
  kNone = 0,
  // Guard runtime (policy engine).
  kGuardCheck,        // addr, size, access_flags, site token; aux = lookup
                      // depth (entries a scan from entry 0 examines)
  kGuardDeny,         // addr, size, access_flags, site token
  kIntrinsicCheck,    // intrinsic id, allowed, 0, site token
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
  kSpan = 0xffff,  // not a tracepoint: a lane record holding one span
};

inline constexpr size_t kEventCount =
    static_cast<size_t>(EventId::kEventCount);

/// Stable wire name, e.g. "guard.check".
std::string_view EventName(EventId id);

/// Subsystem bucket, e.g. "guard", "loader", "nic", "kernel".
std::string_view EventCategory(EventId id);

/// Display names of the four args (nullptr-terminated early when fewer).
std::array<const char*, 4> EventArgNames(EventId id);

/// Display name of the aux word, or nullptr when the event has none.
const char* EventAuxName(EventId id);

/// `seq` packs the recording lane into its top bits above that lane's
/// own record ordinal (spans included), so it is unique across lanes and
/// increases within each lane (monotonic even after the lane wraps)
/// without a shared counter. Lane 0's seq is just its ordinal.
inline constexpr unsigned kSeqLaneShift = 48;
inline constexpr uint64_t MakeSeq(uint32_t lane, uint64_t ordinal) {
  return (uint64_t{lane} << kSeqLaneShift) | ordinal;
}
inline constexpr uint32_t SeqLane(uint64_t seq) {
  return static_cast<uint32_t>(seq >> kSeqLaneShift);
}
inline constexpr uint64_t SeqOrdinal(uint64_t seq) {
  return seq & ((uint64_t{1} << kSeqLaneShift) - 1);
}

/// One tracepoint firing (or one completed span, event == kSpan). Fixed
/// size; `seq` is the lane ordinal tagged with the lane (see MakeSeq);
/// `cpu` is the simulated CPU the tracepoint fired on (thread id in
/// Chrome-trace exports); `aux` is a per-event extra word (EventAuxName).
struct TraceRecord {
  uint64_t tsc = 0;   // virtual cycles at firing time
  uint64_t seq = 0;
  EventId event = EventId::kNone;
  uint16_t cpu = 0;
  uint32_t aux = 0;
  uint64_t args[4] = {0, 0, 0, 0};
};

/// Fixed-budget ring of TraceRecords with one lane per writing host
/// thread (an unbound thread's records say CPU 0), registered on its
/// first record and cached in a thread_local. A lane has one writer, so
/// an append takes no lock; the ring's lock is taken only to register or
/// resize a lane and to read. A lane outlives its thread: at exit it is
/// marked free and the next thread to register continues it, so lanes
/// are bounded by peak live writers and no record is lost at exit.
///
/// `capacity` is the record budget of the whole ring. Each lane retains
/// at most capacity / lanes (rounded down to a power of two), so a lone
/// thread keeps the newest `capacity` records and N lanes together never
/// hold more. Lanes start small and double up to that share; when a new
/// lane lowers it, free lanes are trimmed at once and owned ones on their
/// next append (readers never look past the share). A full lane
/// overwrites its oldest records (ftrace overwrite mode).
class TraceRing {
 public:
  struct Lane;

  /// `capacity` is rounded up to a power of two (min 64).
  explicit TraceRing(size_t capacity = 1 << 14);
  /// Frees every lane's records; threads keep only their lanes' shells.
  ~TraceRing();
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// The calling thread's lane, registered on its first use.
  Lane& MyLane();

  /// Append into the calling thread's lane; the lane assigns the seq.
  void Append(const TraceRecord& record) { Append(MyLane(), record); }
  /// Append into `lane`, which must be the calling thread's MyLane().
  void Append(Lane& lane, const TraceRecord& record);

  /// The record budget shared by all lanes.
  size_t capacity() const { return capacity_; }
  /// Tracepoint records ever appended, including overwritten ones. Spans
  /// are not tracepoints and count only in span_count().
  uint64_t total_appended() const;
  /// Tracepoint records appended but no longer retained.
  uint64_t dropped() const;
  /// Lifetime appends of `id` (or of spans), folded across lanes.
  uint64_t event_count(EventId id) const;
  uint64_t span_count() const;
  /// Lanes allocated, owned or free.
  size_t lane_count() const;

  /// Retained tracepoint records merged across lanes into one stream
  /// ordered by virtual-clock timestamp (seq breaks ties), so an SMP run
  /// exports a monotonic timeline instead of lane-concatenation order.
  /// Per-CPU virtual clocks are monotone, so within a lane on one CPU
  /// this degenerates to append (seq) order.
  std::vector<TraceRecord> Snapshot() const;

  /// Every lane's retained records, tracepoints and spans, in lane order.
  std::vector<std::vector<TraceRecord>> LaneRecords() const;

  /// Empty every lane and drop the free ones (a lone writer gets the
  /// whole budget back). Lanes of live threads stay, so no thread_local
  /// lane pointer dangles. NOT safe against concurrent Append.
  void Clear();

 private:
  Lane& RegisterLane();
  /// Double the caller's own lane, or trim it to a lowered share.
  void Resize(Lane& lane);
  /// Spread the budget over lanes_ and trim the free lanes. Holds lock_.
  void Reshare();
  /// Sum fn(lane) over every lane, under lock_.
  template <typename Fn>
  uint64_t Fold(Fn fn) const;

  const uint64_t id_;  // process-unique, never reused
  size_t capacity_;
  // Slots each lane may retain, bit_floor(capacity_ / lanes). Written
  // under lock_ by Reshare; read by every append.
  std::atomic<size_t> share_{0};
  // Off the read-mostly line above: readers take it while writers append.
  alignas(64) mutable std::mutex lock_;
  // Index = lane id. Shared with the owning threads, which hold their
  // lanes until they exit even if the ring goes first.
  std::vector<std::shared_ptr<Lane>> lanes_;
};

/// One writer's lane. Only its thread writes `slots`, `size` and the
/// counters; a resize swaps `slots` under the ring lock, which readers
/// hold. `count` and `claimed` are the lane's seqlock: an append claims
/// its ordinal, fills the slot with release stores (plain moves on x86)
/// and publishes `count`; a reader copies the ordinals below `count`,
/// then drops those a later `claimed` says may have been overwritten, so
/// it never returns a torn record.
struct TraceRing::Lane {
  /// One record as six words; its seq is implied by the slot's ordinal.
  struct Slot {
    std::array<std::atomic<uint64_t>, 6> words;
  };

  std::unique_ptr<Slot[]> slots;
  size_t size = 0;    // slots, a power of two
  uint64_t tag = 0;   // MakeSeq(lane id, 0)
  uint64_t ring_id = 0;
  std::atomic<uint64_t> count{0};    // records ever appended
  std::atomic<uint64_t> claimed{0};  // ordinals whose append has begun
  std::atomic<uint64_t> spans{0};
  std::array<std::atomic<uint64_t>, kEventCount> events{};
  std::atomic<bool> owned{false};    // a live thread writes it
};

namespace detail {
/// The calling thread's most recently used lane and its ring's id.
extern constinit thread_local uint64_t t_lane_ring;
extern constinit thread_local TraceRing::Lane* t_lane;
}  // namespace detail

inline TraceRing::Lane& TraceRing::MyLane() {
  return detail::t_lane_ring == id_ ? *detail::t_lane : RegisterLane();
}

inline void TraceRing::Append(Lane& lane, const TraceRecord& record) {
  const uint64_t n = lane.count.load(std::memory_order_relaxed);
  const size_t share = share_.load(std::memory_order_relaxed);
  // Trim to a lowered share or double up to it; a zero share (more
  // lanes than budget) keeps one slot, hence `share | 1`.
  if (lane.size > (share | 1) || (n >= lane.size && lane.size < share))
      [[unlikely]] {
    Resize(lane);
  }
  // A reader whose acquire load sees any of these words sees the claim.
  lane.claimed.store(n + 1, std::memory_order_relaxed);
  auto& words = lane.slots[n & (lane.size - 1)].words;
  constexpr auto kRelease = std::memory_order_release;
  words[0].store(record.tsc, kRelease);
  words[1].store(static_cast<uint64_t>(record.event) |
                     uint64_t{record.cpu} << 16 | uint64_t{record.aux} << 32,
                 kRelease);
  for (size_t i = 0; i < 4; ++i) words[2 + i].store(record.args[i], kRelease);
  const size_t event = static_cast<size_t>(record.event);
  smp::BumpOwned(record.event == EventId::kSpan ? lane.spans
                 : event < kEventCount         ? lane.events[event]
                                               : lane.events[0]);
  lane.count.store(n + 1, std::memory_order_release);
}

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
              uint64_t a2 = 0, uint64_t a3 = 0, uint32_t aux = 0);

  TraceRing& ring() { return ring_; }
  const TraceRing& ring() const { return ring_; }

  /// Lifetime firings per event id (index by EventId value).
  uint64_t event_count(EventId id) const { return ring_.event_count(id); }

  /// Clear the ring and per-event counters (clock and enable kept). The
  /// ring also holds GlobalSpans()' records, so this drops those too.
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
