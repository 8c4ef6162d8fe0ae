#include "kop/trace/trace.hpp"

#include <algorithm>
#include <bit>
#include <mutex>

namespace kop::trace {
namespace {

struct EventDesc {
  const char* name;
  const char* category;
  std::array<const char*, 4> args;
};

constexpr EventDesc kEvents[kEventCount] = {
    {"none", "none", {nullptr, nullptr, nullptr, nullptr}},
    {"guard.check", "guard", {"addr", "size", "flags", "site"}},
    {"guard.deny", "guard", {"addr", "size", "flags", "site"}},
    {"guard.intrinsic", "guard", {"intrinsic", "allowed", nullptr, "site"}},
    {"policy.lookup", "guard", {"scanned", "regions", nullptr, nullptr}},
    {"module.verify", "loader", {"ok", nullptr, nullptr, nullptr}},
    {"module.load", "loader", {"insts", "guards", nullptr, nullptr}},
    {"module.quarantine", "loader", {"addr", "size", "site", nullptr}},
    {"module.static_reject", "loader", {"errors", "insts", nullptr, nullptr}},
    {"module.rollback", "resilience", {"entries", "bytes", "reason", nullptr}},
    {"module.timeout", "resilience", {"steps", "budget", nullptr, nullptr}},
    {"module.restart", "resilience", {"attempt", "ok", nullptr, nullptr}},
    {"fault.injected", "fault", {"kind", "point", "detail", nullptr}},
    {"nic.desc_fetch", "nic", {"desc_addr", "head", nullptr, nullptr}},
    {"nic.xmit", "nic", {"bytes", "occupancy", nullptr, nullptr}},
    {"e1000e.xmit_frame", "nic", {"bytes", "slot", nullptr, nullptr}},
    {"kernel.panic", "kernel", {nullptr, nullptr, nullptr, nullptr}},
    {"dev.ioctl", "ioctl", {"cmd", nullptr, nullptr, nullptr}},
    {"flight.postmortem", "flight", {"reason", "incidents", "cpu", nullptr}},
};

size_t Index(EventId id) {
  const size_t i = static_cast<size_t>(id);
  return i < kEventCount ? i : 0;
}

size_t RoundUpPow2(size_t n) {
  size_t p = 64;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::string_view EventName(EventId id) { return kEvents[Index(id)].name; }

std::string_view EventCategory(EventId id) {
  return kEvents[Index(id)].category;
}

std::array<const char*, 4> EventArgNames(EventId id) {
  return kEvents[Index(id)].args;
}

struct alignas(64) TraceRing::Lane {
  mutable Spinlock lock;
  std::vector<TraceRecord> slots;  // power-of-two length, <= limit
  size_t limit = 0;                // this lane's share of the budget
  uint64_t count = 0;              // appends into this lane, ever
  std::array<uint64_t, kEventCount> events{};
};

namespace {

constexpr size_t kMinLaneSlots = 64;

/// Shrink `slots` (holding records [0, count) modulo its length) to
/// `size` slots, keeping the newest records at their modulo positions.
void TrimSlots(std::vector<TraceRecord>& slots, uint64_t count, size_t size) {
  std::vector<TraceRecord> kept(size);
  const uint64_t keep = std::min<uint64_t>(count, size);
  for (uint64_t i = count - keep; i < count; ++i) {
    kept[i & (size - 1)] = slots[i & (slots.size() - 1)];
  }
  slots = std::move(kept);
}

}  // namespace

TraceRing::TraceRing(size_t capacity) : capacity_(RoundUpPow2(capacity)) {}

TraceRing::~TraceRing() { Clear(); }

TraceRing::Lane& TraceRing::MyLane(uint32_t cpu) {
  Lane* lane = lanes_[cpu].load(std::memory_order_acquire);
  return lane != nullptr ? *lane : AddLane(cpu);
}

TraceRing::Lane& TraceRing::AddLane(uint32_t cpu) {
  std::lock_guard<Spinlock> guard(add_lock_);
  if (Lane* lane = lanes_[cpu].load(std::memory_order_acquire)) return *lane;
  const size_t share = std::bit_floor(capacity_ / (lane_count_ + 1));
  for (const auto& slot : lanes_) {
    Lane* other = slot.load(std::memory_order_relaxed);
    if (other == nullptr) continue;
    std::lock_guard<Spinlock> lane_guard(other->lock);
    other->limit = share;
    if (other->slots.size() > share) {
      TrimSlots(other->slots, other->count, share);
    }
  }
  auto* lane = new Lane;
  lane->limit = share;
  lane->slots.resize(std::min(kMinLaneSlots, share));
  ++lane_count_;
  lanes_[cpu].store(lane, std::memory_order_release);
  return *lane;
}

void TraceRing::Append(TraceRecord record) {
  const uint32_t cpu = smp::CurrentCpu();
  Lane& lane = MyLane(cpu);
  std::lock_guard<Spinlock> guard(lane.lock);
  record.seq = MakeSeq(cpu, lane.count);
  // A lane that has never wrapped grows in place: its records keep their
  // slots under the wider mask.
  if (lane.count == lane.slots.size() && lane.slots.size() < lane.limit) {
    lane.slots.resize(lane.slots.size() * 2);
  }
  lane.slots[lane.count & (lane.slots.size() - 1)] = record;
  ++lane.count;
  ++lane.events[Index(record.event)];
}

template <typename Fn>
void TraceRing::ForEachLane(Fn&& fn) const {
  for (const auto& slot : lanes_) {
    const Lane* lane = slot.load(std::memory_order_acquire);
    if (lane == nullptr) continue;
    std::lock_guard<Spinlock> guard(lane->lock);
    fn(*lane);
  }
}

uint64_t TraceRing::total_appended() const {
  uint64_t total = 0;
  ForEachLane([&total](const Lane& lane) { total += lane.count; });
  return total;
}

uint64_t TraceRing::dropped() const {
  uint64_t dropped = 0;
  ForEachLane([&dropped](const Lane& lane) {
    if (lane.count > lane.slots.size()) {
      dropped += lane.count - lane.slots.size();
    }
  });
  return dropped;
}

uint64_t TraceRing::event_count(EventId id) const {
  uint64_t total = 0;
  ForEachLane(
      [&total, id](const Lane& lane) { total += lane.events[Index(id)]; });
  return total;
}

std::vector<TraceRecord> TraceRing::Snapshot() const {
  std::vector<TraceRecord> out;
  ForEachLane([&out](const Lane& lane) {
    const uint64_t mask = lane.slots.size() - 1;
    const uint64_t retained = std::min<uint64_t>(lane.count, lane.slots.size());
    for (uint64_t i = lane.count - retained; i < lane.count; ++i) {
      out.push_back(lane.slots[i & mask]);
    }
  });
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.tsc != b.tsc ? a.tsc < b.tsc : a.seq < b.seq;
            });
  return out;
}

void TraceRing::Clear() {
  std::lock_guard<Spinlock> guard(add_lock_);
  for (auto& slot : lanes_) {
    delete slot.exchange(nullptr, std::memory_order_acq_rel);
  }
  lane_count_ = 0;
}

void Tracer::Record(EventId event, uint64_t a0, uint64_t a1, uint64_t a2,
                    uint64_t a3) {
  if (!enabled()) return;
  TraceRecord record;
  const sim::VirtualClock* clock = clock_.load(std::memory_order_acquire);
  record.tsc = clock != nullptr ? clock->ReadTsc() : 0;
  record.cpu = static_cast<uint16_t>(smp::CurrentCpu());
  record.event = event;
  record.args[0] = a0;
  record.args[1] = a1;
  record.args[2] = a2;
  record.args[3] = a3;
  ring_.Append(record);
}

void Tracer::Reset() { ring_.Clear(); }

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

}  // namespace kop::trace
