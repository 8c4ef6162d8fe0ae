#include "kop/trace/trace.hpp"

#include <algorithm>
#include <bit>
#include <iterator>

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

constexpr size_t kMinLaneSlots = 64;

std::atomic<uint64_t> g_next_ring_id{1};

/// The lanes the calling thread owns; marked free when it exits.
struct ThreadLanes {
  std::vector<std::shared_ptr<TraceRing::Lane>> lanes;
  ~ThreadLanes() {
    for (const auto& lane : lanes) {
      lane->owned.store(false, std::memory_order_release);
    }
    detail::t_lane_ring = 0;
    detail::t_lane = nullptr;
  }
};
thread_local ThreadLanes t_lanes;

/// The slots a lane may hold: its share, but at least one to write into.
size_t MaxSlots(size_t share) { return std::max<size_t>(share, 1); }

/// Resize `lane` to `size` slots, keeping its newest records at their
/// ordinals' positions. The caller holds the ring lock and is the lane's
/// writer, or the lane has none.
void ResizeLane(TraceRing::Lane& lane, size_t size) {
  if (size == lane.size) return;
  auto slots = std::make_unique<TraceRing::Lane::Slot[]>(size);
  const uint64_t count = lane.count.load(std::memory_order_relaxed);
  for (uint64_t i = count - std::min<uint64_t>({count, lane.size, size});
       i < count; ++i) {
    auto& from = lane.slots[i & (lane.size - 1)].words;
    auto& to = slots[i & (size - 1)].words;
    for (size_t w = 0; w < from.size(); ++w) {
      to[w].store(from[w].load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    }
  }
  lane.slots = std::move(slots);
  lane.size = size;
}

/// Copy `lane`'s retained records (at most `share`), oldest first. The
/// caller holds the ring lock.
void CopyLane(const TraceRing::Lane& lane, size_t share,
              std::vector<TraceRecord>* out) {
  const uint64_t count = lane.count.load(std::memory_order_acquire);
  uint64_t first = count - std::min<uint64_t>({count, lane.size, share});
  std::vector<TraceRecord> copy;
  for (uint64_t i = first; i < count; ++i) {
    const auto& words = lane.slots[i & (lane.size - 1)].words;
    TraceRecord& record = copy.emplace_back();
    record.seq = lane.tag | i;
    record.tsc = words[0].load(std::memory_order_acquire);
    const uint64_t meta = words[1].load(std::memory_order_acquire);
    record.event = static_cast<EventId>(meta & 0xffff);
    record.cpu = static_cast<uint16_t>(meta >> 16);
    record.aux = static_cast<uint32_t>(meta >> 32);
    for (size_t a = 0; a < 4; ++a) {
      record.args[a] = words[2 + a].load(std::memory_order_acquire);
    }
  }
  // The owner may have lapped the copy: the append of ordinal j reuses
  // the slot of j - size, so once appends below `claimed` have begun only
  // ordinals from claimed - size on are known intact.
  const uint64_t claimed = lane.claimed.load(std::memory_order_acquire);
  if (claimed > lane.size) {
    first = std::clamp(claimed - lane.size, first, count);
  }
  out->insert(out->end(), copy.end() - static_cast<ptrdiff_t>(count - first),
              copy.end());
}

}  // namespace

namespace detail {
constinit thread_local uint64_t t_lane_ring = 0;
constinit thread_local TraceRing::Lane* t_lane = nullptr;
}  // namespace detail

std::string_view EventName(EventId id) { return kEvents[Index(id)].name; }

std::string_view EventCategory(EventId id) {
  return kEvents[Index(id)].category;
}

std::array<const char*, 4> EventArgNames(EventId id) {
  return kEvents[Index(id)].args;
}

const char* EventAuxName(EventId id) {
  return id == EventId::kGuardCheck ? "depth" : nullptr;
}

TraceRing::TraceRing(size_t capacity)
    : id_(g_next_ring_id.fetch_add(1)), capacity_(RoundUpPow2(capacity)) {}

TraceRing::~TraceRing() {
  for (const auto& lane : lanes_) lane->slots.reset();
}

TraceRing::Lane& TraceRing::RegisterLane() {
  auto mine = std::find_if(
      t_lanes.lanes.begin(), t_lanes.lanes.end(),
      [this](const auto& lane) { return lane->ring_id == id_; });
  std::shared_ptr<Lane> lane = mine != t_lanes.lanes.end() ? *mine : nullptr;
  if (lane == nullptr) {
    std::lock_guard<std::mutex> guard(lock_);
    auto free = std::find_if(lanes_.begin(), lanes_.end(), [](const auto& l) {
      return !l->owned.load(std::memory_order_acquire);
    });
    if (free != lanes_.end()) {
      lane = *free;
    } else {
      lane = lanes_.emplace_back(std::make_shared<Lane>());
      lane->ring_id = id_;
      lane->tag = MakeSeq(static_cast<uint32_t>(lanes_.size() - 1), 0);
      Reshare();
      ResizeLane(*lane, std::min(kMinLaneSlots, MaxSlots(share_)));
    }
    lane->owned.store(true, std::memory_order_relaxed);
    t_lanes.lanes.push_back(lane);
  }
  detail::t_lane_ring = id_;
  detail::t_lane = lane.get();
  return *lane;
}

void TraceRing::Resize(Lane& lane) {
  std::lock_guard<std::mutex> guard(lock_);
  const size_t limit = MaxSlots(share_);
  ResizeLane(lane, lane.size > limit ? limit
                                     : std::min(limit, lane.size * 2));
}

void TraceRing::Reshare() {
  // A share that rounds to zero retains nothing (MaxSlots still gives
  // a lane one slot to write into). Owned lanes trim themselves.
  share_ = std::bit_floor(capacity_ / lanes_.size());
  for (const auto& lane : lanes_) {
    if (!lane->owned.load(std::memory_order_acquire)) {
      ResizeLane(*lane, std::min(lane->size, MaxSlots(share_)));
    }
  }
}

template <typename Fn>
uint64_t TraceRing::Fold(Fn fn) const {
  std::lock_guard<std::mutex> guard(lock_);
  uint64_t total = 0;
  for (const auto& lane : lanes_) total += fn(*lane);
  return total;
}

uint64_t TraceRing::total_appended() const {
  return Fold([](const Lane& lane) {
    uint64_t n = 0;
    for (const auto& e : lane.events) n += e.load(std::memory_order_relaxed);
    return n;
  });
}

uint64_t TraceRing::event_count(EventId id) const {
  return Fold([i = Index(id)](const Lane& lane) {
    return lane.events[i].load(std::memory_order_relaxed);
  });
}

uint64_t TraceRing::span_count() const {
  return Fold([](const Lane& lane) {
    return lane.spans.load(std::memory_order_relaxed);
  });
}

size_t TraceRing::lane_count() const {
  return Fold([](const Lane&) { return 1; });
}

uint64_t TraceRing::dropped() const {
  // Count what is kept first: a record is counted before it is published,
  // so a total read after the copy is never below the records it saw.
  uint64_t kept = 0;
  for (const auto& lane : LaneRecords()) {
    kept += std::count_if(lane.begin(), lane.end(), [](const TraceRecord& r) {
      return r.event != EventId::kSpan;
    });
  }
  return total_appended() - kept;
}

std::vector<std::vector<TraceRecord>> TraceRing::LaneRecords() const {
  std::lock_guard<std::mutex> guard(lock_);
  std::vector<std::vector<TraceRecord>> out(lanes_.size());
  const size_t share = share_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < lanes_.size(); ++i) {
    CopyLane(*lanes_[i], share, &out[i]);
  }
  return out;
}

std::vector<TraceRecord> TraceRing::Snapshot() const {
  std::vector<TraceRecord> out;
  for (const auto& lane : LaneRecords()) {
    std::copy_if(lane.begin(), lane.end(), std::back_inserter(out),
                 [](const TraceRecord& r) { return r.event != EventId::kSpan; });
  }
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.tsc != b.tsc ? a.tsc < b.tsc : a.seq < b.seq;
            });
  return out;
}

void TraceRing::Clear() {
  std::lock_guard<std::mutex> guard(lock_);
  std::erase_if(lanes_, [](const auto& lane) { return !lane->owned; });
  for (size_t i = 0; i < lanes_.size(); ++i) {
    Lane& lane = *lanes_[i];
    lane.tag = MakeSeq(static_cast<uint32_t>(i), 0);
    lane.count = lane.claimed = lane.spans = 0;
    for (auto& n : lane.events) n = 0;
    lane.slots.reset();
    lane.size = 0;
  }
  if (lanes_.empty()) return;
  Reshare();
  for (const auto& lane : lanes_) {
    ResizeLane(*lane, std::min(kMinLaneSlots, MaxSlots(share_)));
  }
}

void Tracer::Record(EventId event, uint64_t a0, uint64_t a1, uint64_t a2,
                    uint64_t a3, uint32_t aux) {
  if (!enabled()) return;
  TraceRecord record;
  const uint32_t cpu = smp::CurrentCpu();
  const sim::VirtualClock* clock = clock_.load(std::memory_order_acquire);
  // CpuCycles(cpu) truncated is ReadTsc() without a second CPU-id read.
  record.tsc =
      clock != nullptr ? static_cast<uint64_t>(clock->CpuCycles(cpu)) : 0;
  record.cpu = static_cast<uint16_t>(cpu);
  record.event = event;
  record.aux = aux;
  record.args[0] = a0;
  record.args[1] = a1;
  record.args[2] = a2;
  record.args[3] = a3;
  ring_.Append(record);
}

void Tracer::Reset() { ring_.Clear(); }

}  // namespace kop::trace
