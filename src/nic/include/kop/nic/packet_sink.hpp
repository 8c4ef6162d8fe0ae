// Where transmitted frames go. The paper's testbed attaches the NIC to
// "a packet sink"; ours counts frames/bytes, optionally retains the most
// recent ones for inspection, and models the wire's drain rate so the
// link can be a bottleneck when an experiment wants it to be. Sinks are
// thread-safe: with the multi-queue device, concurrent queue sweeps on
// different CPUs deliver into the same sink.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "kop/smp/percpu.hpp"
#include "kop/util/spinlock.hpp"

namespace kop::nic {

class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void Deliver(const std::vector<uint8_t>& frame) = 0;
};

/// External loopback plug: every transmitted frame reappears on the
/// receive side of the same (or another) device — the software analogue
/// of the loopback dongle every NIC lab drawer contains. Optionally
/// counts what passed through.
class LoopbackWire : public PacketSink {
 public:
  /// `receiver` is set after device construction (the wire and the device
  /// reference each other).
  LoopbackWire() = default;

  void AttachReceiver(class E1000Device* receiver) { receiver_ = receiver; }

  void Deliver(const std::vector<uint8_t>& frame) override;

  uint64_t forwarded() const {
    return forwarded_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  friend class E1000Device;
  class E1000Device* receiver_ = nullptr;
  std::atomic<uint64_t> forwarded_{0};
  std::atomic<uint64_t> dropped_{0};
};

/// Counts delivered frames and bytes and keeps the most recent frames.
/// Each CPU delivers into its own lane (counts plus its last `retain`
/// frames) and the totals fold on read, so concurrent queue sweeps never
/// share a cache line here.
class CountingSink : public PacketSink {
 public:
  /// Retains the last `retain` frames per delivering CPU.
  explicit CountingSink(size_t retain = 16) : retain_(retain) {}

  void Deliver(const std::vector<uint8_t>& frame) override;

  uint64_t packets() const;
  uint64_t bytes() const;
  /// Retained frames, oldest first, lane by lane in CPU order. A
  /// single-CPU run gets its newest `retain` frames in delivery order.
  std::vector<std::vector<uint8_t>> RecentFrames() const;

  void Reset();

 private:
  struct Lane {
    mutable Spinlock lock;
    uint64_t packets = 0;
    uint64_t bytes = 0;
    // Frame i of this lane lives in recent[i % retain_]; slots are
    // reassigned in place so steady-state delivery does not allocate.
    std::vector<std::vector<uint8_t>> recent;
  };

  size_t retain_;
  smp::PerCpu<Lane> lanes_;
};

}  // namespace kop::nic
