// PerCpu<T>: a fixed array of cache-line-padded per-CPU slots, indexed by
// smp::CurrentCpu(). The SMP contract is one host thread per simulated
// CPU, so a slot has a single writer and never false-shares with its
// neighbours; cross-CPU readers (stat folds, snapshots) synchronize at
// whatever level T provides (relaxed atomics for counters, a slot lock
// for structures).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "kop/smp/cpu.hpp"

namespace kop::smp {

/// Add to a counter that only its owning CPU writes: a relaxed load and
/// store instead of a locked read-modify-write. Readers on other CPUs
/// get a whole value, at worst one update old. Two writers on one cell
/// would lose updates, so use this only inside a single-writer slot.
inline void BumpOwned(std::atomic<uint64_t>& cell, uint64_t n = 1) {
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

template <typename T>
class PerCpu {
 public:
  T& Get(uint32_t cpu) { return slots_[cpu].value; }
  const T& Get(uint32_t cpu) const { return slots_[cpu].value; }

  /// The calling thread's own slot.
  T& Mine() { return Get(CurrentCpu()); }
  const T& Mine() const { return Get(CurrentCpu()); }

  static constexpr uint32_t size() { return kMaxCpus; }

  /// Visit every slot: fn(cpu, slot). Fold-on-read helpers build on this.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (uint32_t cpu = 0; cpu < kMaxCpus; ++cpu) fn(cpu, slots_[cpu].value);
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t cpu = 0; cpu < kMaxCpus; ++cpu) fn(cpu, slots_[cpu].value);
  }

 private:
  struct alignas(64) Slot {
    T value{};
  };
  std::array<Slot, kMaxCpus> slots_{};
};

}  // namespace kop::smp
