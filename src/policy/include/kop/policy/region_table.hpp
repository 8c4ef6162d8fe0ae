// The policy structure behind the guard's permission check: the paper's
// fixed table of at most 64 regions, scanned linearly. "A table was
// chosen in order to minimize pointer chasing ... optimized for
// cache-friendly search of a small number of regions" (§3.1, §4.2).
// First match wins, so overlapping regions are representable; table order
// is insertion order and removal preserves it.
//
// The table only holds the regions. Guards never scan it directly: the
// engine copies Snapshot() into an immutable PolicyFrame and decides
// against that (PolicyEngine::Decide), so the table's lock is taken by
// mutators and republishes, never by the guard path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

#include "kop/policy/region.hpp"
#include "kop/util/spinlock.hpp"
#include "kop/util/status.hpp"

namespace kop::policy {

class RegionTable64 {
 public:
  static constexpr size_t kMaxRegions = 64;

  std::string_view name() const { return "linear-table-64"; }

  /// Append a region. Rejects empty, address-space-wrapping and exact
  /// duplicate regions, and a 65th entry (kNoSpace). Overlaps are legal.
  ///
  /// Every mutator serializes under the table lock and bumps generation()
  /// on success, so every caller — the policy module's ioctl path, tests
  /// poking engine.store().Add() directly — invalidates published policy
  /// frames without knowing frames exist.
  Status Add(const Region& region);

  /// Remove the region with this exact base. kNotFound when absent.
  Status Remove(uint64_t base);

  void Clear();

  size_t Size() const {
    std::lock_guard<Spinlock> guard(lock_);
    return count_;
  }

  /// All regions, in first-match (insertion) order.
  std::vector<Region> Snapshot() const {
    std::lock_guard<Spinlock> guard(lock_);
    return std::vector<Region>(regions_.begin(), regions_.begin() + count_);
  }

  /// Monotonic structural-mutation counter, bumped under the lock after
  /// the mutation lands: a Snapshot() taken after reading generation G
  /// reflects at least every mutation up to G.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  mutable Spinlock lock_;
  std::array<Region, kMaxRegions> regions_{};
  size_t count_ = 0;               // guarded by lock_
  std::atomic<uint64_t> generation_{0};
};

}  // namespace kop::policy
