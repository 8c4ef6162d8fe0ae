// Memory-region policy entries (paper §3.1): "Each entry stores a
// region's lower bound, length, and protection flags."
#pragma once

#include <cstdint>
#include <string>

#include "kop/util/bits.hpp"
#include "kop/util/carat_abi.hpp"

namespace kop::policy {

/// Protection flags use the same bit meanings as guard access_flags.
inline constexpr uint32_t kProtRead = static_cast<uint32_t>(kGuardAccessRead);
inline constexpr uint32_t kProtWrite =
    static_cast<uint32_t>(kGuardAccessWrite);
inline constexpr uint32_t kProtRW = kProtRead | kProtWrite;
inline constexpr uint32_t kProtNone = 0;

struct Region {
  uint64_t base = 0;
  uint64_t len = 0;
  uint32_t prot = kProtNone;

  bool Contains(uint64_t addr, uint64_t size) const {
    return RangeContains(base, len, addr, size == 0 ? 1 : size);
  }
  bool Allows(uint64_t access_flags) const {
    return (prot & access_flags) == access_flags;
  }

  std::string ToString() const;
};

}  // namespace kop::policy
