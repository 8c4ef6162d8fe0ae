#include "kop/policy/region_table.hpp"

#include <cstdio>

namespace kop::policy {

std::string Region::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "[0x%llx, +0x%llx) %s%s",
                static_cast<unsigned long long>(base),
                static_cast<unsigned long long>(len),
                (prot & kProtRead) ? "r" : "-",
                (prot & kProtWrite) ? "w" : "-");
  return buf;
}

Status RegionTable64::Add(const Region& region) {
  if (region.len == 0) return InvalidArgument("empty region");
  if (region.base + region.len < region.base) {
    return InvalidArgument("region wraps the address space");
  }
  std::lock_guard<Spinlock> guard(lock_);
  if (count_ == kMaxRegions) {
    return NoSpace("region table full (" + std::to_string(kMaxRegions) + ")");
  }
  for (size_t i = 0; i < count_; ++i) {
    if (regions_[i].base == region.base && regions_[i].len == region.len) {
      return AlreadyExists("identical region already present");
    }
  }
  regions_[count_++] = region;
  generation_.fetch_add(1, std::memory_order_release);
  return OkStatus();
}

Status RegionTable64::Remove(uint64_t base) {
  std::lock_guard<Spinlock> guard(lock_);
  for (size_t i = 0; i < count_; ++i) {
    if (regions_[i].base == base) {
      // Preserve table order (first-match semantics depend on it).
      for (size_t j = i + 1; j < count_; ++j) regions_[j - 1] = regions_[j];
      --count_;
      generation_.fetch_add(1, std::memory_order_release);
      return OkStatus();
    }
  }
  return NotFound("no region with that base");
}

void RegionTable64::Clear() {
  std::lock_guard<Spinlock> guard(lock_);
  count_ = 0;
  generation_.fetch_add(1, std::memory_order_release);
}

}  // namespace kop::policy
