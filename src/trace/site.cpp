#include "kop/trace/site.hpp"

#include <cstdio>
#include <mutex>

namespace kop::trace {

namespace detail {
constinit thread_local uint64_t t_current_site = kUnknownSite;
}  // namespace detail

std::string SiteInfo::Label() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s:%s+%u", module_name.c_str(),
                function.c_str(), inst_index);
  return buf;
}

uint64_t SiteRegistry::Register(SiteInfo info) {
  std::lock_guard<Spinlock> guard(lock_);
  info.token = sites_.size() + 1;
  sites_.push_back(std::move(info));
  return sites_.back().token;
}

std::optional<SiteInfo> SiteRegistry::Find(uint64_t token) const {
  std::lock_guard<Spinlock> guard(lock_);
  if (token == kUnknownSite || token > sites_.size()) return std::nullopt;
  return sites_[token - 1];
}

std::string SiteRegistry::Label(uint64_t token) const {
  if (token == kUnknownSite) return "<unattributed>";
  if (auto info = Find(token); info.has_value()) return info->Label();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "site#%llu",
                static_cast<unsigned long long>(token));
  return buf;
}

size_t SiteRegistry::size() const {
  std::lock_guard<Spinlock> guard(lock_);
  return sites_.size();
}

SiteRegistry& GlobalSites() {
  static SiteRegistry registry;
  return registry;
}

ScopedGuardSite::ScopedGuardSite(uint64_t token)
    : prev_(detail::t_current_site) {
  detail::t_current_site = token;
}

ScopedGuardSite::~ScopedGuardSite() { detail::t_current_site = prev_; }

}  // namespace kop::trace
