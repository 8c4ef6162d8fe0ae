// Guard-site attribution — the kernel-module analogue of `perf
// annotate`. Every injected guard call has a stable module-local site id
// (its position in the module's IR); at insmod the loader registers each
// site here and gets back a process-unique token. The interpreter's
// resolver pins the current token around each guard call (the simulated
// "return address" the guard runtime samples), and the policy engine
// charges hits/denials to it — so an operator can see *which* load or
// store in a module is hot or violating.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kop/util/spinlock.hpp"

namespace kop::trace {

/// Token 0 = guard fired with no site context (e.g. a direct probe).
inline constexpr uint64_t kUnknownSite = 0;

struct SiteInfo {
  uint64_t token = kUnknownSite;  // assigned by Register
  std::string module_name;        // module or subsystem, e.g. "scribbler"
  std::string function;           // "@fn" for IR sites, a category for
                                  // natively-built modules
  uint32_t site_id = 0;           // module-local guard ordinal
  uint32_t inst_index = 0;        // guard call's instruction index in fn
  std::string detail;             // e.g. "store size=8"

  /// "module:@fn+inst_index" — how proc views and exporters name a site.
  std::string Label() const;
};

/// Process-wide site directory. Registration is append-only: tokens stay
/// valid for the life of the process, like kallsyms entries.
class SiteRegistry {
 public:
  /// Assigns and returns the token (sequential from 1).
  uint64_t Register(SiteInfo info);

  std::optional<SiteInfo> Find(uint64_t token) const;

  /// Label for any token; "<unattributed>" for kUnknownSite, a numeric
  /// fallback for unknown tokens.
  std::string Label(uint64_t token) const;

  size_t size() const;

 private:
  mutable Spinlock lock_;
  std::vector<SiteInfo> sites_;
};

SiteRegistry& GlobalSites();

namespace detail {
/// Per-thread: each simulated CPU runs on its own host thread, and a
/// guard site is an attribute of the call executing on THAT cpu. Written
/// only by ScopedGuardSite.
extern constinit thread_local uint64_t t_current_site;
}  // namespace detail

/// The guard-site context of the calling thread. Inline: every slow-path
/// guard reads it.
inline uint64_t CurrentGuardSite() { return detail::t_current_site; }

/// RAII pin of the current guard site around a call into the guard.
class ScopedGuardSite {
 public:
  explicit ScopedGuardSite(uint64_t token);
  ~ScopedGuardSite();
  ScopedGuardSite(const ScopedGuardSite&) = delete;
  ScopedGuardSite& operator=(const ScopedGuardSite&) = delete;

 private:
  uint64_t prev_;
};

}  // namespace kop::trace
