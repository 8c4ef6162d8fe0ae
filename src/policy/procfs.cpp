#include "kop/policy/procfs.hpp"

#include <cstdio>

#include "kop/trace/metrics.hpp"
#include "kop/trace/site.hpp"

namespace kop::policy {

std::string ProcGuardStats(const PolicyEngine& engine) {
  const GuardStats stats = engine.stats();
  char line[160];
  std::string out;
  std::snprintf(line, sizeof(line), "guard_calls:      %llu\n",
                static_cast<unsigned long long>(stats.guard_calls));
  out += line;
  std::snprintf(line, sizeof(line), "allowed:          %llu\n",
                static_cast<unsigned long long>(stats.allowed));
  out += line;
  std::snprintf(line, sizeof(line), "denied:           %llu\n",
                static_cast<unsigned long long>(stats.denied));
  out += line;
  std::snprintf(line, sizeof(line), "intrinsic_calls:  %llu\n",
                static_cast<unsigned long long>(stats.intrinsic_calls));
  out += line;
  std::snprintf(line, sizeof(line), "intrinsic_denied: %llu\n",
                static_cast<unsigned long long>(stats.intrinsic_denied));
  out += line;
  std::snprintf(line, sizeof(line), "elided:           %llu\n",
                static_cast<unsigned long long>(stats.elided));
  out += line;
  std::snprintf(line, sizeof(line), "cfi_checks:       %llu\n",
                static_cast<unsigned long long>(stats.cfi_checks));
  out += line;
  std::snprintf(line, sizeof(line), "cfi_denied:       %llu\n",
                static_cast<unsigned long long>(stats.cfi_denied));
  out += line;
  std::snprintf(line, sizeof(line), "cfi_sets:         %zu\n",
                engine.CfiSetCount());
  out += line;
  std::snprintf(line, sizeof(line), "deopts:           %llu\n",
                static_cast<unsigned long long>(
                    trace::GlobalMetrics().GetCounter("guard.deopt")->value()));
  out += line;
  std::snprintf(line, sizeof(line), "recent_violations: %zu\n",
                engine.RecentViolations().size());
  out += line;

  for (const char* name : {"guard.latency_cycles", "policy.lookup_depth"}) {
    const trace::Log2Histogram* hist =
        trace::GlobalMetrics().GetHistogram(name);
    std::snprintf(line, sizeof(line), "%s: n=%llu mean=%.3g\n", name,
                  static_cast<unsigned long long>(hist->count()),
                  hist->mean());
    out += line;
    const trace::HistogramBuckets buckets = hist->Buckets();
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] == 0) continue;
      std::snprintf(line, sizeof(line), "  [%11.4g, %11.4g) %llu\n",
                    trace::Log2Histogram::BucketLo(i),
                    trace::Log2Histogram::BucketLo(i + 1),
                    static_cast<unsigned long long>(buckets[i]));
      out += line;
    }
  }
  return out;
}

std::string ProcHotSites(const PolicyEngine& engine) {
  std::string out = "site     hits     denied   elided   location\n";
  char line[256];
  for (const HotSite& row : engine.HotSites()) {
    const std::string label = trace::GlobalSites().Label(row.site);
    std::string detail;
    if (auto info = trace::GlobalSites().Find(row.site); info.has_value()) {
      detail = info->detail;
    }
    std::snprintf(line, sizeof(line), "%-8llu %-8llu %-8llu %-8llu %s%s%s\n",
                  static_cast<unsigned long long>(row.site),
                  static_cast<unsigned long long>(row.hits),
                  static_cast<unsigned long long>(row.denied),
                  static_cast<unsigned long long>(row.elided), label.c_str(),
                  detail.empty() ? "" : "  ", detail.c_str());
    out += line;
  }
  return out;
}

}  // namespace kop::policy
