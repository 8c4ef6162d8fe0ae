// The metrics registry: named counters, gauges (with high-watermark),
// and log2-bucket histograms that subsystems register into by name —
// guard latency, policy lookup depth, printk-ring occupancy, TX-ring
// occupancy. Counters and histograms keep one cell per CPU and fold on
// read, so recording never writes a cache line another CPU writes.
// Get-or-create semantics: the first caller of a name mints
// the metric, later callers share it, so subsystems need no coordination
// and a torn-down kernel's successor keeps accumulating into the same
// process-wide series (exactly how /proc counters behave across
// module reload).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kop/smp/percpu.hpp"
#include "kop/util/spinlock.hpp"

namespace kop::trace {

/// A monotonically increasing count. Each CPU adds into its own
/// cache-line-padded cell; value() folds the cells, so it is exact.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    cells_.Mine().fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const;
  void Reset();

 private:
  smp::PerCpu<std::atomic<uint64_t>> cells_;
};

/// A sampled level (ring occupancy, table size). Tracks the most recent
/// value and the high watermark since reset. "Most recent" has no per-CPU
/// fold, so a gauge is one shared cell: sample it from one place.
class Gauge {
 public:
  void Set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// Power-of-two buckets: bucket 0 holds values < 1, bucket k holds
/// [2^(k-1), 2^k). 64 buckets cover the full uint64 range, so a
/// cycle-latency histogram never saturates.
inline constexpr size_t kHistogramBuckets = 64;
using HistogramBuckets = std::array<uint64_t, kHistogramBuckets>;

/// One writer's log2 histogram: bucket counts plus their sum. Only the
/// owning CPU may Observe — each update is a relaxed load and store, not
/// a locked read-modify-write — while any thread may read. Per-CPU
/// structures embed one per CPU and fold them on read.
class HistogramCell {
 public:
  void Observe(double value);

  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Every observation lands in exactly one bucket, so the count is the
  /// bucket sum.
  uint64_t count() const;
  /// Add this cell's buckets into `out`.
  void FoldInto(HistogramBuckets& out) const;
  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
};

/// A log2 histogram any CPU may observe into: one HistogramCell per CPU,
/// folded exactly on read.
class Log2Histogram {
 public:
  static constexpr size_t kBuckets = kHistogramBuckets;

  void Observe(double value) { cells_.Mine().Observe(value); }

  uint64_t count() const;
  double sum() const;
  double mean() const {
    const uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  uint64_t bucket(size_t i) const;
  /// All buckets folded across CPUs.
  HistogramBuckets Buckets() const;
  /// Lower edge of bucket i (0 for bucket 0, else 2^(i-1)).
  static double BucketLo(size_t i);

  /// Interpolated quantile, p in [0, 100]. Walks cumulative bucket
  /// counts to the bucket holding rank p/100·n, then interpolates
  /// linearly inside it (HDR-histogram style): with c observations in a
  /// bucket [lo, hi) and k of the target rank falling inside it, the
  /// estimate is lo + k/c·(hi-lo). Returns 0 on an empty histogram.
  double Percentile(double p) const;

  /// The same interpolation over an externally folded bucket array.
  static double PercentileFromBuckets(const HistogramBuckets& buckets,
                                      double p);

  size_t NonZeroBuckets() const;
  void Reset();

 private:
  smp::PerCpu<HistogramCell> cells_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric flattened for export: counters carry `value`; gauges
/// `value` and `max`; histograms `count`, `sum`, and the bucket vector.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint64_t value = 0;
  int64_t gauge_value = 0;
  int64_t gauge_max = 0;
  uint64_t count = 0;
  double sum = 0.0;
  std::vector<uint64_t> buckets;  // histograms only; trailing zeros trimmed
};

class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Log2Histogram* GetHistogram(const std::string& name);

  /// All metrics, sorted by name.
  std::vector<MetricSample> Snapshot() const;

  /// "name,kind,field,value" rows — the bench snapshot format.
  std::string RenderCsv() const;

  /// Human-readable table for proc-style dumps.
  std::string RenderText() const;

  /// Prometheus text exposition format (v0.0.4): counters and gauges as
  /// plain samples, histograms as cumulative `le` buckets plus `_sum`,
  /// `_count`, and interpolated p50/p99 quantile samples. Metric names
  /// have dots rewritten to underscores.
  std::string RenderPrometheus() const;

  /// Zero every registered metric (registrations survive).
  void Reset();

 private:
  mutable Spinlock lock_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Log2Histogram>> histograms_;
};

/// The registry every subsystem registers into.
MetricsRegistry& GlobalMetrics();

}  // namespace kop::trace
