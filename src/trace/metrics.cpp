#include "kop/trace/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <mutex>

namespace kop::trace {

uint64_t Counter::value() const {
  uint64_t total = 0;
  cells_.ForEach([&total](uint32_t, const std::atomic<uint64_t>& cell) {
    total += cell.load(std::memory_order_relaxed);
  });
  return total;
}

void Counter::Reset() {
  cells_.ForEach([](uint32_t, std::atomic<uint64_t>& cell) {
    cell.store(0, std::memory_order_relaxed);
  });
}

void HistogramCell::Observe(double value) {
  // Bucket edges are powers of two, so for v in [1, 2^62) the bucket is
  // bit_width(floor(v)) — no libm on the guard hot path. Anything at or
  // above 2^62 lands in the clamp bucket either way.
  size_t bucket = 0;
  if (value >= 1.0) {
    bucket = value >= 0x1p62
                 ? kHistogramBuckets - 1
                 : static_cast<size_t>(
                       std::bit_width(static_cast<uint64_t>(value)));
  }
  smp::BumpOwned(buckets_[bucket]);
  sum_.store(sum_.load(std::memory_order_relaxed) + value,
             std::memory_order_relaxed);
}

uint64_t HistogramCell::count() const {
  uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

void HistogramCell::FoldInto(HistogramBuckets& out) const {
  for (size_t i = 0; i < kHistogramBuckets; ++i) out[i] += bucket(i);
}

void HistogramCell::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

HistogramBuckets Log2Histogram::Buckets() const {
  HistogramBuckets folded{};
  cells_.ForEach([&folded](uint32_t, const HistogramCell& cell) {
    cell.FoldInto(folded);
  });
  return folded;
}

uint64_t Log2Histogram::count() const {
  uint64_t n = 0;
  cells_.ForEach(
      [&n](uint32_t, const HistogramCell& cell) { n += cell.count(); });
  return n;
}

double Log2Histogram::sum() const {
  double total = 0.0;
  cells_.ForEach(
      [&total](uint32_t, const HistogramCell& cell) { total += cell.sum(); });
  return total;
}

uint64_t Log2Histogram::bucket(size_t i) const {
  uint64_t n = 0;
  cells_.ForEach(
      [&n, i](uint32_t, const HistogramCell& cell) { n += cell.bucket(i); });
  return n;
}

double Log2Histogram::BucketLo(size_t i) {
  return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
}

double Log2Histogram::Percentile(double p) const {
  return PercentileFromBuckets(Buckets(), p);
}

double Log2Histogram::PercentileFromBuckets(const HistogramBuckets& buckets,
                                            double p) {
  uint64_t n = 0;
  for (uint64_t b : buckets) n += b;
  if (n == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  const double target = p / 100.0 * static_cast<double>(n);
  double cumulative = 0.0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double next = cumulative + static_cast<double>(buckets[i]);
    if (target <= next) {
      const double lo = BucketLo(i);
      const double hi = BucketLo(i + 1);
      const double within = (target - cumulative) / static_cast<double>(buckets[i]);
      return lo + within * (hi - lo);
    }
    cumulative = next;
  }
  // p == 100 with rounding slop: the upper edge of the last nonzero bucket.
  for (size_t i = kBuckets; i > 0; --i) {
    if (buckets[i - 1] != 0) return BucketLo(i);
  }
  return 0.0;
}

size_t Log2Histogram::NonZeroBuckets() const {
  const HistogramBuckets buckets = Buckets();
  return static_cast<size_t>(
      std::count_if(buckets.begin(), buckets.end(),
                    [](uint64_t b) { return b != 0; }));
}

void Log2Histogram::Reset() {
  cells_.ForEach([](uint32_t, HistogramCell& cell) { cell.Reset(); });
}

namespace {

/// Percentile over a MetricSample's (trimmed) bucket vector.
double SamplePercentile(const MetricSample& sample, double p) {
  HistogramBuckets buckets{};
  for (size_t i = 0; i < sample.buckets.size() && i < buckets.size(); ++i) {
    buckets[i] = sample.buckets[i];
  }
  return Log2Histogram::PercentileFromBuckets(buckets, p);
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted names map
/// dots (and any other byte) to underscores.
std::string PromName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<Spinlock> guard(lock_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<Spinlock> guard(lock_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Log2Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<Spinlock> guard(lock_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Log2Histogram>();
  return slot.get();
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<Spinlock> guard(lock_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, counter] : counters_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricKind::kCounter;
    sample.value = counter->value();
    out.push_back(std::move(sample));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricKind::kGauge;
    sample.gauge_value = gauge->value();
    sample.gauge_max = gauge->max();
    out.push_back(std::move(sample));
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricKind::kHistogram;
    const HistogramBuckets buckets = histogram->Buckets();
    for (uint64_t b : buckets) sample.count += b;
    sample.sum = histogram->sum();
    size_t last = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] != 0) last = i + 1;
    }
    sample.buckets.assign(buckets.begin(), buckets.begin() + last);
    out.push_back(std::move(sample));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

std::string MetricsRegistry::RenderCsv() const {
  std::string out = "metric,kind,field,value\n";
  char line[192];
  for (const MetricSample& sample : Snapshot()) {
    switch (sample.kind) {
      case MetricKind::kCounter:
        std::snprintf(line, sizeof(line), "%s,counter,value,%llu\n",
                      sample.name.c_str(),
                      static_cast<unsigned long long>(sample.value));
        out += line;
        break;
      case MetricKind::kGauge:
        std::snprintf(line, sizeof(line), "%s,gauge,value,%lld\n",
                      sample.name.c_str(),
                      static_cast<long long>(sample.gauge_value));
        out += line;
        std::snprintf(line, sizeof(line), "%s,gauge,max,%lld\n",
                      sample.name.c_str(),
                      static_cast<long long>(sample.gauge_max));
        out += line;
        break;
      case MetricKind::kHistogram:
        std::snprintf(line, sizeof(line), "%s,histogram,count,%llu\n",
                      sample.name.c_str(),
                      static_cast<unsigned long long>(sample.count));
        out += line;
        std::snprintf(line, sizeof(line), "%s,histogram,sum,%.6g\n",
                      sample.name.c_str(), sample.sum);
        out += line;
        std::snprintf(line, sizeof(line), "%s,histogram,p50,%.6g\n",
                      sample.name.c_str(), SamplePercentile(sample, 50.0));
        out += line;
        std::snprintf(line, sizeof(line), "%s,histogram,p99,%.6g\n",
                      sample.name.c_str(), SamplePercentile(sample, 99.0));
        out += line;
        for (size_t i = 0; i < sample.buckets.size(); ++i) {
          if (sample.buckets[i] == 0) continue;
          std::snprintf(line, sizeof(line), "%s,histogram,le_%.0f,%llu\n",
                        sample.name.c_str(), Log2Histogram::BucketLo(i + 1),
                        static_cast<unsigned long long>(sample.buckets[i]));
          out += line;
        }
        break;
    }
  }
  return out;
}

std::string MetricsRegistry::RenderText() const {
  std::string out;
  char line[192];
  for (const MetricSample& sample : Snapshot()) {
    switch (sample.kind) {
      case MetricKind::kCounter:
        std::snprintf(line, sizeof(line), "%-40s %llu\n", sample.name.c_str(),
                      static_cast<unsigned long long>(sample.value));
        out += line;
        break;
      case MetricKind::kGauge:
        std::snprintf(line, sizeof(line), "%-40s %lld (max %lld)\n",
                      sample.name.c_str(),
                      static_cast<long long>(sample.gauge_value),
                      static_cast<long long>(sample.gauge_max));
        out += line;
        break;
      case MetricKind::kHistogram: {
        std::snprintf(line, sizeof(line),
                      "%-40s n=%llu mean=%.3g p50=%.3g p99=%.3g\n",
                      sample.name.c_str(),
                      static_cast<unsigned long long>(sample.count),
                      sample.count == 0
                          ? 0.0
                          : sample.sum / static_cast<double>(sample.count),
                      SamplePercentile(sample, 50.0),
                      SamplePercentile(sample, 99.0));
        out += line;
        for (size_t i = 0; i < sample.buckets.size(); ++i) {
          if (sample.buckets[i] == 0) continue;
          std::snprintf(line, sizeof(line), "  [%11.4g, %11.4g) %llu\n",
                        Log2Histogram::BucketLo(i),
                        Log2Histogram::BucketLo(i + 1),
                        static_cast<unsigned long long>(sample.buckets[i]));
          out += line;
        }
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::string out;
  char line[256];
  for (const MetricSample& sample : Snapshot()) {
    const std::string name = PromName(sample.name);
    switch (sample.kind) {
      case MetricKind::kCounter:
        std::snprintf(line, sizeof(line), "# TYPE %s counter\n%s %llu\n",
                      name.c_str(), name.c_str(),
                      static_cast<unsigned long long>(sample.value));
        out += line;
        break;
      case MetricKind::kGauge:
        std::snprintf(line, sizeof(line),
                      "# TYPE %s gauge\n%s %lld\n%s_max %lld\n", name.c_str(),
                      name.c_str(), static_cast<long long>(sample.gauge_value),
                      name.c_str(), static_cast<long long>(sample.gauge_max));
        out += line;
        break;
      case MetricKind::kHistogram: {
        std::snprintf(line, sizeof(line), "# TYPE %s histogram\n",
                      name.c_str());
        out += line;
        // Prometheus buckets are cumulative and labelled by upper edge.
        unsigned long long cumulative = 0;
        for (size_t i = 0; i < sample.buckets.size(); ++i) {
          cumulative += sample.buckets[i];
          if (sample.buckets[i] == 0) continue;
          std::snprintf(line, sizeof(line), "%s_bucket{le=\"%.0f\"} %llu\n",
                        name.c_str(), Log2Histogram::BucketLo(i + 1),
                        cumulative);
          out += line;
        }
        std::snprintf(line, sizeof(line),
                      "%s_bucket{le=\"+Inf\"} %llu\n%s_sum %.6g\n%s_count "
                      "%llu\n",
                      name.c_str(),
                      static_cast<unsigned long long>(sample.count),
                      name.c_str(), sample.sum, name.c_str(),
                      static_cast<unsigned long long>(sample.count));
        out += line;
        std::snprintf(line, sizeof(line),
                      "%s{quantile=\"0.5\"} %.6g\n%s{quantile=\"0.99\"} "
                      "%.6g\n",
                      name.c_str(), SamplePercentile(sample, 50.0),
                      name.c_str(), SamplePercentile(sample, 99.0));
        out += line;
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<Spinlock> guard(lock_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace kop::trace
