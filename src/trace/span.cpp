#include "kop/trace/span.hpp"

#include <algorithm>
#include <cstdio>

namespace kop::trace {
namespace {

constexpr const char* kSpanKinds[kSpanKindCount] = {
    "span.module_call",   "span.engine_dispatch", "span.guard_decision",
    "span.journal_commit", "span.journal_rollback", "span.recovery",
    "span.napi_poll",     "span.xmit_batch",
};

size_t Index(SpanKind kind) {
  const size_t i = static_cast<size_t>(kind);
  return i < kSpanKindCount ? i : 0;
}

constexpr uint32_t kAnyCpu = ~0u;

/// `lane`'s span records on `cpu` (every CPU when `cpu` is kAnyCpu),
/// decoded, in the lane's completion order.
void DecodeSpans(const std::vector<TraceRecord>& lane, uint32_t cpu,
                 std::vector<SpanEvent>* out) {
  for (const TraceRecord& record : lane) {
    if (record.event != EventId::kSpan) continue;
    if (cpu != kAnyCpu && record.cpu != cpu) continue;
    SpanEvent span;
    span.begin_tsc = record.tsc;
    span.end_tsc = record.tsc + record.args[0];
    span.seq = record.seq;
    span.arg = record.args[1];
    span.kind = static_cast<SpanKind>(record.aux & 0xff);
    span.cpu = record.cpu;
    span.depth = static_cast<uint16_t>(record.aux >> 16);
    out->push_back(span);
  }
}

}  // namespace

namespace detail {
constinit thread_local uint16_t t_span_depth = 0;
}  // namespace detail

std::string_view SpanKindName(SpanKind kind) { return kSpanKinds[Index(kind)]; }

std::vector<SpanEvent> SpanRecorder::Snapshot() const {
  std::vector<SpanEvent> out;
  for (const auto& lane : ring_->LaneRecords()) {
    DecodeSpans(lane, kAnyCpu, &out);
  }
  std::sort(out.begin(), out.end(), [](const SpanEvent& a, const SpanEvent& b) {
    return a.begin_tsc != b.begin_tsc ? a.begin_tsc < b.begin_tsc
                                      : a.seq < b.seq;
  });
  return out;
}

std::vector<SpanEvent> SpanRecorder::Tail(uint32_t cpu, size_t n) const {
  std::vector<SpanEvent> out;
  for (const auto& lane : ring_->LaneRecords()) {
    const auto merged = static_cast<ptrdiff_t>(out.size());
    DecodeSpans(lane, cpu, &out);
    std::inplace_merge(out.begin(), out.begin() + merged, out.end(),
                       [](const SpanEvent& a, const SpanEvent& b) {
                         return a.end_tsc < b.end_tsc;
                       });
  }
  if (out.size() > n) {
    out.erase(out.begin(), out.end() - static_cast<ptrdiff_t>(n));
  }
  return out;
}

SpanStats SpanRecorder::Stats(SpanKind kind) const {
  const Log2Histogram& hist = hist_[Index(kind)];
  const HistogramBuckets folded = hist.Buckets();
  SpanStats stats;
  for (uint64_t b : folded) stats.count += b;
  stats.sum = hist.sum();
  stats.p50 = Log2Histogram::PercentileFromBuckets(folded, 50.0);
  stats.p90 = Log2Histogram::PercentileFromBuckets(folded, 90.0);
  stats.p99 = Log2Histogram::PercentileFromBuckets(folded, 99.0);
  stats.p999 = Log2Histogram::PercentileFromBuckets(folded, 99.9);
  return stats;
}

std::string SpanRecorder::RenderText() const {
  std::string out =
      "span                     count        mean         p50         p90"
      "         p99        p999\n";
  char line[192];
  for (size_t k = 0; k < kSpanKindCount; ++k) {
    const SpanStats stats = Stats(static_cast<SpanKind>(k));
    std::snprintf(line, sizeof(line),
                  "%-22s %8llu %11.4g %11.4g %11.4g %11.4g %11.4g\n",
                  kSpanKinds[k], static_cast<unsigned long long>(stats.count),
                  stats.count == 0
                      ? 0.0
                      : stats.sum / static_cast<double>(stats.count),
                  stats.p50, stats.p90, stats.p99, stats.p999);
    out += line;
  }
  return out;
}

std::string SpanRecorder::RenderPrometheus() const {
  std::string out = "# TYPE kop_span_duration_cycles summary\n";
  char line[192];
  constexpr double kQuantiles[] = {0.5, 0.9, 0.99, 0.999};
  for (size_t k = 0; k < kSpanKindCount; ++k) {
    const SpanStats stats = Stats(static_cast<SpanKind>(k));
    const double q[] = {stats.p50, stats.p90, stats.p99, stats.p999};
    for (size_t i = 0; i < 4; ++i) {
      std::snprintf(line, sizeof(line),
                    "kop_span_duration_cycles{span=\"%s\",quantile=\"%g\"} "
                    "%.6g\n",
                    kSpanKinds[k], kQuantiles[i], q[i]);
      out += line;
    }
    std::snprintf(line, sizeof(line),
                  "kop_span_duration_cycles_sum{span=\"%s\"} %.6g\n"
                  "kop_span_duration_cycles_count{span=\"%s\"} %llu\n",
                  kSpanKinds[k], stats.sum, kSpanKinds[k],
                  static_cast<unsigned long long>(stats.count));
    out += line;
  }
  return out;
}

void SpanRecorder::Reset() {
  for (Log2Histogram& hist : hist_) hist.Reset();
  detail::t_span_depth = 0;
  ring_->Clear();
}

}  // namespace kop::trace
