#include "kop/trace/span.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "kop/sim/clock.hpp"
#include "kop/trace/trace.hpp"

namespace kop::trace {
namespace {

constexpr const char* kSpanKinds[kSpanKindCount] = {
    "span.module_call",   "span.engine_dispatch", "span.guard_decision",
    "span.journal_commit", "span.journal_rollback", "span.recovery",
    "span.napi_poll",     "span.xmit_batch",
};

size_t RoundUpPow2(size_t n) {
  size_t p = 64;
  while (p < n) p <<= 1;
  return p;
}

size_t Index(SpanKind kind) {
  const size_t i = static_cast<size_t>(kind);
  return i < kSpanKindCount ? i : 0;
}

uint64_t NowTsc() {
  const sim::VirtualClock* clock = GlobalTracer().clock();
  return clock != nullptr ? clock->ReadTsc() : 0;
}

}  // namespace

std::string_view SpanKindName(SpanKind kind) { return kSpanKinds[Index(kind)]; }

SpanRecorder::SpanRecorder(size_t per_cpu_capacity)
    : per_cpu_capacity_(RoundUpPow2(per_cpu_capacity)),
      mask_(per_cpu_capacity_ - 1) {
  for (auto& cpu : cpus_) {
    cpu = std::make_unique<Cpu>();
    cpu->slots.resize(per_cpu_capacity_);
  }
}

SpanRecorder::Cpu& SpanRecorder::Mine() {
  const uint32_t cpu = smp::CurrentCpu();
  return *cpus_[cpu < cpus_.size() ? cpu : cpu % cpus_.size()];
}

uint64_t SpanRecorder::BeginSpan() {
  Cpu& cpu = Mine();
  {
    std::lock_guard<Spinlock> guard(cpu.lock);
    ++cpu.depth;
  }
  return NowTsc();
}

void SpanRecorder::EndSpan(SpanKind kind, uint64_t begin_tsc, uint64_t arg) {
  SpanEvent event;
  event.begin_tsc = begin_tsc;
  event.end_tsc = NowTsc();
  event.arg = arg;
  event.kind = kind;
  event.cpu = static_cast<uint16_t>(smp::CurrentCpu());
  Cpu& cpu = Mine();
  std::lock_guard<Spinlock> guard(cpu.lock);
  event.seq = MakeSeq(event.cpu, cpu.count);
  if (cpu.depth > 0) --cpu.depth;
  event.depth = cpu.depth;
  cpu.slots[cpu.count & mask_] = event;
  ++cpu.count;
  cpu.hist[Index(kind)].Observe(static_cast<double>(event.duration()));
}

std::vector<SpanEvent> SpanRecorder::Snapshot() const {
  std::vector<SpanEvent> out;
  for (const auto& cpu : cpus_) {
    std::lock_guard<Spinlock> guard(cpu->lock);
    const uint64_t retained =
        std::min<uint64_t>(cpu->count, per_cpu_capacity_);
    for (uint64_t i = cpu->count - retained; i < cpu->count; ++i) {
      out.push_back(cpu->slots[i & mask_]);
    }
  }
  std::sort(out.begin(), out.end(), [](const SpanEvent& a, const SpanEvent& b) {
    return a.begin_tsc != b.begin_tsc ? a.begin_tsc < b.begin_tsc
                                      : a.seq < b.seq;
  });
  return out;
}

std::vector<SpanEvent> SpanRecorder::Tail(uint32_t cpu_index, size_t n) const {
  std::vector<SpanEvent> out;
  if (cpu_index >= cpus_.size()) return out;
  const Cpu& cpu = *cpus_[cpu_index];
  std::lock_guard<Spinlock> guard(cpu.lock);
  uint64_t retained = std::min<uint64_t>(cpu.count, per_cpu_capacity_);
  retained = std::min<uint64_t>(retained, n);
  for (uint64_t i = cpu.count - retained; i < cpu.count; ++i) {
    out.push_back(cpu.slots[i & mask_]);
  }
  return out;
}

SpanStats SpanRecorder::Stats(SpanKind kind) const {
  HistogramBuckets folded{};
  SpanStats stats;
  const size_t k = Index(kind);
  for (const auto& cpu : cpus_) {
    cpu->hist[k].FoldInto(folded);
    stats.sum += cpu->hist[k].sum();
  }
  for (uint64_t b : folded) stats.count += b;
  stats.p50 = Log2Histogram::PercentileFromBuckets(folded, 50.0);
  stats.p90 = Log2Histogram::PercentileFromBuckets(folded, 90.0);
  stats.p99 = Log2Histogram::PercentileFromBuckets(folded, 99.0);
  stats.p999 = Log2Histogram::PercentileFromBuckets(folded, 99.9);
  return stats;
}

uint64_t SpanRecorder::total_recorded() const {
  uint64_t total = 0;
  for (const auto& cpu : cpus_) {
    std::lock_guard<Spinlock> guard(cpu->lock);
    total += cpu->count;
  }
  return total;
}

uint64_t SpanRecorder::CpuCount(uint32_t cpu_index, SpanKind kind) const {
  if (cpu_index >= cpus_.size()) return 0;
  return cpus_[cpu_index]->hist[Index(kind)].count();
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
  for (const auto& cpu : cpus_) {
    std::lock_guard<Spinlock> guard(cpu->lock);
    cpu->count = 0;
    cpu->depth = 0;
    std::fill(cpu->slots.begin(), cpu->slots.end(), SpanEvent{});
    for (auto& hist : cpu->hist) hist.Reset();
  }
}

SpanRecorder& GlobalSpans() {
  static SpanRecorder recorder;
  return recorder;
}

}  // namespace kop::trace
