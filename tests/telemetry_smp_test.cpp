// Per-CPU telemetry under SMP: four CPUs drive guards, tracepoints, spans
// and sink deliveries at once, and every folded total must come out
// exact. Guard histograms, trace lanes, span lanes and the counting sink
// all keep per-CPU cells that are summed only when read, so these are
// the numbers a lost or double-counted update would show up in. Each
// CPU's trace and span sequence numbers come from its own lane: they
// must be unique across CPUs and increase within each CPU.
//
// Built into the TSan job next to smp_test: the write paths share no
// cache line, and the read-side folds race with nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/nic/packet_sink.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/smp/executor.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/trace/span.hpp"
#include "kop/trace/trace.hpp"
#include "kop/util/carat_abi.hpp"

namespace kop {
namespace {

constexpr uint32_t kCpus = 4;
constexpr uint64_t kGuardsPerCpu = 1000;
constexpr uint64_t kTracepointsPerCpu = 300;
constexpr uint64_t kSpansPerCpu = 200;
constexpr uint64_t kFramesPerCpu = 500;
constexpr size_t kRetain = 4;
constexpr uint64_t kKernelAddr = 0xffff888000001000ULL;

size_t FrameSize(uint32_t cpu, uint64_t i) { return 60 + cpu * 8 + i % 5; }

/// Checks that `seqs` (in per-CPU record order) carry `cpu` in their top
/// bits and strictly increasing ordinals.
void ExpectLaneOrder(const std::map<uint32_t, std::vector<uint64_t>>& seqs) {
  std::set<uint64_t> seen;
  for (const auto& [cpu, lane] : seqs) {
    for (size_t i = 0; i < lane.size(); ++i) {
      EXPECT_EQ(trace::SeqCpu(lane[i]), cpu);
      EXPECT_TRUE(seen.insert(lane[i]).second) << "duplicate seq " << lane[i];
      if (i > 0) {
        EXPECT_LT(trace::SeqOrdinal(lane[i - 1]), trace::SeqOrdinal(lane[i]))
            << "cpu " << cpu << " seq not increasing at " << i;
      }
    }
  }
}

TEST(TelemetrySmpTest, FourCpusFoldExactly) {
  kernel::Kernel kernel;
  auto policy = policy::PolicyModule::Insert(
      &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
  ASSERT_TRUE(policy.ok());
  policy::PolicyEngine& engine = (*policy)->engine();
  trace::Tracer& tracer = trace::GlobalTracer();
  trace::SpanRecorder& spans = trace::GlobalSpans();
  tracer.Reset();
  spans.Reset();
  trace::GlobalMetrics().Reset();
  engine.ResetStats();
  nic::CountingSink sink(kRetain);

  smp::RunOnCpus(kCpus, [&](uint32_t cpu) {
    for (uint64_t i = 0; i < kGuardsPerCpu; ++i) {
      (void)engine.Guard(kKernelAddr + 8 * i, 8, kGuardAccessRead);
    }
    for (uint64_t i = 0; i < kTracepointsPerCpu; ++i) {
      tracer.Record(trace::EventId::kIoctl, cpu, i);
    }
    for (uint64_t i = 0; i < kSpansPerCpu; ++i) {
      spans.EndSpan(trace::SpanKind::kXmitBatch, spans.BeginSpan(), i);
    }
    for (uint64_t i = 0; i < kFramesPerCpu; ++i) {
      sink.Deliver(std::vector<uint8_t>(FrameSize(cpu, i),
                                        static_cast<uint8_t>(cpu)));
    }
  });

  // Guards: both per-guard histograms saw every guard exactly once.
  const uint64_t guards = engine.stats().guard_calls;
  EXPECT_EQ(guards, kCpus * kGuardsPerCpu);
  auto& metrics = trace::GlobalMetrics();
  EXPECT_EQ(metrics.GetHistogram("guard.latency_cycles")->count(), guards);
  EXPECT_EQ(metrics.GetHistogram("policy.lookup_depth")->count(), guards);

  // Trace: the lane totals fold to the per-event counts, and nothing was
  // dropped (each lane stays within its share of the budget).
  const trace::TraceRing& ring = tracer.ring();
  uint64_t by_event = 0;
  for (size_t e = 0; e < trace::kEventCount; ++e) {
    by_event += tracer.event_count(static_cast<trace::EventId>(e));
  }
  EXPECT_EQ(ring.total_appended(), by_event);
  EXPECT_EQ(tracer.event_count(trace::EventId::kIoctl),
            kCpus * kTracepointsPerCpu);
#if KOP_TRACE_ENABLED
  // Each guard fires policy.lookup and guard.check.
  EXPECT_EQ(tracer.event_count(trace::EventId::kGuardCheck), guards);
  EXPECT_EQ(tracer.event_count(trace::EventId::kPolicyLookup), guards);
  EXPECT_EQ(ring.total_appended(), kCpus * kTracepointsPerCpu + 2 * guards);
#else
  EXPECT_EQ(ring.total_appended(), kCpus * kTracepointsPerCpu);
#endif
  EXPECT_EQ(ring.dropped(), 0u);
  const std::vector<trace::TraceRecord> records = ring.Snapshot();
  ASSERT_EQ(records.size(), ring.total_appended());
  std::map<uint32_t, std::vector<uint64_t>> trace_seqs;
  for (const trace::TraceRecord& record : records) {
    trace_seqs[record.cpu].push_back(record.seq);
  }
  ASSERT_EQ(trace_seqs.size(), kCpus);
  ExpectLaneOrder(trace_seqs);
  for (const auto& [cpu, lane] : trace_seqs) {
    // Nothing dropped, so each lane's ordinals are exactly 0..n-1.
    EXPECT_EQ(trace::SeqOrdinal(lane.back()), lane.size() - 1);
  }

  // Spans: every guard decision plus the explicit spans.
  const uint64_t guard_spans = KOP_SPANS_ENABLED ? guards : 0;
  EXPECT_EQ(spans.total_recorded(), kCpus * kSpansPerCpu + guard_spans);
  EXPECT_EQ(spans.Stats(trace::SpanKind::kXmitBatch).count,
            kCpus * kSpansPerCpu);
  EXPECT_EQ(spans.Stats(trace::SpanKind::kGuardDecision).count, guard_spans);
  std::map<uint32_t, std::vector<uint64_t>> span_seqs;
  for (uint32_t cpu = 0; cpu < kCpus; ++cpu) {
    for (const trace::SpanEvent& event : spans.Tail(cpu, SIZE_MAX)) {
      span_seqs[cpu].push_back(event.seq);
    }
  }
  ExpectLaneOrder(span_seqs);

  // Sink: exact counts, and each CPU's newest frames in delivery order.
  uint64_t bytes = 0;
  std::vector<std::vector<uint8_t>> recent;
  for (uint32_t cpu = 0; cpu < kCpus; ++cpu) {
    for (uint64_t i = 0; i < kFramesPerCpu; ++i) {
      bytes += FrameSize(cpu, i);
      if (i >= kFramesPerCpu - kRetain) {
        recent.emplace_back(FrameSize(cpu, i), static_cast<uint8_t>(cpu));
      }
    }
  }
  EXPECT_EQ(sink.packets(), kCpus * kFramesPerCpu);
  EXPECT_EQ(sink.bytes(), bytes);
  EXPECT_EQ(sink.RecentFrames(), recent);

  tracer.Reset();
  spans.Reset();
}

TEST(TelemetrySmpTest, TraceLanesShareTheRingBudget) {
  trace::TraceRing ring(256);
  constexpr uint64_t kPerCpu = 1000;
  smp::RunOnCpus(kCpus, [&](uint32_t cpu) {
    for (uint64_t i = 0; i < kPerCpu; ++i) {
      trace::TraceRecord record;
      record.cpu = static_cast<uint16_t>(cpu);
      record.event = trace::EventId::kGuardCheck;
      record.args[0] = i;
      ring.Append(record);
    }
  });
  EXPECT_EQ(ring.total_appended(), kCpus * kPerCpu);
  EXPECT_EQ(ring.event_count(trace::EventId::kGuardCheck), kCpus * kPerCpu);

  // Four lanes split 256 slots evenly; each keeps its own newest 64.
  const std::vector<trace::TraceRecord> records = ring.Snapshot();
  ASSERT_EQ(records.size(), ring.capacity());
  EXPECT_EQ(ring.dropped(), kCpus * kPerCpu - ring.capacity());
  std::map<uint32_t, std::vector<uint64_t>> seqs;
  for (const trace::TraceRecord& record : records) {
    EXPECT_EQ(trace::SeqOrdinal(record.seq), record.args[0]);
    seqs[record.cpu].push_back(record.seq);
  }
  ASSERT_EQ(seqs.size(), kCpus);
  ExpectLaneOrder(seqs);
  for (const auto& [cpu, lane] : seqs) {
    ASSERT_EQ(lane.size(), ring.capacity() / kCpus);
    EXPECT_EQ(trace::SeqOrdinal(lane.front()), kPerCpu - lane.size());
  }

  // Clearing drops the lanes; a lone CPU gets the whole budget back.
  ring.Clear();
  for (uint64_t i = 0; i < 2 * ring.capacity(); ++i) {
    ring.Append(trace::TraceRecord{});
  }
  EXPECT_EQ(ring.Snapshot().size(), ring.capacity());
  EXPECT_EQ(ring.dropped(), ring.capacity());
}

}  // namespace
}  // namespace kop
