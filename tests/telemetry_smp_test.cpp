// Telemetry under SMP: four CPUs drive guards, tracepoints, spans and
// sink deliveries at once, and every folded total must come out exact.
// Guard histograms, trace lanes and the counting sink all keep per-CPU or
// per-thread cells that are summed only when read, so these are the
// numbers a lost or double-counted update would show up in. Trace and
// span records come from the writing thread's own lane: their sequence
// numbers must be unique and increase within each lane, and a reader
// racing the writers must never see a torn record.
//
// Built into the TSan job next to smp_test: the write paths share no
// cache line, and the readers race only through the lanes' release/
// acquire protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
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

/// Checks that `seqs` (each CPU's in record order) are unique and strictly
/// increasing within each lane. A lane passes from a departed thread to
/// the next one, which may run on another CPU whose clock orders the
/// merged stream differently, so lane order is checked per CPU.
void ExpectLaneOrder(const std::map<uint32_t, std::vector<uint64_t>>& seqs) {
  std::set<uint64_t> seen;
  for (const auto& [cpu, stream] : seqs) {
    std::map<uint32_t, uint64_t> last;
    for (uint64_t seq : stream) {
      EXPECT_TRUE(seen.insert(seq).second) << "duplicate seq " << seq;
      const uint32_t lane = trace::SeqLane(seq);
      if (auto prev = last.find(lane); prev != last.end()) {
        EXPECT_LT(trace::SeqOrdinal(prev->second), trace::SeqOrdinal(seq))
            << "cpu " << cpu << " lane " << lane << " seq not increasing";
      }
      last[lane] = seq;
    }
  }
}

/// Checks that `lane`, one of ring.LaneRecords(), holds exactly its
/// newest min(appended, bit_floor(capacity / lanes)) records, ordinals
/// contiguous, and returns `appended` as its last ordinal gives it (0 for
/// a lane that kept nothing) for the caller to check against its own
/// count.
uint64_t ExpectNewestKept(const trace::TraceRing& ring,
                          const std::vector<trace::TraceRecord>& lane) {
  if (lane.empty()) return 0;
  for (size_t i = 1; i < lane.size(); ++i) {
    EXPECT_EQ(trace::SeqLane(lane[i].seq), trace::SeqLane(lane[0].seq));
    EXPECT_EQ(trace::SeqOrdinal(lane[i].seq),
              trace::SeqOrdinal(lane[i - 1].seq) + 1)
        << "gap in lane " << trace::SeqLane(lane[0].seq) << " at " << i;
  }
  const uint64_t appended = trace::SeqOrdinal(lane.back().seq) + 1;
  const size_t share = std::bit_floor(ring.capacity() / ring.lane_count());
  EXPECT_EQ(lane.size(), std::min<uint64_t>(appended, share));
  return appended;
}

/// The newest min(size, share) of `appends` (one lane's events, oldest
/// first): the records the lane must still hold.
std::vector<trace::EventId> NewestKept(
    const trace::TraceRing& ring, const std::vector<trace::EventId>& appends) {
  const size_t share = std::bit_floor(ring.capacity() / ring.lane_count());
  return {appends.end() - static_cast<ptrdiff_t>(
                              std::min(appends.size(), share)),
          appends.end()};
}

uint64_t Tracepoints(const std::vector<trace::EventId>& events) {
  return static_cast<uint64_t>(
      std::count_if(events.begin(), events.end(), [](trace::EventId id) {
        return id != trace::EventId::kSpan;
      }));
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
  // No thread leaves before all have recorded, so no lane passes from one
  // CPU's thread to another's.
  std::barrier done(kCpus);

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
    done.arrive_and_wait();
  });

  // Guards: both per-guard histograms saw every guard exactly once.
  const uint64_t guards = engine.stats().guard_calls;
  EXPECT_EQ(guards, kCpus * kGuardsPerCpu);
  auto& metrics = trace::GlobalMetrics();
  EXPECT_EQ(metrics.GetHistogram("guard.latency_cycles")->count(), guards);
  EXPECT_EQ(metrics.GetHistogram("policy.lookup_depth")->count(), guards);

  // Trace: the lane totals fold to the per-event counts. Spans share the
  // lanes but are not tracepoints, so they are not in these counts.
  const trace::TraceRing& ring = tracer.ring();
  uint64_t by_event = 0;
  for (size_t e = 0; e < trace::kEventCount; ++e) {
    by_event += tracer.event_count(static_cast<trace::EventId>(e));
  }
  EXPECT_EQ(ring.total_appended(), by_event);
  EXPECT_EQ(tracer.event_count(trace::EventId::kIoctl),
            kCpus * kTracepointsPerCpu);
  const std::vector<trace::TraceRecord> records = ring.Snapshot();
#if KOP_TRACE_ENABLED
  // Each guard fires one guard.check, whose depth field is the depth the
  // guard added to policy.lookup_depth.
  EXPECT_EQ(tracer.event_count(trace::EventId::kGuardCheck), guards);
  EXPECT_EQ(ring.total_appended(), kCpus * kTracepointsPerCpu + guards);
  const trace::Log2Histogram* depth =
      metrics.GetHistogram("policy.lookup_depth");
  const double per_guard = depth->sum() / static_cast<double>(guards);
  for (const trace::TraceRecord& record : records) {
    if (record.event != trace::EventId::kGuardCheck) continue;
    EXPECT_EQ(static_cast<double>(record.aux), per_guard);
  }
#else
  EXPECT_EQ(ring.total_appended(), kCpus * kTracepointsPerCpu);
#endif
  // Each CPU's thread has a lane of its own, into which it appended, in
  // order: per guard its guard.check (trace builds) then its span (span
  // builds), then the tracepoints, then the spans. Spans share the lanes'
  // budget, so each lane keeps exactly the newest `kept` of these.
  std::vector<trace::EventId> appends;
  for (uint64_t i = 0; i < kGuardsPerCpu; ++i) {
    if (KOP_TRACE_ENABLED) appends.push_back(trace::EventId::kGuardCheck);
    if (KOP_SPANS_ENABLED) appends.push_back(trace::EventId::kSpan);
  }
  appends.insert(appends.end(), kTracepointsPerCpu, trace::EventId::kIoctl);
  appends.insert(appends.end(), kSpansPerCpu, trace::EventId::kSpan);
  const std::vector<trace::EventId> kept = NewestKept(ring, appends);
  std::set<uint32_t> lane_cpus;
  for (const auto& lane : ring.LaneRecords()) {
    if (lane.empty()) continue;
    EXPECT_EQ(ExpectNewestKept(ring, lane), appends.size());
    EXPECT_TRUE(lane_cpus.insert(lane.front().cpu).second)
        << "two lanes for cpu " << lane.front().cpu;
    std::vector<trace::EventId> events;
    for (const trace::TraceRecord& record : lane) {
      EXPECT_EQ(record.cpu, lane.front().cpu);
      events.push_back(record.event);
    }
    EXPECT_EQ(events, kept) << "cpu " << lane.front().cpu;
  }
  EXPECT_EQ(lane_cpus.size(), kCpus);
  EXPECT_EQ(records.size(), kCpus * Tracepoints(kept));
  EXPECT_EQ(ring.dropped(),
            kCpus * (Tracepoints(appends) - Tracepoints(kept)));
  std::map<uint32_t, std::vector<uint64_t>> trace_seqs;
  for (const trace::TraceRecord& record : records) {
    trace_seqs[record.cpu].push_back(record.seq);
  }
  ExpectLaneOrder(trace_seqs);

  // Spans: every guard decision plus the explicit spans.
  const uint64_t guard_spans = KOP_SPANS_ENABLED ? guards : 0;
  EXPECT_EQ(spans.total_recorded(), kCpus * kSpansPerCpu + guard_spans);
  EXPECT_EQ(spans.Stats(trace::SpanKind::kXmitBatch).count,
            kCpus * kSpansPerCpu);
  EXPECT_EQ(spans.Stats(trace::SpanKind::kGuardDecision).count, guard_spans);
  std::map<uint32_t, std::vector<uint64_t>> span_seqs;
  for (uint32_t cpu = 0; cpu < kCpus; ++cpu) {
    const std::vector<trace::SpanEvent> tail = spans.Tail(cpu, SIZE_MAX);
    EXPECT_FALSE(tail.empty()) << "cpu " << cpu;
    for (const trace::SpanEvent& event : tail) {
      EXPECT_EQ(event.cpu, cpu);
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
  // Every writer registers before any goes on: a writer that finished
  // early would hand its lane to the next thread to register.
  std::barrier registered(kCpus);
  smp::RunOnCpus(kCpus, [&](uint32_t cpu) {
    for (uint64_t i = 0; i < kPerCpu; ++i) {
      trace::TraceRecord record;
      record.cpu = static_cast<uint16_t>(cpu);
      record.event = trace::EventId::kGuardCheck;
      record.args[0] = i;
      ring.Append(record);
      if (i == 0) registered.arrive_and_wait();
    }
  });
  EXPECT_EQ(ring.lane_count(), kCpus);
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

/// The payload a lane writer stamps: args[1..3] are functions of args[0],
/// so a record mixing two writes fails Consistent.
trace::TraceRecord Stamp(uint32_t writer, uint64_t i) {
  trace::TraceRecord record;
  record.event = trace::EventId::kIoctl;
  record.cpu = static_cast<uint16_t>(smp::CurrentCpu());
  record.args[0] = uint64_t{writer} << 32 | i;
  record.args[1] = record.args[0] * 0x9e3779b97f4a7c15ULL;
  record.args[2] = ~record.args[0];
  record.args[3] = writer;
  record.aux = static_cast<uint32_t>(i);
  return record;
}

bool Consistent(const trace::TraceRecord& record) {
  return record.event == trace::EventId::kIoctl &&
         record.args[1] == record.args[0] * 0x9e3779b97f4a7c15ULL &&
         record.args[2] == ~record.args[0] &&
         record.args[3] == record.args[0] >> 32 &&
         record.aux == static_cast<uint32_t>(record.args[0]);
}

TEST(TelemetrySmpTest, ReadersRacingBoundAndUnboundWritersSeeNoTornRecord) {
  // Small enough that the writers lap their lanes while the reader
  // copies them.
  trace::TraceRing ring(256);
  trace::SpanRecorder spans(ring);
  constexpr uint32_t kBound = 4;
  constexpr uint32_t kWriters = 2 * kBound;  // four bound, four unbound
  constexpr uint64_t kRecords = 100000;
  constexpr uint64_t kSpanEvery = 4;
  std::atomic<uint32_t> running{kWriters};
  // All writers hold their lanes at once, so no lane passes from one
  // writer to the next mid-test.
  std::barrier registered(kWriters);
  std::atomic<uint64_t> reads{0};

  std::thread reader([&] {
    auto check = [&] {
      const std::vector<trace::TraceRecord> records = ring.Snapshot();
      EXPECT_LE(records.size(), ring.capacity());
      // Per lane, the writer and its ordinals must be those of a single
      // writer going forward.
      std::map<uint32_t, trace::TraceRecord> last;
      std::map<uint32_t, std::vector<uint64_t>> seqs;
      for (const trace::TraceRecord& record : records) {
        ASSERT_TRUE(Consistent(record)) << "torn record seq " << record.seq;
        const uint32_t writer = static_cast<uint32_t>(record.args[3]);
        EXPECT_EQ(record.cpu, writer < kBound ? writer : 0u);
        seqs[record.cpu].push_back(record.seq);
        const uint32_t lane = trace::SeqLane(record.seq);
        if (auto prev = last.find(lane); prev != last.end()) {
          EXPECT_EQ(prev->second.args[3], record.args[3]);
          EXPECT_LT(prev->second.args[0], record.args[0]);
        }
        last[lane] = record;
      }
      ExpectLaneOrder(seqs);
      for (uint32_t cpu = 0; cpu < kBound; ++cpu) {
        for (const trace::SpanEvent& span : spans.Tail(cpu, 32)) {
          EXPECT_EQ(span.kind, trace::SpanKind::kXmitBatch) << "torn span";
          EXPECT_EQ(span.depth, 0u) << "torn span";
          EXPECT_EQ(span.cpu, cpu);
          EXPECT_EQ(span.arg % kSpanEvery, 0u) << "torn span";
        }
      }
      const uint64_t dropped = ring.dropped();
      EXPECT_LE(dropped, ring.total_appended());
      reads.fetch_add(1, std::memory_order_relaxed);
    };
    while (running.load(std::memory_order_acquire) != 0) check();
    check();
  });

  std::vector<std::thread> writers;
  for (uint32_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      std::optional<smp::ScopedCpu> bind;
      if (w < kBound) bind.emplace(w);
      for (uint64_t i = 0; i < kRecords; ++i) {
        ring.Append(Stamp(w, i));
        if (i == 0) registered.arrive_and_wait();
        if (i % kSpanEvery == 0) {
          spans.EndSpan(trace::SpanKind::kXmitBatch, spans.BeginSpan(), i);
        }
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  for (std::thread& writer : writers) writer.join();
  reader.join();
  EXPECT_GE(reads.load(), 1u);

  // Exact totals once every writer is done.
  EXPECT_EQ(ring.total_appended(), kWriters * kRecords);
  EXPECT_EQ(ring.event_count(trace::EventId::kIoctl), kWriters * kRecords);
  EXPECT_EQ(ring.span_count(), kWriters * (kRecords / kSpanEvery));
  EXPECT_EQ(spans.total_recorded(), kWriters * (kRecords / kSpanEvery));
  EXPECT_EQ(ring.lane_count(), kWriters);
  // Each lane keeps exactly the newest of its writer's appends: a record,
  // then a span after every kSpanEvery-th.
  std::vector<trace::EventId> appends;
  for (uint64_t i = 0; i < kRecords; ++i) {
    appends.push_back(trace::EventId::kIoctl);
    if (i % kSpanEvery == 0) appends.push_back(trace::EventId::kSpan);
  }
  const std::vector<trace::EventId> kept = NewestKept(ring, appends);
  for (const auto& lane : ring.LaneRecords()) {
    EXPECT_EQ(ExpectNewestKept(ring, lane), appends.size());
  }
  const std::vector<trace::TraceRecord> records = ring.Snapshot();
  EXPECT_EQ(records.size(), kWriters * Tracepoints(kept));
  EXPECT_EQ(spans.Snapshot().size(),
            kWriters * (kept.size() - Tracepoints(kept)));
  EXPECT_EQ(ring.dropped(), kWriters * (kRecords - Tracepoints(kept)));
  // Every writer's newest record survives: the lanes hold the newest.
  std::set<uint64_t> newest;
  for (const trace::TraceRecord& record : records) {
    if ((record.args[0] & 0xffffffffu) == kRecords - 1) {
      newest.insert(record.args[3]);
    }
  }
  EXPECT_EQ(newest.size(), kWriters);
}

TEST(TelemetrySmpTest, LanesOutliveTheirThreadsAndStayBounded) {
  trace::TraceRing ring(4096);
  constexpr uint32_t kThreads = 200;
  constexpr uint32_t kLive = 8;  // threads alive at once, at most
  constexpr uint64_t kRecords = 50;
  for (uint32_t wave = 0; wave < kThreads / kLive; ++wave) {
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < kLive; ++t) {
      threads.emplace_back([&ring, w = wave * kLive + t] {
        for (uint64_t i = 0; i < kRecords; ++i) ring.Append(Stamp(w, i));
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_LE(ring.lane_count(), kLive);
  }
  EXPECT_EQ(ring.total_appended(), kThreads * kRecords);
  // Which lanes a thread continued depends on the scheduler, but every
  // append is in some lane, and each lane keeps exactly its newest share.
  const size_t share = std::bit_floor(ring.capacity() / ring.lane_count());
  uint64_t appended = 0;
  uint64_t kept = 0;
  for (const auto& lane : ring.LaneRecords()) {
    const uint64_t n = ExpectNewestKept(ring, lane);
    appended += n;
    kept += std::min<uint64_t>(n, share);
  }
  EXPECT_EQ(appended, kThreads * kRecords);
  const std::vector<trace::TraceRecord> records = ring.Snapshot();
  EXPECT_LE(records.size(), ring.capacity());
  EXPECT_EQ(records.size(), kept);
  EXPECT_EQ(ring.dropped(), kThreads * kRecords - kept);
  // A departed thread's records stay: the last wave's writers are all
  // gone, and every one of their records is still there.
  std::map<uint32_t, std::vector<uint64_t>> seqs;
  size_t last_wave = 0;
  for (const trace::TraceRecord& record : records) {
    EXPECT_TRUE(Consistent(record));
    seqs[record.cpu].push_back(record.seq);
    if (record.args[3] >= kThreads - kLive) ++last_wave;
  }
  EXPECT_EQ(last_wave, kLive * kRecords);
  ExpectLaneOrder(seqs);
}

}  // namespace
}  // namespace kop
