// Shared machinery of the benchmark's workloads: the result report, the
// deterministic virtual-clock window, the timed closed loop, repeated
// set-up timing, and the counter snapshots the exact-count layer metrics
// are taken from.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "kop/sim/clock.hpp"
#include "spans.hpp"

namespace kopbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;  // traced runs: write kept spans here when set
};

/// Named metrics plus the output checks of one run.
class Report {
 public:
  Report();

  /// Set a metric declared in the metric table (harness.cpp).
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;
  /// A per-slice series recorded alongside the metrics (diagnostics).
  void Series(const std::string& name, const std::vector<double>& values) {
    series_.emplace_back(name, values);
  }
  /// An output check; a false `ok` makes the run incorrect.
  void Check(bool ok, const std::string& what);
  /// Top-level calls made and failed, summed over every phase.
  void CountCalls(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return failures_.empty() && failed_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// The run as one JSON object (no trailing newline); `provenance` is a
  /// JSON object naming the build and configuration.
  std::string Json(const Options& options,
                   const std::string& provenance) const;

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
    const char* kind = "";
  };

  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, std::vector<double>>> series_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// One top-level call of a workload: returns the packets it completed
/// (>= 0), or -1 when the call failed. `after` runs between calls,
/// outside the call's timing (inter-call work, traced-run probes).
/// `between_slices` runs on the main thread between timed slices, when
/// no call is in flight.
struct CallFn {
  std::function<int64_t(uint32_t caller, uint64_t index)> call;
  std::function<void(uint32_t caller, uint64_t index)> after;
  std::function<void()> between_slices;
};

/// Per-caller position in the seeded input stream; phases continue it.
using Cursor = std::vector<uint64_t>;

struct WindowStats {
  uint32_t callers = 0;
  uint64_t calls = 0;
  uint64_t packets = 0;
  uint64_t failed = 0;
  double max_cycles = 0;  // busiest caller's elapsed cycles
  // Per caller, per call: cycles inside the call, cycles from this call's
  // start to the next one's (call + after), and packets completed.
  std::vector<std::vector<double>> call_cycles;
  std::vector<std::vector<double>> step_cycles;
  std::vector<std::vector<uint32_t>> packets_per_call;
};

/// The virtual-clock measurement: exactly `calls_per_caller` calls on
/// each caller, untimed. Every number it yields is a function of the
/// seed alone.
WindowStats RunWindow(uint32_t callers, uint64_t calls_per_caller,
                      kop::sim::VirtualClock& clock, const CallFn& fn,
                      Cursor& cursor);

/// What a timed closed loop measured, accumulated over its slices.
struct LoopStats {
  LoopStats(uint32_t callers, bool traced);

  uint32_t callers;
  uint64_t calls = 0;
  uint64_t packets = 0;
  uint64_t failed = 0;
  double wall_s = 0;
  double latency_ns = 0;           // sum over successful calls
  std::vector<double> busy_ns;     // per caller: in-call time (root spans
                                   // when traced)
  std::vector<double> slice_pps;   // packets per host-second, per slice
  std::vector<std::pair<float, double>> samples;  // weighted latencies
  std::vector<SpanLog> spans;      // per caller, traced loops only

  double mean_call_ns() const;
  /// Packets over wall time, all slices together.
  double pkts_per_s() const;
  double LatencyQuantile(double q) const;
};

/// Closed loop on `callers` threads for `seconds` of host time: each
/// caller issues its next call when the previous one returns. Runs in
/// half-second slices (one thread per caller per slice).
LoopStats RunClosedLoop(uint32_t callers, double seconds, const CallFn& fn,
                        Cursor& cursor);

/// The traced run's measurement: `seconds` split into alternating
/// untraced and traced slices over the same inputs; the traced slices
/// record spans (with `traced_fn`, which may add probes between calls).
struct TracedPair {
  LoopStats untraced;
  LoopStats traced;
};
TracedPair RunTracedPair(uint32_t callers, double seconds,
                         const CallFn& untraced_fn, const CallFn& traced_fn,
                         Cursor& cursor);

/// Median of kSetUps timed set-ups, with `tear_down` (untimed) between
/// them. The first is timed from process start, so it includes process
/// start-up. Negative when a set-up fails.
inline constexpr int kSetUps = 5;
double TimeSetUps(const std::function<bool()>& set_up,
                  const std::function<void()>& tear_down);

/// Counters the exact-count layer metrics are differences of.
struct Counters {
  double guard_calls = 0;
  double denied = 0;
  double deopts = 0;
  double depth_sum = 0;
  double depth_count = 0;
  double doorbells = 0;
  double dma_bytes = 0;
  double trace_events = 0;
  double steps = 0;
  double journal_entries = 0;
};

/// Global registry counters (deopts, lookup depth, tracer records);
/// workloads add their own stack's counters.
void ReadGlobalCounters(Counters* out);

/// Set the metrics every workload derives the same way: the virtual
/// window's v* metrics and exact counts, and the timed loop's host
/// metrics.
void EmitWindow(Report& report, const WindowStats& window, double freq_hz,
                const Counters& before, const Counters& after);
void EmitLoop(Report& report, const LoopStats& loop);
/// Per-caller busy/wait split of the traced slices, and the traced-vs-
/// untraced comparison: layer self times per top-level call against the
/// untraced wall time per call.
void EmitTraceSummary(Report& report, const TracedPair& pair);

/// Write a traced loop's kept spans to options.spans_out, when given.
void WriteSpansIfAsked(const Options& options, const LoopStats& traced);

/// Mean of a span's durations (total) or self times over a loop's logs.
double MeanSpanNs(const LoopStats& loop, SpanName name, bool self);
uint64_t SpanCount(const LoopStats& loop, SpanName name);

/// vguard_overhead_pct: the guarded-vs-raw delta in median virtual
/// throughput, each side's median taken over 20 consecutive chunks of its
/// window (the paper's median over trials). Also counts the raw window.
void EmitGuardOverhead(Report& report, const WindowStats& guarded,
                       const WindowStats& raw, double freq_hz);

/// Peak resident set of this process in MiB.
double PeakRssMb();

/// Seeded generator for workload inputs (splitmix64).
class SeedRng {
 public:
  explicit SeedRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// `values` in seeded order (Fisher-Yates). Workloads build input pools
/// with exact shares and let the seed pick only the order, so the mix,
/// and with it the cost of a run, is the same for every seed.
template <typename T>
void Shuffle(std::vector<T>& values, SeedRng& rng) {
  for (size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng.Below(i)]);
  }
}

/// Each workload's entry point: run every phase, fill `report`.
void RunPaperXmit(const Options& options, Report& report);
void RunNativeMq4(const Options& options, Report& report);
void RunModuleMq4(const Options& options, Report& report);
void RunControlPlane(const Options& options, Report& report);

}  // namespace kopbench
