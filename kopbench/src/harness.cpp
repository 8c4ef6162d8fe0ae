#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>

#include "kop/smp/executor.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/trace/trace.hpp"

namespace kopbench {
namespace {

// Captured during static initialisation: the first set-up is timed from
// here, so process start-up counts as set-up.
const int64_t g_process_start_ns = NowNs();

enum class Kind { kEndToEnd, kPerLayer, kReported };

struct MetricDef {
  const char* name;
  const char* unit;
  Kind kind;
};

// Every metric the benchmark prints. kEndToEnd and kPerLayer rows must
// match BENCHMARK.json (run.py checks both ways). kReported rows are
// end-to-end metrics that are printed and recorded but kept off the
// result line: they apply to only some workloads, read 0 by design
// (fail_ratio), or are seed-independent on most workloads.
constexpr MetricDef kMetrics[] = {
    {"setup_s", "s", Kind::kEndToEnd},
    {"pkts_per_s", "1/s", Kind::kEndToEnd},
    {"call_p50_us", "us", Kind::kEndToEnd},
    {"call_p99_us", "us", Kind::kEndToEnd},
    {"vpkts_per_s", "1/s", Kind::kEndToEnd},
    {"peak_rss_mb", "MB", Kind::kEndToEnd},
    // Per-call virtual latency: a handful of distinct per-call costs, so
    // on most workloads its quantiles read the same for every seed.
    {"vcall_p50_cycles", "cycles", Kind::kReported},
    {"vcall_p99_cycles", "cycles", Kind::kReported},
    {"loads_per_s", "1/s", Kind::kReported},
    {"vguard_overhead_pct", "%", Kind::kReported},
    {"fail_ratio", "ratio", Kind::kReported},
    {"call_samples", "count", Kind::kReported},
    {"net.sendmsg_self_ns", "ns", Kind::kPerLayer},
    {"e1000e.xmit_ns", "ns", Kind::kPerLayer},
    {"e1000e.batch_ns", "ns", Kind::kPerLayer},
    {"e1000e.poll_ns", "ns", Kind::kPerLayer},
    {"e1000e.batch_raw_ns", "ns", Kind::kPerLayer},
    {"e1000e.poll_raw_ns", "ns", Kind::kPerLayer},
    {"e1000e.reclaim_per_poll", "ratio", Kind::kPerLayer},
    {"policy.guard_ns", "ns", Kind::kPerLayer},
    {"policy.guards_per_pkt", "count", Kind::kPerLayer},
    {"policy.lookup_depth_mean", "entries", Kind::kPerLayer},
    {"policy.fast_deopt_ratio", "ratio", Kind::kPerLayer},
    {"policy.update_us", "us", Kind::kPerLayer},
    {"policy.republish_call_us", "us", Kind::kPerLayer},
    {"nic.sink_ns", "ns", Kind::kPerLayer},
    {"nic.doorbells_per_pkt", "count", Kind::kPerLayer},
    {"nic.dma_bytes_per_pkt", "bytes", Kind::kPerLayer},
    {"modrt.call_ns", "ns", Kind::kPerLayer},
    {"kir.steps_per_call", "count", Kind::kPerLayer},
    {"kir.ns_per_step", "ns", Kind::kPerLayer},
    {"resilience.journal_entries_per_call", "count", Kind::kPerLayer},
    {"smp.busy_ms", "ms", Kind::kPerLayer},
    {"smp.wait_ms", "ms", Kind::kPerLayer},
    {"smp.imbalance", "ratio", Kind::kPerLayer},
    {"smp.host_speedup", "ratio", Kind::kPerLayer},
    {"kir.parse_us", "us", Kind::kPerLayer},
    {"transform.compile_ms", "ms", Kind::kPerLayer},
    {"transform.compile_ns_per_inst", "ns", Kind::kPerLayer},
    {"signing.sign_us", "us", Kind::kPerLayer},
    {"signing.validate_us", "us", Kind::kPerLayer},
    {"analysis.verify_ms", "ms", Kind::kPerLayer},
    {"kernel.insmod_ms", "ms", Kind::kPerLayer},
    {"kernel.insmod_self_ms", "ms", Kind::kPerLayer},
    {"kernel.rmmod_us", "us", Kind::kPerLayer},
    {"trace.events_per_pkt", "count", Kind::kPerLayer},
    {"bench.trace_overhead_pct", "%", Kind::kPerLayer},
    {"bench.self_sum_ratio", "ratio", Kind::kPerLayer},
};

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kEndToEnd: return "end_to_end";
    case Kind::kPerLayer: return "per_layer";
    case Kind::kReported: return "reported";
  }
  return "reported";
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Interpolated quantile of an unweighted sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

/// Quantile of weighted samples: the smallest value whose cumulative
/// weight reaches q of the total.
double WeightedQuantile(std::vector<std::pair<float, double>> samples,
                        double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double total = 0;
  for (const auto& s : samples) total += s.second;
  double cumulative = 0;
  for (const auto& s : samples) {
    cumulative += s.second;
    if (cumulative >= q * total) return s.first;
  }
  return samples.back().first;
}

/// Fixed-size uniform sample of a caller's call latencies (algorithm R),
/// so memory does not grow with the host's speed.
class Reservoir {
 public:
  static constexpr size_t kCapacity = 1 << 13;
  explicit Reservoir(uint64_t seed) : state_(seed * 2654435761u + 1) {
    kept_.reserve(kCapacity);
  }
  void Add(float value) {
    ++seen_;
    if (kept_.size() < kCapacity) {
      kept_.push_back(value);
      return;
    }
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    const uint64_t slot = state_ % seen_;
    if (slot < kCapacity) kept_[slot] = value;
  }
  uint64_t seen() const { return seen_; }
  const std::vector<float>& kept() const { return kept_; }

 private:
  uint64_t state_;
  uint64_t seen_ = 0;
  std::vector<float> kept_;
};

constexpr size_t kKeptSpansPerCaller = 20000;

// Timed loops run in slices of about this length. Traced runs alternate
// untraced and traced slices; untraced runs record each slice's
// throughput as a diagnostic series.
constexpr double kSliceSeconds = 0.5;

}  // namespace

Report::Report() {
  for (const MetricDef& def : kMetrics) {
    Entry entry;
    entry.name = def.name;
    entry.unit = def.unit;
    entry.kind = KindName(def.kind);
    entries_.push_back(entry);
  }
}

void Report::Set(const std::string& name, double value) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      return;
    }
  }
  Check(false, "benchmark bug: undeclared metric " + name);
}

double Report::Get(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.value;
  }
  return 0;
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "kopbench: check failed: %s\n", what.c_str());
    failures_.push_back(what);
  }
}

std::string Report::Json(const Options& options,
                         const std::string& provenance) const {
  std::string out = "{\"workload\":\"" + JsonEscape(options.workload) +
                    "\",\"seed\":" + std::to_string(options.seed) +
                    ",\"trace\":" + (options.trace ? "1" : "0") +
                    ",\"seconds\":" + JsonNumber(options.seconds) +
                    ",\"provenance\":" + provenance;
  out += ",\"correct\":";
  out += correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_) +
         ",\"failed\":" + std::to_string(failed_) + ",\"check_failures\":[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(failures_[i]) + "\"";
  }
  out += "],\"metrics\":{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i > 0) out += ",";
    out += "\"" + e.name + "\":{\"value\":" + JsonNumber(e.value) +
           ",\"unit\":\"" + e.unit + "\",\"kind\":\"" + e.kind + "\"}";
  }
  out += "},\"series\":{";
  for (size_t i = 0; i < series_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + series_[i].first + "\":[";
    for (size_t j = 0; j < series_[i].second.size(); ++j) {
      if (j > 0) out += ",";
      out += JsonNumber(series_[i].second[j]);
    }
    out += "]";
  }
  out += "}}";
  return out;
}

WindowStats RunWindow(uint32_t callers, uint64_t calls_per_caller,
                      kop::sim::VirtualClock& clock, const CallFn& fn,
                      Cursor& cursor) {
  WindowStats w;
  w.callers = callers;
  w.call_cycles.resize(callers);
  w.step_cycles.resize(callers);
  w.packets_per_call.resize(callers);
  std::vector<double> elapsed(callers, 0);
  std::vector<uint64_t> failed(callers, 0);
  kop::smp::RunOnCpus(callers, [&](uint32_t c) {
    w.call_cycles[c].reserve(calls_per_caller);
    w.step_cycles[c].reserve(calls_per_caller);
    w.packets_per_call[c].reserve(calls_per_caller);
    const double begin = clock.NowCycles();
    for (uint64_t i = 0; i < calls_per_caller; ++i) {
      const uint64_t index = cursor[c]++;
      const double t0 = clock.NowCycles();
      int64_t packets = -1;
      try {
        packets = fn.call(c, index);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "kopbench: call threw: %s\n", e.what());
      }
      const double t1 = clock.NowCycles();
      if (packets < 0) {
        ++failed[c];
        break;
      }
      if (fn.after) fn.after(c, index);
      w.call_cycles[c].push_back(t1 - t0);
      w.step_cycles[c].push_back(clock.NowCycles() - t0);
      w.packets_per_call[c].push_back(static_cast<uint32_t>(packets));
    }
    elapsed[c] = clock.NowCycles() - begin;
  });
  for (uint32_t c = 0; c < callers; ++c) {
    w.calls += w.call_cycles[c].size() + failed[c];
    w.failed += failed[c];
    for (uint32_t p : w.packets_per_call[c]) w.packets += p;
    w.max_cycles = std::max(w.max_cycles, elapsed[c]);
  }
  return w;
}

LoopStats::LoopStats(uint32_t callers, bool traced)
    : callers(callers), busy_ns(callers, 0) {
  if (traced) {
    for (uint32_t c = 0; c < callers; ++c) spans.emplace_back(kKeptSpansPerCaller);
  }
}

double LoopStats::mean_call_ns() const {
  const uint64_t ok = calls - failed;
  return ok > 0 ? latency_ns / static_cast<double>(ok) : 0;
}

double LoopStats::pkts_per_s() const {
  return wall_s > 0 ? static_cast<double>(packets) / wall_s : 0;
}

double LoopStats::LatencyQuantile(double q) const {
  return WeightedQuantile(samples, q);
}

namespace {

/// One caller's counts for a slice, on its own cache line: the
/// benchmark's bookkeeping must not add cross-CPU sharing of its own.
struct alignas(64) Tally {
  explicit Tally(uint64_t seed) : samples(seed) {}
  Reservoir samples;
  uint64_t packets = 0;
  uint64_t failed = 0;
  double latency_ns = 0;
};

void RunSlice(LoopStats& s, double seconds, const CallFn& fn, Cursor& cursor) {
  const uint32_t callers = s.callers;
  const bool traced = !s.spans.empty();
  std::vector<Tally> tallies;
  for (uint32_t c = 0; c < callers; ++c) tallies.emplace_back(c + 1);

  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  kop::smp::RunOnCpus(callers, [&](uint32_t c) {
    Tally& tally = tallies[c];
    SpanLog* log = traced ? &s.spans[c] : nullptr;
    CurrentSpanLog() = log;
    uint64_t index = cursor[c];
    for (;; ++index) {
      if (log != nullptr) log->SetCall((uint64_t{c} << 48) | index);
      const int64_t t0 = NowNs();
      int64_t done = -1;
      try {
        done = fn.call(c, index);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "kopbench: call threw: %s\n", e.what());
      }
      const int64_t t1 = NowNs();
      if (log != nullptr) log->SetCall(kNoCall);
      if (done < 0) {
        ++tally.failed;
        break;
      }
      tally.packets += static_cast<uint64_t>(done);
      tally.latency_ns += static_cast<double>(t1 - t0);
      tally.samples.Add(static_cast<float>(t1 - t0));
      if (fn.after) fn.after(c, index);
      if (NowNs() >= deadline) break;
    }
    cursor[c] = index + 1;
    CurrentSpanLog() = nullptr;
  });
  const double wall = static_cast<double>(NowNs() - start) * 1e-9;

  uint64_t slice_packets = 0;
  for (uint32_t c = 0; c < callers; ++c) {
    const Tally& tally = tallies[c];
    s.calls += tally.samples.seen() + tally.failed;
    s.failed += tally.failed;
    slice_packets += tally.packets;
    s.latency_ns += tally.latency_ns;
    s.busy_ns[c] = traced ? s.spans[c].in_call_root_ns()
                          : s.busy_ns[c] + tally.latency_ns;
    const std::vector<float>& kept = tally.samples.kept();
    if (kept.empty()) continue;
    const double weight = static_cast<double>(tally.samples.seen()) /
                          static_cast<double>(kept.size());
    for (float v : kept) s.samples.emplace_back(v, weight);
  }
  s.packets += slice_packets;
  s.wall_s += wall;
  s.slice_pps.push_back(static_cast<double>(slice_packets) / wall);
  if (fn.between_slices) fn.between_slices();
}

size_t SliceCount(double seconds) {
  return std::max<size_t>(1, static_cast<size_t>(seconds / kSliceSeconds + 0.5));
}

}  // namespace

LoopStats RunClosedLoop(uint32_t callers, double seconds, const CallFn& fn,
                        Cursor& cursor) {
  LoopStats s(callers, false);
  const size_t slices = SliceCount(seconds);
  for (size_t i = 0; i < slices; ++i) {
    RunSlice(s, seconds / static_cast<double>(slices), fn, cursor);
    if (s.failed > 0) break;
  }
  return s;
}

TracedPair RunTracedPair(uint32_t callers, double seconds,
                         const CallFn& untraced_fn, const CallFn& traced_fn,
                         Cursor& cursor) {
  TracedPair pair{LoopStats(callers, false), LoopStats(callers, true)};
  const size_t slices = SliceCount(seconds / 2);
  const double slice_s = seconds / 2 / static_cast<double>(slices);
  for (size_t i = 0; i < slices; ++i) {
    // Both halves of a pair replay the same inputs, and the side that
    // goes first alternates, so neither side is favoured by its inputs,
    // its moment, or state the other side left warm.
    const Cursor start = cursor;
    Cursor end = cursor;
    for (int half = 0; half < 2; ++half) {
      cursor = start;
      if ((half + i) % 2 == 0) {
        RunSlice(pair.untraced, slice_s, untraced_fn, cursor);
      } else {
        RunSlice(pair.traced, slice_s, traced_fn, cursor);
      }
      for (size_t c = 0; c < cursor.size(); ++c) {
        end[c] = std::max(end[c], cursor[c]);
      }
    }
    cursor = end;
    if (pair.untraced.failed + pair.traced.failed > 0) break;
  }
  return pair;
}

double TimeSetUps(const std::function<bool()>& set_up,
                  const std::function<void()>& tear_down) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetUps; ++i) {
    if (i > 0) tear_down();
    const int64_t start = i == 0 ? g_process_start_ns : NowNs();
    if (!set_up()) return -1;
    seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
  return Quantile(seconds, 0.5);
}

void ReadGlobalCounters(Counters* out) {
  auto& metrics = kop::trace::GlobalMetrics();
  out->deopts =
      static_cast<double>(metrics.GetCounter("guard.deopt")->value());
  const kop::trace::Log2Histogram* depth =
      metrics.GetHistogram("policy.lookup_depth");
  out->depth_sum = depth->sum();
  out->depth_count = static_cast<double>(depth->count());
  out->trace_events = static_cast<double>(
      kop::trace::GlobalTracer().ring().total_appended());
}

void EmitWindow(Report& report, const WindowStats& window, double freq_hz,
                const Counters& before, const Counters& after) {
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  std::vector<double> cycles;
  for (const auto& per_caller : window.call_cycles) {
    cycles.insert(cycles.end(), per_caller.begin(), per_caller.end());
  }
  const double packets = static_cast<double>(window.packets);
  const double calls = static_cast<double>(window.calls);
  report.Set("vpkts_per_s", per(packets, window.max_cycles / freq_hz));
  // Read here, after a fixed amount of work, rather than at exit: memory
  // that grows per operation (the append-only guard-site registry grows
  // with every insmod) would otherwise grow with the host's speed.
  report.Set("peak_rss_mb", PeakRssMb());
  report.Set("vcall_p50_cycles", Quantile(cycles, 0.50));
  report.Set("vcall_p99_cycles", Quantile(cycles, 0.99));
  report.Set("policy.guards_per_pkt",
             per(after.guard_calls - before.guard_calls, packets));
  report.Set("policy.lookup_depth_mean",
             per(after.depth_sum - before.depth_sum,
                 after.depth_count - before.depth_count));
  report.Set("policy.fast_deopt_ratio",
             per(after.deopts - before.deopts,
                 after.guard_calls - before.guard_calls));
  report.Set("nic.doorbells_per_pkt",
             per(after.doorbells - before.doorbells, packets));
  report.Set("nic.dma_bytes_per_pkt",
             per(after.dma_bytes - before.dma_bytes, packets));
  report.Set("trace.events_per_pkt",
             per(after.trace_events - before.trace_events, packets));
  report.Set("kir.steps_per_call", per(after.steps - before.steps, calls));
  // The journal is read from the boot CPU's execution slot, so it is
  // divided by caller 0's calls.
  report.Set("resilience.journal_entries_per_call",
             per(after.journal_entries - before.journal_entries,
                 static_cast<double>(window.call_cycles[0].size())));
  report.Check(after.denied == before.denied,
               "guard denials during the window");
  report.Check(window.failed == 0, "failed calls in the virtual window");
  report.CountCalls(window.calls, window.failed);
}

void EmitLoop(Report& report, const LoopStats& loop) {
  report.Set("pkts_per_s", loop.pkts_per_s());
  report.Set("call_p50_us", loop.LatencyQuantile(0.50) * 1e-3);
  report.Set("call_p99_us", loop.LatencyQuantile(0.99) * 1e-3);
  report.Set("call_samples", static_cast<double>(loop.calls));
  report.Series("slice_pkts_per_s", loop.slice_pps);
  report.Check(loop.failed == 0, "failed calls in the timed loop");
  report.CountCalls(loop.calls, loop.failed);
}

void EmitTraceSummary(Report& report, const TracedPair& pair) {
  const LoopStats& traced = pair.traced;
  double busy_total = 0, busy_max = 0;
  for (double busy : traced.busy_ns) {
    busy_total += busy;
    busy_max = std::max(busy_max, busy);
  }
  const double busy_mean = busy_total / traced.callers;
  report.Set("smp.busy_ms", busy_mean * 1e-6);
  report.Set("smp.wait_ms", traced.wall_s * 1e3 - busy_mean * 1e-6);
  report.Set("smp.imbalance", busy_mean > 0 ? busy_max / busy_mean : 0);
  const double untraced_ns = pair.untraced.mean_call_ns();
  report.Set("bench.trace_overhead_pct",
             (traced.mean_call_ns() / untraced_ns - 1.0) * 100.0);
  // Busy time of a traced loop is the sum of its root spans, which is
  // the sum of every in-call span's self time.
  const double ok_calls = static_cast<double>(traced.calls - traced.failed);
  report.Set("bench.self_sum_ratio", busy_total / ok_calls / untraced_ns);
  report.CountCalls(traced.calls, traced.failed);
  report.CountCalls(pair.untraced.calls, pair.untraced.failed);
  report.Check(traced.failed == 0 && pair.untraced.failed == 0,
               "failed calls in a traced-run loop");
}

void WriteSpansIfAsked(const Options& options, const LoopStats& traced) {
  if (options.spans_out.empty()) return;
  if (std::FILE* out = std::fopen(options.spans_out.c_str(), "w")) {
    WriteSpans(out, traced.spans);
    std::fclose(out);
  }
}

double MeanSpanNs(const LoopStats& loop, SpanName name, bool self) {
  double sum = 0;
  uint64_t count = 0;
  for (const SpanLog& log : loop.spans) {
    const SpanTotals& t = log.totals(name);
    sum += self ? t.self_ns : t.total_ns;
    count += t.count;
  }
  return count > 0 ? sum / static_cast<double>(count) : 0;
}

uint64_t SpanCount(const LoopStats& loop, SpanName name) {
  uint64_t count = 0;
  for (const SpanLog& log : loop.spans) count += log.totals(name).count;
  return count;
}

namespace {

/// Median over `chunks` consecutive chunks of a window of each chunk's
/// packets over its busiest caller's cycles.
double MedianChunkPps(const WindowStats& window, size_t chunks,
                      double freq_hz) {
  size_t per_caller = window.step_cycles[0].size();
  for (const auto& steps : window.step_cycles) {
    per_caller = std::min(per_caller, steps.size());
  }
  std::vector<double> rates;
  for (size_t j = 0; j < chunks; ++j) {
    const size_t lo = j * per_caller / chunks;
    const size_t hi = (j + 1) * per_caller / chunks;
    double busiest = 0, packets = 0;
    for (uint32_t c = 0; c < window.callers; ++c) {
      double cycles = 0;
      for (size_t i = lo; i < hi; ++i) {
        cycles += window.step_cycles[c][i];
        packets += window.packets_per_call[c][i];
      }
      busiest = std::max(busiest, cycles);
    }
    if (busiest > 0) rates.push_back(packets / (busiest / freq_hz));
  }
  return Quantile(rates, 0.5);
}

}  // namespace

void EmitGuardOverhead(Report& report, const WindowStats& guarded,
                       const WindowStats& raw, double freq_hz) {
  constexpr size_t kChunks = 20;
  report.CountCalls(raw.calls, raw.failed);
  report.Check(raw.failed == 0, "failed calls in the raw window");
  const double guarded_pps = MedianChunkPps(guarded, kChunks, freq_hz);
  const double raw_pps = MedianChunkPps(raw, kChunks, freq_hz);
  report.Set("vguard_overhead_pct",
             raw_pps > 0 ? (raw_pps - guarded_pps) / raw_pps * 100.0 : 0);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace kopbench
