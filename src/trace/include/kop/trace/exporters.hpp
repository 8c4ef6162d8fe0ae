// Trace exporters: Chrome trace-event JSON (loadable straight into
// Perfetto / chrome://tracing) and a flat CSV, both over the fixed-size
// records the tracepoints produce.
#pragma once

#include <string>
#include <vector>

#include "kop/trace/span.hpp"
#include "kop/trace/trace.hpp"

namespace kop::trace {

struct ChromeTraceOptions {
  /// Virtual cycles per microsecond used for the `ts` field (default:
  /// the R350 testbed's 2.8 GHz).
  double cycles_per_us = 2800.0;
  const char* process_name = "carat-kop-sim";
};

/// Records as Chrome trace-event JSON: one instant event per record,
/// categorized by subsystem, args named per event (plus the aux word
/// under its name, e.g. guard.check's `depth`), with `tid` carrying
/// the simulated CPU the tracepoint fired on. Timestamps are
/// virtual-cycle counts scaled to microseconds; addresses render as hex
/// strings so 64-bit values survive JSON number precision. Pass the
/// TraceRing::Snapshot() output for a timestamp-merged SMP timeline.
std::string ExportChromeTrace(const std::vector<TraceRecord>& records,
                              const ChromeTraceOptions& options = {});

/// Records plus completed spans: spans export as real-duration "X"
/// events (`ts` = begin, `dur` = end - begin) on their CPU's `tid` row,
/// so Perfetto draws the nested module-call → engine → guard scopes.
std::string ExportChromeTrace(const std::vector<TraceRecord>& records,
                              const std::vector<SpanEvent>& spans,
                              const ChromeTraceOptions& options = {});

/// Convenience: snapshot the tracer's ring and export it.
std::string ExportChromeTrace(const Tracer& tracer,
                              const ChromeTraceOptions& options = {});

/// "seq,tsc,event,category,arg0..arg3,aux" rows.
std::string ExportTraceCsv(const std::vector<TraceRecord>& records);

}  // namespace kop::trace
