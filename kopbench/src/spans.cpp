#include "spans.hpp"

#include <chrono>

namespace kopbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpanNameString(SpanName name) {
  static constexpr const char* kNames[kSpanNameCount] = {
      "net.sendmsg",      "e1000e.xmit",     "e1000e.batch",
      "e1000e.poll",      "nic.sink",        "modrt.call",
      "transform.compile", "signing.sign",   "kernel.insmod",
      "kernel.insmod_reject", "kernel.rmmod", "policy.update",
      "policy.republish_call",
      "kir.parse",        "signing.validate", "analysis.verify",
  };
  return kNames[static_cast<size_t>(name)];
}

SpanLog::SpanLog(size_t keep_records) : keep_(keep_records) {
  stack_.reserve(16);
  records_.reserve(keep_records);
}

void SpanLog::Open(SpanName name) {
  int64_t record = -1;
  if (records_.size() < keep_) {
    record = static_cast<int64_t>(records_.size());
    SpanRecord r;
    r.parent = stack_.empty() ? -1 : stack_.back().record;
    r.call = call_;
    r.name = name;
    records_.push_back(r);
  }
  stack_.push_back(OpenSpan{name, NowNs(), 0.0, record});
  if (record >= 0) records_[static_cast<size_t>(record)].start_ns =
      stack_.back().start_ns;
}

void SpanLog::Close() {
  const int64_t end = NowNs();
  const OpenSpan span = stack_.back();
  stack_.pop_back();
  const double duration = static_cast<double>(end - span.start_ns);
  SpanTotals& totals = totals_[static_cast<size_t>(span.name)];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - span.child_ns;
  if (span.record >= 0) records_[static_cast<size_t>(span.record)].end_ns = end;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  } else if (call_ != kNoCall) {
    in_call_root_ns_ += duration;
  }
}

SpanLog*& CurrentSpanLog() {
  thread_local SpanLog* log = nullptr;
  return log;
}

void WriteSpans(std::FILE* out, const std::vector<SpanLog>& logs) {
  for (size_t thread = 0; thread < logs.size(); ++thread) {
    for (const SpanRecord& r : logs[thread].records()) {
      if (r.end_ns == 0) continue;  // still open when the phase ended
      std::fprintf(out,
                   "{\"thread\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"call\":%lld}\n",
                   thread, SpanNameString(r.name),
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns),
                   static_cast<long long>(r.parent),
                   r.call == kNoCall ? -1LL : static_cast<long long>(r.call));
    }
  }
}

}  // namespace kopbench
