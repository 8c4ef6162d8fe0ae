#include "kop/trace/exporters.hpp"

#include <cinttypes>
#include <cstdio>

namespace kop::trace {
namespace {

void AppendEscaped(std::string* out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

std::string ExportChromeTrace(const std::vector<TraceRecord>& records,
                              const ChromeTraceOptions& options) {
  return ExportChromeTrace(records, std::vector<SpanEvent>{}, options);
}

std::string ExportChromeTrace(const std::vector<TraceRecord>& records,
                              const std::vector<SpanEvent>& spans,
                              const ChromeTraceOptions& options) {
  std::string out;
  out.reserve((records.size() + spans.size()) * 140 + 256);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  out += "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":"
         "{\"name\":\"";
  AppendEscaped(&out, options.process_name);
  out += "\"}}";
  char buf[128];
  for (const TraceRecord& record : records) {
    out += ",{\"name\":\"";
    AppendEscaped(&out, EventName(record.event));
    out += "\",\"cat\":\"";
    AppendEscaped(&out, EventCategory(record.event));
    // Instant events, thread-scoped; tid is the simulated CPU.
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"args\":{\"seq\":%" PRIu64,
                  static_cast<unsigned>(record.cpu),
                  static_cast<double>(record.tsc) / options.cycles_per_us,
                  record.seq);
    out += buf;
    const auto arg_names = EventArgNames(record.event);
    for (size_t i = 0; i < arg_names.size(); ++i) {
      if (arg_names[i] == nullptr) continue;
      std::snprintf(buf, sizeof(buf), ",\"%s\":\"0x%" PRIx64 "\"",
                    arg_names[i], record.args[i]);
      out += buf;
    }
    if (const char* aux = EventAuxName(record.event)) {
      std::snprintf(buf, sizeof(buf), ",\"%s\":%u", aux, record.aux);
      out += buf;
    }
    out += "}}";
  }
  for (const SpanEvent& span : spans) {
    out += ",{\"name\":\"";
    AppendEscaped(&out, SpanKindName(span.kind));
    // Complete ("X") events carry their real duration; begin/end both
    // came from the recording CPU's virtual clock.
    std::snprintf(buf, sizeof(buf),
                  "\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"seq\":%" PRIu64
                  ",\"depth\":%u,\"arg\":\"0x%" PRIx64 "\"}}",
                  static_cast<unsigned>(span.cpu),
                  static_cast<double>(span.begin_tsc) / options.cycles_per_us,
                  static_cast<double>(span.duration()) / options.cycles_per_us,
                  span.seq, static_cast<unsigned>(span.depth), span.arg);
    out += buf;
  }
  out += "]}";
  return out;
}

std::string ExportChromeTrace(const Tracer& tracer,
                              const ChromeTraceOptions& options) {
  return ExportChromeTrace(tracer.ring().Snapshot(), options);
}

std::string ExportTraceCsv(const std::vector<TraceRecord>& records) {
  std::string out = "seq,tsc,event,category,arg0,arg1,arg2,arg3,aux\n";
  char buf[224];
  for (const TraceRecord& record : records) {
    std::snprintf(buf, sizeof(buf),
                  "%" PRIu64 ",%" PRIu64 ",%s,%s,%" PRIu64 ",%" PRIu64
                  ",%" PRIu64 ",%" PRIu64 ",%u\n",
                  record.seq, record.tsc,
                  std::string(EventName(record.event)).c_str(),
                  std::string(EventCategory(record.event)).c_str(),
                  record.args[0], record.args[1], record.args[2],
                  record.args[3], record.aux);
    out += buf;
  }
  return out;
}

}  // namespace kop::trace
