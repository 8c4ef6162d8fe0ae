// kopbench: the two-clock benchmark program. Runs one workload for one
// seed and prints one JSON object (metrics, output checks, provenance)
// as its last line. run.py builds this program and turns that object
// into the result line.
//
//   kopbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--spans-out <file>]
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/resilience/recovery.hpp"
#include "kop/transform/compiler.hpp"

namespace {

using kopbench::Options;

int Usage(const char* why) {
  std::fprintf(stderr,
               "kopbench: %s\nusage: kopbench --workload "
               "<paper_xmit|native_mq4|module_mq4|control_plane> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <file>]\n",
               why);
  return 2;
}

std::string Provenance(const Options& options) {
  auto quoted = [](std::string_view text) {
    return "\"" + std::string(text) + "\"";
  };
  std::string out = "{";
  out += "\"seed\":" + std::to_string(options.seed);
  out += ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
#if defined(__clang__)
  out += ",\"compiler\":" + quoted("clang " __clang_version__);
#elif defined(__GNUC__)
  out += ",\"compiler\":" + quoted("gcc " __VERSION__);
#else
  out += ",\"compiler\":\"unknown\"";
#endif
  out += ",\"build_type\":" + quoted(KOPBENCH_BUILD_TYPE);
  out += ",\"KOP_TRACE_ENABLED\":" + std::to_string(KOP_TRACE_ENABLED);
  out += ",\"KOP_SPANS_ENABLED\":" + std::to_string(KOP_SPANS_ENABLED);
  out += ",\"KOP_COVERAGE_ENABLED\":" + std::to_string(KOP_COVERAGE_ENABLED);
  // Effective runtime configuration. The module workloads pin the
  // bytecode engine; KOP_ENGINE is what other loaders would pick.
  out += ",\"KOP_ENGINE\":" +
         quoted(kop::kernel::ExecEngineName(kop::kernel::DefaultExecEngine()));
  out += ",\"engine_used\":\"bytecode\"";
  out += ",\"KOP_VERIFY\":" +
         quoted(kop::kernel::VerifyModeName(kop::kernel::DefaultVerifyMode()));
  out += ",\"KOP_ELIDE\":" +
         quoted(kop::transform::DefaultElideGuards() ? "on" : "off");
  out += ",\"KOP_CFI\":" +
         quoted(kop::transform::DefaultCfiChecks() ? "on" : "off");
  out += ",\"KOP_RECOVERY\":" +
         quoted(kop::resilience::RecoveryPolicyName(
             kop::resilience::DefaultRecoveryPolicy()));
  out += "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0;
    } else if (std::strcmp(flag, "--trace") == 0) {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      options.trace = std::strcmp(value, "1") == 0;
    } else if (std::strcmp(flag, "--spans-out") == 0) {
      options.spans_out = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  kopbench::Report report;
  if (options.workload == "paper_xmit") {
    kopbench::RunPaperXmit(options, report);
  } else if (options.workload == "native_mq4") {
    kopbench::RunNativeMq4(options, report);
  } else if (options.workload == "module_mq4") {
    kopbench::RunModuleMq4(options, report);
  } else if (options.workload == "control_plane") {
    kopbench::RunControlPlane(options, report);
  } else {
    return Usage("unknown workload");
  }
  report.Set("fail_ratio",
             report.attempted() > 0
                 ? static_cast<double>(report.failed()) / report.attempted()
                 : 1.0);
  if (report.attempted() == 0) report.Check(false, "no calls attempted");
  std::printf("%s\n", report.Json(options, Provenance(options)).c_str());
  return report.correct() ? 0 : 1;
}
