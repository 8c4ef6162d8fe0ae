// Extension 5: what the flight recorder costs. Every module call now
// runs under KOP_SPAN scopes (call -> dispatch -> guard -> commit) that
// feed per-CPU span rings and latency histograms, and every guard
// decision stamps the always-on flight recorder. This bench prices that
// on the guarded knic xmit hot path at 1 and 8 CPUs, on both engines:
//
//   spans-off   trace::GlobalSpans().SetEnabled(false) — each KOP_SPAN
//               site costs one relaxed load and a branch
//   spans-on    the shipped default: rings + histograms recording
//
// Cost has two currencies. The virtual clock is the contract: span
// instrumentation never charges simulated cycles (it observes the clock,
// it does not advance it), so cycles/send must be IDENTICAL between the
// legs — the acceptance gate is <= 2% and the expected delta is exactly
// 0 on both engines at both CPU counts. Host wall-ns/send is reported
// alongside as the noisy sanity sidecar for the real recording cost.
// When the build sets -DKOP_SPANS_ENABLED=OFF both legs compile to the
// same object code and the delta is 0% by construction.
//
// The second half exercises the payoff: a fixed-seed forced-violation
// trial (fault::RunPostmortemDemo) must yield a postmortem bundle that
// is schema-valid, names the triggering guard site, carries per-CPU
// flight-recorder tails, and is byte-identical across engines once the
// engine name — the one sanctioned difference — is normalized.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "kop/fault/campaign.hpp"
#include "kop/flight/postmortem.hpp"
#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/nic/e1000_device.hpp"
#include "kop/nic/packet_sink.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/signing/signer.hpp"
#include "kop/smp/cpu.hpp"
#include "kop/smp/executor.hpp"
#include "kop/transform/compiler.hpp"
#include "kop/trace/span.hpp"
#include "kop/trace/trace.hpp"

#include "common/experiment.hpp"

namespace {

using WallClock = std::chrono::steady_clock;
using kop::kernel::ExecEngine;
using kop::kernel::Kernel;
using kop::kernel::LoadedModule;
using kop::kernel::ModuleLoader;

// One independent guarded-knic testbed per CPU: the SMP leg measures
// instrumentation under concurrency, not cross-CPU sharing, so each CPU
// gets its own kernel + NIC + policy and its own virtual clock.
struct CpuRig {
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<kop::policy::PolicyModule> policy;
  std::unique_ptr<ModuleLoader> loader;
  std::unique_ptr<kop::nic::CountingSink> sink;
  std::unique_ptr<kop::nic::E1000Device> nic;
  LoadedModule* module = nullptr;

  bool Build(ExecEngine engine, const kop::signing::SignedModule& image) {
    kernel = std::make_unique<Kernel>();
    auto inserted = kop::policy::PolicyModule::Insert(
        kernel.get(), nullptr, kop::policy::PolicyMode::kDefaultAllow);
    if (!inserted.ok()) return false;
    policy = std::move(*inserted);
    kop::signing::Keyring keyring;
    keyring.Trust(kop::signing::SigningKey::DevelopmentKey());
    loader = std::make_unique<ModuleLoader>(kernel.get(), std::move(keyring));
    loader->set_engine(engine);
    sink = std::make_unique<kop::nic::CountingSink>();
    nic = std::make_unique<kop::nic::E1000Device>(&kernel->mem(), sink.get());
    if (!nic->MapAt(kop::kernel::kVmallocBase).ok()) return false;
    auto loaded = loader->Insmod(image);
    if (!loaded.ok()) {
      std::fprintf(stderr, "insmod failed: %s\n",
                   loaded.status().ToString().c_str());
      return false;
    }
    module = *loaded;
    (void)module->Call("knic_init", {kop::kernel::kVmallocBase});
    (void)module->Call("knic_fill", {64, 0x20});
    return true;
  }

  bool Sends(uint64_t sends) {
    for (uint64_t i = 0; i < sends; ++i) {
      auto result = module->Call("knic_send", {kop::kernel::kVmallocBase, 64});
      if (!result.ok()) {
        std::fprintf(stderr, "send failed: %s\n",
                     result.status().ToString().c_str());
        return false;
      }
    }
    return true;
  }
};

struct Measurement {
  double cycles_per_send = 0.0;  // busiest CPU, virtual clock
  double wall_ns_per_send = 0.0;
  bool ok = false;
};

Measurement Measure(std::vector<CpuRig>& rigs, uint32_t cpus, uint64_t sends) {
  std::vector<double> before(cpus);
  for (uint32_t cpu = 0; cpu < cpus; ++cpu) {
    before[cpu] = rigs[cpu].kernel->clock().MaxCycles();
  }
  std::vector<bool> ok(cpus, false);
  const auto start = WallClock::now();
  kop::smp::RunOnCpus(cpus, [&](uint32_t cpu) {
    ok[cpu] = rigs[cpu].Sends(sends);
  });
  const double wall_ns =
      std::chrono::duration<double, std::nano>(WallClock::now() - start)
          .count();
  Measurement m;
  for (uint32_t cpu = 0; cpu < cpus; ++cpu) {
    if (!ok[cpu]) return m;
    const double cycles = rigs[cpu].kernel->clock().MaxCycles() - before[cpu];
    m.cycles_per_send =
        std::max(m.cycles_per_send, cycles / static_cast<double>(sends));
  }
  m.wall_ns_per_send = wall_ns / static_cast<double>(sends);
  m.ok = true;
  return m;
}

// The documented bundle schema, as `kopcc postmortem --check-schema`
// pins it (DESIGN.md §14).
const char* const kSchemaKeys[] = {
    "\"schema\":\"kop.flight.postmortem/v1\"",
    "\"module\":",
    "\"engine\":",
    "\"reason\":",
    "\"what\":",
    "\"recovery\":",
    "\"cpu\":",
    "\"tsc\":",
    "\"violation\":",
    "\"vm\":",
    "\"journal\":{",
    "\"heap\":{",
    "\"restarts\":{",
    "\"policy\":",
    "\"heatmap\":[",
    "\"trace\":[",
};

bool CheckBundle(const kop::flight::PostmortemBundle& bundle,
                 const char* engine_name) {
  const std::string json = bundle.ToJson();
  bool ok = true;
  for (const char* key : kSchemaKeys) {
    if (json.find(key) == std::string::npos) {
      std::fprintf(stderr, "%s bundle: missing schema key %s\n", engine_name,
                   key);
      ok = false;
    }
  }
  if (!bundle.has_violation || bundle.site_label.empty() ||
      json.find(bundle.site_label) == std::string::npos) {
    std::fprintf(stderr, "%s bundle: triggering guard site not identified\n",
                 engine_name);
    ok = false;
  }
  if (bundle.tails.empty()) {
    std::fprintf(stderr, "%s bundle: no per-CPU flight-recorder tails\n",
                 engine_name);
    ok = false;
  }
  for (const auto& tail : bundle.tails) {
    if (tail.records.empty()) {
      std::fprintf(stderr, "%s bundle: cpu %u tail is empty\n", engine_name,
                   tail.cpu);
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t sends = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  const int rounds = argc > 2 ? std::atoi(argv[2]) : 3;
  const uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 7;

  auto compiled = kop::transform::CompileModuleText(kop::kirmods::KnicSource());
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }
  const auto image = kop::signing::SignModule(
      compiled->text, compiled->attestation,
      kop::signing::SigningKey::DevelopmentKey());

  const ExecEngine engines[] = {ExecEngine::kBytecode, ExecEngine::kInterp};
  const uint32_t cpu_points[] = {1, 8};

  std::printf("%-9s %4s %-9s %16s %14s %13s\n", "engine", "cpus", "spans",
              "cycles_per_send", "wall_ns_send", "overhead_pct");
  std::string csv =
      "engine,cpus,spans,cycles_per_send,wall_ns_per_send,"
      "cycle_overhead_pct\n";
  bool failed = false;

  for (const ExecEngine engine : engines) {
    const std::string engine_str(kop::kernel::ExecEngineName(engine));
    for (const uint32_t cpus : cpu_points) {
      // Each leg gets freshly built rigs, so both start from the exact
      // same machine state (the knic TX ring's per-send cost depends on
      // ring phase — interleaving legs on shared rigs would compare
      // different phases, not span cost). Cycles come from round 1 of
      // each leg — same construction + same warmup means the readings
      // are directly comparable and deterministic; later rounds only
      // chase the best wall time.
      Measurement off, on;
      for (const bool spans_on : {false, true}) {
        std::vector<CpuRig> rigs(cpus);
        for (uint32_t cpu = 0; cpu < cpus; ++cpu) {
          if (!rigs[cpu].Build(engine, image)) return 1;
        }
        kop::trace::GlobalSpans().SetEnabled(spans_on);
        kop::smp::RunOnCpus(cpus, [&](uint32_t cpu) {
          (void)rigs[cpu].Sends(sends / 4 + 1);  // warmup
        });
        Measurement& leg = spans_on ? on : off;
        for (int r = 0; r < rounds; ++r) {
          Measurement m = Measure(rigs, cpus, sends);
          if (!m.ok) return 1;
          if (!leg.ok) {
            leg = m;
          } else if (m.wall_ns_per_send < leg.wall_ns_per_send) {
            leg.wall_ns_per_send = m.wall_ns_per_send;
          }
        }
        kop::trace::GlobalSpans().SetEnabled(true);
      }

      const double overhead_pct =
          off.cycles_per_send > 0
              ? (on.cycles_per_send - off.cycles_per_send) /
                    off.cycles_per_send * 100.0
              : 0.0;
      struct Leg {
        const char* label;
        const Measurement& m;
        double overhead;
      } legs[] = {{"off", off, 0.0}, {"on", on, overhead_pct}};
      for (const Leg& leg : legs) {
        std::printf("%-9s %4u %-9s %16.1f %14.1f %+12.2f%%\n",
                    engine_str.c_str(), cpus, leg.label, leg.m.cycles_per_send,
                    leg.m.wall_ns_per_send, leg.overhead);
        char line[192];
        std::snprintf(line, sizeof(line), "%s,%u,%s,%.1f,%.1f,%.3f\n",
                      engine_str.c_str(), cpus, leg.label,
                      leg.m.cycles_per_send, leg.m.wall_ns_per_send,
                      leg.overhead);
        csv += line;
      }
      if (overhead_pct > 2.0) {
        std::fprintf(stderr,
                     "%s @ %u cpus: span overhead %.2f%% exceeds the 2%% "
                     "budget\n",
                     engine_str.c_str(), cpus, overhead_pct);
        failed = true;
      }
    }
  }
#if !KOP_SPANS_ENABLED
  std::printf("(KOP_SPANS_ENABLED=OFF: both legs are the same object code)\n");
#endif

  // Postmortem acceptance: the same fixed seed must contain the same
  // forced violation on both engines and capture equivalent bundles.
  kop::fault::CampaignConfig config;
  config.seed = seed;
  std::string normalized[2];
  for (int e = 0; e < 2; ++e) {
    config.engine = engines[e];
    const std::string engine_str(kop::kernel::ExecEngineName(engines[e]));
    auto bundle = kop::fault::RunPostmortemDemo(config);
    if (!bundle.ok()) {
      std::fprintf(stderr, "%s: postmortem demo failed: %s\n",
                   engine_str.c_str(), bundle.status().ToString().c_str());
      return 1;
    }
    if (!CheckBundle(*bundle, engine_str.c_str())) failed = true;
    kop::flight::PostmortemBundle neutral = *bundle;
    neutral.engine = "(normalized)";
    normalized[e] = neutral.ToJson();
  }
  if (normalized[0] != normalized[1]) {
    std::fprintf(stderr,
                 "postmortem bundles differ across engines beyond the engine "
                 "name\n");
    failed = true;
  } else {
    std::printf(
        "postmortem(seed=%llu): schema OK, guard site attributed, per-CPU "
        "tails present, engine-identical\n",
        (unsigned long long)seed);
  }

  kop::bench::WriteResultsFile("ext5_flight.csv", csv);
  return failed ? 1 : 0;
}
