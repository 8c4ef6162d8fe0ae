// Extension 4: SMP guarded-execution scaling. N simulated CPUs issue
// LoadedModule::Call concurrently into per-CPU execution contexts; every
// load/store inside the module runs through the lock-free policy read
// path. This bench sweeps CPUs 1 -> 8 on both engines against two policy
// shapes:
//
//   partitioned   eight regions, one per CPU stripe; each CPU's guards
//                 match its own region (the per-CPU table layout)
//   contended     one shared region; every CPU's guards resolve against
//                 the SAME table entry and the same published frame
//
// Throughput is guards per kilocycle on the virtual clock: elapsed time
// of an SMP run is MaxCycles() (CPUs advance in parallel, the run is as
// long as its busiest CPU). Near-linear scaling here shows the guard
// path takes no lock the contended shape could queue on in the model;
// it cannot show the host adds no serialization, because a virtual
// clock does not see cache lines that CPUs share (shared telemetry
// counters once made this bench flat on the wall clock while the
// virtual curve stayed linear). Wall-clock guards/sec is reported
// alongside as the host number (noisy; the virtual clock is the
// reproduction contract).
//
// The baseline-direct rows price the SMP seam when unused: the same
// 1-CPU workload through the plain (pre-SMP) Call path. Acceptance:
// >= 4x guard throughput at 8 CPUs vs 1 on the partitioned shape, and
// <= 2% regression of the 1-CPU SMP dispatch vs baseline-direct.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/signing/signer.hpp"
#include "kop/smp/cpu.hpp"
#include "kop/smp/executor.hpp"
#include "kop/transform/compiler.hpp"

#include "common/experiment.hpp"

namespace {

using WallClock = std::chrono::steady_clock;
using kop::kernel::ExecEngine;
using kop::kernel::Kernel;
using kop::kernel::LoadedModule;
using kop::kernel::ModuleLoader;

constexpr uint32_t kMaxCpus = 8;
constexpr uint64_t kStripeBytes = 512;

// Guard-dense kernel: each iteration is one guarded load plus one
// guarded store against the caller-supplied address.
const char* kBenchSource = R"(module "ext4_smp"

func @bump(ptr %addr, i64 %n) -> i64 {
entry:
  jmp loop
loop:
  %i = phi i64 [ 0, entry ], [ %i1, body ]
  %done = icmp uge i64 %i, %n
  br %done, out, body
body:
  %v = load i64, %addr
  %v1 = add i64 %v, 1
  store i64 %v1, %addr
  %i1 = add i64 %i, 1
  jmp loop
out:
  ret i64 %i
}
)";

struct Shape {
  const char* label;
  bool partitioned;
};

struct Measurement {
  uint64_t guards = 0;
  double max_cycles = 0;
  double total_cycles = 0;
  double wall_ns = 0;

  double GuardsPerKcycle() const {
    return max_cycles > 0 ? guards / max_cycles * 1000.0 : 0.0;
  }
};

// One kernel + policy + loader + module, with per-CPU target stripes
// carved out of the kernel heap.
struct Rig {
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<kop::policy::PolicyModule> policy;
  std::unique_ptr<ModuleLoader> loader;
  LoadedModule* module = nullptr;
  uint64_t stripes[kMaxCpus] = {};

  bool Build(ExecEngine engine, const Shape& shape, uint32_t cpus,
             const kop::signing::SignedModule& image) {
    kernel = std::make_unique<Kernel>();
    auto inserted = kop::policy::PolicyModule::Insert(
        kernel.get(), nullptr, kop::policy::PolicyMode::kDefaultAllow);
    if (!inserted.ok()) return false;
    policy = std::move(*inserted);
    // The table shape is fixed across CPU counts so only concurrency
    // varies between sweep points.
    if (shape.partitioned) {
      for (uint32_t cpu = 0; cpu < kMaxCpus; ++cpu) {
        auto addr = kernel->heap().Kmalloc(kStripeBytes, 64);
        if (!addr.ok()) return false;
        stripes[cpu] = *addr;
        if (!policy->engine()
                 .store()
                 .Add({*addr, kStripeBytes, kop::policy::kProtRW})
                 .ok()) {
          return false;
        }
      }
    } else {
      auto block = kernel->heap().Kmalloc(kStripeBytes * kMaxCpus, 64);
      if (!block.ok()) return false;
      for (uint32_t cpu = 0; cpu < kMaxCpus; ++cpu) {
        stripes[cpu] = *block + cpu * kStripeBytes;
      }
      if (!policy->engine()
               .store()
               .Add({*block, kStripeBytes * kMaxCpus, kop::policy::kProtRW})
               .ok()) {
        return false;
      }
    }
    kop::signing::Keyring keyring;
    keyring.Trust(kop::signing::SigningKey::DevelopmentKey());
    loader = std::make_unique<ModuleLoader>(kernel.get(), std::move(keyring));
    loader->set_engine(engine);
    auto loaded = loader->Insmod(image);
    if (!loaded.ok()) {
      std::fprintf(stderr, "insmod failed: %s\n",
                   loaded.status().ToString().c_str());
      return false;
    }
    module = *loaded;
    if (cpus > 1 && !loader->PrepareCpus(cpus).ok()) return false;
    return true;
  }
};

bool RunCalls(LoadedModule* module, uint64_t stripe, uint64_t calls,
              uint64_t iters) {
  for (uint64_t c = 0; c < calls; ++c) {
    auto result = module->Call("bump", {stripe, iters});
    if (!result.ok()) {
      std::fprintf(stderr, "bump failed: %s\n",
                   result.status().ToString().c_str());
      return false;
    }
  }
  return true;
}

Measurement MeasureSmp(Rig& rig, uint32_t cpus, uint64_t calls,
                       uint64_t iters) {
  auto& engine = rig.policy->engine();
  auto& clock = rig.kernel->clock();
  const uint64_t guards_before = engine.stats().guard_calls;
  const double max_before = clock.MaxCycles();
  const double total_before = clock.TotalCycles();
  const auto start = WallClock::now();
  std::vector<bool> ok(cpus, false);
  kop::smp::RunOnCpus(cpus, [&](uint32_t cpu) {
    ok[cpu] = RunCalls(rig.module, rig.stripes[cpu], calls, iters);
  });
  Measurement m;
  m.wall_ns =
      std::chrono::duration<double, std::nano>(WallClock::now() - start)
          .count();
  for (uint32_t cpu = 0; cpu < cpus; ++cpu) {
    if (!ok[cpu]) return m;  // guards = 0 marks the failure
  }
  m.guards = engine.stats().guard_calls - guards_before;
  m.max_cycles = clock.MaxCycles() - max_before;
  m.total_cycles = clock.TotalCycles() - total_before;
  return m;
}

Measurement MeasureDirect(Rig& rig, uint64_t calls, uint64_t iters) {
  auto& engine = rig.policy->engine();
  auto& clock = rig.kernel->clock();
  const uint64_t guards_before = engine.stats().guard_calls;
  const double max_before = clock.MaxCycles();
  const auto start = WallClock::now();
  const bool ok = RunCalls(rig.module, rig.stripes[0], calls, iters);
  Measurement m;
  m.wall_ns =
      std::chrono::duration<double, std::nano>(WallClock::now() - start)
          .count();
  if (!ok) return m;
  m.guards = engine.stats().guard_calls - guards_before;
  m.max_cycles = clock.MaxCycles() - max_before;
  m.total_cycles = m.max_cycles;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t calls = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200;
  const uint64_t iters = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 500;
  const int rounds = argc > 3 ? std::atoi(argv[3]) : 3;

  auto compiled = kop::transform::CompileModuleText(kBenchSource);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }
  const auto image = kop::signing::SignModule(
      compiled->text, compiled->attestation,
      kop::signing::SigningKey::DevelopmentKey());

  const ExecEngine engines[] = {ExecEngine::kBytecode, ExecEngine::kInterp};
  const Shape shapes[] = {{"partitioned", true}, {"contended", false}};
  const uint32_t cpu_points[] = {1, 2, 4, 8};

  std::printf("%-9s %-12s %4s %12s %14s %16s %12s\n", "engine", "shape",
              "cpus", "guards", "max_kcycles", "guards_per_kcyc", "speedup");
  std::string csv =
      "engine,shape,cpus,guards,max_cycles,total_cycles,guards_per_kcycle,"
      "speedup_vs_1cpu,wall_ns\n";
  bool failed = false;
  double partitioned_8cpu_speedup[2] = {0, 0};
  double onecpu_overhead_pct[2] = {0, 0};

  for (int e = 0; e < 2; ++e) {
    const ExecEngine engine = engines[e];
    const std::string engine_str(kop::kernel::ExecEngineName(engine));
    const char* engine_name = engine_str.c_str();

    // Baseline-direct: the pre-SMP single-threaded Call path, same
    // workload as the 1-CPU SMP point. Wall time keeps the round
    // minimum; virtual cycles are deterministic so one round would do.
    Measurement direct;
    for (const Shape& shape : shapes) {
      Rig rig;
      if (!rig.Build(engine, shape, 1, image)) return 1;
      (void)RunCalls(rig.module, rig.stripes[0], calls / 4 + 1, iters);
      for (int r = 0; r < rounds; ++r) {
        Measurement m = MeasureDirect(rig, calls, iters);
        if (m.guards == 0) return 1;
        if (direct.guards == 0 || m.wall_ns < direct.wall_ns) {
          if (shape.partitioned) direct = m;
        }
      }
      if (!shape.partitioned) continue;
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%s,baseline-direct,1,%llu,%.1f,%.1f,%.3f,1.000,%.0f\n",
                    engine_name, (unsigned long long)direct.guards,
                    direct.max_cycles, direct.total_cycles,
                    direct.GuardsPerKcycle(), direct.wall_ns);
      csv += line;
      std::printf("%-9s %-12s %4d %12llu %14.1f %16.3f %12s\n", engine_name,
                  "direct", 1, (unsigned long long)direct.guards,
                  direct.max_cycles / 1000.0, direct.GuardsPerKcycle(), "-");
    }

    for (const Shape& shape : shapes) {
      double base_throughput = 0;
      for (uint32_t cpus : cpu_points) {
        Rig rig;
        if (!rig.Build(engine, shape, cpus, image)) return 1;
        // Warmup primes every CPU's context and publishes the frame.
        kop::smp::RunOnCpus(cpus, [&](uint32_t cpu) {
          (void)RunCalls(rig.module, rig.stripes[cpu], calls / 4 + 1, iters);
        });
        Measurement best;
        for (int r = 0; r < rounds; ++r) {
          Measurement m = MeasureSmp(rig, cpus, calls, iters);
          if (m.guards == 0) return 1;
          if (best.guards == 0 || m.wall_ns < best.wall_ns) best = m;
        }
        const double throughput = best.GuardsPerKcycle();
        if (cpus == 1) base_throughput = throughput;
        const double speedup =
            base_throughput > 0 ? throughput / base_throughput : 0.0;
        if (shape.partitioned && cpus == 8) {
          partitioned_8cpu_speedup[e] = speedup;
        }
        if (shape.partitioned && cpus == 1 && direct.max_cycles > 0) {
          onecpu_overhead_pct[e] =
              (direct.GuardsPerKcycle() - throughput) /
              direct.GuardsPerKcycle() * 100.0;
        }
        char line[256];
        std::snprintf(line, sizeof(line),
                      "%s,%s,%u,%llu,%.1f,%.1f,%.3f,%.3f,%.0f\n", engine_name,
                      shape.label, cpus, (unsigned long long)best.guards,
                      best.max_cycles, best.total_cycles, throughput, speedup,
                      best.wall_ns);
        csv += line;
        std::printf("%-9s %-12s %4u %12llu %14.1f %16.3f %11.2fx\n",
                    engine_name, shape.label, cpus,
                    (unsigned long long)best.guards, best.max_cycles / 1000.0,
                    throughput, speedup);
      }
    }
  }

  for (int e = 0; e < 2; ++e) {
    std::printf(
        "%s: partitioned 8-CPU speedup %.2fx (need >= 4x), 1-CPU SMP "
        "dispatch overhead %+.2f%% of direct (need <= 2%%)\n",
        std::string(kop::kernel::ExecEngineName(engines[e])).c_str(),
        partitioned_8cpu_speedup[e],
        onecpu_overhead_pct[e]);
    if (partitioned_8cpu_speedup[e] < 4.0) failed = true;
    if (onecpu_overhead_pct[e] > 2.0) failed = true;
  }

  kop::bench::WriteResultsFile("ext4_smp.csv", csv);
  return failed ? 1 : 0;
}
