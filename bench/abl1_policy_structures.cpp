// Ablation 1 (paper §3.1/§4.2): the cost of the guard decision that runs
// — the engine's first-match scan over the published policy frame of the
// 64-entry region table — across region counts and address mixes. Two
// entry points: PolicyEngine::Check (RCU read section + frame freshness
// check + decision, the slow path's decision core) and the pinned inline
// guard, FastGuardRange with no elided members (clock check + decision +
// accounting against a frame pinned once, as inside a module call); its
// rows keep the "FastGuard" label.
// Host-measured with google-benchmark: this is the one experiment where
// real cache behaviour is the point ("optimized for cache-friendly
// search of a small number of regions").
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/policy/engine.hpp"
#include "kop/policy/region_table.hpp"
#include "kop/util/rng.hpp"

namespace {

using namespace kop::policy;

/// Guard-like probe streams.
enum class Mix : int {
  kHotRegion = 0,   // the common case: nearly every access in one region
  kUniform,         // accesses spread across all regions
  kMisses,          // accesses that match nothing (default-allow traffic)
};

enum class Path : int { kCheck = 0, kFastGuard };

/// n non-overlapping regions on a grid, under default-allow so every
/// probe of every mix is allowed (the fast path never deopts).
std::unique_ptr<PolicyEngine> MakeEngine(kop::kernel::Kernel* kernel,
                                         int n) {
  auto engine = std::make_unique<PolicyEngine>(
      kernel, nullptr, PolicyMode::kDefaultAllow);
  for (int i = 0; i < n; ++i) {
    benchmark::DoNotOptimize(engine->store().Add(
        Region{0x100000 + uint64_t(i) * 0x10000, 0x8000, kProtRW}));
  }
  return engine;
}

std::vector<uint64_t> MakeProbes(Mix mix, int regions) {
  kop::Xoshiro256 rng(1234);
  std::vector<uint64_t> probes(4096);
  for (uint64_t& probe : probes) {
    switch (mix) {
      case Mix::kHotRegion:
        probe = 0x100000 + (uint64_t(regions) / 2) * 0x10000 +
                rng.NextBelow(0x8000 - 8);
        break;
      case Mix::kUniform:
        probe = 0x100000 + rng.NextBelow(uint64_t(regions)) * 0x10000 +
                rng.NextBelow(0x8000 - 8);
        break;
      case Mix::kMisses:
        probe = 0x100000 + rng.NextBelow(uint64_t(regions)) * 0x10000 +
                0x8000 + rng.NextBelow(0x7000);
        break;
    }
  }
  return probes;
}

void Run(benchmark::State& state, Path path, Mix mix, int regions) {
  kop::kernel::Kernel kernel;
  auto engine = MakeEngine(&kernel, regions);
  const std::vector<uint64_t> probes = MakeProbes(mix, regions);
  size_t i = 0;
  if (path == Path::kCheck) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          engine->Check(probes[i], 8, kop::kGuardAccessRead));
      i = (i + 1) & (probes.size() - 1);
    }
  } else {
    engine->PinFrame();
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          engine->FastGuardRange(probes[i], 8, kop::kGuardAccessRead, 0, 0));
      i = (i + 1) & (probes.size() - 1);
    }
    engine->UnpinFrame();
    if (engine->stats().guard_calls !=
        static_cast<uint64_t>(state.iterations())) {
      state.SkipWithError("inline guard deopted");
    }
  }
  state.SetItemsProcessed(state.iterations());
}

void RegisterAll() {
  static const struct {
    Path path;
    const char* name;
  } kPaths[] = {
      {Path::kCheck, "Check"},
      {Path::kFastGuard, "FastGuard"},
  };
  static const struct {
    Mix mix;
    const char* name;
  } kMixes[] = {
      {Mix::kHotRegion, "hot"},
      {Mix::kUniform, "uniform"},
      {Mix::kMisses, "miss"},
  };
  for (const auto& path : kPaths) {
    for (const auto& mix : kMixes) {
      for (int regions : {2, 16, 64}) {
        const std::string name = std::string(path.name) + "/" + mix.name +
                                 "/n=" + std::to_string(regions);
        benchmark::RegisterBenchmark(
            name.c_str(), [path = path.path, mix = mix.mix,
                           regions](benchmark::State& state) {
              Run(state, path, mix, regions);
            });
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
