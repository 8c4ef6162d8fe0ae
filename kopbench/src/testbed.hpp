// The part of the simulated stack every workload shares: a kernel on the
// R350 model, the e1000 device model mapped at the vmalloc base with a
// counting sink behind the benchmark's span decorator, and (optionally)
// the CARAT KOP policy module with one of the paper's rule layouts; plus
// the kop_knic_mq loading both module workloads use.
#pragma once

#include <memory>
#include <string>

#include "harness.hpp"
#include "kop/kernel/kernel.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/nic/e1000_device.hpp"
#include "kop/nic/packet_sink.hpp"
#include "kop/policy/policy_module.hpp"
#include "spans.hpp"

namespace kopbench {

inline constexpr uint64_t kMmio = kop::kernel::kVmallocBase;

enum class Rules {
  kNone,        // no policy module (the raw baselines)
  kMatchFirst,  // the two-region rule: allow the kernel half, deny user
  kScanAll,     // 62 never-matching decoys, then deny user, allow kernel:
                // every kernel access scans all 64 entries
};

class Testbed {
 public:
  explicit Testbed(Rules rules);
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  kop::kernel::Kernel& kernel() { return *kernel_; }
  kop::nic::E1000Device& device() { return *device_; }
  kop::nic::CountingSink& sink() { return sink_; }
  /// Null for Rules::kNone.
  kop::policy::PolicyModule* policy() { return policy_.get(); }

  /// Guard, device and global counters, for window differences.
  void ReadCounters(Counters* out);

  /// Output checks after the stack has drained: every queue's head has
  /// caught up with its tail, no doorbell was out of range, no guard
  /// denied, and the wire saw exactly `frames` frames of `bytes` bytes.
  void CheckDrained(Report& report, uint32_t queues, uint64_t frames,
                    uint64_t bytes, const std::string& what);

 private:
  std::string error_;
  std::unique_ptr<kop::kernel::Kernel> kernel_;
  kop::nic::CountingSink sink_{1};
  SpanSink span_sink_{&sink_};
  std::unique_ptr<kop::nic::E1000Device> device_;
  std::unique_ptr<kop::policy::PolicyModule> policy_;
};

/// A keyring trusting the development signing key.
kop::signing::Keyring DevelopmentKeyring();

/// Compile, sign and insmod the kop_knic_mq driver (`insmod_ms` gets the
/// Insmod time), then bring up `queues` TX queues and fill its frame
/// buffer from the seed.
kop::Result<kop::kernel::LoadedModule*> LoadKnicMq(
    kop::kernel::ModuleLoader& loader, uint64_t seed, uint32_t queues,
    double* insmod_ms);

}  // namespace kopbench
