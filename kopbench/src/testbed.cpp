#include "testbed.hpp"

#include "kop/kirmods/corpus.hpp"
#include "kop/nic/e1000_regs.hpp"
#include "kop/policy/region.hpp"
#include "kop/signing/signer.hpp"
#include "kop/transform/compiler.hpp"

namespace kopbench {
namespace {

using kop::policy::Region;

// The figure benches' small RAM map: cheap to build, ample for one NIC
// and a handful of modules.
kop::kernel::KernelConfig BenchKernelConfig() {
  kop::kernel::KernelConfig config;
  config.ram_bytes = 8ull << 20;
  config.kernel_text_bytes = 1ull << 20;
  config.module_area_bytes = 8ull << 20;
  config.user_bytes = 1ull << 20;
  config.machine = kop::sim::MachineModel::R350();
  return config;
}

}  // namespace

Testbed::Testbed(Rules rules)
    : kernel_(std::make_unique<kop::kernel::Kernel>(BenchKernelConfig())) {
  device_ = std::make_unique<kop::nic::E1000Device>(&kernel_->mem(),
                                                    &span_sink_);
  device_->AttachClock(&kernel_->clock());
  if (kop::Status s = device_->MapAt(kMmio); !s.ok()) {
    error_ = "map device: " + s.ToString();
    return;
  }
  if (rules == Rules::kNone) return;
  auto policy = kop::policy::PolicyModule::Insert(
      kernel_.get(), nullptr, kop::policy::PolicyMode::kDefaultDeny);
  if (!policy.ok()) {
    error_ = "insert policy: " + policy.status().ToString();
    return;
  }
  policy_ = std::move(*policy);
  auto& store = policy_->engine().store();
  const Region allow_kernel{kop::kernel::kKernelHalfBase,
                            ~uint64_t{0} - kop::kernel::kKernelHalfBase,
                            kop::policy::kProtRW};
  const Region deny_user{0, kop::kernel::kUserSpaceEnd,
                         kop::policy::kProtNone};
  std::vector<Region> regions;
  if (rules == Rules::kScanAll) {
    // Decoys in the non-canonical hole, as fig5 places them.
    for (uint64_t i = 0; i < 62; ++i) {
      regions.push_back(Region{kop::kernel::kUserSpaceEnd + ((i + 2) << 24),
                               0x1000, kop::policy::kProtRead});
    }
    regions.push_back(deny_user);
    regions.push_back(allow_kernel);
  } else {
    regions.push_back(allow_kernel);
    regions.push_back(deny_user);
  }
  for (const Region& region : regions) {
    if (kop::Status s = store.Add(region); !s.ok()) {
      error_ = "add region: " + s.ToString();
      return;
    }
  }
}

kop::signing::Keyring DevelopmentKeyring() {
  kop::signing::Keyring keyring;
  keyring.Trust(kop::signing::SigningKey::DevelopmentKey());
  return keyring;
}

kop::Result<kop::kernel::LoadedModule*> LoadKnicMq(
    kop::kernel::ModuleLoader& loader, uint64_t seed, uint32_t queues,
    double* insmod_ms) {
  auto compiled =
      kop::transform::CompileModuleText(kop::kirmods::KnicMqSource());
  if (!compiled.ok()) return compiled.status();
  const kop::signing::SignedModule image = kop::signing::SignModule(
      compiled->text, compiled->attestation,
      kop::signing::SigningKey::DevelopmentKey());
  const int64_t start = NowNs();
  auto loaded = loader.Insmod(image);
  *insmod_ms = static_cast<double>(NowNs() - start) * 1e-6;
  if (!loaded.ok()) return loaded.status();
  KOP_RETURN_IF_ERROR((*loaded)->Call("mq_init", {kMmio, queues}).status());
  KOP_RETURN_IF_ERROR((*loaded)->Call("mq_fill", {256, seed & 0xff}).status());
  return *loaded;
}

void Testbed::ReadCounters(Counters* out) {
  ReadGlobalCounters(out);
  if (policy_ != nullptr) {
    const kop::policy::GuardStats stats = policy_->engine().stats();
    out->guard_calls = static_cast<double>(stats.guard_calls);
    out->denied = static_cast<double>(stats.denied);
  }
  const kop::nic::DeviceStats dev = device_->stats();
  out->doorbells = static_cast<double>(dev.tail_writes);
  // Descriptor fetches plus the payload bytes pulled for each frame.
  out->dma_bytes = static_cast<double>(dev.dma_descriptor_reads *
                                           kop::nic::kTxDescBytes +
                                       dev.bytes_transmitted);
}

void Testbed::CheckDrained(Report& report, uint32_t queues, uint64_t frames,
                           uint64_t bytes, const std::string& what) {
  for (uint32_t q = 0; q < queues; ++q) {
    auto tdh = kernel_->mem().Read32(kMmio + kop::nic::QReg(kop::nic::REG_TDH, q));
    auto tdt = kernel_->mem().Read32(kMmio + kop::nic::QReg(kop::nic::REG_TDT, q));
    report.Check(tdh.ok() && tdt.ok() && *tdh == *tdt,
                 what + ": TDH != TDT after drain on queue " +
                     std::to_string(q));
  }
  const kop::nic::DeviceStats dev = device_->stats();
  report.Check(dev.bad_doorbells == 0, what + ": bad doorbells");
  report.Check(dev.bad_descriptors == 0, what + ": bad descriptors");
  if (policy_ != nullptr) {
    report.Check(policy_->engine().stats().denied == 0,
                 what + ": guard denials");
  }
  report.Check(sink_.packets() == frames,
               what + ": sink saw " + std::to_string(sink_.packets()) +
                   " frames, sent " + std::to_string(frames));
  report.Check(sink_.bytes() == bytes,
               what + ": sink saw " + std::to_string(sink_.bytes()) +
                   " bytes, sent " + std::to_string(bytes));
}

}  // namespace kopbench
