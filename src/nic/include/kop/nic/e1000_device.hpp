// The simulated 82574L/igb-class NIC. Implements kernel::MmioDevice: the
// driver talks to it exclusively through MMIO register reads/writes on
// the mapped BAR, and the device's DMA engine pulls descriptors and
// frame payloads straight out of simulated physical memory — unguarded,
// exactly as the paper notes real DMA is ("the overwhelming amount of
// data transfer occurs due to the DMA engine on the NIC, which is not
// checked (and thus not slowed) by CARAT KOP").
//
// The device exposes up to kMaxQueues TX/RX queue pairs at the real
// 0x100 register stride; queue 0's block is the legacy register block,
// so single-queue software sees the exact pre-multi-queue device.
// Distinct queues may be processed concurrently from different CPUs:
// per-queue ring state is owned by the queue's driving CPU, and
// everything shared (ICR/EICR, hardware counters, folded stats) is
// atomic.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "kop/kernel/address_space.hpp"
#include "kop/nic/e1000_regs.hpp"
#include "kop/nic/packet_sink.hpp"
#include "kop/sim/clock.hpp"
#include "kop/util/status.hpp"

namespace kop::trace {
class Gauge;
}  // namespace kop::trace

namespace kop::nic {

struct DeviceStats {
  uint64_t descriptors_processed = 0;
  uint64_t frames_transmitted = 0;
  uint64_t bytes_transmitted = 0;
  uint64_t dma_descriptor_reads = 0;
  uint64_t dma_payload_reads = 0;
  uint64_t writebacks = 0;
  uint64_t tail_writes = 0;
  uint64_t bad_descriptors = 0;  // malformed ring entries skipped
  uint64_t bad_doorbells = 0;    // TDH/TDT outside the ring; TX wedged
  uint64_t frames_received = 0;
  uint64_t bytes_received = 0;
  uint64_t rx_dropped = 0;       // RX disabled / ring empty / too big
};

class E1000Device final : public kernel::MmioDevice {
 public:
  /// `memory` is the simulated physical/kernel address space the DMA
  /// engine reads descriptors and payloads from. `sink` receives frames.
  /// Neither is owned; both must outlive the device.
  E1000Device(kernel::AddressSpace* memory, PacketSink* sink);

  /// Map the device's 128 KiB BAR at `mmio_base` in `memory`.
  Status MapAt(uint64_t mmio_base);

  /// Attach the virtual clock used by the EITR interrupt-mitigation
  /// model. Without a clock every cause asserts (EITR ignored).
  void AttachClock(const sim::VirtualClock* clock) { clock_ = clock; }

  // kernel::MmioDevice:
  uint64_t MmioRead(uint64_t offset, uint32_t size) override;
  void MmioWrite(uint64_t offset, uint64_t value, uint32_t size) override;

  /// Process pending descriptors (TDH..TDT) on queue 0. Called
  /// automatically on TDT writes when `auto_process` (default); callable
  /// directly for tests that stage the ring first.
  void ProcessTransmitRing() { ProcessTransmitRing(0); }

  /// Same, for an arbitrary TX queue.
  void ProcessTransmitRing(uint32_t queue);

  /// A frame arrives on the wire: route it to an RX queue (flow hash
  /// when MRQC enables RSS, queue 0 otherwise), DMA it into the next
  /// software-provided buffer, write the descriptor back with DD|EOP,
  /// and raise RXT0/the queue's MSI-X vector. Returns false (counted as
  /// rx_dropped) when the receiver is disabled, the link is down, the
  /// ring has no free buffers, or the frame exceeds the buffer size.
  bool ReceiveFrame(const std::vector<uint8_t>& frame);

  /// Deliver a frame directly to a specific RX queue (bypasses RSS).
  bool ReceiveFrameOn(uint32_t queue, const std::vector<uint8_t>& frame);

  /// The RX queue RSS would pick for this frame right now.
  uint32_t RouteRxQueue(const std::vector<uint8_t>& frame) const;

  void set_auto_process(bool on) { auto_process_ = on; }

  /// Stats folded across all queues (legacy shape: a queue-0-only
  /// workload folds to exactly the pre-multi-queue numbers).
  DeviceStats stats() const;
  /// Stats for a single queue.
  DeviceStats QueueStats(uint32_t queue) const;
  void ResetStats();

  /// Current legacy causes that are unmasked (what the INTx line sees).
  uint32_t PendingInterrupts() const {
    return icr_.load(std::memory_order_relaxed) &
           ims_.load(std::memory_order_relaxed);
  }

  /// Current extended (MSI-X) causes that are unmasked.
  uint32_t PendingMsix() const {
    return eicr_.load(std::memory_order_relaxed) &
           eims_.load(std::memory_order_relaxed);
  }

  /// MSI-X assertion/throttle counters for one vector. An assert is a
  /// cause that fired with the vector unmasked and its EITR window
  /// elapsed; a throttled cause latched into EICR without firing.
  uint64_t MsixAsserts(uint32_t vector) const {
    return vectors_[vector].asserts.load(std::memory_order_relaxed);
  }
  uint64_t MsixThrottled(uint32_t vector) const {
    return vectors_[vector].throttled.load(std::memory_order_relaxed);
  }

  uint64_t mmio_base() const { return mmio_base_; }

  /// RX buffer size the device assumes (RCTL.BSIZE fixed at 2048).
  static constexpr uint32_t kRxBufferBytes = 2048;

  /// Program the NVM's factory MAC (words 0..2). Default is
  /// 02:ca:4a:70:0b:01 ("CARAT KOP" leetish, locally administered).
  void SetNvmMac(const uint8_t mac[6]);

  /// The MAC currently programmed into RAL0/RAH0 by the driver.
  void ReceiveAddress(uint8_t out[6]) const;

 private:
  // Per-queue and per-vector state is padded to whole cache lines: one
  // CPU drives each queue, and a sweep on one queue must not write a
  // line another queue's CPU reads or writes.
  struct alignas(64) TxQueue {
    uint32_t tdbal = 0;
    uint32_t tdbah = 0;
    uint32_t tdlen = 0;
    uint32_t tdh = 0;
    uint32_t tdt = 0;
  };
  struct alignas(64) RxQueue {
    uint32_t rdbal = 0;
    uint32_t rdbah = 0;
    uint32_t rdlen = 0;
    uint32_t rdh = 0;
    uint32_t rdt = 0;
  };
  /// Per-queue counters. Atomic so a fold from any thread is clean
  /// while the owning CPU's sweep is mid-flight.
  struct alignas(64) QueueCounters {
    std::atomic<uint64_t> descriptors_processed{0};
    std::atomic<uint64_t> frames_transmitted{0};
    std::atomic<uint64_t> bytes_transmitted{0};
    std::atomic<uint64_t> dma_descriptor_reads{0};
    std::atomic<uint64_t> dma_payload_reads{0};
    std::atomic<uint64_t> writebacks{0};
    std::atomic<uint64_t> tail_writes{0};
    std::atomic<uint64_t> bad_descriptors{0};
    std::atomic<uint64_t> bad_doorbells{0};
    std::atomic<uint64_t> frames_received{0};
    std::atomic<uint64_t> bytes_received{0};
    std::atomic<uint64_t> rx_dropped{0};
  };
  /// One MSI-X vector: its EITR register and mitigation bookkeeping.
  struct alignas(64) VectorState {
    std::atomic<uint32_t> eitr{0};
    std::atomic<uint64_t> last_fire{0};
    std::atomic<uint64_t> asserts{0};
    std::atomic<uint64_t> throttled{0};
  };
  static_assert(sizeof(TxQueue) % 64 == 0 && sizeof(RxQueue) % 64 == 0 &&
                    sizeof(QueueCounters) % 64 == 0 &&
                    sizeof(VectorState) % 64 == 0,
                "per-queue and per-vector state must fill whole lines");

  void Reset();
  /// `field` summed over every queue's counters.
  uint64_t FoldQueues(std::atomic<uint64_t> QueueCounters::*field) const;
  uint32_t TxRingCount(const TxQueue& q) const { return q.tdlen / kTxDescBytes; }
  uint32_t RxRingCount(const RxQueue& q) const { return q.rdlen / kRxDescBytes; }

  /// Latch `causes` into a cause register. A cause already latched is
  /// left alone: the load stands in for the read-modify-write, which
  /// would be a no-op at that point, so concurrent raisers of a latched
  /// cause only read its line. Linearizes to the same result as an
  /// unconditional fetch_or against a concurrent read-to-clear.
  static void Latch(std::atomic<uint32_t>& reg, uint32_t causes) {
    if ((reg.load(std::memory_order_relaxed) & causes) != causes) {
      reg.fetch_or(causes, std::memory_order_relaxed);
    }
  }

  /// Raise a cause for queue `queue`: legacy ICR bits for queue 0, plus
  /// the MSI-X vector IVAR maps the queue's TX or RX cause to (if any).
  void RaiseLegacy(uint32_t causes) { Latch(icr_, causes); }
  void RaiseQueueVector(uint32_t queue, bool tx);
  void RaiseMsix(uint32_t vector);

  kernel::AddressSpace* memory_;
  PacketSink* sink_;
  const sim::VirtualClock* clock_ = nullptr;
  uint64_t mmio_base_ = 0;
  bool auto_process_ = true;

  // Register file (the subset the driver uses). Shared registers that
  // concurrent queue sweeps touch are atomic; per-queue ring state is
  // only ever accessed by the queue's driving CPU. The cause registers
  // and GPRC are the only shared registers the datapath writes, so they
  // sit on their own line, away from the configuration every sweep
  // reads.
  alignas(64) std::atomic<uint32_t> icr_{0};
  std::atomic<uint32_t> eicr_{0};
  std::atomic<uint32_t> gprc_{0};
  alignas(64) uint32_t ctrl_ = 0;
  uint32_t status_ = 0;
  std::atomic<uint32_t> ims_{0};
  std::atomic<uint32_t> eims_{0};
  uint32_t tctl_ = 0;
  uint32_t rctl_ = 0;
  uint32_t tipg_ = 0;
  uint32_t mrqc_ = 0;
  uint32_t ral0_ = 0;
  uint32_t rah0_ = 0;
  // GPTC/GOTC are the per-queue TX counters folded when the register is
  // read, less these bases, which a device reset moves to the current
  // fold. The TX path thus writes only its own queue's counters.
  std::atomic<uint64_t> gptc_base_{0};
  std::atomic<uint64_t> gotc_base_{0};
  // Queue 0's occupancy gauge, looked up once.
  trace::Gauge* tx_occupancy_gauge_;
  uint32_t eerd_ = 0;
  uint16_t nvm_[kNvmWords] = {};

  TxQueue tx_[kMaxQueues];
  RxQueue rx_[kMaxQueues];
  QueueCounters counters_[kMaxQueues];
  std::atomic<uint32_t> ivar_[kMaxQueues] = {};
  VectorState vectors_[kMaxVectors];
};

}  // namespace kop::nic
