#include "kop/nic/e1000_device.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "kop/trace/metrics.hpp"
#include "kop/trace/trace.hpp"
#include "kop/util/log.hpp"

namespace kop::nic {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

E1000Device::E1000Device(kernel::AddressSpace* memory, PacketSink* sink)
    : memory_(memory),
      sink_(sink),
      tx_occupancy_gauge_(
          trace::GlobalMetrics().GetGauge("nic.tx_ring_occupancy")) {
  static constexpr uint8_t kDefaultMac[6] = {0x02, 0xca, 0x4a,
                                             0x70, 0x0b, 0x01};
  SetNvmMac(kDefaultMac);
  Reset();
}

void E1000Device::SetNvmMac(const uint8_t mac[6]) {
  nvm_[0] = static_cast<uint16_t>(mac[0] | (mac[1] << 8));
  nvm_[1] = static_cast<uint16_t>(mac[2] | (mac[3] << 8));
  nvm_[2] = static_cast<uint16_t>(mac[4] | (mac[5] << 8));
}

void E1000Device::ReceiveAddress(uint8_t out[6]) const {
  out[0] = static_cast<uint8_t>(ral0_);
  out[1] = static_cast<uint8_t>(ral0_ >> 8);
  out[2] = static_cast<uint8_t>(ral0_ >> 16);
  out[3] = static_cast<uint8_t>(ral0_ >> 24);
  out[4] = static_cast<uint8_t>(rah0_);
  out[5] = static_cast<uint8_t>(rah0_ >> 8);
}

Status E1000Device::MapAt(uint64_t mmio_base) {
  KOP_RETURN_IF_ERROR(
      memory_->MapMmio("e1000e-bar0", mmio_base, kMmioBarSize, this));
  mmio_base_ = mmio_base;
  return OkStatus();
}

void E1000Device::Reset() {
  ctrl_ = 0;
  status_ = 0;  // link down until CTRL.SLU
  icr_.store(0, kRelaxed);
  ims_.store(0, kRelaxed);
  eicr_.store(0, kRelaxed);
  eims_.store(0, kRelaxed);
  tctl_ = 0;
  rctl_ = 0;
  tipg_ = 0;
  mrqc_ = 0;
  gprc_.store(0, kRelaxed);
  gptc_base_.store(FoldQueues(&QueueCounters::frames_transmitted), kRelaxed);
  gotc_base_.store(FoldQueues(&QueueCounters::bytes_transmitted), kRelaxed);
  eerd_ = 0;
  for (uint32_t q = 0; q < kMaxQueues; ++q) {
    tx_[q] = TxQueue();
    rx_[q] = RxQueue();
    ivar_[q].store(0, kRelaxed);
  }
  for (uint32_t v = 0; v < kMaxVectors; ++v) {
    eitr_[v].store(0, kRelaxed);
    eitr_last_fire_[v].store(0, kRelaxed);
  }
}

uint64_t E1000Device::FoldQueues(
    std::atomic<uint64_t> QueueCounters::*field) const {
  uint64_t total = 0;
  for (const QueueCounters& c : counters_) total += (c.*field).load(kRelaxed);
  return total;
}

DeviceStats E1000Device::QueueStats(uint32_t queue) const {
  DeviceStats out;
  if (queue >= kMaxQueues) return out;
  const QueueCounters& c = counters_[queue];
  out.descriptors_processed = c.descriptors_processed.load(kRelaxed);
  out.frames_transmitted = c.frames_transmitted.load(kRelaxed);
  out.bytes_transmitted = c.bytes_transmitted.load(kRelaxed);
  out.dma_descriptor_reads = c.dma_descriptor_reads.load(kRelaxed);
  out.dma_payload_reads = c.dma_payload_reads.load(kRelaxed);
  out.writebacks = c.writebacks.load(kRelaxed);
  out.tail_writes = c.tail_writes.load(kRelaxed);
  out.bad_descriptors = c.bad_descriptors.load(kRelaxed);
  out.bad_doorbells = c.bad_doorbells.load(kRelaxed);
  out.frames_received = c.frames_received.load(kRelaxed);
  out.bytes_received = c.bytes_received.load(kRelaxed);
  out.rx_dropped = c.rx_dropped.load(kRelaxed);
  return out;
}

DeviceStats E1000Device::stats() const {
  DeviceStats out;
  for (uint32_t q = 0; q < kMaxQueues; ++q) {
    const DeviceStats qs = QueueStats(q);
    out.descriptors_processed += qs.descriptors_processed;
    out.frames_transmitted += qs.frames_transmitted;
    out.bytes_transmitted += qs.bytes_transmitted;
    out.dma_descriptor_reads += qs.dma_descriptor_reads;
    out.dma_payload_reads += qs.dma_payload_reads;
    out.writebacks += qs.writebacks;
    out.tail_writes += qs.tail_writes;
    out.bad_descriptors += qs.bad_descriptors;
    out.bad_doorbells += qs.bad_doorbells;
    out.frames_received += qs.frames_received;
    out.bytes_received += qs.bytes_received;
    out.rx_dropped += qs.rx_dropped;
  }
  return out;
}

void E1000Device::ResetStats() {
  // Zeroing the queue counters must not move GPTC/GOTC, which only a
  // device reset clears: lower the bases by what is about to vanish.
  gptc_base_.fetch_sub(FoldQueues(&QueueCounters::frames_transmitted),
                       kRelaxed);
  gotc_base_.fetch_sub(FoldQueues(&QueueCounters::bytes_transmitted),
                       kRelaxed);
  for (uint32_t q = 0; q < kMaxQueues; ++q) {
    counters_[q].descriptors_processed.store(0, kRelaxed);
    counters_[q].frames_transmitted.store(0, kRelaxed);
    counters_[q].bytes_transmitted.store(0, kRelaxed);
    counters_[q].dma_descriptor_reads.store(0, kRelaxed);
    counters_[q].dma_payload_reads.store(0, kRelaxed);
    counters_[q].writebacks.store(0, kRelaxed);
    counters_[q].tail_writes.store(0, kRelaxed);
    counters_[q].bad_descriptors.store(0, kRelaxed);
    counters_[q].bad_doorbells.store(0, kRelaxed);
    counters_[q].frames_received.store(0, kRelaxed);
    counters_[q].bytes_received.store(0, kRelaxed);
    counters_[q].rx_dropped.store(0, kRelaxed);
  }
  for (uint32_t v = 0; v < kMaxVectors; ++v) {
    msix_asserts_[v].store(0, kRelaxed);
    msix_throttled_[v].store(0, kRelaxed);
  }
}

void E1000Device::RaiseMsix(uint32_t vector) {
  vector &= IVAR_VECTOR_MASK;
  eicr_.fetch_or(1u << vector, kRelaxed);
  if (((eims_.load(kRelaxed) >> vector) & 1u) == 0) return;  // masked
  const uint32_t interval = eitr_[vector].load(kRelaxed);
  if (interval != 0 && clock_ != nullptr) {
    // ITR mitigation: the cause stays latched in EICR, but the vector
    // only fires when its throttle window has elapsed on the virtual
    // clock (the owning CPU's view of time — one queue, one CPU).
    const uint64_t now = static_cast<uint64_t>(clock_->NowCycles());
    const uint64_t last = eitr_last_fire_[vector].load(kRelaxed);
    if (msix_asserts_[vector].load(kRelaxed) != 0 && now - last < interval) {
      msix_throttled_[vector].fetch_add(1, kRelaxed);
      return;
    }
    eitr_last_fire_[vector].store(now, kRelaxed);
  }
  msix_asserts_[vector].fetch_add(1, kRelaxed);
}

void E1000Device::RaiseQueueVector(uint32_t queue, bool tx) {
  const uint32_t ivar = ivar_[queue].load(kRelaxed);
  const uint32_t field = tx ? (ivar >> IVAR_TX_SHIFT) & 0xff : ivar & 0xff;
  if (field & IVAR_VALID) RaiseMsix(field & IVAR_VECTOR_MASK);
}

uint64_t E1000Device::MmioRead(uint64_t offset, uint32_t size) {
  (void)size;  // registers are 32-bit; AddressSpace enforces alignment
  // Queue-strided register blocks first (queue 0 == the legacy block).
  if (offset >= REG_TDBAL &&
      offset < REG_TDBAL + kMaxQueues * kQueueRegStride) {
    const uint32_t q =
        static_cast<uint32_t>((offset - REG_TDBAL) / kQueueRegStride);
    switch (offset - uint64_t{q} * kQueueRegStride) {
      case REG_TDBAL: return tx_[q].tdbal;
      case REG_TDBAH: return tx_[q].tdbah;
      case REG_TDLEN: return tx_[q].tdlen;
      case REG_TDH: return tx_[q].tdh;
      case REG_TDT: return tx_[q].tdt;
      default: return 0;
    }
  }
  if (offset >= REG_RDBAL &&
      offset < REG_RDBAL + kMaxQueues * kQueueRegStride) {
    const uint32_t q =
        static_cast<uint32_t>((offset - REG_RDBAL) / kQueueRegStride);
    switch (offset - uint64_t{q} * kQueueRegStride) {
      case REG_RDBAL: return rx_[q].rdbal;
      case REG_RDBAH: return rx_[q].rdbah;
      case REG_RDLEN: return rx_[q].rdlen;
      case REG_RDH: return rx_[q].rdh;
      case REG_RDT: return rx_[q].rdt;
      default: return 0;
    }
  }
  if (offset >= REG_EITR0 && offset < REG_EITR0 + 4 * kMaxVectors) {
    return eitr_[(offset - REG_EITR0) / 4].load(kRelaxed);
  }
  if (offset >= REG_IVAR0 && offset < REG_IVAR0 + 4 * kMaxQueues) {
    return ivar_[(offset - REG_IVAR0) / 4].load(kRelaxed);
  }
  switch (offset) {
    case REG_CTRL: return ctrl_;
    case REG_STATUS: return status_;
    case REG_ICR:
      // Read-to-clear, like the real part.
      return icr_.exchange(0, kRelaxed);
    case REG_IMS: return ims_.load(kRelaxed);
    case REG_EICR:
      // The extended cause register is read-to-clear too.
      return eicr_.exchange(0, kRelaxed);
    case REG_EIMS: return eims_.load(kRelaxed);
    case REG_EERD: return eerd_;
    case REG_TCTL: return tctl_;
    case REG_RCTL: return rctl_;
    case REG_TIPG: return tipg_;
    case REG_MRQC: return mrqc_;
    case REG_GPTC:
      return static_cast<uint32_t>(
          FoldQueues(&QueueCounters::frames_transmitted) -
          gptc_base_.load(kRelaxed));
    case REG_GPRC: return gprc_.load(kRelaxed);
    case REG_GOTCL:
    case REG_GOTCH: {
      const uint64_t gotc = FoldQueues(&QueueCounters::bytes_transmitted) -
                            gotc_base_.load(kRelaxed);
      return static_cast<uint32_t>(offset == REG_GOTCL ? gotc : gotc >> 32);
    }
    case REG_RAL0: return ral0_;
    case REG_RAH0: return rah0_;
    default:
      // Unimplemented registers read as zero (matches many real holes).
      return 0;
  }
}

void E1000Device::MmioWrite(uint64_t offset, uint64_t value, uint32_t size) {
  (void)size;
  const uint32_t v = static_cast<uint32_t>(value);
  if (offset >= REG_TDBAL &&
      offset < REG_TDBAL + kMaxQueues * kQueueRegStride) {
    const uint32_t q =
        static_cast<uint32_t>((offset - REG_TDBAL) / kQueueRegStride);
    switch (offset - uint64_t{q} * kQueueRegStride) {
      case REG_TDBAL:
        tx_[q].tdbal = v & ~0xfu;  // 16-byte aligned
        break;
      case REG_TDBAH:
        tx_[q].tdbah = v;
        break;
      case REG_TDLEN:
        tx_[q].tdlen = v & ~0x7fu;  // multiple of 128 bytes
        break;
      case REG_TDH:
        tx_[q].tdh = v;
        break;
      case REG_TDT:
        tx_[q].tdt = v;
        counters_[q].tail_writes.fetch_add(1, kRelaxed);
        if (auto_process_) ProcessTransmitRing(q);
        break;
      default:
        break;
    }
    return;
  }
  if (offset >= REG_RDBAL &&
      offset < REG_RDBAL + kMaxQueues * kQueueRegStride) {
    const uint32_t q =
        static_cast<uint32_t>((offset - REG_RDBAL) / kQueueRegStride);
    switch (offset - uint64_t{q} * kQueueRegStride) {
      case REG_RDBAL:
        rx_[q].rdbal = v & ~0xfu;
        break;
      case REG_RDBAH:
        rx_[q].rdbah = v;
        break;
      case REG_RDLEN:
        rx_[q].rdlen = v & ~0x7fu;
        break;
      case REG_RDH:
        rx_[q].rdh = v;
        break;
      case REG_RDT:
        rx_[q].rdt = v;
        break;
      default:
        break;
    }
    return;
  }
  if (offset >= REG_EITR0 && offset < REG_EITR0 + 4 * kMaxVectors) {
    eitr_[(offset - REG_EITR0) / 4].store(v, kRelaxed);
    return;
  }
  if (offset >= REG_IVAR0 && offset < REG_IVAR0 + 4 * kMaxQueues) {
    ivar_[(offset - REG_IVAR0) / 4].store(v, kRelaxed);
    return;
  }
  switch (offset) {
    case REG_CTRL:
      if (v & CTRL_RST) {
        Reset();
        return;
      }
      ctrl_ = v;
      if (v & CTRL_SLU) {
        if ((status_ & STATUS_LU) == 0) RaiseLegacy(ICR_LSC);
        status_ |= STATUS_LU;
      }
      break;
    case REG_EERD:
      if (v & EERD_START) {
        // The simulated NVM answers instantly: latch DONE + data.
        const uint32_t addr = (v >> EERD_ADDR_SHIFT) & 0xff;
        const uint16_t word = addr < kNvmWords ? nvm_[addr] : 0xffff;
        eerd_ = EERD_DONE | (uint32_t{word} << EERD_DATA_SHIFT);
      } else {
        eerd_ = 0;
      }
      break;
    case REG_IMS:
      ims_.fetch_or(v, kRelaxed);
      break;
    case REG_IMC:
      ims_.fetch_and(~v, kRelaxed);
      break;
    case REG_EIMS:
      eims_.fetch_or(v, kRelaxed);
      break;
    case REG_EIMC:
      eims_.fetch_and(~v, kRelaxed);
      break;
    case REG_TCTL:
      tctl_ = v;
      break;
    case REG_RCTL:
      rctl_ = v;
      break;
    case REG_TIPG:
      tipg_ = v;
      break;
    case REG_MRQC:
      mrqc_ = v;
      break;
    case REG_RAL0:
      ral0_ = v;
      break;
    case REG_RAH0:
      rah0_ = v;
      break;
    case REG_ICR:
      icr_.fetch_and(~v, kRelaxed);  // write-1-to-clear
      break;
    case REG_EICR:
      eicr_.fetch_and(~v, kRelaxed);
      break;
    default:
      break;  // writes to unimplemented registers are ignored
  }
}

uint32_t E1000Device::RouteRxQueue(const std::vector<uint8_t>& frame) const {
  if ((mrqc_ & MRQC_ENABLE) == 0) return 0;
  uint32_t n = (mrqc_ >> MRQC_QUEUES_SHIFT) & 0xf;
  if (n > kMaxQueues) n = kMaxQueues;
  if (n <= 1) return 0;
  // RSS-lite: FNV-1a over the Ethernet header's address bytes, so a
  // flow (MAC pair) always lands on the same queue.
  uint32_t hash = 2166136261u;
  const size_t header = frame.size() < 12 ? frame.size() : 12;
  for (size_t i = 0; i < header; ++i) {
    hash ^= frame[i];
    hash *= 16777619u;
  }
  // Avalanche finalizer: FNV's low bits alone spread poorly modulo a
  // small queue count when only a byte or two of the header differs.
  hash ^= hash >> 16;
  hash *= 0x7feb352du;
  hash ^= hash >> 15;
  hash *= 0x846ca68bu;
  hash ^= hash >> 16;
  return hash % n;
}

bool E1000Device::ReceiveFrame(const std::vector<uint8_t>& frame) {
  return ReceiveFrameOn(RouteRxQueue(frame), frame);
}

bool E1000Device::ReceiveFrameOn(uint32_t queue,
                                 const std::vector<uint8_t>& frame) {
  if (queue >= kMaxQueues) return false;
  RxQueue& rxq = rx_[queue];
  QueueCounters& c = counters_[queue];
  if ((rctl_ & RCTL_EN) == 0 || (status_ & STATUS_LU) == 0 ||
      frame.empty() || frame.size() > kRxBufferBytes) {
    c.rx_dropped.fetch_add(1, kRelaxed);
    if (queue == 0) RaiseLegacy(ICR_RXO);
    return false;
  }
  const uint32_t count = RxRingCount(rxq);
  if (count == 0 || rxq.rdh == rxq.rdt) {  // no software-provided buffers
    c.rx_dropped.fetch_add(1, kRelaxed);
    if (queue == 0) RaiseLegacy(ICR_RXO);
    return false;
  }
  const uint64_t ring_base =
      (static_cast<uint64_t>(rxq.rdbah) << 32) | rxq.rdbal;
  const uint64_t desc_addr = ring_base + uint64_t{rxq.rdh} * kRxDescBytes;

  LegacyRxDescriptor desc{};
  uint8_t raw[kRxDescBytes];
  c.dma_descriptor_reads.fetch_add(1, kRelaxed);
  if (!memory_->Read(desc_addr, raw, sizeof(raw)).ok()) {
    c.bad_descriptors.fetch_add(1, kRelaxed);
    c.rx_dropped.fetch_add(1, kRelaxed);
    return false;
  }
  std::memcpy(&desc, raw, sizeof(desc));

  // DMA the frame into the software buffer and write the descriptor back.
  if (!memory_->Write(desc.buffer_addr, frame.data(), frame.size()).ok()) {
    c.bad_descriptors.fetch_add(1, kRelaxed);
    c.rx_dropped.fetch_add(1, kRelaxed);
    return false;
  }
  desc.length = static_cast<uint16_t>(frame.size());
  desc.status = RXD_STAT_DD | RXD_STAT_EOP;
  desc.errors = 0;
  std::memcpy(raw, &desc, sizeof(desc));
  if (!memory_->Write(desc_addr, raw, sizeof(raw)).ok()) {
    c.bad_descriptors.fetch_add(1, kRelaxed);
    return false;
  }
  c.writebacks.fetch_add(1, kRelaxed);
  rxq.rdh = (rxq.rdh + 1) % count;
  c.frames_received.fetch_add(1, kRelaxed);
  c.bytes_received.fetch_add(frame.size(), kRelaxed);
  gprc_.fetch_add(1, kRelaxed);
  if (queue == 0) RaiseLegacy(ICR_RXT0);
  RaiseQueueVector(queue, /*tx=*/false);
  return true;
}

void E1000Device::ProcessTransmitRing(uint32_t queue) {
  if (queue >= kMaxQueues) return;
  if ((tctl_ & TCTL_EN) == 0) return;        // transmitter disabled
  if ((status_ & STATUS_LU) == 0) return;    // no link
  TxQueue& txq = tx_[queue];
  QueueCounters& c = counters_[queue];
  const uint32_t count = TxRingCount(txq);
  if (count == 0) return;
  // A head or tail pointer outside the ring (a corrupted doorbell write)
  // would make the tdh != tdt sweep spin forever, because head wraps
  // modulo the ring size and can never meet an out-of-range tail. Real
  // hardware wedges on such programming; the model refuses the doorbell.
  if (txq.tdh >= count || txq.tdt >= count) {
    c.bad_doorbells.fetch_add(1, kRelaxed);
    KOP_LOG(kWarn) << "e1000e: TX ring pointers out of range (queue "
                   << queue << ", head " << txq.tdh << ", tail " << txq.tdt
                   << ", ring " << count << "); transmitter wedged";
    return;
  }
  const uint64_t ring_base =
      (static_cast<uint64_t>(txq.tdbah) << 32) | txq.tdbal;

  // Queue 0 keeps the legacy occupancy gauge; concurrent queues would
  // otherwise scribble over each other's sample.
  trace::Gauge* occupancy_gauge = queue == 0 ? tx_occupancy_gauge_ : nullptr;
  if (occupancy_gauge != nullptr) {
    occupancy_gauge->Set((txq.tdt + count - txq.tdh) % count);
  }

  std::vector<uint8_t> frame;
  while (txq.tdh != txq.tdt) {
    const uint64_t desc_addr = ring_base + uint64_t{txq.tdh} * kTxDescBytes;
    LegacyTxDescriptor desc{};
    uint8_t raw[kTxDescBytes];
    c.dma_descriptor_reads.fetch_add(1, kRelaxed);
    KOP_TRACE(kNicDescFetch, desc_addr, txq.tdh);
    if (!memory_->Read(desc_addr, raw, sizeof(raw)).ok()) {
      c.bad_descriptors.fetch_add(1, kRelaxed);
      KOP_LOG(kWarn) << "e1000e DMA: descriptor fetch failed at 0x"
                     << std::hex << desc_addr;
      break;  // hardware would wedge; stop processing
    }
    std::memcpy(&desc, raw, sizeof(desc));

    // Pull the payload via DMA (unguarded by design).
    if (desc.length > 0) {
      std::vector<uint8_t> chunk(desc.length);
      c.dma_payload_reads.fetch_add(1, kRelaxed);
      if (!memory_->Read(desc.buffer_addr, chunk.data(), chunk.size()).ok()) {
        c.bad_descriptors.fetch_add(1, kRelaxed);
      } else {
        frame.insert(frame.end(), chunk.begin(), chunk.end());
      }
    }
    c.descriptors_processed.fetch_add(1, kRelaxed);

    const bool end_of_packet = (desc.cmd & TXD_CMD_EOP) != 0;
    if (end_of_packet && !frame.empty()) {
      sink_->Deliver(frame);
      c.frames_transmitted.fetch_add(1, kRelaxed);
      c.bytes_transmitted.fetch_add(frame.size(), kRelaxed);
      KOP_TRACE(kNicXmit, frame.size(),
                (txq.tdt + count - (txq.tdh + 1) % count) % count);
      frame.clear();
    }

    // Write back DD when requested.
    if (desc.cmd & TXD_CMD_RS) {
      desc.status |= TXD_STAT_DD;
      std::memcpy(raw, &desc, sizeof(desc));
      if (memory_->Write(desc_addr, raw, sizeof(raw)).ok()) {
        c.writebacks.fetch_add(1, kRelaxed);
      }
    }

    txq.tdh = (txq.tdh + 1) % count;
    if (occupancy_gauge != nullptr) {
      occupancy_gauge->Set((txq.tdt + count - txq.tdh) % count);
    }
    if (queue == 0) RaiseLegacy(ICR_TXDW);
    if (txq.tdh == txq.tdt && queue == 0) RaiseLegacy(ICR_TXQE);
    RaiseQueueVector(queue, /*tx=*/true);
  }
}

void LoopbackWire::Deliver(const std::vector<uint8_t>& frame) {
  if (receiver_ != nullptr && receiver_->ReceiveFrame(frame)) {
    ++forwarded_;
  } else {
    ++dropped_;
  }
}

void CountingSink::Deliver(const std::vector<uint8_t>& frame) {
  Lane& lane = lanes_.Mine();
  std::lock_guard<Spinlock> guard(lane.lock);
  if (retain_ != 0) {
    if (lane.recent.size() != retain_) lane.recent.resize(retain_);
    lane.recent[lane.packets % retain_].assign(frame.begin(), frame.end());
  }
  ++lane.packets;
  lane.bytes += frame.size();
}

uint64_t CountingSink::packets() const {
  uint64_t total = 0;
  lanes_.ForEach([&total](uint32_t, const Lane& lane) {
    std::lock_guard<Spinlock> guard(lane.lock);
    total += lane.packets;
  });
  return total;
}

uint64_t CountingSink::bytes() const {
  uint64_t total = 0;
  lanes_.ForEach([&total](uint32_t, const Lane& lane) {
    std::lock_guard<Spinlock> guard(lane.lock);
    total += lane.bytes;
  });
  return total;
}

std::vector<std::vector<uint8_t>> CountingSink::RecentFrames() const {
  std::vector<std::vector<uint8_t>> out;
  lanes_.ForEach([&out, this](uint32_t, const Lane& lane) {
    std::lock_guard<Spinlock> guard(lane.lock);
    const uint64_t kept = std::min<uint64_t>(lane.packets, retain_);
    for (uint64_t i = lane.packets - kept; i < lane.packets; ++i) {
      out.push_back(lane.recent[i % retain_]);
    }
  });
  return out;
}

void CountingSink::Reset() {
  lanes_.ForEach([](uint32_t, Lane& lane) {
    std::lock_guard<Spinlock> guard(lane.lock);
    lane.packets = 0;
    lane.bytes = 0;
    lane.recent.clear();
  });
}

}  // namespace kop::nic
