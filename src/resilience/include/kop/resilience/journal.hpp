// kop::resilience — transactional module entry. Every call the loader
// makes into a guarded module runs against a JournaledMemory: each store
// to RAM-backed simulated memory records the previous bytes first, so
// when the call is contained (guard violation, watchdog expiry, in-module
// panic) the journal is replayed newest-first and kernel memory is
// byte-identical to what it was at call entry. MMIO stores are NOT
// journaled — device state cannot be rolled back — which mirrors the real
// constraint that a transactional kernel boundary stops at the device.
//
// The journal sits on the loader's MemoryInterface seam, below both
// execution engines, so the interpreter and the bytecode VM journal (and
// roll back) identically by construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "kop/kir/engine.hpp"
#include "kop/util/status.hpp"

namespace kop::resilience {

/// Classifies an address range for journaling. Only RAM-backed stores are
/// undoable; the loader builds this from AddressSpace::RawHostPointer so
/// the resilience library needs no kernel dependency.
using RamProbe = std::function<bool(uint64_t addr, uint32_t size)>;

/// Why a rollback ran — the third argument of the module.rollback trace
/// event and the campaign report.
enum class RollbackReason : uint8_t {
  kGuardViolation = 1,
  kTimeout = 2,
  kPanic = 3,
  kFault = 4,
};

std::string_view RollbackReasonName(RollbackReason reason);

/// One undo record: the bytes `addr` held before the journaled store.
struct JournalEntry {
  uint64_t addr = 0;
  uint64_t old_value = 0;
  uint32_t size = 0;  // access width in bytes (1/2/4/8)
};

/// The per-call write journal. Begin() opens a transaction, every
/// journaled store appends an undo record, and the call either Commit()s
/// (drop the records — the writes stand) or Rollback()s (replay them
/// newest-first). Not re-entrant: nested module entries share the
/// outermost transaction, which is exactly the unit the loader contains.
class WriteJournal {
 public:
  void Begin() {
    entries_.clear();
    active_ = true;
  }

  void Commit() {
    entries_.clear();
    active_ = false;
  }

  bool active() const { return active_; }
  size_t size() const { return entries_.size(); }
  const std::vector<JournalEntry>& entries() const { return entries_; }

  /// Bytes of kernel memory the journal can restore.
  uint64_t bytes() const {
    uint64_t total = 0;
    for (const JournalEntry& entry : entries_) total += entry.size;
    return total;
  }

  void RecordStore(uint64_t addr, uint64_t old_value, uint32_t size) {
    if (!active_) return;
    entries_.push_back({addr, old_value, size});
    ++total_entries_recorded_;
  }

  /// Undo every recorded store, newest first, through `memory` (the
  /// UN-journaled inner interface), then close the transaction. Returns
  /// the number of entries undone. Undo failures are ignored — the
  /// region a store hit cannot unmap mid-call in this simulator.
  size_t Rollback(kir::MemoryInterface& memory);

  /// Lifetime counters (for metrics/bench).
  uint64_t total_rollbacks() const { return total_rollbacks_; }
  uint64_t total_entries_undone() const { return total_entries_undone_; }
  uint64_t total_entries_recorded() const { return total_entries_recorded_; }

 private:
  std::vector<JournalEntry> entries_;
  bool active_ = false;
  uint64_t total_rollbacks_ = 0;
  uint64_t total_entries_undone_ = 0;
  uint64_t total_entries_recorded_ = 0;
};

/// MemoryInterface wrapper the loader interposes between the execution
/// engines and kernel memory. While a journal transaction is open, every
/// store to RAM first captures the old value (charged as a read through
/// the inner interface, so the journaling cost is visible on the virtual
/// clock and identical across engines).
///
/// Doubles as the fault-injection seam: kop::fault can arm a hook that
/// observes/perturbs the value of the Nth memory operation (bit flips at
/// a chosen point in the call, deterministic across engines because both
/// issue the same memory-op sequence).
class JournaledMemory final : public kir::MemoryInterface {
 public:
  /// `hook(is_store, ordinal, addr, value, size)` returns the (possibly
  /// perturbed) value the operation proceeds with.
  using MemFaultHook = std::function<uint64_t(
      bool is_store, uint64_t ordinal, uint64_t addr, uint64_t value,
      uint32_t size)>;

  JournaledMemory(kir::MemoryInterface* inner, RamProbe ram_probe)
      : inner_(inner), ram_probe_(std::move(ram_probe)) {}

  Result<uint64_t> Load(uint64_t addr, uint32_t size) override;
  Status Store(uint64_t addr, uint64_t value, uint32_t size) override;

  WriteJournal& journal() { return journal_; }
  const WriteJournal& journal() const { return journal_; }
  kir::MemoryInterface& inner() { return *inner_; }

  void SetFaultHook(MemFaultHook hook) { fault_hook_ = std::move(hook); }
  void ClearFaultHook() { fault_hook_ = nullptr; }
  /// Memory operations (loads + stores) issued since construction — the
  /// ordinal space fault injection points are drawn from.
  uint64_t op_count() const { return op_count_; }

  /// Arm a cross-CPU stop flag: while set, every Load/Store returns
  /// kInterrupted instead of touching memory. This is the containment
  /// seam for SMP stop-the-module — both engines hit it on their next
  /// memory operation, unwind with an error, and the caller rolls back
  /// its own journal. Pass nullptr to disarm.
  void SetStopFlag(const std::atomic<bool>* stop) { stop_ = stop; }

 private:
  // seq_cst: the caller's half of the containment handshake (its
  // occupancy increment, then this load) must not reorder.
  bool Stopped() const {
    return stop_ != nullptr && stop_->load(std::memory_order_seq_cst);
  }

  kir::MemoryInterface* inner_;
  RamProbe ram_probe_;
  WriteJournal journal_;
  MemFaultHook fault_hook_;
  const std::atomic<bool>* stop_ = nullptr;
  uint64_t op_count_ = 0;
};

}  // namespace kop::resilience
