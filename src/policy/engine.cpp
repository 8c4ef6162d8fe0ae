#include "kop/policy/engine.hpp"

#include <algorithm>
#include <mutex>

#include "kop/trace/site.hpp"
#include "kop/trace/span.hpp"
#include "kop/trace/trace.hpp"
#include "kop/util/carat_abi.hpp"

namespace kop::policy {

PolicyEngine::PolicyEngine(kernel::Kernel* kernel,
                           std::unique_ptr<PolicyStore> store, PolicyMode mode)
    : kernel_(kernel),
      store_(std::move(store)),
      store_ptr_(store_.get()),
      mode_(mode),
      latency_hist_(
          trace::GlobalMetrics().GetHistogram("guard.latency_cycles")),
      lookup_depth_hist_(
          trace::GlobalMetrics().GetHistogram("policy.lookup_depth")),
      denied_counter_(trace::GlobalMetrics().GetCounter("guard.denied")),
      elided_counter_(trace::GlobalMetrics().GetCounter("guard.elided")),
      deopt_counter_(trace::GlobalMetrics().GetCounter("guard.deopt")) {
  // Store mutations tick the engine's combined mutation clock so pinned
  // inline guards see them with a single generation load.
  store_->AttachMutationCell(&mutation_gen_);
}

PolicyEngine::~PolicyEngine() {
  // No guard may be in flight at destruction. Retired frames drain in
  // the RCU domain's destructor; the live frame is ours to free.
  delete frame_.load(std::memory_order_acquire);
}

const PolicyFrame* PolicyEngine::CurrentFrame() const {
  const PolicyFrame* frame = frame_.load(std::memory_order_acquire);
  if (frame != nullptr &&
      frame->store_generation ==
          store_ptr_.load(std::memory_order_acquire)->generation() &&
      frame->config_generation ==
          config_generation_.load(std::memory_order_acquire)) {
    return frame;
  }
  return RepublishFrame();
}

const PolicyFrame* PolicyEngine::RepublishFrame() const {
  std::lock_guard<Spinlock> guard(writer_lock_);
  // Re-check under the writer lock: the CPU that beat us here may have
  // already published exactly the frame we came to build.
  const uint64_t store_gen = store_->generation();
  const uint64_t config_gen =
      config_generation_.load(std::memory_order_acquire);
  const PolicyFrame* frame = frame_.load(std::memory_order_acquire);
  if (frame != nullptr && frame->store_generation == store_gen &&
      frame->config_generation == config_gen) {
    return frame;
  }

  auto* fresh = new PolicyFrame;
  fresh->regions = store_->Snapshot();
  fresh->store_size = fresh->regions.size();
  fresh->store_generation = store_gen;
  fresh->config_generation = config_gen;
  fresh->intrinsic_allowed.assign(intrinsic_allowed_.begin(),
                                  intrinsic_allowed_.end());
  fresh->intrinsic_denied.assign(intrinsic_denied_.begin(),
                                 intrinsic_denied_.end());
  fresh->intrinsic_default_allow = intrinsic_default_allow_;
  fresh->cfi_sets = cfi_sets_;

  frame_.store(fresh, std::memory_order_release);
  frames_published_.fetch_add(1, std::memory_order_acq_rel);
  // We are inside the calling guard's read section, so Retire must not
  // block; the old frame is freed once every section that could have
  // loaded it has closed.
  if (frame != nullptr) rcu_.Retire(frame);
  return fresh;
}

std::optional<uint32_t> PolicyEngine::FrameLookup(const PolicyFrame& frame,
                                                  uint64_t addr, uint64_t size,
                                                  uint64_t* depth) {
  uint64_t scanned = 0;
  for (const Region& region : frame.regions) {
    ++scanned;
    if (region.Contains(addr, size)) {
      *depth = scanned;
      return region.prot;
    }
  }
  *depth = scanned;
  return std::nullopt;
}

std::unique_ptr<PolicyStore> PolicyEngine::SwapStore(
    std::unique_ptr<PolicyStore> store) {
  std::unique_ptr<PolicyStore> old;
  {
    std::lock_guard<Spinlock> guard(writer_lock_);
    old = std::move(store_);
    store_ = std::move(store);
    store_ptr_.store(store_.get(), std::memory_order_release);
    // The outgoing store keeps living in the caller's hands; its future
    // mutations are no longer policy and must not tick our clock.
    old->AttachMutationCell(nullptr);
    store_->AttachMutationCell(&mutation_gen_);
    // Carry the regions over so a live swap preserves the policy.
    for (const Region& region : old->Snapshot()) {
      (void)store_->Add(region);
    }
    // The frame's store_generation was drawn from the OLD store's
    // counter; bumping the config generation forces republish even if
    // the new store's counter happens to coincide.
    config_generation_.fetch_add(1, std::memory_order_acq_rel);
    mutation_gen_.fetch_add(1, std::memory_order_acq_rel);
  }
  // Grace period: once every in-flight guard has left its read section,
  // no CPU can still be comparing generations against the old store, and
  // the caller may destroy it.
  rcu_.Synchronize();
  return old;
}

bool PolicyEngine::Check(uint64_t addr, uint64_t size,
                         uint64_t access_flags) const {
  smp::RcuDomain::ReadGuard rcu(rcu_);
  const PolicyFrame* frame = CurrentFrame();
  uint64_t depth = 0;
  const std::optional<uint32_t> prot =
      FrameLookup(*frame, addr, size, &depth);
  if (prot.has_value()) {
    return (*prot & access_flags) == access_flags;
  }
  return mode() == PolicyMode::kDefaultAllow;
}

void PolicyEngine::GrowSiteTable(SiteShard& shard, uint64_t site) {
  std::lock_guard<Spinlock> guard(shard.lock);
  SiteTable* old = shard.table.load(std::memory_order_relaxed);
  if (old != nullptr && site < old->capacity) return;  // raced a growth
  auto grown = std::make_unique<SiteTable>();
  grown->capacity = std::max<size_t>(64, static_cast<size_t>(site) + 1);
  if (old != nullptr) grown->capacity = std::max(grown->capacity,
                                                 old->capacity * 2);
  grown->rows = std::make_unique<SiteRow[]>(grown->capacity);
  if (old != nullptr) {
    for (size_t i = 0; i < old->capacity; ++i) {
      const SiteRow& from = old->rows[i];
      SiteRow& to = grown->rows[i];
      to.site.store(from.site.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
      to.hits.store(from.hits.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
      to.denied.store(from.denied.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      to.elided.store(from.elided.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    }
  }
  shard.table.store(grown.get(), std::memory_order_release);
  // Freeing the old table here is safe: the only lock-free readers are
  // on the shard's own CPU — the thread running this growth — and every
  // cross-CPU access (folds, resets) holds the shard lock.
  shard.storage = std::move(grown);
}

void PolicyEngine::NoteSiteIn(SiteShard& shard, uint64_t site, bool allowed,
                              uint64_t elided) {
  SiteTable* table = shard.table.load(std::memory_order_acquire);
  if (table == nullptr || site >= table->capacity) [[unlikely]] {
    GrowSiteTable(shard, site);
    table = shard.table.load(std::memory_order_acquire);
  }
  SiteRow& row = table->rows[static_cast<size_t>(site)];
  row.site.store(site, std::memory_order_relaxed);
  smp::BumpOwned(row.hits);
  if (elided != 0) smp::BumpOwned(row.elided, elided);
  if (!allowed) smp::BumpOwned(row.denied);
}

void PolicyEngine::NoteSite(uint64_t site, bool allowed, uint64_t elided) {
  NoteSiteIn(site_shards_.Mine(), site, allowed, elided);
}

uint64_t PolicyEngine::FoldGuardCalls() const {
  uint64_t total = 0;
  cpu_stats_.ForEach([&total](uint32_t, const CpuStats& slot) {
    total += slot.guard_calls.load(std::memory_order_relaxed);
  });
  return total;
}

uint64_t PolicyEngine::FoldIntrinsicCalls() const {
  uint64_t total = 0;
  cpu_stats_.ForEach([&total](uint32_t, const CpuStats& slot) {
    total += slot.intrinsic_calls.load(std::memory_order_relaxed);
  });
  return total;
}

void PolicyEngine::RecordViolation(const ViolationRecord& record) {
  std::lock_guard<Spinlock> guard(violations_lock_);
  violations_.push(record);
}

bool PolicyEngine::Guard(uint64_t addr, uint64_t size,
                         uint64_t access_flags) {
  KOP_SPAN(kGuardDecision, addr);
  const uint64_t site = trace::CurrentGuardSite();
  bool allowed;
  {
    smp::RcuDomain::ReadGuard rcu(rcu_);
    const PolicyFrame* frame = CurrentFrame();
    CpuStats& my = cpu_stats_.Mine();
    my.guard_calls.fetch_add(1, std::memory_order_relaxed);
    const double guard_cycles = kernel_->machine().GuardCycles(
        static_cast<uint32_t>(frame->store_size));
    if (charge_cycles_.load(std::memory_order_relaxed)) {
      kernel_->clock().Advance(guard_cycles);
    }
    latency_hist_->Observe(guard_cycles);

    uint64_t depth = 0;
    const std::optional<uint32_t> prot =
        FrameLookup(*frame, addr, size, &depth);
    lookup_depth_hist_->Observe(static_cast<double>(depth));
    KOP_TRACE(kPolicyLookup, depth, frame->store_size);

    allowed = prot.has_value()
                  ? (*prot & access_flags) == access_flags
                  : mode() == PolicyMode::kDefaultAllow;
    if (site == force_deny_site_.load(std::memory_order_relaxed))
        [[unlikely]] {
      allowed = false;
    }
    NoteSite(site, allowed);
    if (allowed) {
      my.allowed.fetch_add(1, std::memory_order_relaxed);
    } else {
      my.denied.fetch_add(1, std::memory_order_relaxed);
      RecordViolation(ViolationRecord{addr, size, access_flags,
                                      FoldGuardCalls(), false, site, false});
    }
  }
  KOP_TRACE(kGuardCheck, addr, size, access_flags, site);
  if (allowed) return true;
  KOP_TRACE(kGuardDeny, addr, size, access_flags, site);
  denied_counter_->Add();
  const char* kind =
      (access_flags & kGuardAccessWrite)
          ? ((access_flags & kGuardAccessRead) ? "read-write" : "write")
          : "read";
  kernel_->log().Printk(
      kernel::KernLevel::kAlert,
      "CARAT KOP: forbidden %s access to 0x%llx (size %llu) blocked by policy",
      kind, static_cast<unsigned long long>(addr),
      static_cast<unsigned long long>(size));
  const ViolationAction action = violation_action();
  if (action == ViolationAction::kPanic) {
    kernel_->Panic("CARAT KOP guard violation");  // throws KernelPanic
  }
  if (action == ViolationAction::kQuarantine) {
    throw GuardViolation(addr, size, access_flags, site);
  }
  return false;
}

bool PolicyEngine::GuardRange(uint64_t addr, uint64_t size,
                              uint64_t access_flags, uint64_t elided) {
  KOP_SPAN(kGuardDecision, addr);
  const uint64_t site = trace::CurrentGuardSite();
  bool allowed;
  {
    smp::RcuDomain::ReadGuard rcu(rcu_);
    const PolicyFrame* frame = CurrentFrame();
    CpuStats& my = cpu_stats_.Mine();
    my.guard_calls.fetch_add(1, std::memory_order_relaxed);
    const double guard_cycles = kernel_->machine().GuardCycles(
        static_cast<uint32_t>(frame->store_size));
    if (charge_cycles_.load(std::memory_order_relaxed)) {
      kernel_->clock().Advance(guard_cycles);
    }
    latency_hist_->Observe(guard_cycles);

    uint64_t depth = 0;
    const std::optional<uint32_t> prot =
        FrameLookup(*frame, addr, size, &depth);
    lookup_depth_hist_->Observe(static_cast<double>(depth));
    KOP_TRACE(kPolicyLookup, depth, frame->store_size);

    allowed = prot.has_value()
                  ? (*prot & access_flags) == access_flags
                  : mode() == PolicyMode::kDefaultAllow;
    if (site == force_deny_site_.load(std::memory_order_relaxed))
        [[unlikely]] {
      allowed = false;
    }
    if (allowed) {
      // The cover proved `elided` member accesses beyond itself; they
      // count as elided, not as guard calls — guard_calls + elided is
      // what an unelided build would have reported.
      NoteSite(site, true, elided);
      my.allowed.fetch_add(1, std::memory_order_relaxed);
      if (elided != 0) {
        my.elided.fetch_add(elided, std::memory_order_relaxed);
        elided_counter_->Add(elided);
      }
    } else {
      // A denied cover credits no elided members: the violation is the
      // whole cluster's, attributed to the cover site with the
      // interval's address and span.
      NoteSite(site, false);
      my.denied.fetch_add(1, std::memory_order_relaxed);
      RecordViolation(ViolationRecord{addr, size, access_flags,
                                      FoldGuardCalls(), false, site, false});
    }
  }
  KOP_TRACE(kGuardCheck, addr, size, access_flags, site);
  if (allowed) return true;
  KOP_TRACE(kGuardDeny, addr, size, access_flags, site);
  denied_counter_->Add();
  const char* kind =
      (access_flags & kGuardAccessWrite)
          ? ((access_flags & kGuardAccessRead) ? "read-write" : "write")
          : "read";
  kernel_->log().Printk(
      kernel::KernLevel::kAlert,
      "CARAT KOP: forbidden %s access to 0x%llx (size %llu) blocked by policy",
      kind, static_cast<unsigned long long>(addr),
      static_cast<unsigned long long>(size));
  const ViolationAction action = violation_action();
  if (action == ViolationAction::kPanic) {
    kernel_->Panic("CARAT KOP guard violation");  // throws KernelPanic
  }
  if (action == ViolationAction::kQuarantine) {
    throw GuardViolation(addr, size, access_flags, site);
  }
  return false;
}

bool PolicyEngine::CfiCheck(uint64_t target, uint64_t set_id) {
  KOP_SPAN(kGuardDecision, target);
  const uint64_t site = trace::CurrentGuardSite();
  bool allowed;
  {
    smp::RcuDomain::ReadGuard rcu(rcu_);
    const PolicyFrame* frame = CurrentFrame();
    CpuStats& my = cpu_stats_.Mine();
    my.cfi_checks.fetch_add(1, std::memory_order_relaxed);
    // A CFI decision is a guard decision: same machine-model cost, same
    // latency histogram, so CFI-on vs CFI-off deltas are visible in the
    // virtual clock the benches read.
    const double guard_cycles = kernel_->machine().GuardCycles(
        static_cast<uint32_t>(frame->store_size));
    if (charge_cycles_.load(std::memory_order_relaxed)) {
      kernel_->clock().Advance(guard_cycles);
    }
    latency_hist_->Observe(guard_cycles);

    // Membership in the attested legal-target set. An out-of-range set
    // id (a module that skipped registration, or a forged rebase) denies:
    // unknown provenance is never a licence to jump.
    allowed = set_id < frame->cfi_sets.size() &&
              std::binary_search(frame->cfi_sets[set_id].begin(),
                                 frame->cfi_sets[set_id].end(), target);
    if (site == force_deny_site_.load(std::memory_order_relaxed))
        [[unlikely]] {
      allowed = false;
    }
    NoteSite(site, allowed);
    if (!allowed) {
      my.cfi_denied.fetch_add(1, std::memory_order_relaxed);
      RecordViolation(ViolationRecord{target, set_id, 0, FoldGuardCalls(),
                                      false, site, true});
    }
  }
  KOP_TRACE(kGuardCheck, target, set_id, 0, site);
  if (allowed) return true;
  KOP_TRACE(kGuardDeny, target, set_id, 0, site);
  denied_counter_->Add();
  kernel_->log().Printk(
      kernel::KernLevel::kAlert,
      "CARAT KOP: forbidden indirect call to 0x%llx (set %llu) blocked by "
      "policy",
      static_cast<unsigned long long>(target),
      static_cast<unsigned long long>(set_id));
  const ViolationAction action = violation_action();
  if (action == ViolationAction::kPanic) {
    kernel_->Panic("CARAT KOP cfi violation");  // throws KernelPanic
  }
  if (action == ViolationAction::kQuarantine) {
    throw GuardViolation(target, set_id, 0, site, /*is_cfi=*/true);
  }
  return false;
}

uint64_t PolicyEngine::RegisterCfiSets(
    const std::vector<std::vector<uint64_t>>& sets) {
  std::lock_guard<Spinlock> guard(writer_lock_);
  const uint64_t base = cfi_sets_.size();
  for (const std::vector<uint64_t>& set : sets) {
    std::vector<uint64_t> sorted = set;
    std::sort(sorted.begin(), sorted.end());
    cfi_sets_.push_back(std::move(sorted));
  }
  // Same protocol as the intrinsic mutators: the frame's CFI copy went
  // stale, so the next check republishes and pinned calls deopt once.
  config_generation_.fetch_add(1, std::memory_order_acq_rel);
  mutation_gen_.fetch_add(1, std::memory_order_acq_rel);
  return base;
}

size_t PolicyEngine::CfiSetCount() const {
  std::lock_guard<Spinlock> guard(writer_lock_);
  return cfi_sets_.size();
}

bool PolicyEngine::PinFrame() {
  PinSlot& pin = pin_slots_.Mine();
  if (pin.depth++ == 0) {
    pin.rcu.emplace(rcu_);
    // Resolve the CPU-slot pointers once: every inline guard in the call
    // then runs without a per-guard CPU-slot lookup.
    pin.stats = &cpu_stats_.Mine();
    pin.sites = &site_shards_.Mine();
    pin.clock_cell = &kernel_->clock().MyCell();
    pin.spans = &trace::GlobalSpans();
    RefreshPin(pin);
  }
  return true;
}

void PolicyEngine::UnpinFrame() {
  PinSlot& pin = pin_slots_.Mine();
  if (pin.depth == 0) return;  // unbalanced close: tolerate, stay slow
  if (--pin.depth == 0) {
    if (pin.elided_batch != 0) {
      elided_counter_->Add(pin.elided_batch);
      pin.elided_batch = 0;
    }
    pin.frame = nullptr;
    pin.rcu.reset();
  }
}

void PolicyEngine::RefreshPin(PinSlot& pin) {
  // Snapshot the mutation clock BEFORE resolving the frame: a mutation
  // that lands between the two reads leaves the snapshot behind the live
  // clock, so the next inline guard deopts and refreshes — a spurious
  // deopt, never a stale allow. (Store mutators bump their structural
  // generation before ticking our cell, so a caught-up snapshot implies
  // CurrentFrame below sees the new store generation too.)
  pin.mutation_gen = mutation_gen_.load(std::memory_order_acquire);
  // Caller holds the slot's read section, so CurrentFrame's result stays
  // valid for the remainder of the pin even if another CPU republishes.
  const PolicyFrame* frame = CurrentFrame();
  pin.frame = frame;
  pin.guard_cycles = kernel_->machine().GuardCycles(
      static_cast<uint32_t>(frame->store_size));
  // Mode is config: SetMode bumps the mutation clock, so this snapshot
  // can only go stale together with a clock mismatch.
  pin.default_allow = mode() == PolicyMode::kDefaultAllow;
}

bool PolicyEngine::FastGuard(uint64_t addr, uint64_t size,
                             uint64_t access_flags, uint64_t site) {
  PinSlot& pin = pin_slots_.Mine();
  if (pin.depth == 0) [[unlikely]] {
    return false;  // not pinned: fast path unavailable, not a deopt
  }
  if (pin.mutation_gen !=
      mutation_gen_.load(std::memory_order_acquire)) [[unlikely]] {
    // Policy moved mid-call (store mutation, swap, or config change all
    // tick the one clock): refresh so later guards in this call are fast
    // again, and let this one re-decide out of line.
    deopt_counter_->Add();
    RefreshPin(pin);
    return false;
  }
  if (site == force_deny_site_.load(std::memory_order_relaxed)) [[unlikely]] {
    deopt_counter_->Add();
    return false;  // fault injection: slow path owns the spurious denial
  }
  // The flight recorder sees inline decisions too: the span opens after
  // the deopt checks, so a deopted guard is recorded once, by Guard().
  // Hand-rolled (vs KOP_SPAN) to use the pinned recorder pointer: a
  // disabled recorder costs one relaxed load, no out-of-line call.
#if KOP_SPANS_ENABLED
  const bool span_active = pin.spans->enabled();
  const uint64_t span_begin = span_active ? pin.spans->BeginSpan() : 0;
#endif
  uint64_t depth = 0;
  const std::optional<uint32_t> prot =
      FrameLookup(*pin.frame, addr, size, &depth);
  const bool allowed = prot.has_value()
                           ? (*prot & access_flags) == access_flags
                           : pin.default_allow;
#if KOP_SPANS_ENABLED
  if (span_active) {
    pin.spans->EndSpan(trace::SpanKind::kGuardDecision, span_begin, addr);
  }
#endif
  if (!allowed) [[unlikely]] {
    deopt_counter_->Add();
    return false;  // slow path re-decides with full violation semantics
  }
  smp::BumpOwned(pin.stats->guard_calls);
  smp::BumpOwned(pin.stats->allowed);
  NoteSiteIn(*pin.sites, site, true, 0);
  if (charge_cycles_.load(std::memory_order_relaxed)) {
    pin.clock_cell->store(
        pin.clock_cell->load(std::memory_order_relaxed) + pin.guard_cycles,
        std::memory_order_relaxed);
  }
  return true;
}

bool PolicyEngine::FastGuardRange(uint64_t addr, uint64_t size,
                                  uint64_t access_flags, uint64_t elided,
                                  uint64_t site) {
  PinSlot& pin = pin_slots_.Mine();
  if (pin.depth == 0) [[unlikely]] {
    return false;
  }
  if (pin.mutation_gen !=
      mutation_gen_.load(std::memory_order_acquire)) [[unlikely]] {
    deopt_counter_->Add();
    RefreshPin(pin);
    return false;
  }
  if (site == force_deny_site_.load(std::memory_order_relaxed)) [[unlikely]] {
    deopt_counter_->Add();
    return false;
  }
#if KOP_SPANS_ENABLED
  const bool span_active = pin.spans->enabled();
  const uint64_t span_begin = span_active ? pin.spans->BeginSpan() : 0;
#endif
  uint64_t depth = 0;
  const std::optional<uint32_t> prot =
      FrameLookup(*pin.frame, addr, size, &depth);
  const bool allowed = prot.has_value()
                           ? (*prot & access_flags) == access_flags
                           : pin.default_allow;
#if KOP_SPANS_ENABLED
  if (span_active) {
    pin.spans->EndSpan(trace::SpanKind::kGuardDecision, span_begin, addr);
  }
#endif
  if (!allowed) [[unlikely]] {
    deopt_counter_->Add();
    return false;
  }
  smp::BumpOwned(pin.stats->guard_calls);
  smp::BumpOwned(pin.stats->allowed);
  NoteSiteIn(*pin.sites, site, true, elided);
  if (elided != 0) {
    smp::BumpOwned(pin.stats->elided, elided);
    pin.elided_batch += elided;
  }
  if (charge_cycles_.load(std::memory_order_relaxed)) {
    pin.clock_cell->store(
        pin.clock_cell->load(std::memory_order_relaxed) + pin.guard_cycles,
        std::memory_order_relaxed);
  }
  return true;
}

bool PolicyEngine::FastCfiCheck(uint64_t target, uint64_t set_id,
                                uint64_t site) {
  PinSlot& pin = pin_slots_.Mine();
  if (pin.depth == 0) [[unlikely]] {
    return false;  // not pinned: fast path unavailable, not a deopt
  }
  if (pin.mutation_gen !=
      mutation_gen_.load(std::memory_order_acquire)) [[unlikely]] {
    deopt_counter_->Add();
    RefreshPin(pin);
    return false;
  }
  if (site == force_deny_site_.load(std::memory_order_relaxed)) [[unlikely]] {
    deopt_counter_->Add();
    return false;  // fault injection: slow path owns the spurious denial
  }
#if KOP_SPANS_ENABLED
  const bool span_active = pin.spans->enabled();
  const uint64_t span_begin = span_active ? pin.spans->BeginSpan() : 0;
#endif
  const std::vector<std::vector<uint64_t>>& sets = pin.frame->cfi_sets;
  const bool allowed =
      set_id < sets.size() &&
      std::binary_search(sets[set_id].begin(), sets[set_id].end(), target);
#if KOP_SPANS_ENABLED
  if (span_active) {
    pin.spans->EndSpan(trace::SpanKind::kGuardDecision, span_begin, target);
  }
#endif
  if (!allowed) [[unlikely]] {
    deopt_counter_->Add();
    return false;  // slow path re-decides with full violation semantics
  }
  smp::BumpOwned(pin.stats->cfi_checks);
  NoteSiteIn(*pin.sites, site, true, 0);
  if (charge_cycles_.load(std::memory_order_relaxed)) {
    pin.clock_cell->store(
        pin.clock_cell->load(std::memory_order_relaxed) + pin.guard_cycles,
        std::memory_order_relaxed);
  }
  return true;
}

bool PolicyEngine::IntrinsicGuard(uint64_t intrinsic_id) {
  const uint64_t site = trace::CurrentGuardSite();
  bool allowed;
  {
    smp::RcuDomain::ReadGuard rcu(rcu_);
    const PolicyFrame* frame = CurrentFrame();
    CpuStats& my = cpu_stats_.Mine();
    my.intrinsic_calls.fetch_add(1, std::memory_order_relaxed);
    if (std::binary_search(frame->intrinsic_denied.begin(),
                           frame->intrinsic_denied.end(), intrinsic_id)) {
      allowed = false;
    } else if (std::binary_search(frame->intrinsic_allowed.begin(),
                                  frame->intrinsic_allowed.end(),
                                  intrinsic_id)) {
      allowed = true;
    } else {
      allowed = frame->intrinsic_default_allow;
    }
    NoteSite(site, allowed);
    if (!allowed) {
      my.intrinsic_denied.fetch_add(1, std::memory_order_relaxed);
      RecordViolation(ViolationRecord{intrinsic_id, 0, 0,
                                      FoldIntrinsicCalls(), true, site,
                                      false});
    }
  }
  KOP_TRACE(kIntrinsicCheck, intrinsic_id, allowed ? 1 : 0, 0, site);
  if (allowed) return true;
  denied_counter_->Add();
  kernel_->log().Printk(
      kernel::KernLevel::kAlert,
      "CARAT KOP: forbidden privileged intrinsic %llu blocked by policy",
      static_cast<unsigned long long>(intrinsic_id));
  if (violation_action() == ViolationAction::kPanic) {
    kernel_->Panic("CARAT KOP privileged-intrinsic violation");
  }
  return false;
}

void PolicyEngine::AllowIntrinsic(uint64_t intrinsic_id) {
  std::lock_guard<Spinlock> guard(writer_lock_);
  intrinsic_denied_.erase(intrinsic_id);
  intrinsic_allowed_.insert(intrinsic_id);
  config_generation_.fetch_add(1, std::memory_order_acq_rel);
  mutation_gen_.fetch_add(1, std::memory_order_acq_rel);
}

void PolicyEngine::DenyIntrinsic(uint64_t intrinsic_id) {
  std::lock_guard<Spinlock> guard(writer_lock_);
  intrinsic_allowed_.erase(intrinsic_id);
  intrinsic_denied_.insert(intrinsic_id);
  config_generation_.fetch_add(1, std::memory_order_acq_rel);
  mutation_gen_.fetch_add(1, std::memory_order_acq_rel);
}

void PolicyEngine::SetIntrinsicDefaultAllow(bool allow) {
  std::lock_guard<Spinlock> guard(writer_lock_);
  intrinsic_default_allow_ = allow;
  config_generation_.fetch_add(1, std::memory_order_acq_rel);
  mutation_gen_.fetch_add(1, std::memory_order_acq_rel);
}

GuardStats PolicyEngine::stats() const {
  GuardStats out;
  cpu_stats_.ForEach([&out](uint32_t, const CpuStats& slot) {
    out.guard_calls += slot.guard_calls.load(std::memory_order_relaxed);
    out.allowed += slot.allowed.load(std::memory_order_relaxed);
    out.denied += slot.denied.load(std::memory_order_relaxed);
    out.intrinsic_calls +=
        slot.intrinsic_calls.load(std::memory_order_relaxed);
    out.intrinsic_denied +=
        slot.intrinsic_denied.load(std::memory_order_relaxed);
    out.elided += slot.elided.load(std::memory_order_relaxed);
    out.cfi_checks += slot.cfi_checks.load(std::memory_order_relaxed);
    out.cfi_denied += slot.cfi_denied.load(std::memory_order_relaxed);
  });
  return out;
}

GuardStats PolicyEngine::PerCpuStats(uint32_t cpu) const {
  const CpuStats& slot = cpu_stats_.Get(cpu);
  GuardStats out;
  out.guard_calls = slot.guard_calls.load(std::memory_order_relaxed);
  out.allowed = slot.allowed.load(std::memory_order_relaxed);
  out.denied = slot.denied.load(std::memory_order_relaxed);
  out.intrinsic_calls = slot.intrinsic_calls.load(std::memory_order_relaxed);
  out.intrinsic_denied =
      slot.intrinsic_denied.load(std::memory_order_relaxed);
  out.elided = slot.elided.load(std::memory_order_relaxed);
  out.cfi_checks = slot.cfi_checks.load(std::memory_order_relaxed);
  out.cfi_denied = slot.cfi_denied.load(std::memory_order_relaxed);
  return out;
}

void PolicyEngine::ResetStats() {
  cpu_stats_.ForEach([](uint32_t, CpuStats& slot) {
    slot.guard_calls.store(0, std::memory_order_relaxed);
    slot.allowed.store(0, std::memory_order_relaxed);
    slot.denied.store(0, std::memory_order_relaxed);
    slot.intrinsic_calls.store(0, std::memory_order_relaxed);
    slot.intrinsic_denied.store(0, std::memory_order_relaxed);
    slot.elided.store(0, std::memory_order_relaxed);
    slot.cfi_checks.store(0, std::memory_order_relaxed);
    slot.cfi_denied.store(0, std::memory_order_relaxed);
  });
  store_->ResetStats();
  {
    std::lock_guard<Spinlock> guard(violations_lock_);
    violations_.clear();
  }
  site_shards_.ForEach([](uint32_t, SiteShard& shard) {
    // Zero in place rather than freeing: another CPU's inline path may
    // hold the table pointer lock-free, so the allocation must survive.
    std::lock_guard<Spinlock> guard(shard.lock);
    SiteTable* table = shard.table.load(std::memory_order_relaxed);
    if (table == nullptr) return;
    for (size_t i = 0; i < table->capacity; ++i) {
      SiteRow& row = table->rows[i];
      row.site.store(0, std::memory_order_relaxed);
      row.hits.store(0, std::memory_order_relaxed);
      row.denied.store(0, std::memory_order_relaxed);
      row.elided.store(0, std::memory_order_relaxed);
    }
  });
}

std::vector<ViolationRecord> PolicyEngine::RecentViolations() const {
  std::lock_guard<Spinlock> guard(violations_lock_);
  return violations_.snapshot();
}

std::vector<Region> PolicyEngine::FrameSnapshot() const {
  smp::RcuDomain::ReadGuard rcu(rcu_);
  return CurrentFrame()->regions;
}

std::vector<HotSite> PolicyEngine::HotSites() const {
  // Fold the per-CPU shards: same token on different CPUs merges.
  std::vector<HotSite> merged;
  site_shards_.ForEach([&merged](uint32_t, SiteShard& shard) {
    std::lock_guard<Spinlock> guard(shard.lock);
    const SiteTable* table = shard.table.load(std::memory_order_acquire);
    if (table == nullptr) return;
    for (size_t i = 0; i < table->capacity; ++i) {
      const SiteRow& row = table->rows[i];
      const uint64_t hits = row.hits.load(std::memory_order_relaxed);
      if (hits == 0) continue;
      const uint64_t site = row.site.load(std::memory_order_relaxed);
      if (site >= merged.size()) {
        merged.resize(static_cast<size_t>(site) + 1);
      }
      HotSite& out = merged[static_cast<size_t>(site)];
      out.site = site;
      out.hits += hits;
      out.denied += row.denied.load(std::memory_order_relaxed);
      out.elided += row.elided.load(std::memory_order_relaxed);
    }
  });
  std::vector<HotSite> out;
  out.reserve(merged.size());
  for (const HotSite& row : merged) {
    if (row.hits != 0) out.push_back(row);
  }
  std::sort(out.begin(), out.end(), [](const HotSite& a, const HotSite& b) {
    return a.hits != b.hits ? a.hits > b.hits : a.site < b.site;
  });
  return out;
}

}  // namespace kop::policy
