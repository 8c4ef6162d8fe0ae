// kop::resilience — the recovery policy: what the module loader does
// with a module after a contained failure (guard violation, watchdog
// timeout, in-module panic unwound through rollback).
//
// State machine (per loaded module):
//
//             containment, kRestart policy
//   Live ────────────────────────────────────► NeedsRestart
//    ▲                                              │ next call (or the
//    │ restart ok: teardown + re-init               │ containing call)
//    └────────────── Restarted ◄────────────────────┘ retries with
//                        │                            exponential backoff
//                        │ attempts exhausted / kQuarantine policy
//                        ▼
//                   Quarantined  (permanent: allocations reclaimed,
//                                 module symbols unregistered)
#pragma once

#include <cstdint>
#include <string_view>

namespace kop::resilience {

/// What containment does to the offending module. Selected through the
/// KOP_RECOVERY environment variable; kQuarantine preserves the
/// pre-resilience behavior and is the default.
enum class RecoveryPolicy {
  kPanic,       // paper §3.1: log and panic the machine
  kQuarantine,  // flag the module off; reclaim its resources
  kRestart,     // tear the module down and re-run init, with backoff
};

std::string_view RecoveryPolicyName(RecoveryPolicy policy);

/// Policy selected by KOP_RECOVERY ("panic", "quarantine" or "restart");
/// kQuarantine when unset or unrecognized.
RecoveryPolicy DefaultRecoveryPolicy();

/// Per-call watchdog step budget selected by KOP_WATCHDOG_STEPS (decimal;
/// 0 disables); 8'000'000 when unset or unparsable — far above any sane
/// module call, below the per-call InterpConfig::max_steps.
uint64_t DefaultWatchdogSteps();

/// Lifecycle state the loader tracks per module (procfs lsmod column).
enum class ModuleState : uint8_t {
  kLive,          // never contained
  kNeedsRestart,  // contained; restart pending (retried on next call)
  kRestarted,     // recovered at least once; running
  kQuarantined,   // permanently off
};

std::string_view ModuleStateName(ModuleState state);

/// Bounded retry with exponential backoff: attempt n costs
/// min(base << (n-1), max) cycles of simulated downtime; after
/// max_attempts failed restarts the module is quarantined for good.
struct BackoffPolicy {
  uint32_t max_attempts = 3;
  uint64_t base_cycles = 50'000;
  uint64_t max_cycles = 50'000'000;

  uint64_t CyclesFor(uint32_t attempt) const {
    if (attempt == 0) return 0;
    const uint32_t shift = attempt - 1 < 63 ? attempt - 1 : 63;
    const uint64_t cycles = base_cycles << shift;
    const bool overflowed = shift != 0 && (cycles >> shift) != base_cycles;
    return (overflowed || cycles > max_cycles) ? max_cycles : cycles;
  }
};

}  // namespace kop::resilience
