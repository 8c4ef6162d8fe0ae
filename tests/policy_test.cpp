// kop::policy: the 64-entry region table (through the engine's decision,
// the only lookup that runs), the engine and the policy module's ioctl
// surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/policy/engine.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/policy/region_table.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/trace/site.hpp"
#include "kop/trace/trace.hpp"
#include "kop/util/rng.hpp"

namespace kop::policy {
namespace {

// ------------------------------------------------------- region table --

/// The table under a default-deny engine: lookups are engine decisions,
/// so "covered and granting" reads as Allows(...) == true and "no region
/// covers" as a default-deny refusal.
class RegionTable64Test : public ::testing::Test {
 protected:
  RegionTable64Test() : engine_(&kernel_, nullptr, PolicyMode::kDefaultDeny) {}

  RegionTable64& table() { return engine_.store(); }
  bool Allows(uint64_t addr, uint64_t size,
              uint64_t flags = kGuardAccessRead) const {
    return engine_.Check(addr, size, flags);
  }

  kernel::Kernel kernel_;
  PolicyEngine engine_;
};

TEST_F(RegionTable64Test, AddLookupRemove) {
  EXPECT_EQ(table().Size(), 0u);
  ASSERT_TRUE(table().Add(Region{0x1000, 0x1000, kProtRW}).ok());
  ASSERT_TRUE(table().Add(Region{0x10000, 0x100, kProtRead}).ok());
  EXPECT_EQ(table().Size(), 2u);

  EXPECT_TRUE(Allows(0x1800, 8, kGuardAccessRead | kGuardAccessWrite));
  EXPECT_TRUE(Allows(0x10000, 4, kGuardAccessRead));
  EXPECT_FALSE(Allows(0x10000, 4, kGuardAccessWrite));
  EXPECT_FALSE(Allows(0x3000, 8));

  ASSERT_TRUE(table().Remove(0x1000).ok());
  EXPECT_FALSE(Allows(0x1800, 8));
  EXPECT_EQ(table().Size(), 1u);
  const Status again = table().Remove(0x1000);
  EXPECT_EQ(again.code(), ErrorCode::kNotFound);
}

TEST_F(RegionTable64Test, ExactBoundaries) {
  ASSERT_TRUE(table().Add(Region{0x1000, 0x100, kProtRW}).ok());
  EXPECT_TRUE(Allows(0x1000, 1));      // first byte
  EXPECT_TRUE(Allows(0x10ff, 1));      // last byte
  EXPECT_TRUE(Allows(0x1000, 0x100));  // whole region
  EXPECT_FALSE(Allows(0x0fff, 1));     // one before
  EXPECT_FALSE(Allows(0x1100, 1));     // one after
  // Range extending past the region is not covered.
  EXPECT_FALSE(Allows(0x10ff, 2));
  EXPECT_FALSE(Allows(0x1000, 0x101));
}

TEST_F(RegionTable64Test, RejectsDegenerateAndDuplicateRegions) {
  EXPECT_FALSE(table().Add(Region{0x1000, 0, kProtRW}).ok());
  EXPECT_FALSE(table().Add(Region{~0ull - 10, 100, kProtRW}).ok());
  ASSERT_TRUE(table().Add(Region{0x1000, 0x100, kProtRW}).ok());
  const Status duplicate = table().Add(Region{0x1000, 0x100, kProtRead});
  EXPECT_EQ(duplicate.code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(table().Size(), 1u);
}

TEST_F(RegionTable64Test, ClearEmpties) {
  ASSERT_TRUE(table().Add(Region{0x1000, 0x100, kProtRW}).ok());
  table().Clear();
  EXPECT_EQ(table().Size(), 0u);
  EXPECT_FALSE(Allows(0x1000, 1));
  // Usable after clear.
  EXPECT_TRUE(table().Add(Region{0x2000, 0x100, kProtRead}).ok());
  EXPECT_TRUE(Allows(0x2000, 1));
}

TEST_F(RegionTable64Test, SnapshotIsInsertionOrder) {
  ASSERT_TRUE(table().Add(Region{0x3000, 0x100, kProtRead}).ok());
  ASSERT_TRUE(table().Add(Region{0x1000, 0x100, kProtRW}).ok());
  ASSERT_TRUE(table().Add(Region{0x2000, 0x100, kProtWrite}).ok());
  const auto snapshot = table().Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].base, 0x3000u);
  EXPECT_EQ(snapshot[1].base, 0x1000u);
  EXPECT_EQ(snapshot[2].base, 0x2000u);
  EXPECT_EQ(snapshot[2].prot, kProtWrite);
}

TEST_F(RegionTable64Test, AdjacentRegionsDoNotBleed) {
  ASSERT_TRUE(table().Add(Region{0x1000, 0x100, kProtRead}).ok());
  ASSERT_TRUE(table().Add(Region{0x1100, 0x100, kProtWrite}).ok());
  EXPECT_TRUE(Allows(0x10ff, 1, kGuardAccessRead));
  EXPECT_FALSE(Allows(0x10ff, 1, kGuardAccessWrite));
  EXPECT_TRUE(Allows(0x1100, 1, kGuardAccessWrite));
  EXPECT_FALSE(Allows(0x1100, 1, kGuardAccessRead));
  // A range spanning both is covered by neither alone.
  EXPECT_FALSE(Allows(0x10f0, 0x20, kGuardAccessRead));
  EXPECT_FALSE(Allows(0x10f0, 0x20, kGuardAccessWrite));
}

TEST_F(RegionTable64Test, ManyRegionsAgreeWithReferenceModel) {
  // Reference: vector of regions, first-match (insertion order).
  std::vector<Region> reference;
  Xoshiro256 rng(99);
  for (uint64_t i = 0; i < 48; ++i) {
    Region region{0x100000 + i * 0x1000,
                  0x200 + rng.NextBelow(0xe00),
                  static_cast<uint32_t>(1 + rng.NextBelow(3))};
    ASSERT_TRUE(table().Add(region).ok());
    reference.push_back(region);
  }
  for (int probe = 0; probe < 4000; ++probe) {
    const uint64_t addr = 0x100000 + rng.NextBelow(48 * 0x1000 + 0x1000);
    const uint64_t size = 1 + rng.NextBelow(16);
    const uint64_t flags = 1 + rng.NextBelow(3);
    bool expected = false;  // default-deny
    for (const Region& region : reference) {
      if (region.Contains(addr, size)) {
        expected = region.Allows(flags);
        break;
      }
    }
    EXPECT_EQ(Allows(addr, size, flags), expected)
        << "addr=0x" << std::hex << addr << " size=" << size
        << " flags=" << flags;
  }
}

TEST_F(RegionTable64Test, OverlapsResolveToTheFirstMatch) {
  ASSERT_TRUE(table().Add(Region{0x1000, 0x1000, kProtRW}).ok());
  ASSERT_TRUE(table().Add(Region{0x1800, 0x1000, kProtRead}).ok());
  EXPECT_TRUE(Allows(0x1900, 4, kGuardAccessWrite));  // first match: RW
  EXPECT_FALSE(Allows(0x2100, 4, kGuardAccessWrite));  // only the second
}

TEST_F(RegionTable64Test, CapacityIs64) {
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(table().Add(Region{i * 0x1000, 0x100, kProtRW}).ok()) << i;
  }
  const Status status = table().Add(Region{65 * 0x1000, 0x100, kProtRW});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kNoSpace);
  EXPECT_EQ(table().Size(), 64u);
}

TEST_F(RegionTable64Test, RemovePreservesFirstMatchOrder) {
  ASSERT_TRUE(table().Add(Region{0x1000, 0x1000, kProtRW}).ok());
  ASSERT_TRUE(table().Add(Region{0x1800, 0x1000, kProtRead}).ok());  // overlap
  ASSERT_TRUE(table().Add(Region{0x2000, 0x1000, kProtWrite}).ok()); // overlap
  ASSERT_TRUE(table().Remove(0x1000).ok());
  // Now the 0x1800 region is first; a probe in the overlap favors it.
  EXPECT_TRUE(Allows(0x2100, 4, kGuardAccessRead));
  EXPECT_FALSE(Allows(0x2100, 4, kGuardAccessWrite));
}

TEST_F(RegionTable64Test, LookupDepthCountsScannedEntries) {
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(table().Add(Region{i * 0x1000, 0x100, kProtRW}).ok());
  }
  engine_.SetViolationAction(ViolationAction::kLogOnly);
  trace::Log2Histogram* depth =
      trace::GlobalMetrics().GetHistogram("policy.lookup_depth");
  const double before = depth->sum();
  EXPECT_TRUE(engine_.Guard(9 * 0x1000, 4, kGuardAccessRead));  // last: 10
  EXPECT_DOUBLE_EQ(depth->sum() - before, 10.0);
  EXPECT_TRUE(engine_.Guard(0, 4, kGuardAccessRead));  // first entry: 1
  EXPECT_DOUBLE_EQ(depth->sum() - before, 11.0);
  EXPECT_FALSE(engine_.Guard(0x20000, 4, kGuardAccessRead));  // miss: all 10
  EXPECT_DOUBLE_EQ(depth->sum() - before, 21.0);
}

/// The published frame's piece index against its own regions: starts
/// sorted, unique, from 0, holding every region edge; every piece wholly
/// inside or outside each region; first[i] the naive first match for the
/// piece's start.
void ExpectIndexMatchesFrame(const PolicyEngine& engine) {
  const PieceIndex index = engine.FrameIndex();
  const std::vector<Region> regions = engine.FrameSnapshot();
  ASSERT_FALSE(index.starts.empty());
  EXPECT_EQ(index.starts.front(), 0u);
  for (size_t i = 1; i < index.starts.size(); ++i) {
    EXPECT_LT(index.starts[i - 1], index.starts[i]) << i;
  }
  ASSERT_EQ(index.first.size(), index.starts.size());
  const auto has_start = [&index](uint64_t edge) {
    return std::binary_search(index.starts.begin(), index.starts.end(), edge);
  };
  for (const Region& region : regions) {
    EXPECT_TRUE(has_start(region.base)) << region.ToString();
    EXPECT_TRUE(has_start(region.base + region.len)) << region.ToString();
  }
  for (size_t i = 0; i < index.starts.size(); ++i) {
    const uint64_t lo = index.starts[i];
    const uint64_t last = i + 1 < index.starts.size()
                              ? index.starts[i + 1] - 1
                              : ~uint64_t{0};
    size_t naive = regions.size();
    for (size_t r = 0; r < regions.size(); ++r) {
      EXPECT_EQ(regions[r].Contains(lo, 1), regions[r].Contains(last, 1))
          << "piece " << i << " straddles " << regions[r].ToString();
      if (naive == regions.size() && regions[r].Contains(lo, 1)) naive = r;
    }
    EXPECT_EQ(index.first[i], naive) << "piece " << i;
  }
}

TEST_F(RegionTable64Test, FrameIndexTracksEveryMutation) {
  {
    SCOPED_TRACE("empty");
    ExpectIndexMatchesFrame(engine_);
  }
  ASSERT_TRUE(table().Add(Region{0, 0x2000, kProtRead}).ok());
  ASSERT_TRUE(table().Add(Region{0x1000, 0x2000, kProtRW}).ok());  // overlap
  ASSERT_TRUE(table().Add(Region{0x3000, 0x1000, kProtWrite}).ok());  // adjacent
  ASSERT_TRUE(table().Add(Region{~uint64_t{0} - 0x1000, 0x1000, kProtRW}).ok());
  ASSERT_TRUE(table().Add(Region{0x800, 0x100, kProtRW}).ok());  // shadowed
  {
    SCOPED_TRACE("after Add");
    ExpectIndexMatchesFrame(engine_);
  }
  ASSERT_TRUE(table().Remove(0).ok());
  {
    SCOPED_TRACE("after Remove");
    ExpectIndexMatchesFrame(engine_);
  }
  Xoshiro256 rng(64);
  while (table().Size() < RegionTable64::kMaxRegions) {
    (void)table().Add(Region{rng.NextBelow(64) * 0x400,
                             1 + rng.NextBelow(0x4000), kProtRW});
  }
  {
    SCOPED_TRACE("64 entries");
    ExpectIndexMatchesFrame(engine_);
  }
  table().Clear();
  {
    SCOPED_TRACE("after Clear");
    ExpectIndexMatchesFrame(engine_);
    EXPECT_EQ(engine_.FrameIndex().starts, std::vector<uint64_t>{0});
  }
}

TEST_F(RegionTable64Test, GenerationMovesOnSuccessfulMutationsOnly) {
  const uint64_t g0 = table().generation();
  ASSERT_TRUE(table().Add(Region{0x1000, 0x100, kProtRW}).ok());
  EXPECT_EQ(table().generation(), g0 + 1);
  EXPECT_FALSE(table().Add(Region{0x1000, 0x100, kProtRW}).ok());
  EXPECT_FALSE(table().Remove(0x9000).ok());
  EXPECT_EQ(table().generation(), g0 + 1);
  ASSERT_TRUE(table().Remove(0x1000).ok());
  table().Clear();
  EXPECT_EQ(table().generation(), g0 + 3);
  // Config changes move the engine's clock, not the table's generation.
  engine_.SetMode(PolicyMode::kDefaultAllow);
  engine_.AllowIntrinsic(1);
  EXPECT_EQ(table().generation(), g0 + 3);
}

// ------------------------------------------------------------- engine --

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : engine_(&kernel_, std::make_unique<RegionTable64>(),
                PolicyMode::kDefaultDeny) {
    engine_.SetViolationAction(ViolationAction::kLogOnly);
  }
  kernel::Kernel kernel_;
  PolicyEngine engine_;
};

TEST_F(EngineTest, DefaultDenySemantics) {
  EXPECT_FALSE(engine_.Check(0x1000, 8, kGuardAccessRead));
  ASSERT_TRUE(engine_.store().Add(Region{0x1000, 0x100, kProtRead}).ok());
  EXPECT_TRUE(engine_.Check(0x1000, 8, kGuardAccessRead));
  EXPECT_FALSE(engine_.Check(0x1000, 8, kGuardAccessWrite));
  EXPECT_FALSE(engine_.Check(0x2000, 8, kGuardAccessRead));
}

TEST_F(EngineTest, DefaultAllowSemantics) {
  engine_.SetMode(PolicyMode::kDefaultAllow);
  EXPECT_TRUE(engine_.Check(0x9000, 8, kGuardAccessWrite));
  // A restricting region takes away write.
  ASSERT_TRUE(engine_.store().Add(Region{0x9000, 0x100, kProtRead}).ok());
  EXPECT_TRUE(engine_.Check(0x9000, 8, kGuardAccessRead));
  EXPECT_FALSE(engine_.Check(0x9000, 8, kGuardAccessWrite));
}

TEST_F(EngineTest, GuardCountsAndLogs) {
  ASSERT_TRUE(engine_.store().Add(Region{0x1000, 0x100, kProtRW}).ok());
  EXPECT_TRUE(engine_.Guard(0x1000, 8, kGuardAccessRead));
  EXPECT_FALSE(engine_.Guard(0x5000, 8, kGuardAccessWrite));
  EXPECT_EQ(engine_.stats().guard_calls, 2u);
  EXPECT_EQ(engine_.stats().allowed, 1u);
  EXPECT_EQ(engine_.stats().denied, 1u);
  EXPECT_TRUE(kernel_.log().Contains("forbidden write access"));
}

TEST_F(EngineTest, GuardChargesClockByRegionCount) {
  engine_.SetMode(PolicyMode::kDefaultAllow);
  const double before = kernel_.clock().NowCycles();
  EXPECT_TRUE(engine_.Guard(0x1, 8, kGuardAccessRead));
  const double one_guard = kernel_.clock().NowCycles() - before;
  EXPECT_NEAR(one_guard, kernel_.machine().GuardCycles(0), 1e-9);
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        engine_.store().Add(Region{i << 20, 0x1000, kProtRW}).ok());
  }
  const double before64 = kernel_.clock().NowCycles();
  EXPECT_TRUE(engine_.Guard(0x1, 8, kGuardAccessRead));
  EXPECT_NEAR(kernel_.clock().NowCycles() - before64,
              kernel_.machine().GuardCycles(64), 1e-9);
}

TEST_F(EngineTest, PanicActionThrows) {
  engine_.SetViolationAction(ViolationAction::kPanic);
  EXPECT_THROW((void)engine_.Guard(0x5000, 8, kGuardAccessRead),
               kernel::KernelPanic);
  EXPECT_TRUE(kernel_.panicked());
}

TEST_F(EngineTest, NullTableStartsEmptyAndSuppliedTableKeepsItsRegions) {
  EXPECT_EQ(engine_.store().name(), "linear-table-64");
  EXPECT_EQ(engine_.store().Size(), 0u);
  auto table = std::make_unique<RegionTable64>();
  ASSERT_TRUE(table->Add(Region{0x1000, 0x100, kProtRW}).ok());
  PolicyEngine supplied(&kernel_, std::move(table));
  EXPECT_EQ(supplied.store().Size(), 1u);
  EXPECT_TRUE(supplied.Check(0x1000, 8, kGuardAccessRead));
}

// Guard is GuardRange with no elided members: every observable effect of
// one call — verdict, counters, hot-site rows, violations, trace events,
// deopts and virtual cycles — must match, on an allowed and on a denied
// (log-only) access.
struct GuardEffects {
  bool verdict = false;
  GuardStats stats;
  std::vector<HotSite> hot;
  size_t violations = 0;
  uint64_t checks = 0;
  uint64_t denies = 0;
  uint64_t check_depth = 0;  // summed lookup depth of the guard.check records
  uint64_t deopts = 0;
  double cycles = 0.0;
};

template <typename Call>
GuardEffects ObserveOneGuard(Call call) {
  kernel::Kernel kernel;
  PolicyEngine engine(&kernel, nullptr, PolicyMode::kDefaultDeny);
  engine.SetViolationAction(ViolationAction::kLogOnly);
  EXPECT_TRUE(engine.store().Add(Region{0x1000, 0x100, kProtRead}).ok());
  trace::Tracer& tracer = trace::GlobalTracer();
  tracer.Reset();  // the ring then holds only this guard's records
  trace::Counter* deopts = trace::GlobalMetrics().GetCounter("guard.deopt");
  const trace::Log2Histogram* depth =
      trace::GlobalMetrics().GetHistogram("policy.lookup_depth");
  const uint64_t deopts_before = deopts->value();
  const uint64_t slow_before = depth->count();
  const double depth_before = depth->sum();
  const double before = kernel.clock().NowCycles();

  GuardEffects out;
  out.verdict = call(engine);
  out.cycles = kernel.clock().NowCycles() - before;
  out.stats = engine.stats();
  out.hot = engine.HotSites();
  out.violations = engine.RecentViolations().size();
  out.checks = tracer.event_count(trace::EventId::kGuardCheck);
  out.denies = tracer.event_count(trace::EventId::kGuardDeny);
  for (const trace::TraceRecord& record : tracer.ring().Snapshot()) {
    if (record.event == trace::EventId::kGuardCheck) {
      out.check_depth += record.aux;
    }
  }
  out.deopts = deopts->value() - deopts_before;
#if KOP_TRACE_ENABLED
  // Every slow-path guard (the ones policy.lookup_depth observes) writes
  // exactly one guard.check, and its depth field is the depth that guard
  // added to policy.lookup_depth.
  EXPECT_EQ(out.checks, depth->count() - slow_before);
  EXPECT_EQ(static_cast<double>(out.check_depth),
            depth->sum() - depth_before);
#else
  (void)slow_before;
  (void)depth_before;
#endif
  return out;
}

void ExpectSameEffects(const GuardEffects& a, const GuardEffects& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.stats.guard_calls, b.stats.guard_calls);
  EXPECT_EQ(a.stats.allowed, b.stats.allowed);
  EXPECT_EQ(a.stats.denied, b.stats.denied);
  EXPECT_EQ(a.stats.elided, b.stats.elided);
  ASSERT_EQ(a.hot.size(), b.hot.size());
  for (size_t i = 0; i < a.hot.size(); ++i) {
    EXPECT_EQ(a.hot[i].site, b.hot[i].site);
    EXPECT_EQ(a.hot[i].hits, b.hot[i].hits);
    EXPECT_EQ(a.hot[i].denied, b.hot[i].denied);
    EXPECT_EQ(a.hot[i].elided, b.hot[i].elided);
  }
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.denies, b.denies);
  EXPECT_EQ(a.check_depth, b.check_depth);
  EXPECT_EQ(a.deopts, b.deopts);
  EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
}

TEST(GuardEquivalenceTest, GuardAndRangeZeroAreIdentical) {
  for (uint64_t flags : {kGuardAccessRead, kGuardAccessWrite}) {
    SCOPED_TRACE(flags == kGuardAccessRead ? "allowed" : "denied");
    const GuardEffects guard = ObserveOneGuard([&](PolicyEngine& engine) {
      return engine.Guard(0x1010, 8, flags);
    });
    const GuardEffects range = ObserveOneGuard([&](PolicyEngine& engine) {
      return engine.GuardRange(0x1010, 8, flags, 0);
    });
    EXPECT_EQ(guard.verdict, flags == kGuardAccessRead);
    EXPECT_EQ(guard.stats.guard_calls, 1u);
    // One slow guard, one guard.check record: the only region matches as
    // entry 1, so the record's depth field is 1.
    EXPECT_EQ(guard.checks, KOP_TRACE_ENABLED ? 1u : 0u);
    EXPECT_EQ(guard.check_depth, KOP_TRACE_ENABLED ? 1u : 0u);
    ExpectSameEffects(guard, range);
  }
}

// The engines run a plain carat_guard inline as FastGuardRange with no
// elided members: an allowed access is decided and accounted to its
// site in place; a denial deopts and leaves verdict and accounting to
// the slow path.
TEST(GuardEquivalenceTest, InlineRangeZeroAllowsOrDeopts) {
  constexpr uint64_t kSite = 5;
  for (uint64_t flags : {kGuardAccessRead, kGuardAccessWrite}) {
    SCOPED_TRACE(flags == kGuardAccessRead ? "allowed" : "denied");
    const bool allow = flags == kGuardAccessRead;
    const GuardEffects inline_guard = ObserveOneGuard([&](PolicyEngine& e) {
      e.PinFrame();
      const bool verdict = e.FastGuardRange(0x1010, 8, flags, 0, kSite);
      e.UnpinFrame();
      return verdict;
    });
    EXPECT_EQ(inline_guard.verdict, allow);
    EXPECT_EQ(inline_guard.deopts, allow ? 0u : 1u);
    EXPECT_EQ(inline_guard.stats.guard_calls, allow ? 1u : 0u);
    EXPECT_EQ(inline_guard.stats.elided, 0u);
    EXPECT_EQ(inline_guard.violations, 0u);
  }
}

TEST_F(EngineTest, IntrinsicTableThreeStates) {
  engine_.SetIntrinsicDefaultAllow(false);
  EXPECT_FALSE(engine_.IntrinsicGuard(1));
  engine_.AllowIntrinsic(1);
  EXPECT_TRUE(engine_.IntrinsicGuard(1));
  engine_.DenyIntrinsic(1);
  EXPECT_FALSE(engine_.IntrinsicGuard(1));
  engine_.SetIntrinsicDefaultAllow(true);
  EXPECT_TRUE(engine_.IntrinsicGuard(2));  // unlisted -> default
  EXPECT_EQ(engine_.stats().intrinsic_calls, 4u);
  EXPECT_EQ(engine_.stats().intrinsic_denied, 2u);
}

TEST_F(EngineTest, ViolationRingRecordsDenials) {
  ASSERT_TRUE(engine_.store().Add(Region{0x1000, 0x100, kProtRead}).ok());
  EXPECT_TRUE(engine_.Guard(0x1000, 8, kGuardAccessRead));   // allowed
  EXPECT_FALSE(engine_.Guard(0x1000, 8, kGuardAccessWrite)); // denied
  EXPECT_FALSE(engine_.Guard(0x9000, 4, kGuardAccessRead));  // denied
  engine_.SetIntrinsicDefaultAllow(false);
  EXPECT_FALSE(engine_.IntrinsicGuard(3));                   // denied

  const auto violations = engine_.RecentViolations();
  ASSERT_EQ(violations.size(), 3u);
  EXPECT_EQ(violations[0].addr, 0x1000u);
  EXPECT_EQ(violations[0].access_flags, kGuardAccessWrite);
  EXPECT_FALSE(violations[0].intrinsic);
  EXPECT_EQ(violations[1].addr, 0x9000u);
  EXPECT_EQ(violations[1].size, 4u);
  EXPECT_TRUE(violations[2].intrinsic);
  EXPECT_EQ(violations[2].addr, 3u);  // intrinsic id in addr field

  engine_.ResetStats();
  EXPECT_TRUE(engine_.RecentViolations().empty());
}

TEST_F(EngineTest, ViolationRingKeepsMostRecent64) {
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(engine_.Guard(0x10000 + i, 1, kGuardAccessRead));
  }
  const auto violations = engine_.RecentViolations();
  ASSERT_EQ(violations.size(), 64u);
  EXPECT_EQ(violations.front().addr, 0x10000u + 36);  // oldest kept
  EXPECT_EQ(violations.back().addr, 0x10000u + 99);
}

TEST_F(EngineTest, ViolationRingWrapKeepsMonotonicSequence) {
  // Log-only audit mode (the fixture default) must still record every
  // denial; sequences are guard-call ordinals, so they stay strictly
  // increasing and contiguous even after the 64-entry ring wraps.
  for (uint64_t i = 0; i < 150; ++i) {
    EXPECT_FALSE(engine_.Guard(0x20000 + i, 1, kGuardAccessWrite));
  }
  const auto violations = engine_.RecentViolations();
  ASSERT_EQ(violations.size(), 64u);
  for (size_t i = 1; i < violations.size(); ++i) {
    EXPECT_EQ(violations[i].sequence, violations[i - 1].sequence + 1);
  }
  EXPECT_EQ(violations.back().sequence, 150u);  // nth guard call overall
  EXPECT_EQ(violations.back().addr, 0x20000u + 149);
  EXPECT_EQ(engine_.stats().denied, 150u);
}

TEST_F(EngineTest, ViolationCarriesPinnedGuardSite) {
  // When a site context is pinned (as the module loader does around
  // interpreted guard calls), the denial and the hot-site table both
  // charge that exact site.
  trace::SiteInfo info;
  info.module_name = "enginetest";
  info.function = "poke";
  const uint64_t token = trace::GlobalSites().Register(info);
  {
    trace::ScopedGuardSite scope(token);
    EXPECT_FALSE(engine_.Guard(0x5000, 8, kGuardAccessWrite));
  }
  EXPECT_FALSE(engine_.Guard(0x6000, 8, kGuardAccessWrite));  // unpinned

  const auto violations = engine_.RecentViolations();
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].site, token);
  EXPECT_EQ(violations[1].site, trace::kUnknownSite);

  uint64_t site_denials = 0;
  for (const HotSite& row : engine_.HotSites()) {
    if (row.site == token) site_denials = row.denied;
  }
  EXPECT_EQ(site_denials, 1u);
}

TEST_F(EngineTest, CfiCheckDecidesMembershipAndCountsDenials) {
  const uint64_t base = engine_.RegisterCfiSets({{0x40, 0x20, 0x30}, {0x10}});
  EXPECT_EQ(engine_.CfiSetCount(), 2u);
  EXPECT_TRUE(engine_.CfiCheck(0x20, base + 0));
  EXPECT_TRUE(engine_.CfiCheck(0x40, base + 0));
  EXPECT_FALSE(engine_.CfiCheck(0x10, base + 0));  // member of the OTHER set
  EXPECT_TRUE(engine_.CfiCheck(0x10, base + 1));
  // An out-of-range set id denies: unknown provenance never licences a jump.
  EXPECT_FALSE(engine_.CfiCheck(0x20, base + 2));
  EXPECT_EQ(engine_.stats().cfi_checks, 5u);
  EXPECT_EQ(engine_.stats().cfi_denied, 2u);
  // CFI misses land in the violation ring flagged as cfi, with the target
  // in the addr field and the set id in the size field.
  const auto violations = engine_.RecentViolations();
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_TRUE(violations[0].cfi);
  EXPECT_EQ(violations[0].addr, 0x10u);
  EXPECT_EQ(violations[0].size, base + 0);
  EXPECT_TRUE(violations[1].cfi);
}

TEST_F(EngineTest, FastCfiCheckNeedsPinAndSendsMissesToSlowPath) {
  const uint64_t base = engine_.RegisterCfiSets({{0x40, 0x20}});
  // Unpinned: the fast path refuses without deciding anything.
  EXPECT_FALSE(engine_.FastCfiCheck(0x20, base, 0));
  EXPECT_EQ(engine_.stats().cfi_checks, 0u);
  ASSERT_TRUE(engine_.PinFrame());
  EXPECT_TRUE(engine_.FastCfiCheck(0x20, base, 0));
  // A miss deopts; the slow path owns violation semantics and must reach
  // the same verdict.
  EXPECT_FALSE(engine_.FastCfiCheck(0x99, base, 0));
  EXPECT_FALSE(engine_.CfiCheck(0x99, base));
  engine_.UnpinFrame();
  EXPECT_EQ(engine_.stats().cfi_denied, 1u);
}

TEST_F(EngineTest, RegisterCfiSetsRebasesPerModule) {
  // Two "modules" register independently; ids are engine-global and the
  // returned base rebases each module's local set 0.
  const uint64_t first = engine_.RegisterCfiSets({{0x100}});
  const uint64_t second = engine_.RegisterCfiSets({{0x200}});
  EXPECT_EQ(second, first + 1);
  EXPECT_TRUE(engine_.CfiCheck(0x100, first));
  EXPECT_TRUE(engine_.CfiCheck(0x200, second));
  EXPECT_FALSE(engine_.CfiCheck(0x200, first));
}

TEST_F(EngineTest, FramesShareOneCfiTableUntilTheNextRegistration) {
  const uint64_t base = engine_.RegisterCfiSets({{0x100, 0x140}});
  const auto table = engine_.FrameCfiSets();
  const uint64_t frames = engine_.frames_published();
  // Two region changes republish the frame twice; with no registration in
  // between, both frames point at the table the registration built.
  ASSERT_TRUE(engine_.store().Add(Region{0x1000, 0x100, kProtRead}).ok());
  EXPECT_EQ(engine_.FrameCfiSets(), table);
  ASSERT_TRUE(engine_.store().Remove(0x1000).ok());
  EXPECT_EQ(engine_.FrameCfiSets(), table);
  EXPECT_EQ(engine_.frames_published(), frames + 2);
  // A registration builds a new table and leaves the old one as it was.
  engine_.RegisterCfiSets({{0x200}});
  const auto grown = engine_.FrameCfiSets();
  EXPECT_NE(grown, table);
  EXPECT_EQ(table->size(), base + 1);
  EXPECT_EQ(grown->size(), base + 2);
}

TEST_F(EngineTest, CfiVerdictsHoldAcrossRegistrations) {
  const uint64_t first = engine_.RegisterCfiSets({{0x40, 0x20}, {0x10}});
  const auto verdicts = [&] {
    return std::vector<bool>{
        engine_.CfiCheck(0x20, first),     engine_.CfiCheck(0x40, first),
        engine_.CfiCheck(0x10, first),     engine_.CfiCheck(0x10, first + 1),
        engine_.CfiCheck(0x20, first + 1), engine_.CfiCheck(0x20, first + 2)};
  };
  const std::vector<bool> before = verdicts();
  EXPECT_EQ(before,
            (std::vector<bool>{true, true, false, true, false, false}));
  // Later registrations append: every earlier set keeps its verdicts, and
  // the once out-of-range id now names the new set.
  const uint64_t second = engine_.RegisterCfiSets({{0x20}, {0x99}});
  EXPECT_EQ(second, first + 2);
  std::vector<bool> after = verdicts();
  EXPECT_TRUE(after.back());
  after.back() = false;
  EXPECT_EQ(after, before);
  EXPECT_TRUE(engine_.CfiCheck(0x99, second + 1));
  EXPECT_FALSE(engine_.CfiCheck(0x20, second + 1));
}

TEST_F(EngineTest, ConcurrentGuardsAndMutationsStaySane) {
  // Hammer the engine from reader threads while a writer churns the
  // table; counts must add up and nothing may crash or deadlock.
  engine_.SetMode(PolicyMode::kDefaultAllow);
  engine_.SetChargeCycles(false);  // the virtual clock is not the SUT here
  constexpr int kReaders = 3;
  constexpr int kGuardsPerReader = 20000;
  std::atomic<bool> stop{false};
  std::thread writer([&]() {
    uint64_t i = 0;
    while (!stop.load()) {
      const uint64_t base = 0x100000 + (i % 32) * 0x1000;
      if (engine_.store().Add(Region{base, 0x800, kProtRW}).ok()) {
        (void)engine_.store().Remove(base);
      }
      ++i;
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t]() {
      Xoshiro256 rng(uint64_t(t) + 1);
      for (int i = 0; i < kGuardsPerReader; ++i) {
        (void)engine_.Guard(0x100000 + rng.NextBelow(32 * 0x1000), 8,
                            kGuardAccessRead);
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(engine_.stats().guard_calls,
            uint64_t(kReaders) * kGuardsPerReader);
  EXPECT_EQ(engine_.stats().allowed + engine_.stats().denied,
            engine_.stats().guard_calls);
}

// ------------------------------------------------------- policy module --

class PolicyModuleTest : public ::testing::Test {
 protected:
  PolicyModuleTest() {
    auto module = PolicyModule::Insert(&kernel_);
    EXPECT_TRUE(module.ok());
    module_ = std::move(*module);
    module_->engine().SetViolationAction(ViolationAction::kLogOnly);
  }

  Status Ioctl(uint32_t cmd, std::vector<uint8_t>& arg) {
    return kernel_.devices().Ioctl(kCaratDevicePath, cmd, arg);
  }

  kernel::Kernel kernel_;
  std::unique_ptr<PolicyModule> module_;
};

TEST_F(PolicyModuleTest, ExportsGuardSymbols) {
  EXPECT_TRUE(kernel_.symbols().HasFunction("carat_guard"));
  EXPECT_TRUE(kernel_.symbols().HasFunction("carat_intrinsic_guard"));
  EXPECT_TRUE(kernel_.devices().Exists(kCaratDevicePath));
  EXPECT_TRUE(kernel_.log().Contains("policy module loaded"));
}

TEST_F(PolicyModuleTest, GuardSymbolRoutesToEngine) {
  auto arg = PackArg(CaratRegionArg{0x5000, 0x100, kProtRead, 0});
  ASSERT_TRUE(Ioctl(KOP_IOCTL_ADD_REGION, arg).ok());
  auto allowed =
      kernel_.symbols().Call("carat_guard", {0x5000, 8, kGuardAccessRead});
  ASSERT_TRUE(allowed.ok());
  EXPECT_EQ(*allowed, 1u);
  auto denied =
      kernel_.symbols().Call("carat_guard", {0x5000, 8, kGuardAccessWrite});
  ASSERT_TRUE(denied.ok());
  EXPECT_EQ(*denied, 0u);
}

TEST_F(PolicyModuleTest, SecondInsertFails) {
  auto second = PolicyModule::Insert(&kernel_);
  EXPECT_FALSE(second.ok());  // carat_guard already exported
}

TEST_F(PolicyModuleTest, RmmodUnexports) {
  module_.reset();
  EXPECT_FALSE(kernel_.symbols().HasFunction("carat_guard"));
  EXPECT_FALSE(kernel_.devices().Exists(kCaratDevicePath));
  // Reinsert works after rmmod.
  auto again = PolicyModule::Insert(&kernel_);
  EXPECT_TRUE(again.ok());
}

TEST_F(PolicyModuleTest, IoctlAddRemoveClearCount) {
  auto add = PackArg(CaratRegionArg{0x1000, 0x100, kProtRW, 0});
  ASSERT_TRUE(Ioctl(KOP_IOCTL_ADD_REGION, add).ok());
  auto add2 = PackArg(CaratRegionArg{0x2000, 0x100, kProtRW, 0});
  ASSERT_TRUE(Ioctl(KOP_IOCTL_ADD_REGION, add2).ok());

  CaratCountArg count;
  auto count_arg = PackArg(count);
  ASSERT_TRUE(Ioctl(KOP_IOCTL_COUNT_REGIONS, count_arg).ok());
  ASSERT_TRUE(UnpackArg(count_arg, &count));
  EXPECT_EQ(count.count, 2u);

  auto remove = PackArg(CaratRegionArg{0x1000, 0, 0, 0});
  ASSERT_TRUE(Ioctl(KOP_IOCTL_REMOVE_REGION, remove).ok());
  std::vector<uint8_t> empty;
  ASSERT_TRUE(Ioctl(KOP_IOCTL_CLEAR_REGIONS, empty).ok());
  count_arg = PackArg(CaratCountArg{});
  ASSERT_TRUE(Ioctl(KOP_IOCTL_COUNT_REGIONS, count_arg).ok());
  ASSERT_TRUE(UnpackArg(count_arg, &count));
  EXPECT_EQ(count.count, 0u);
}

TEST_F(PolicyModuleTest, IoctlListRegions) {
  for (uint64_t i = 0; i < 3; ++i) {
    auto add = PackArg(CaratRegionArg{0x1000 * (i + 1), 0x80, kProtRead, 0});
    ASSERT_TRUE(Ioctl(KOP_IOCTL_ADD_REGION, add).ok());
  }
  CaratListArg list;
  auto list_arg = PackArg(list);
  ASSERT_TRUE(Ioctl(KOP_IOCTL_LIST_REGIONS, list_arg).ok());
  ASSERT_TRUE(UnpackArg(list_arg, &list));
  ASSERT_EQ(list.count, 3u);
  EXPECT_EQ(list.regions[1].base, 0x2000u);
  EXPECT_EQ(list.regions[2].prot, kProtRead);
}

TEST_F(PolicyModuleTest, IoctlSetModeAndStats) {
  auto mode = PackArg(CaratModeArg{1, 0});
  ASSERT_TRUE(Ioctl(KOP_IOCTL_SET_MODE, mode).ok());
  EXPECT_EQ(module_->engine().mode(), PolicyMode::kDefaultAllow);

  (void)module_->engine().Guard(0x1234, 8, kGuardAccessRead);
  CaratStatsArg stats;
  auto stats_arg = PackArg(stats);
  ASSERT_TRUE(Ioctl(KOP_IOCTL_GET_STATS, stats_arg).ok());
  ASSERT_TRUE(UnpackArg(stats_arg, &stats));
  EXPECT_EQ(stats.guard_calls, 1u);
  EXPECT_EQ(stats.allowed, 1u);

  std::vector<uint8_t> empty;
  ASSERT_TRUE(Ioctl(KOP_IOCTL_RESET_STATS, empty).ok());
  stats_arg = PackArg(CaratStatsArg{});
  ASSERT_TRUE(Ioctl(KOP_IOCTL_GET_STATS, stats_arg).ok());
  ASSERT_TRUE(UnpackArg(stats_arg, &stats));
  EXPECT_EQ(stats.guard_calls, 0u);
}

TEST_F(PolicyModuleTest, IoctlIntrinsicControl) {
  auto allow = PackArg(CaratIntrinsicArg{4});
  ASSERT_TRUE(Ioctl(KOP_IOCTL_ALLOW_INTRINSIC, allow).ok());
  EXPECT_TRUE(module_->engine().IntrinsicGuard(4));
  auto deny = PackArg(CaratIntrinsicArg{4});
  ASSERT_TRUE(Ioctl(KOP_IOCTL_DENY_INTRINSIC, deny).ok());
  EXPECT_FALSE(module_->engine().IntrinsicGuard(4));
}

TEST_F(PolicyModuleTest, IoctlGetViolations) {
  (void)module_->engine().Guard(0x1234, 8, kGuardAccessWrite);  // denied
  (void)module_->engine().Guard(0x5678, 2, kGuardAccessRead);   // denied
  CaratViolationsArg reply;
  auto arg = PackArg(reply);
  ASSERT_TRUE(Ioctl(KOP_IOCTL_GET_VIOLATIONS, arg).ok());
  ASSERT_TRUE(UnpackArg(arg, &reply));
  ASSERT_EQ(reply.count, 2u);
  EXPECT_EQ(reply.records[0].addr, 0x1234u);
  EXPECT_EQ(reply.records[0].access_flags, kGuardAccessWrite);
  EXPECT_EQ(reply.records[1].addr, 0x5678u);
  EXPECT_EQ(reply.records[1].size, 2u);
}

TEST_F(PolicyModuleTest, IoctlRejectsBadInput) {
  std::vector<uint8_t> tiny(2);
  EXPECT_FALSE(Ioctl(KOP_IOCTL_ADD_REGION, tiny).ok());
  std::vector<uint8_t> empty;
  EXPECT_FALSE(Ioctl(0x9999, empty).ok());
}

TEST_F(PolicyModuleTest, RegionToStringReadable) {
  const Region region{0x1000, 0x200, kProtRead};
  EXPECT_EQ(region.ToString(), "[0x1000, +0x200) r-");
  const Region rw{0x0, 0x1, kProtRW};
  EXPECT_EQ(rw.ToString(), "[0x0, +0x1) rw");
}

}  // namespace
}  // namespace kop::policy
