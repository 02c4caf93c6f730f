#include <gtest/gtest.h>

#include <map>

#include "hw/core.hpp"
#include "hw/machine.hpp"

namespace tp::hw {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  CoreTest()
      : machine_(MachineConfig::Haswell(2)),
        ctx_(1),
        kctx_(99, {.pt_base = 0x7100000}) {
    machine_.core(0).SetUserContext(&ctx_);
    machine_.core(0).SetKernelContext(&kctx_, true);
  }
  Machine machine_;
  FlatTranslationContext ctx_;
  FlatTranslationContext kctx_;
};

TEST_F(CoreTest, ColdAccessCostsMoreThanWarm) {
  Core& core = machine_.core(0);
  Cycles cold = core.Access(0x1000, AccessKind::kRead);
  Cycles warm = core.Access(0x1000, AccessKind::kRead);
  EXPECT_GT(cold, warm);
  EXPECT_EQ(warm, machine_.config().lat.base_op + machine_.config().lat.l1_hit);
}

TEST_F(CoreTest, CycleCounterAdvances) {
  Core& core = machine_.core(0);
  Cycles t0 = core.now();
  core.Access(0x2000, AccessKind::kRead);
  EXPECT_GT(core.now(), t0);
}

TEST_F(CoreTest, TlbMissTriggersPageWalkThroughCaches) {
  Core& core = machine_.core(0);
  core.Access(0x5000, AccessKind::kRead);
  std::uint64_t walks = core.counters().page_walks;
  EXPECT_GE(walks, 1u);
  // Second access to the same page: no further walk.
  core.Access(0x5008, AccessKind::kRead);
  EXPECT_EQ(core.counters().page_walks, walks);
  // After a TLB flush the walk repeats.
  core.FlushTlbAll();
  core.Access(0x5010, AccessKind::kRead);
  EXPECT_EQ(core.counters().page_walks, walks + 1);
}

// The PMU TLB-miss event counts first-level (D-TLB) misses; only an L2 TLB
// miss walks.
TEST_F(CoreTest, TlbMissCountsFirstLevelMissesAndL2TlbMissesWalk) {
  Core& core = machine_.core(0);
  const TlbGeometry& dtlb = machine_.config().dtlb;
  const VAddr page = 0x10 * kPageSize;
  core.Access(page, AccessKind::kRead);
  // As many pages as the D-TLB set has ways, all in `page`'s D-TLB set but
  // in other L2 TLB sets: `page` leaves the D-TLB and stays in the L2 TLB.
  for (std::size_t k = 1; k <= dtlb.associativity; ++k) {
    core.Access(page + k * dtlb.Sets() * kPageSize, AccessKind::kRead);
  }
  PerfCounters before = core.counters();
  core.Access(page, AccessKind::kRead);
  EXPECT_EQ(core.counters().tlb_misses, before.tlb_misses + 1);
  EXPECT_EQ(core.counters().page_walks, before.page_walks);

  before = core.counters();
  core.Access(0x400 * kPageSize, AccessKind::kRead);  // cold page
  EXPECT_EQ(core.counters().tlb_misses, before.tlb_misses + 1);
  EXPECT_EQ(core.counters().page_walks, before.page_walks + 1);
}

TEST_F(CoreTest, WritesDirtyL1AndFlushIsMoreExpensiveOnArm) {
  Machine arm(MachineConfig::Sabre(1));
  FlatTranslationContext ctx(1);
  InstallFlatContext(arm.core(0), ctx);
  Core& core = arm.core(0);

  Cycles clean_flush = core.ArchFlushL1D();
  for (VAddr va = 0; va < 32 * 1024; va += 32) {
    core.Access(va, AccessKind::kWrite);
  }
  Cycles dirty_flush = core.ArchFlushL1D();
  EXPECT_GT(dirty_flush, clean_flush)
      << "flush latency must depend on dirty lines (the Fig. 5 channel)";
}

TEST_F(CoreTest, X86HasNoArchitectedL1Flush) {
  EXPECT_THROW(machine_.core(0).ArchFlushL1D(), std::logic_error);
}

TEST_F(CoreTest, FullFlushEmptiesHierarchy) {
  Core& core = machine_.core(0);
  for (VAddr va = 0; va < 64 * 1024; va += 64) {
    core.Access(va, AccessKind::kWrite);
  }
  EXPECT_GT(core.l1d().ValidLineCount(), 0u);
  core.FullCacheFlush();
  EXPECT_EQ(core.l1d().ValidLineCount(), 0u);
  EXPECT_EQ(core.l2()->ValidLineCount(), 0u);
  EXPECT_EQ(machine_.llc().ValidLineCount(), 0u);
}

TEST_F(CoreTest, LlcMissCountsInPerfCounters) {
  Core& core = machine_.core(0);
  std::uint64_t misses0 = core.counters().llc_misses;
  core.Access(0x900000, AccessKind::kRead);
  EXPECT_GT(core.counters().llc_misses, misses0);
}

TEST_F(CoreTest, InclusiveLlcBackInvalidatesOtherCores) {
  // Core 1 caches a line; evicting it from the LLC must drop it from core
  // 1's private caches (the mechanism that makes cross-core prime&probe
  // observe the victim, Fig. 4).
  FlatTranslationContext ctx1(2);
  machine_.core(1).SetUserContext(&ctx1);
  machine_.core(1).SetKernelContext(&kctx_, true);

  machine_.core(1).Access(0x4000, AccessKind::kRead);
  Cycles warm = machine_.core(1).Access(0x4000, AccessKind::kRead);

  // Evict that line from the LLC directly.
  auto tr = ctx1.Translate(0x4000);
  machine_.llc().InvalidateLine(0x4000, tr->paddr);
  machine_.BackInvalidateLine(tr->paddr);

  Cycles after = machine_.core(1).Access(0x4000, AccessKind::kRead);
  EXPECT_GT(after, warm) << "back-invalidation must force a refill";
}

TEST_F(CoreTest, DeviceTimerRaisesIrq) {
  machine_.device_timer(0).SetDeadline(100);
  machine_.PollDeviceTimers(50);
  EXPECT_FALSE(machine_.irq_controller().IsRaised(machine_.device_timer(0).irq_line()));
  machine_.PollDeviceTimers(150);
  EXPECT_TRUE(machine_.irq_controller().IsRaised(1));
}

TEST_F(CoreTest, FaultWithoutContextThrows) {
  Machine m(MachineConfig::Haswell(1));
  EXPECT_THROW(m.core(0).Access(0x1000, AccessKind::kRead), std::runtime_error);
}

// A context whose mappings change after construction, bumping its
// generation on every change — the contract the core's host-side
// translation memo is keyed on.
class MutableTranslationContext : public TranslationContext {
 public:
  explicit MutableTranslationContext(Asid asid) : asid_(asid) {}
  std::optional<Translation> Translate(VAddr vaddr) const override {
    auto it = pages_.find(PageNumber(vaddr));
    if (it == pages_.end()) {
      return std::nullopt;
    }
    return Translation{it->second, false};
  }
  const std::uint64_t* generation() const override { return &gen_; }
  void WalkPath(VAddr vaddr, std::vector<PAddr>& out) const override {
    out.push_back(0x7000000 + (PageNumber(vaddr) % 512) * 8);
  }
  Asid asid() const override { return asid_; }
  void Map(VAddr va, PAddr pa) {
    pages_[PageNumber(va)] = pa;
    ++gen_;
  }
  void Unmap(VAddr va) {
    pages_.erase(PageNumber(va));
    ++gen_;
  }

 private:
  Asid asid_;
  std::map<std::uint64_t, PAddr> pages_;
  std::uint64_t gen_ = 1;
};

TEST(TranslationMemoTest, RemapAndUnmapAreVisibleImmediately) {
  Machine m(MachineConfig::Haswell(1));
  Core& core = m.core(0);
  MutableTranslationContext ctx(1);
  FlatTranslationContext kctx(99, {.pt_base = 0x7100000});
  core.SetUserContext(&ctx);
  core.SetKernelContext(&kctx, true);

  ctx.Map(0x5000, 0x40000);
  core.Access(0x5000, AccessKind::kRead);
  Cycles warm = core.Access(0x5000, AccessKind::kRead);
  EXPECT_EQ(warm, m.config().lat.base_op + m.config().lat.l1_hit);

  // Remap to a different frame: the next access must fetch the new frame
  // (cold), even though the TLB entry for the page is still warm. A stale
  // memo would hit the old frame's L1 line.
  ctx.Map(0x5000, 0x99000);
  Cycles after_remap = core.Access(0x5000, AccessKind::kRead);
  EXPECT_GT(after_remap, warm);

  // Unmap: the next access must fault, not translate through the memo.
  ctx.Unmap(0x5000);
  EXPECT_THROW(core.Access(0x5000, AccessKind::kRead), std::runtime_error);
}

TEST(TranslationMemoTest, StaleMemoIsDetectedAndClearedOnContextSwitch) {
  Machine m(MachineConfig::Haswell(1));
  Core& core = m.core(0);
  MutableTranslationContext ctx1(1);
  FlatTranslationContext kctx(99, {.pt_base = 0x7100000});
  core.SetUserContext(&ctx1);
  core.SetKernelContext(&kctx, true);

  EXPECT_EQ(core.StaleTranslationMemo(), -1) << "no memo yet";
  ctx1.Map(0x5000, 0x40000);
  core.Access(0x5000, AccessKind::kRead);
  EXPECT_EQ(core.StaleTranslationMemo(), -1) << "memo fresh after the access";

  // Any map/unmap bumps the generation, leaving the memo stale until the
  // next translation refreshes it.
  ctx1.Map(0x6000, 0x41000);
  EXPECT_EQ(core.StaleTranslationMemo(), 0) << "user half must read as stale";
  core.Access(0x5000, AccessKind::kRead);
  EXPECT_EQ(core.StaleTranslationMemo(), -1);

  // A context switch (domain switch) clears the memo outright; the next
  // access must use the new context's frame, not the old one's.
  MutableTranslationContext ctx2(2);
  ctx2.Map(0x5000, 0x80000);
  core.SetUserContext(&ctx2);
  EXPECT_EQ(core.StaleTranslationMemo(), -1);
  Cycles fresh = core.Access(0x5000, AccessKind::kRead);
  EXPECT_GT(fresh, m.config().lat.base_op + m.config().lat.l1_hit)
      << "reusing the old domain's translation would hit its warm line";
}

TEST(MachineTest, CycleConversionRoundTrips) {
  Machine m(MachineConfig::Haswell(1));
  EXPECT_NEAR(m.CyclesToMicros(m.MicrosToCycles(58.8)), 58.8, 0.01);
  Machine arm(MachineConfig::Sabre(1));
  EXPECT_NEAR(arm.CyclesToMicros(800'000), 1000.0, 0.01) << "0.8 GHz: 800k cycles = 1 ms";
}

}  // namespace
}  // namespace tp::hw
