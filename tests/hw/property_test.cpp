// Cross-cutting property sweeps over the hardware model.
#include <gtest/gtest.h>

#include "hw/core.hpp"
#include "hw/machine.hpp"

namespace tp::hw {
namespace {

// The suite's canonical flat context: one-level walks out of a dedicated
// page-table region.
class IdentityContext : public FlatTranslationContext {
 public:
  explicit IdentityContext(Asid asid)
      : FlatTranslationContext(
            asid, {.user_offset = 0x400000, .pt_base = 0x8000000, .walk_levels = 1}) {}
};

// Property: on both platform presets, the memory-level costs are strictly
// ordered: L1 hit < L2/LLC hit < DRAM.
class PlatformSweep : public ::testing::TestWithParam<bool> {
 protected:
  MachineConfig Config() const {
    return GetParam() ? MachineConfig::Haswell(1) : MachineConfig::Sabre(1);
  }
};

TEST_P(PlatformSweep, MemoryLevelCostsAreOrdered) {
  Machine m(Config());
  IdentityContext ctx(1);
  m.core(0).SetUserContext(&ctx);
  m.core(0).SetKernelContext(&ctx, true);
  Core& core = m.core(0);

  Cycles dram = core.Access(0x10000, AccessKind::kRead);   // cold: DRAM
  Cycles l1 = core.Access(0x10000, AccessKind::kRead);     // hot: L1
  EXPECT_GT(dram, l1);

  // Evict from L1 by sweeping an L1-sized buffer, keeping it in L2/LLC.
  for (VAddr va = 0x100000; va < 0x100000 + 2 * Config().l1d.size_bytes;
       va += Config().l1d.line_size) {
    core.Access(va, AccessKind::kRead);
  }
  Cycles mid = core.Access(0x10000, AccessKind::kRead);  // L2 or LLC hit
  EXPECT_GT(mid, l1);
  EXPECT_LT(mid, dram);
}

TEST_P(PlatformSweep, SequentialMissesStreamCheaperThanRandom) {
  Machine m(Config());
  IdentityContext ctx(1);
  m.core(0).SetUserContext(&ctx);
  m.core(0).SetKernelContext(&ctx, true);
  Core& core = m.core(0);
  std::size_t line = Config().llc.line_size;

  Cycles t0 = core.now();
  for (int i = 0; i < 256; ++i) {
    core.Access(0x2000000 + i * line, AccessKind::kRead);  // sequential
  }
  Cycles sequential = core.now() - t0;

  t0 = core.now();
  for (int i = 0; i < 256; ++i) {
    core.Access(0x4000000 + static_cast<VAddr>(i) * 8191 * line, AccessKind::kRead);
  }
  Cycles random = core.now() - t0;
  EXPECT_LT(sequential, random) << "row-buffer locality must make streaming cheaper";
}

TEST_P(PlatformSweep, FlushCostScalesWithDirtyLines) {
  MachineConfig cfg = Config();
  if (!cfg.has_architected_l1_flush) {
    GTEST_SKIP() << "architected flush only";
  }
  Machine m(cfg);
  IdentityContext ctx(1);
  m.core(0).SetUserContext(&ctx);
  m.core(0).SetKernelContext(&ctx, true);

  std::vector<Cycles> costs;
  for (std::size_t dirty_fraction : {0u, 2u, 4u}) {
    std::size_t bytes = cfg.l1d.size_bytes * dirty_fraction / 4;
    for (VAddr va = 0; va < bytes; va += cfg.l1d.line_size) {
      m.core(0).Access(va, AccessKind::kWrite);
    }
    costs.push_back(m.core(0).ArchFlushL1D());
  }
  EXPECT_LT(costs[0], costs[1]);
  EXPECT_LT(costs[1], costs[2]) << "this monotonicity is the Fig. 5 channel";
}

TEST_P(PlatformSweep, TlbReachMatchesGeometry) {
  MachineConfig cfg = Config();
  Machine m(cfg);
  IdentityContext ctx(1);
  m.core(0).SetUserContext(&ctx);
  m.core(0).SetKernelContext(&ctx, true);
  Core& core = m.core(0);

  // Touch as many pages as the L2 TLB holds: second pass must not walk.
  std::size_t pages = cfg.l2tlb.entries / 2;  // stay clear of conflicts
  for (std::size_t p = 0; p < pages; ++p) {
    core.Access(0x1000000 + p * kPageSize, AccessKind::kRead);
  }
  std::uint64_t walks = core.counters().page_walks;
  for (std::size_t p = 0; p < pages; ++p) {
    core.Access(0x1000000 + p * kPageSize, AccessKind::kRead);
  }
  EXPECT_LE(core.counters().page_walks - walks, pages / 8)
      << "within-reach re-touch must mostly hit the TLBs";
}

INSTANTIATE_TEST_SUITE_P(Platforms, PlatformSweep, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Haswell" : "Sabre";
                         });

TEST(CorePropertes, CountersTrackAccessKinds) {
  Machine m(MachineConfig::Haswell(1));
  IdentityContext ctx(1);
  m.core(0).SetUserContext(&ctx);
  m.core(0).SetKernelContext(&ctx, true);
  m.core(0).Access(0x1000, AccessKind::kRead);
  m.core(0).Access(0x1000, AccessKind::kWrite);
  m.core(0).Access(0x1000, AccessKind::kFetch);
  m.core(0).Branch(0x1000, 0x2000, true, true);
  const PerfCounters& c = m.core(0).counters();
  EXPECT_EQ(c.reads, 1u);
  EXPECT_EQ(c.writes, 1u);
  EXPECT_EQ(c.fetches, 1u);
  EXPECT_EQ(c.branches, 1u);
}

TEST(CorePropertes, DomainTagControlsPrefetcherStaleness) {
  Machine m(MachineConfig::Haswell(1));
  IdentityContext ctx(1);
  m.core(0).SetUserContext(&ctx);
  m.core(0).SetKernelContext(&ctx, true);
  Core& core = m.core(0);
  core.SetDomainTag(1);
  for (int i = 0; i < 6; ++i) {
    core.Access(0x3000000 + i * 64, AccessKind::kRead);  // train a stream
  }
  EXPECT_GT(core.prefetcher().StaleStreams(2), 0u);
  EXPECT_EQ(core.prefetcher().StaleStreams(1), 0u);
}

TEST(CorePropertes, KernelAddressesUseKernelContext) {
  Machine m(MachineConfig::Haswell(1));
  IdentityContext user(1);
  IdentityContext kern(9);
  m.core(0).SetUserContext(&user);
  m.core(0).SetKernelContext(&kern, true);
  // Kernel-window access translates via the kernel context (direct map).
  EXPECT_NO_THROW(m.core(0).Access(KernelVaddrFor(0x5000), AccessKind::kRead));
}

}  // namespace
}  // namespace tp::hw
