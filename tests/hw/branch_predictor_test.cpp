#include "hw/branch_predictor.hpp"

#include <gtest/gtest.h>

namespace tp::hw {
namespace {

BranchPredictorGeometry SmallBp() {
  return BranchPredictorGeometry{.btb_entries = 64,
                                 .btb_associativity = 2,
                                 .pht_entries = 256,
                                 .history_bits = 8,
                                 .mispredict_penalty = 15};
}

TEST(BranchPredictor, RepeatedTakenBranchBecomesPredicted) {
  BranchPredictor bp(SmallBp());
  VAddr pc = 0x1000;
  // Gshare: the global history must reach its steady state (all-taken)
  // before the PHT entry for that context is trained.
  for (int i = 0; i < 20; ++i) {
    bp.Branch(pc, 0x2000, true, true);
  }
  BranchResult r = bp.Branch(pc, 0x2000, true, true);
  EXPECT_FALSE(r.mispredicted) << "trained branch must predict correctly";
  EXPECT_EQ(r.penalty, 0u);
}

TEST(BranchPredictor, DirectionFlipMispredicts) {
  BranchPredictor bp(SmallBp());
  VAddr pc = 0x1000;
  for (int i = 0; i < 20; ++i) {
    bp.Branch(pc, 0x2000, true, true);
  }
  BranchResult r = bp.Branch(pc, 0x2000, false, true);
  EXPECT_TRUE(r.mispredicted);
  EXPECT_EQ(r.penalty, 15u);
}

TEST(BranchPredictor, BtbEvictionByAliasingBranches) {
  // The BTB covert channel: branches at aliasing PCs (same set, different
  // tag) evict the victim's target entries.
  BranchPredictor bp(SmallBp());
  std::size_t sets = 64 / 2;
  VAddr pc = 0x1000;
  for (int i = 0; i < 4; ++i) {
    bp.Branch(pc, 0x2000, true, false);
  }
  // Two aliasing branches fill both ways of the set.
  bp.Branch(pc + sets * 4, 0x3000, true, false);
  bp.Branch(pc + 2 * sets * 4, 0x4000, true, false);
  bp.Branch(pc + sets * 4, 0x3000, true, false);
  bp.Branch(pc + 2 * sets * 4, 0x4000, true, false);
  BranchResult r = bp.Branch(pc, 0x2000, true, false);
  EXPECT_TRUE(r.mispredicted) << "victim's BTB entry must have been evicted";
}

TEST(BranchPredictor, FlushBtbForgetsTargets) {
  BranchPredictor bp(SmallBp());
  VAddr pc = 0x1000;
  bp.Branch(pc, 0x2000, true, false);
  EXPECT_GT(bp.BtbValidCount(), 0u);
  bp.FlushBtb();
  EXPECT_EQ(bp.BtbValidCount(), 0u);
  BranchResult r = bp.Branch(pc, 0x2000, true, false);
  EXPECT_TRUE(r.mispredicted);
}

TEST(BranchPredictor, FlushHistoryResetsPht) {
  BranchPredictor bp(SmallBp());
  VAddr pc = 0x1000;
  for (int i = 0; i < 8; ++i) {
    bp.Branch(pc, 0x2000, true, true);
  }
  bp.FlushAll();
  BranchResult r = bp.Branch(pc, 0x2000, true, true);
  EXPECT_TRUE(r.mispredicted) << "IBC-style barrier must clear trained state";
}

TEST(BranchPredictor, DisabledAlwaysPaysPenalty) {
  BranchPredictor bp(SmallBp());
  bp.set_enabled(false);
  VAddr pc = 0x1000;
  for (int i = 0; i < 4; ++i) {
    BranchResult r = bp.Branch(pc, 0x2000, true, true);
    EXPECT_TRUE(r.mispredicted);
  }
}

}  // namespace
}  // namespace tp::hw
