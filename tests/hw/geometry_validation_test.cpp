// Geometry validation is reject-don't-crash: every hardware geometry
// struct names its buildability bounds in Validate(), the matching
// constructor throws std::invalid_argument on exactly the same bounds, and
// the shipped platform configurations all pass. tp_fuzz --target soa
// additionally cross-checks Validate()/constructor agreement on randomized
// geometries; these are the explicit unit-level bounds.
#include <stdexcept>

#include <gtest/gtest.h>

#include "hw/branch_predictor.hpp"
#include "hw/cache.hpp"
#include "hw/machine.hpp"
#include "hw/prefetcher.hpp"
#include "hw/tlb.hpp"

namespace tp::hw {
namespace {

TEST(CacheGeometryValidation, NamesEveryBrokenBound) {
  CacheGeometry ok{.size_bytes = 32 * 1024, .line_size = 64, .associativity = 8};
  EXPECT_EQ(ok.Validate(), "");

  CacheGeometry g = ok;
  g.line_size = 0;
  EXPECT_NE(g.Validate(), "");

  g = ok;
  g.associativity = 0;
  EXPECT_NE(g.Validate(), "");
  g.associativity = 65;  // valid/dirty masks pack one bit per way
  EXPECT_NE(g.Validate(), "");
  g.associativity = 64;
  g.size_bytes = 64 * 64;
  EXPECT_EQ(g.Validate(), "");

  g = ok;
  g.num_slices = 0;
  EXPECT_NE(g.Validate(), "");

  g = ok;
  g.size_bytes = 0;
  EXPECT_NE(g.Validate(), "");
  g.size_bytes = 32 * 1024 + 1;  // not a multiple of the line size
  EXPECT_NE(g.Validate(), "");

  g = ok;
  g.num_slices = 3;  // lines % slices != 0
  EXPECT_NE(g.Validate(), "");

  g = ok;
  g.size_bytes = 64 * 12;  // 12 lines over 8 ways: no whole set
  EXPECT_NE(g.Validate(), "");
}

TEST(CacheGeometryValidation, ConstructorAgreesWithValidate) {
  CacheGeometry bad{.size_bytes = 32 * 1024, .line_size = 0, .associativity = 8};
  EXPECT_THROW(SetAssociativeCache("t", bad, Indexing::kPhysical), std::invalid_argument);
  CacheGeometry ok{.size_bytes = 4096, .line_size = 64, .associativity = 4};
  EXPECT_NO_THROW(SetAssociativeCache("t", ok, Indexing::kVirtual));
}

TEST(TlbGeometryValidation, NamesEveryBrokenBound) {
  TlbGeometry ok{.entries = 64, .associativity = 4};
  EXPECT_EQ(ok.Validate(), "");

  TlbGeometry g = ok;
  g.associativity = 0;
  EXPECT_NE(g.Validate(), "");
  g.associativity = 65;
  EXPECT_NE(g.Validate(), "");

  g = ok;
  g.entries = 0;
  EXPECT_NE(g.Validate(), "");
  g.entries = 63;  // not a multiple of associativity
  EXPECT_NE(g.Validate(), "");
}

TEST(TlbGeometryValidation, ConstructorAgreesWithValidate) {
  EXPECT_THROW(Tlb("t", TlbGeometry{.entries = 63, .associativity = 4}), std::invalid_argument);
  EXPECT_NO_THROW(Tlb("t", TlbGeometry{.entries = 64, .associativity = 64}));
}

TEST(PrefetcherGeometryValidation, FillListCapacityIsEnforced) {
  PrefetcherGeometry ok;
  EXPECT_EQ(ok.Validate(), "");

  PrefetcherGeometry g;
  g.prefetch_degree = static_cast<int>(PrefetchFillList::kCapacity) + 1;
  EXPECT_NE(g.Validate(), "");

  g = PrefetcherGeometry{};
  g.max_stale_issues_per_miss = PrefetchFillList::kCapacity + 1;
  EXPECT_NE(g.Validate(), "");

  g = PrefetcherGeometry{};
  g.prefetch_degree = static_cast<int>(PrefetchFillList::kCapacity) - 1;
  g.max_stale_issues_per_miss = 2;  // terms fit individually, the sum doesn't
  EXPECT_NE(g.Validate(), "");

  g = PrefetcherGeometry{};
  g.prefetch_degree = -3;  // clamped, not wrapped, before the sum
  EXPECT_EQ(g.Validate(), "");
}

TEST(PrefetcherGeometryValidation, LinesPerPageOnlyMattersWithSlots) {
  PrefetcherGeometry g;
  g.lines_per_page = 0;
  EXPECT_NE(g.Validate(), "");
  g.data_slots = 0;
  g.instruction_slots = 0;  // Sabre-style: no prefetcher, bound is moot
  EXPECT_EQ(g.Validate(), "");
}

TEST(PrefetcherGeometryValidation, ConstructorAgreesWithValidate) {
  PrefetcherGeometry bad;
  bad.prefetch_degree = 100;
  EXPECT_THROW(StreamPrefetcher{bad}, std::invalid_argument);
  EXPECT_NO_THROW(StreamPrefetcher{PrefetcherGeometry{}});
}

TEST(BranchPredictorGeometryValidation, NamesEveryBrokenBound) {
  BranchPredictorGeometry ok;
  EXPECT_EQ(ok.Validate(), "");

  BranchPredictorGeometry g;
  g.btb_associativity = 0;
  EXPECT_NE(g.Validate(), "");
  g.btb_entries = 65 * 4;
  g.btb_associativity = 65;  // the BTB's valid mask packs one bit per way
  EXPECT_NE(g.Validate(), "");
  g.btb_entries = 64 * 4;
  g.btb_associativity = 64;
  EXPECT_EQ(g.Validate(), "");

  g = BranchPredictorGeometry{};
  g.btb_entries = 0;
  EXPECT_NE(g.Validate(), "");
  g.btb_entries = ok.btb_associativity * 3 + 1;  // not a multiple
  EXPECT_NE(g.Validate(), "");

  g = BranchPredictorGeometry{};
  g.pht_entries = 0;
  EXPECT_NE(g.Validate(), "");

  g = BranchPredictorGeometry{};
  g.history_bits = 64;  // the PHT mask shifts 1 << history_bits
  EXPECT_NE(g.Validate(), "");
  g.history_bits = 63;
  EXPECT_EQ(g.Validate(), "");
}

TEST(BranchPredictorGeometryValidation, ConstructorAgreesWithValidate) {
  BranchPredictorGeometry bad;
  bad.history_bits = 64;
  EXPECT_THROW(BranchPredictor{bad}, std::invalid_argument);
  bad = BranchPredictorGeometry{};
  bad.btb_entries = 65 * 4;
  bad.btb_associativity = 65;
  EXPECT_THROW(BranchPredictor{bad}, std::invalid_argument);
  EXPECT_NO_THROW(BranchPredictor{BranchPredictorGeometry{}});
}

TEST(GeometryValidation, ShippedPlatformConfigsAllPass) {
  for (const MachineConfig& mc : {MachineConfig::Haswell(4), MachineConfig::Sabre(4)}) {
    SCOPED_TRACE(mc.name);
    EXPECT_EQ(mc.l1i.Validate(), "");
    EXPECT_EQ(mc.l1d.Validate(), "");
    if (mc.has_private_l2) {
      EXPECT_EQ(mc.l2.Validate(), "");
    }
    EXPECT_EQ(mc.llc.Validate(), "");
    EXPECT_EQ(mc.itlb.Validate(), "");
    EXPECT_EQ(mc.dtlb.Validate(), "");
    EXPECT_EQ(mc.l2tlb.Validate(), "");
    EXPECT_EQ(mc.prefetcher.Validate(), "");
    EXPECT_EQ(mc.bp.Validate(), "");
  }
}

}  // namespace
}  // namespace tp::hw
