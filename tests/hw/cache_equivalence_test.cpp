// Cross-check of the SoA cache/TLB/BTB fast paths (all over hw::WaySets)
// against the retained reference models in src/fuzz/reference_model.hpp
// (the pre-SoA array-of-structs implementation: global 64-bit LRU clock,
// full-way scans). The structure-of-arrays rebuild must be
// observation-for-observation identical — same hit/miss verdicts, same
// victims, same write-backs, same counters — on random access streams over
// power-of-two and non-power-of-two geometries, both indexing modes, with
// flushes and invalidations interleaved. tp_fuzz --target soa runs the
// cache/TLB diff over randomized geometries; these fixed cases stay as the
// deterministic tier-1 floor.
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/reference_model.hpp"
#include "hw/branch_predictor.hpp"
#include "hw/cache.hpp"
#include "hw/machine.hpp"
#include "hw/tlb.hpp"
#include "support/test_support.hpp"

namespace tp::hw {
namespace {

using fuzz::ReferenceBranchPredictor;
using fuzz::ReferenceCache;
using fuzz::ReferenceTlb;

struct CacheCase {
  const char* name;
  CacheGeometry geometry;
  Indexing indexing;
  std::uint64_t addr_limit;  // confine the stream so sets genuinely collide
};

std::vector<CacheCase> CacheCases() {
  return {
      {"haswell-llc-sliced", MachineConfig::Haswell().llc, Indexing::kPhysical, 1u << 24},
      {"haswell-l1d-virtual", MachineConfig::Haswell().l1d, Indexing::kVirtual, 1u << 17},
      {"sabre-llc", MachineConfig::Sabre().llc, Indexing::kPhysical, 1u << 22},
      {"nonpow2-sets",
       CacheGeometry{.size_bytes = 64 * 3 * 12, .line_size = 64, .associativity = 3},
       Indexing::kPhysical, 1u << 14},
      {"nonpow2-virtual",
       CacheGeometry{.size_bytes = 32 * 5 * 6, .line_size = 32, .associativity = 5},
       Indexing::kVirtual, 1u << 12},
      {"arm-alias-l1",
       CacheGeometry{.size_bytes = 32 * 1024, .line_size = 32, .associativity = 4},
       Indexing::kVirtual, 1u << 16},
  };
}

TEST(CacheEquivalence, RandomStreamsMatchReferenceModel) {
  for (const CacheCase& c : CacheCases()) {
    SCOPED_TRACE(c.name);
    SetAssociativeCache soa("soa", c.geometry, c.indexing);
    ReferenceCache ref(c.geometry, c.indexing);
    std::mt19937_64 rng(0xC0FFEE ^ c.addr_limit);
    std::uniform_int_distribution<std::uint64_t> addr(0, c.addr_limit - 1);
    std::uniform_int_distribution<int> op(0, 99);

    for (int i = 0; i < 20000; ++i) {
      std::uint64_t a = addr(rng);
      // Virtual indexing: give index and tag different (but correlated)
      // addresses, as the core does for VIPT lookups.
      VAddr va = a;
      PAddr pa = c.indexing == Indexing::kVirtual ? (a ^ (a >> 3)) & (c.addr_limit - 1) : a;
      int o = op(rng);
      if (o < 70) {
        bool write = (o % 3) == 0;
        AccessResult got = soa.Access(va, pa, write);
        AccessResult want = ref.Access(va, pa, write);
        ASSERT_EQ(got.hit, want.hit) << "op " << i;
        ASSERT_EQ(got.fill, want.fill) << "op " << i;
        ASSERT_EQ(got.writeback, want.writeback) << "op " << i;
        ASSERT_EQ(got.evicted_valid, want.evicted_valid) << "op " << i;
        ASSERT_EQ(got.evicted_line_addr, want.evicted_line_addr) << "op " << i;
      } else if (o < 80) {
        ASSERT_EQ(soa.Insert(va, pa, (o % 2) == 0), ref.Insert(va, pa, (o % 2) == 0))
            << "op " << i;
      } else if (o < 88) {
        ASSERT_EQ(soa.Contains(va, pa), ref.Contains(va, pa)) << "op " << i;
      } else if (o < 94) {
        ASSERT_EQ(soa.InvalidateLine(va, pa), ref.InvalidateLine(va, pa)) << "op " << i;
      } else if (o < 97) {
        ASSERT_EQ(soa.InvalidateLineByPaddr(pa), ref.InvalidateLineByPaddr(pa))
            << "op " << i;
      } else if (o < 99) {
        ASSERT_EQ(soa.DirtyLineCount(), ref.DirtyLineCount()) << "op " << i;
        ASSERT_EQ(soa.ValidLineCount(), ref.ValidLineCount()) << "op " << i;
      } else {
        if ((i & 1) != 0) {
          ASSERT_EQ(soa.FlushAll(), ref.FlushAll()) << "op " << i;
        } else {
          ASSERT_EQ(soa.InvalidateAll(), ref.InvalidateAll()) << "op " << i;
        }
      }
    }
    EXPECT_EQ(soa.DirtyLineCount(), ref.DirtyLineCount());
    EXPECT_EQ(soa.ValidLineCount(), ref.ValidLineCount());
  }
}

TEST(TlbEquivalence, RandomStreamsMatchReferenceModel) {
  const TlbGeometry geometries[] = {
      MachineConfig::Haswell().dtlb,
      MachineConfig::Haswell().l2tlb,
      TlbGeometry{.entries = 12, .associativity = 3},  // non-pow2 set count
      TlbGeometry{.entries = 8, .associativity = 8},   // fully associative
  };
  for (const TlbGeometry& g : geometries) {
    SCOPED_TRACE(g.entries);
    Tlb soa("soa", g);
    ReferenceTlb ref(g);
    std::mt19937_64 rng(0xBEEF ^ g.entries);
    std::uniform_int_distribution<std::uint64_t> vpn(0, 4 * g.entries);
    std::uniform_int_distribution<int> asid(1, 3);
    std::uniform_int_distribution<int> op(0, 99);

    for (int i = 0; i < 20000; ++i) {
      std::uint64_t v = vpn(rng);
      Asid a = static_cast<Asid>(asid(rng));
      int o = op(rng);
      if (o < 55) {
        ASSERT_EQ(soa.Lookup(v, a), ref.Lookup(v, a)) << "op " << i;
      } else if (o < 90) {
        bool global = (o % 5) == 0;
        soa.Insert(v, a, global);
        ref.Insert(v, a, global);
      } else if (o < 94) {
        soa.FlushAsid(a);
        ref.FlushAsid(a);
      } else if (o < 97) {
        soa.FlushNonGlobal();
        ref.FlushNonGlobal();
      } else if (o < 99) {
        ASSERT_EQ(soa.ValidCount(), ref.ValidCount()) << "op " << i;
      } else {
        soa.FlushAll();
        ref.FlushAll();
      }
    }
    EXPECT_EQ(soa.ValidCount(), ref.ValidCount());
  }
}

TEST(BranchPredictorEquivalence, RandomStreamsMatchReferenceModel) {
  const BranchPredictorGeometry geometries[] = {
      MachineConfig::Haswell().bp,
      MachineConfig::Sabre().bp,
      // 12 sets: a non-power-of-two set count.
      BranchPredictorGeometry{.btb_entries = 36, .btb_associativity = 3, .pht_entries = 100},
      // Fully associative.
      BranchPredictorGeometry{.btb_entries = 16, .btb_associativity = 16, .pht_entries = 64},
  };
  for (const BranchPredictorGeometry& g : geometries) {
    SCOPED_TRACE(g.btb_entries);
    BranchPredictor soa(g);
    ReferenceBranchPredictor ref(g);
    std::mt19937_64 rng(0xB7B ^ g.btb_entries);
    // pc >> 2 indexes and tags the BTB: cover 4x its reach.
    std::uniform_int_distribution<VAddr> pc(0, 16 * g.btb_entries - 1);
    std::uniform_int_distribution<int> target(0, 2);
    std::uniform_int_distribution<int> op(0, 99);

    for (int i = 0; i < 40000; ++i) {
      const int o = op(rng);
      if (o == 0) {
        soa.FlushBtb();
        ref.FlushBtb();
      } else if (o == 1) {
        soa.FlushHistory();
        ref.FlushHistory();
      } else {
        const VAddr p = pc(rng);
        const VAddr t = p + 4 * static_cast<VAddr>(target(rng));
        const bool taken = o < 60;
        const bool conditional = (o % 4) != 0;
        const BranchResult got = soa.Branch(p, t, taken, conditional);
        const BranchResult want = ref.Branch(p, t, taken, conditional);
        ASSERT_EQ(got.mispredicted, want.mispredicted) << "op " << i;
        ASSERT_EQ(got.penalty, want.penalty) << "op " << i;
      }
      if (o < 4) {
        ASSERT_EQ(soa.BtbValidCount(), ref.BtbValidCount()) << "op " << i;
      }
    }
    EXPECT_EQ(soa.BtbValidCount(), ref.BtbValidCount());
  }
}

}  // namespace
}  // namespace tp::hw
