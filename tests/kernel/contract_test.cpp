// The time-protection contract checker: with taint tracking on, every
// domain switch must leave no foreign-tainted state the incoming domain can
// observe. These tests drive a two-domain time-shared system and assert the
// checker (a) stays quiet when the active flush/partition mode honours the
// contract, and (b) reports the exact violating structure and access when a
// mechanism is deliberately removed — the "bug report" the MI estimate
// cannot give.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <vector>

#include "core/domain.hpp"
#include "core/time_protection.hpp"
#include "faults/fault.hpp"
#include "hw/machine.hpp"
#include "hw/taint.hpp"
#include "kernel/contract.hpp"
#include "kernel/kernel.hpp"
#include "support/test_support.hpp"

namespace tp {
namespace {

// Touches data, instruction and branch-predictor state every step so each
// structure the checker walks carries this domain's taint.
class TouchEverything final : public kernel::UserProgram {
 public:
  explicit TouchEverything(std::vector<hw::VAddr> vas) : vas_(std::move(vas)) {}
  void Step(kernel::UserApi& api) override {
    for (std::size_t i = 0; i < vas_.size(); ++i) {
      api.Read(vas_[i]);
      api.Fetch(vas_[i]);
      api.Branch(vas_[i], vas_[(i + 1) % vas_.size()], (i & 1) != 0);
    }
    api.Write(vas_.front());
    api.Compute(100);
  }

 private:
  std::vector<hw::VAddr> vas_;
};

// Two domains time-sharing core 0 under `scenario` (with `mutate` applied
// to the kernel config last), run for ~20 timeslices; returns the contract
// tally the checker accumulated across the switches.
hw::ContractTally RunTimeShared(
    const hw::MachineConfig& mc, core::Scenario scenario,
    const std::function<void(kernel::KernelConfig&)>& mutate = nullptr,
    bool overlap_colours = false) {
  hw::ContractCapture capture;
  hw::Machine machine(mc);
  kernel::KernelConfig kc = core::MakeKernelConfig(scenario, machine, /*timeslice_ms=*/0.2);
  kc.pad_switches = false;  // padding is timing, not residual state
  if (mutate) {
    mutate(kc);
  }
  kernel::Kernel kernel(machine, kc);
  core::DomainManager manager(kernel);
  std::vector<std::set<std::size_t>> colours(2);
  if (kc.clone_support) {
    colours = core::SplitColours(mc, 2, 1.0);
    if (overlap_colours) {
      colours[1] = colours[0];  // the misallocation the checker must catch
    }
  }
  core::Domain& d1 = manager.CreateDomain({.id = 1, .colours = colours[0]});
  core::Domain& d2 = manager.CreateDomain({.id = 2, .colours = colours[1]});
  auto vas = [](const core::MappedBuffer& b) {
    std::vector<hw::VAddr> v;
    for (const auto& [va, pa] : b.pages) {
      v.push_back(va);
    }
    return v;
  };
  TouchEverything p1(vas(manager.AllocBuffer(d1, 8 * hw::kPageSize)));
  TouchEverything p2(vas(manager.AllocBuffer(d2, 8 * hw::kPageSize)));
  manager.StartThread(d1, &p1, 100, 0);
  manager.StartThread(d2, &p2, 100, 0);
  kernel.SetDomainSchedule(0, {1, 2});
  kernel.KickSchedule(0);
  kernel.RunFor(20 * kc.timeslice_cycles);
  return capture.Take();
}

std::string FirstOf(const hw::ContractTally& t) {
  return t.has_first ? hw::ToString(t.first) : "(no violation recorded)";
}

// Taint tracking is a process-global construct-time switch; scope it to
// each test so taint-off construction stays testable in the same binary.
class ContractTest : public ::testing::Test {
 protected:
  ContractTest() { hw::SetTaintTrackingEnabled(true); }
  ~ContractTest() override { hw::SetTaintTrackingEnabled(false); }
};

TEST_F(ContractTest, KernelBuildsACheckerOnlyInTaintMode) {
  hw::Machine m1(hw::MachineConfig::Sabre(1));
  kernel::Kernel k1(m1, test::TestKernelConfig());
  EXPECT_NE(k1.contract_checker(), nullptr);
  hw::SetTaintTrackingEnabled(false);
  hw::Machine m2(hw::MachineConfig::Sabre(1));
  kernel::Kernel k2(m2, test::TestKernelConfig());
  EXPECT_EQ(k2.contract_checker(), nullptr);
}

TEST_F(ContractTest, RawSwitchesLeaveResidualStateBehind) {
  hw::ContractTally t = RunTimeShared(hw::MachineConfig::Haswell(1), core::Scenario::kRaw);
  EXPECT_GT(t.switches, 4u);
  EXPECT_FALSE(t.clean());
  EXPECT_GT(t.violations, 0u);
  ASSERT_TRUE(t.has_first);
  EXPECT_FALSE(t.first.structure.empty());
  EXPECT_FALSE(t.first.where.empty());
  EXPECT_NE(t.first.residual_owner, 0);
  EXPECT_NE(t.first.residual_owner, t.first.incoming);
}

TEST_F(ContractTest, OnCoreProtectionIsCleanWithoutAPrivateL2) {
  // Arm (Sabre): L1/TLB/BP flush plus LLC colouring scrub or partition
  // everything the incoming domain can observe (§5.3.3).
  hw::ContractTally t = RunTimeShared(hw::MachineConfig::Sabre(1), core::Scenario::kProtected);
  EXPECT_GT(t.switches, 4u);
  EXPECT_TRUE(t.clean()) << FirstOf(t);
}

TEST_F(ContractTest, X86PrivateL2SurvivesTheFlushAndReliesOnColouring) {
  // The on-core flush has no selective private-L2 scrub on x86 (§5.3.1), so
  // the L2 is protected only by colouring it (§5.4.4). Partitioned colours
  // satisfy the contract; hand both domains the same colours and the
  // checker must name exactly the L2 — the structure the flush cannot
  // reach — not merely fail the cell.
  hw::ContractTally clean =
      RunTimeShared(hw::MachineConfig::Haswell(1), core::Scenario::kProtected);
  EXPECT_GT(clean.switches, 4u);
  EXPECT_TRUE(clean.clean()) << FirstOf(clean);

  hw::ContractTally t = RunTimeShared(hw::MachineConfig::Haswell(1),
                                      core::Scenario::kProtected, nullptr,
                                      /*overlap_colours=*/true);
  EXPECT_FALSE(t.clean());
  ASSERT_TRUE(t.has_first);
  EXPECT_EQ(t.first.structure, "L2") << FirstOf(t);
}

TEST_F(ContractTest, FullFlushSatisfiesTheContractOnX86) {
  // The maximal architected reset scrubs the whole hierarchy; only the
  // unfixable prefetcher streams remain, and those are whitelisted residue
  // (§5.3.2), never violations.
  hw::ContractTally t = RunTimeShared(
      hw::MachineConfig::Haswell(1), core::Scenario::kProtected,
      [](kernel::KernelConfig& kc) { kc.flush_mode = kernel::FlushMode::kFull; });
  EXPECT_GT(t.switches, 4u);
  EXPECT_TRUE(t.clean()) << FirstOf(t);
}

TEST_F(ContractTest, SkippedL1IFlushIsReportedExactly) {
  // The flush.l1i fault drops the L1-I part of the on-core flush (ICIALLU
  // on Arm) from a seeded early switch onward.
  faults::InstallFaultPlan({.site = "flush.l1i"});
  hw::ContractTally t = RunTimeShared(hw::MachineConfig::Sabre(1), core::Scenario::kProtected);
  faults::ClearFaultPlan();
  EXPECT_FALSE(t.clean());
  ASSERT_TRUE(t.has_first);
  EXPECT_EQ(t.first.structure, "L1-I") << FirstOf(t);
  EXPECT_FALSE(t.first.where.empty());
}

TEST_F(ContractTest, MissingBpFlushIsReportedExactly) {
  // The pre-IBC x86 situation (§6.1) modelled on Arm so nothing else is
  // dirty: without a BP flush the predictor keeps the old domain's state.
  hw::ContractTally t = RunTimeShared(
      hw::MachineConfig::Sabre(1), core::Scenario::kProtected,
      [](kernel::KernelConfig& kc) { kc.has_bp_flush = false; });
  EXPECT_FALSE(t.clean());
  ASSERT_TRUE(t.has_first);
  EXPECT_TRUE(t.first.structure == "BTB" || t.first.structure == "PHT" ||
              t.first.structure == "GHR")
      << FirstOf(t);
}

TEST_F(ContractTest, PrefetcherWhitelistDoesNotMaskAnInjectedResetFault) {
  // §5.3.2 whitelists stream-prefetcher residue as known-unfixable — but
  // only while the residue is genuinely unfixable. Under the full-flush
  // configuration the data prefetcher is supposed to be off; when the
  // prefetch.reset fault leaves it enabled, the surviving data streams must
  // be flagged as violations, not absorbed into the whitelist.
  faults::InstallFaultPlan({.site = "prefetch.reset"});
  hw::ContractTally t = RunTimeShared(
      hw::MachineConfig::Haswell(1), core::Scenario::kProtected,
      [](kernel::KernelConfig& kc) { kc.flush_mode = kernel::FlushMode::kFull; });
  faults::ClearFaultPlan();
  EXPECT_GT(t.switches, 4u);
  EXPECT_FALSE(t.clean());
  ASSERT_TRUE(t.has_first);
  EXPECT_EQ(t.first.structure, "prefetcher") << FirstOf(t);
  EXPECT_NE(t.first.where.find("data"), std::string::npos) << FirstOf(t);
}

TEST_F(ContractTest, OverlappingColourAllocationIsCaught) {
  // Two "partitioned" domains secretly sharing every LLC colour: the
  // on-core flush leaves the LLC to colouring, so the overlap is residual
  // state the incoming domain can reach.
  hw::ContractTally t = RunTimeShared(hw::MachineConfig::Sabre(1), core::Scenario::kProtected,
                                      nullptr, /*overlap_colours=*/true);
  EXPECT_FALSE(t.clean());
  ASSERT_TRUE(t.has_first);
  EXPECT_EQ(t.first.structure, "LLC") << FirstOf(t);
}

}  // namespace
}  // namespace tp
