#include "fuzz/oracles.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/colour.hpp"
#include "core/domain.hpp"
#include "core/time_protection.hpp"
#include "fuzz/reference_model.hpp"
#include "fuzz/rng.hpp"
#include "hw/machine.hpp"
#include "hw/taint.hpp"
#include "kernel/kernel.hpp"
#include "mi/leakage_test.hpp"
#include "mi/observations.hpp"
#include "runner/runner.hpp"
#include "runner/sweep.hpp"
#include "trajectory/json.hpp"
#include "trajectory/trajectory.hpp"

namespace tp::fuzz {

namespace {

// Missing params read as 0 — the first (minimal) table entry — so the
// shrinker may truncate the params vector without producing invalid cases.
std::uint64_t Pick(const FuzzCase& c, std::size_t i, std::uint64_t n) {
  return i < c.params.size() ? c.params[i] % n : 0;
}

std::uint64_t Raw(const FuzzCase& c, std::size_t i, std::uint64_t fallback) {
  return i < c.params.size() ? c.params[i] : fallback;
}

std::string U(std::uint64_t v) { return std::to_string(v); }

// Taint tracking is a process-global construct-time latch; each target pins
// it (off for the behavioural A/B targets, on for the taint target) so a
// case replays identically under any ambient TP_TAINT.
class ScopedTaint {
 public:
  explicit ScopedTaint(bool on) : saved_(hw::TaintTrackingEnabled()) {
    hw::SetTaintTrackingEnabled(on);
  }
  ~ScopedTaint() { hw::SetTaintTrackingEnabled(saved_); }
  ScopedTaint(const ScopedTaint&) = delete;
  ScopedTaint& operator=(const ScopedTaint&) = delete;

 private:
  bool saved_;
};

// Sets an environment variable for a scope, restoring the previous value
// (or absence) on exit. Used to build the TP_NO_REPLAY comparison machine.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) {
      old_ = old;
    }
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

bool BitEq(double a, double b) {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

// ---------------------------------------------------------------------------
// soa: SoA cache/TLB vs the AoS reference models
// ---------------------------------------------------------------------------

OracleResult RunSoa(const FuzzCase& c) {
  ScopedTaint taint_off(false);

  hw::CacheGeometry geom;
  geom.size_bytes = static_cast<std::size_t>(Raw(c, 0, 4096));
  geom.line_size = static_cast<std::size_t>(Raw(c, 1, 64));
  geom.associativity = static_cast<std::size_t>(Raw(c, 2, 2));
  geom.num_slices = static_cast<std::size_t>(Raw(c, 3, 1));
  const hw::Indexing indexing =
      (Raw(c, 4, 0) & 1) != 0 ? hw::Indexing::kVirtual : hw::Indexing::kPhysical;
  std::uint64_t addr_bits = Raw(c, 5, 16);
  addr_bits = addr_bits < 10 ? 10 : addr_bits > 40 ? 40 : addr_bits;
  const std::uint64_t limit = std::uint64_t{1} << addr_bits;
  hw::TlbGeometry tlb_geom;
  tlb_geom.entries = static_cast<std::size_t>(Raw(c, 6, 16));
  tlb_geom.associativity = static_cast<std::size_t>(Raw(c, 7, 4));

  // Validation oracle: Validate() and the constructor must agree, and an
  // invalid geometry must be rejected with invalid_argument, never crash.
  const std::string cache_why = geom.Validate();
  std::unique_ptr<hw::SetAssociativeCache> soa;
  try {
    soa = std::make_unique<hw::SetAssociativeCache>("fuzz", geom, indexing);
  } catch (const std::invalid_argument&) {
  }
  if (cache_why.empty() != (soa != nullptr)) {
    return OracleResult::Violation(
        soa != nullptr
            ? "cache constructor accepted a geometry Validate() rejects: " + cache_why
            : "cache constructor rejected a geometry Validate() accepts");
  }
  const std::string tlb_why = tlb_geom.Validate();
  std::unique_ptr<hw::Tlb> tlb;
  try {
    tlb = std::make_unique<hw::Tlb>("fuzz-tlb", tlb_geom);
  } catch (const std::invalid_argument&) {
  }
  if (tlb_why.empty() != (tlb != nullptr)) {
    return OracleResult::Violation(
        tlb != nullptr
            ? "tlb constructor accepted a geometry Validate() rejects: " + tlb_why
            : "tlb constructor rejected a geometry Validate() accepts");
  }
  if (soa == nullptr || tlb == nullptr) {
    return OracleResult::Skipped();  // rejection agreement verified; nothing to diff
  }

  ReferenceCache ref(geom, indexing);
  ReferenceTlb ref_tlb(tlb_geom);
  const std::uint64_t vpn_span = 4 * tlb_geom.entries + 1;

  for (std::size_t i = 0; i < c.ops.size(); ++i) {
    const std::uint64_t op = c.ops[i];
    const std::uint64_t sel = op & 0xFF;
    const std::uint64_t val = op >> 8;
    auto at = [&](const char* what) {
      return "soa op " + U(i) + ": " + what;
    };
    if ((sel & 1) == 0) {
      const std::uint64_t o = (sel >> 1) % 100;
      const hw::VAddr a = val & (limit - 1);
      const hw::PAddr pa =
          indexing == hw::Indexing::kVirtual ? ((a ^ (a >> 3)) & (limit - 1)) : a;
      if (o < 70) {
        const bool write = (o % 3) == 0;
        const hw::AccessResult s = soa->Access(a, pa, write);
        const hw::AccessResult r = ref.Access(a, pa, write);
        if (s.hit != r.hit) {
          return OracleResult::Violation(at("Access hit mismatch"));
        }
        if (s.fill != r.fill) {
          return OracleResult::Violation(at("Access fill mismatch"));
        }
        if (s.writeback != r.writeback) {
          return OracleResult::Violation(at("Access writeback mismatch"));
        }
        if (s.evicted_valid != r.evicted_valid) {
          return OracleResult::Violation(at("Access evicted_valid mismatch"));
        }
        if (s.evicted_valid && s.evicted_line_addr != r.evicted_line_addr) {
          return OracleResult::Violation(at("Access victim line mismatch"));
        }
      } else if (o < 80) {
        const bool dirty = (o % 2) == 0;
        if (soa->Insert(a, pa, dirty) != ref.Insert(a, pa, dirty)) {
          return OracleResult::Violation(at("Insert evicted-dirty mismatch"));
        }
      } else if (o < 88) {
        if (soa->Contains(a, pa) != ref.Contains(a, pa)) {
          return OracleResult::Violation(at("Contains mismatch"));
        }
      } else if (o < 94) {
        if (soa->InvalidateLine(a, pa) != ref.InvalidateLine(a, pa)) {
          return OracleResult::Violation(at("InvalidateLine mismatch"));
        }
      } else if (o < 97) {
        if (soa->InvalidateLineByPaddr(pa) != ref.InvalidateLineByPaddr(pa)) {
          return OracleResult::Violation(at("InvalidateLineByPaddr mismatch"));
        }
      } else if (o < 99) {
        if (soa->DirtyLineCount() != ref.DirtyLineCount()) {
          return OracleResult::Violation(at("DirtyLineCount mismatch"));
        }
        if (soa->ValidLineCount() != ref.ValidLineCount()) {
          return OracleResult::Violation(at("ValidLineCount mismatch"));
        }
      } else if ((val & 1) == 0) {
        if (soa->FlushAll() != ref.FlushAll()) {
          return OracleResult::Violation(at("FlushAll dirty count mismatch"));
        }
      } else {
        if (soa->InvalidateAll() != ref.InvalidateAll()) {
          return OracleResult::Violation(at("InvalidateAll valid count mismatch"));
        }
      }
    } else {
      const std::uint64_t o = (sel >> 1) % 100;
      const std::uint64_t vpn = val % vpn_span;
      const hw::Asid asid = static_cast<hw::Asid>(1 + (val >> 20) % 3);
      if (o < 55) {
        if (tlb->Lookup(vpn, asid) != ref_tlb.Lookup(vpn, asid)) {
          return OracleResult::Violation(at("Tlb Lookup mismatch"));
        }
      } else if (o < 90) {
        const bool global = (o % 5) == 0;
        tlb->Insert(vpn, asid, global);
        ref_tlb.Insert(vpn, asid, global);
      } else if (o < 94) {
        tlb->FlushAsid(asid);
        ref_tlb.FlushAsid(asid);
      } else if (o < 97) {
        tlb->FlushNonGlobal();
        ref_tlb.FlushNonGlobal();
      } else if (o < 99) {
        if (tlb->ValidCount() != ref_tlb.ValidCount()) {
          return OracleResult::Violation(at("Tlb ValidCount mismatch"));
        }
      } else {
        tlb->FlushAll();
        ref_tlb.FlushAll();
      }
    }
  }

  if (soa->ValidLineCount() != ref.ValidLineCount() ||
      soa->DirtyLineCount() != ref.DirtyLineCount() ||
      tlb->ValidCount() != ref_tlb.ValidCount()) {
    return OracleResult::Violation("soa final occupancy mismatch");
  }
  return OracleResult{};
}

// ---------------------------------------------------------------------------
// Machine/program decode for the replay target
// ---------------------------------------------------------------------------

// Small overridden geometries (256K-1M LLC) keep full-flush steps cheap;
// every table combination is a valid geometry for both platforms' line
// sizes, so the decode can never throw.
hw::MachineConfig DecodeMachine(const FuzzCase& c, std::size_t* rounds) {
  const std::uint64_t plat = Pick(c, 0, 3);
  hw::MachineConfig mc = plat == 1 ? hw::MachineConfig::Sabre(1)
                                   : hw::MachineConfig::Haswell(plat == 2 ? 2 : 1);

  static constexpr std::size_t kL1Kib[] = {8, 16, 32};
  static constexpr std::size_t kL1Assoc[] = {2, 4, 8};
  mc.l1i.size_bytes = kL1Kib[Pick(c, 1, 3)] * 1024;
  mc.l1i.associativity = kL1Assoc[Pick(c, 2, 3)];
  mc.l1d.size_bytes = mc.l1i.size_bytes;
  mc.l1d.associativity = mc.l1i.associativity;

  static constexpr std::size_t kLlcKib[] = {256, 512, 1024};
  static constexpr std::size_t kLlcAssoc[] = {4, 8, 16};
  static constexpr std::size_t kLlcSlices[] = {1, 2, 4};
  mc.llc.size_bytes = kLlcKib[Pick(c, 3, 3)] * 1024;
  mc.llc.associativity = kLlcAssoc[Pick(c, 4, 3)];
  mc.llc.num_slices = kLlcSlices[Pick(c, 5, 3)];

  if (mc.arch == hw::Arch::kX86) {
    switch (Pick(c, 6, 3)) {
      case 0:
        mc.has_private_l2 = false;
        break;
      case 1:
        mc.has_private_l2 = true;
        mc.l2.size_bytes = 64 * 1024;
        mc.l2.associativity = 4;
        break;
      default:
        break;  // platform default (256K/8)
    }
  }

  static constexpr std::size_t kTlbDiv[] = {4, 2, 1};
  const std::size_t div = kTlbDiv[Pick(c, 7, 3)];
  mc.itlb.entries /= div;
  mc.dtlb.entries /= div;
  mc.l2tlb.entries /= div;

  if (Pick(c, 8, 2) == 0) {
    mc.prefetcher.data_slots = 0;
    mc.prefetcher.instruction_slots = 0;
  }

  *rounds = static_cast<std::size_t>(1 + Pick(c, 10, 3));
  return mc;
}

struct ProgramData {
  std::vector<std::vector<hw::VAddr>> va_batches;
  std::vector<std::vector<hw::MemOp>> op_batches;
};

// Batches are derived from the case seed and reused every round, so the
// span-batch memo's pointer-identity key can match from round 2 on.
ProgramData MakeProgram(std::uint64_t seed) {
  Rng rng(runner::SplitMix64(seed));
  ProgramData p;
  p.va_batches.resize(4);
  for (auto& batch : p.va_batches) {
    const std::size_t n = 8 + rng.Below(25);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(0x10000 + (rng.Below(256 * 1024) & ~std::uint64_t{7}));
    }
  }
  p.op_batches.resize(2);
  for (auto& batch : p.op_batches) {
    const std::size_t n = 8 + rng.Below(25);
    for (std::size_t i = 0; i < n; ++i) {
      static constexpr hw::AccessKind kKinds[] = {hw::AccessKind::kRead, hw::AccessKind::kWrite,
                                                  hw::AccessKind::kFetch};
      batch.push_back(hw::MemOp{0x10000 + (rng.Below(256 * 1024) & ~std::uint64_t{7}),
                                kKinds[rng.Below(3)]});
    }
  }
  return p;
}

// One program step on `core`. `elementwise` dispatches batch steps through
// the per-op Access path instead (the replay oracle's third machine).
void ExecStep(hw::Core& core, const ProgramData& p, std::uint64_t op, bool elementwise) {
  switch ((op & 0xF) % 8) {
    case 0:
    case 1:
    case 2: {
      static constexpr hw::AccessKind kKinds[] = {hw::AccessKind::kRead, hw::AccessKind::kWrite,
                                                  hw::AccessKind::kFetch};
      const hw::AccessKind kind = kKinds[(op & 0xF) % 8];
      const auto& batch = p.va_batches[(op >> 4) % p.va_batches.size()];
      if (elementwise) {
        for (hw::VAddr va : batch) {
          core.Access(va, kind);
        }
      } else {
        core.AccessBatch(std::span<const hw::VAddr>(batch), kind);
      }
      break;
    }
    case 3: {
      const auto& batch = p.op_batches[(op >> 4) % p.op_batches.size()];
      if (elementwise) {
        for (const hw::MemOp& mo : batch) {
          core.Access(mo.va, mo.kind);
        }
      } else {
        core.AccessBatch(std::span<const hw::MemOp>(batch));
      }
      break;
    }
    case 4:
      core.Access(0x10000 + ((op >> 8) % (256 * 1024) & ~std::uint64_t{7}),
                  hw::AccessKind::kRead);
      break;
    case 5:
      core.Branch(0x4000 + ((op >> 8) & 0xFFF0), 0x8000 + ((op >> 24) & 0xFFF0),
                  ((op >> 12) & 1) != 0, ((op >> 13) & 3) != 0);
      break;
    case 6:
      core.AdvanceCycles((op >> 16) % 1000);
      break;
    case 7:
      switch ((op >> 4) % 7) {
        case 0:
          core.InvalidateL1I();
          break;
        case 1:
          core.FlushPrivateL2();
          break;
        case 2:
          core.FlushTlbAll();
          break;
        case 3:
          core.FlushTlbNonGlobal();
          break;
        case 4:
          core.FlushBranchPredictor();
          break;
        case 5:
          core.FullCacheFlush(true);
          break;
        default:
          if (core.machine().config().has_architected_l1_flush) {
            core.ArchFlushL1D();
          }
          break;
      }
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// replay: batch replay vs TP_NO_REPLAY vs per-op dispatch
// ---------------------------------------------------------------------------

struct RunOut {
  hw::Cycles cycles = 0;
  std::uint64_t digest = 0;
  hw::PerfCounters counters{};
};

RunOut RunProgram(const hw::MachineConfig& mc, std::size_t rounds, const ProgramData& prog,
                  const std::vector<std::uint64_t>& ops, bool elementwise) {
  hw::Machine machine(mc);
  hw::FlatTranslationContext ctx(1);
  hw::Core& core = machine.core(0);
  hw::InstallFlatContext(core, ctx);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::uint64_t op : ops) {
      ExecStep(core, prog, op, elementwise);
    }
  }
  RunOut out;
  out.cycles = core.now();
  out.digest = machine.StateDigest();
  out.counters = core.counters();
  return out;
}

std::string DiffRuns(const RunOut& a, const RunOut& b, const char* label) {
  auto field = [&](const char* name, std::uint64_t x, std::uint64_t y) {
    return std::string(label) + " diverged: " + name + " " + U(x) + " vs " + U(y);
  };
  if (a.cycles != b.cycles) {
    return field("cycles", a.cycles, b.cycles);
  }
  if (a.digest != b.digest) {
    return field("StateDigest", a.digest, b.digest);
  }
  const hw::PerfCounters& p = a.counters;
  const hw::PerfCounters& q = b.counters;
  struct {
    const char* name;
    std::uint64_t x, y;
  } counters[] = {
      {"l1d_misses", p.l1d_misses, q.l1d_misses}, {"l1i_misses", p.l1i_misses, q.l1i_misses},
      {"l2_misses", p.l2_misses, q.l2_misses},    {"llc_misses", p.llc_misses, q.llc_misses},
      {"tlb_misses", p.tlb_misses, q.tlb_misses}, {"page_walks", p.page_walks, q.page_walks},
      {"branches", p.branches, q.branches},       {"mispredicts", p.mispredicts, q.mispredicts},
      {"reads", p.reads, q.reads},                {"writes", p.writes, q.writes},
      {"fetches", p.fetches, q.fetches},
  };
  for (const auto& f : counters) {
    if (f.x != f.y) {
      return field(f.name, f.x, f.y);
    }
  }
  return "";
}

OracleResult RunReplay(const FuzzCase& c) {
  ScopedTaint taint_off(false);
  std::size_t rounds = 1;
  const hw::MachineConfig mc = DecodeMachine(c, &rounds);
  const ProgramData prog = MakeProgram(c.seed);

  const RunOut with_replay = RunProgram(mc, rounds, prog, c.ops, /*elementwise=*/false);
  RunOut without_replay;
  {
    ScopedEnv no_replay("TP_NO_REPLAY", "1");
    without_replay = RunProgram(mc, rounds, prog, c.ops, /*elementwise=*/false);
  }
  const RunOut per_op = RunProgram(mc, rounds, prog, c.ops, /*elementwise=*/true);

  if (std::string why = DiffRuns(with_replay, without_replay, "replay vs TP_NO_REPLAY");
      !why.empty()) {
    return OracleResult::Violation(why);
  }
  if (std::string why = DiffRuns(with_replay, per_op, "batch vs per-op dispatch");
      !why.empty()) {
    return OracleResult::Violation(why);
  }
  return OracleResult{};
}

// ---------------------------------------------------------------------------
// taint: contract cleanliness + taint-map counting consistency
// ---------------------------------------------------------------------------

// Touches data, instruction and branch-predictor state every step (the
// contract suite's TouchEverything shape).
class TouchProgram final : public kernel::UserProgram {
 public:
  explicit TouchProgram(std::vector<hw::VAddr> vas) : vas_(std::move(vas)) {}
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

// Brute-force walk of one TaintMap cross-checked against its incremental
// counts. Returns "" or the violated invariant.
std::string CheckTaintMap(const hw::TaintMap& map, const char* name, std::size_t domains,
                          Rng& rng) {
  if (!map.on()) {
    return "";
  }
  const std::uint64_t masks[3] = {~std::uint64_t{0}, 1, rng.Next()};
  for (std::size_t incoming = 1; incoming <= domains; ++incoming) {
    const hw::TaintTag tag = static_cast<hw::TaintTag>(incoming);
    for (std::uint64_t mask : masks) {
      std::uint64_t brute = 0;
      for (std::size_t i = 0; i < map.size(); ++i) {
        const hw::TaintTag owner = map.OwnerOf(i);
        if (owner != 0 && owner != tag && ((mask >> map.ColourOf(i)) & 1) != 0) {
          ++brute;
        }
      }
      const std::uint64_t counted = map.ForeignCount(tag, mask);
      if (counted != brute) {
        return std::string(name) + " ForeignCount(" + U(incoming) + ") says " + U(counted) +
               ", brute-force walk says " + U(brute);
      }
      const std::size_t idx = map.FindForeign(tag, mask);
      if (brute == 0) {
        if (idx != hw::TaintMap::npos) {
          return std::string(name) + " FindForeign found entry " + U(idx) +
                 " but the walk found none";
        }
      } else {
        if (idx == hw::TaintMap::npos) {
          return std::string(name) + " FindForeign found nothing, walk found " + U(brute);
        }
        const hw::TaintTag owner = map.OwnerOf(idx);
        if (owner == 0 || owner == tag || ((mask >> map.ColourOf(idx)) & 1) == 0) {
          return std::string(name) + " FindForeign returned a non-foreign entry " + U(idx);
        }
      }
    }
  }
  return "";
}

OracleResult RunTaint(const FuzzCase& c) {
  ScopedTaint taint_on(true);

  const std::uint64_t plat = Pick(c, 0, 2);
  hw::MachineConfig mc = plat == 1 ? hw::MachineConfig::Sabre(1) : hw::MachineConfig::Haswell(1);
  const core::Scenario scenario =
      Pick(c, 1, 2) == 0 ? core::Scenario::kFullFlush : core::Scenario::kProtected;
  static constexpr double kTimeslices[] = {0.05, 0.1, 0.2};
  const double timeslice_ms = kTimeslices[Pick(c, 2, 3)];
  static constexpr double kFractions[] = {1.0, 0.5};
  const double fraction = kFractions[Pick(c, 3, 2)];
  const std::size_t domains = 2 + Pick(c, 4, 2);
  static constexpr std::size_t kPages[] = {2, 4, 8};
  const std::size_t buffer_pages = kPages[Pick(c, 5, 3)];
  static constexpr std::size_t kSlices[] = {6, 10, 16};
  const std::size_t timeslices = kSlices[Pick(c, 6, 3)];

  hw::ContractCapture capture;
  hw::Machine machine(mc);
  kernel::KernelConfig kc = core::MakeKernelConfig(scenario, machine, timeslice_ms);
  kc.pad_switches = false;  // padding is timing, not residual state
  kernel::Kernel kernel(machine, kc);
  core::DomainManager manager(kernel);

  std::vector<std::set<std::size_t>> colours(domains);
  if (kc.clone_support) {
    colours = core::SplitColours(mc, domains, fraction);
  }
  std::vector<std::unique_ptr<TouchProgram>> programs;
  for (std::size_t d = 1; d <= domains; ++d) {
    core::Domain& dom = manager.CreateDomain(
        {.id = static_cast<kernel::DomainId>(d), .colours = colours[d - 1]});
    const core::MappedBuffer buf = manager.AllocBuffer(dom, buffer_pages * hw::kPageSize);
    std::vector<hw::VAddr> vas;
    for (const auto& [va, pa] : buf.pages) {
      vas.push_back(va);
    }
    programs.push_back(std::make_unique<TouchProgram>(std::move(vas)));
    manager.StartThread(dom, programs.back().get(), 100, 0);
  }

  std::vector<kernel::DomainId> schedule;
  for (std::uint64_t op : c.ops) {
    schedule.push_back(static_cast<kernel::DomainId>(1 + op % domains));
  }
  if (schedule.empty()) {
    schedule = {1, 2};
  }
  kernel.SetDomainSchedule(0, schedule);
  kernel.KickSchedule(0);
  kernel.RunFor(timeslices * kc.timeslice_cycles);

  const hw::ContractTally tally = capture.Take();
  if (!tally.clean()) {
    return OracleResult::Violation(
        "contract violated under " + std::string(core::ScenarioName(scenario)) + " on " +
        mc.name + ": " +
        (tally.has_first ? hw::ToString(tally.first) : "(no violation recorded)"));
  }

  // The checker agreed the switches were clean; now verify the maps it
  // consulted are internally consistent with a brute-force walk.
  Rng rng(runner::SplitMix64(c.seed ^ 0x7A147));
  hw::Core& core0 = machine.core(0);
  struct {
    const hw::TaintMap* map;
    const char* name;
  } maps[] = {
      {&core0.l1i().taint(), "L1-I"},
      {&core0.l1d().taint(), "L1-D"},
      {core0.l2() != nullptr ? &core0.l2()->taint() : nullptr, "L2"},
      {&machine.llc().taint(), "LLC"},
      {&core0.itlb().taint(), "I-TLB"},
      {&core0.dtlb().taint(), "D-TLB"},
      {&core0.l2tlb().taint(), "L2-TLB"},
      {&core0.branch_predictor().btb_taint(), "BTB"},
      {&core0.branch_predictor().pht_taint(), "PHT"},
  };
  for (const auto& m : maps) {
    if (m.map == nullptr) {
      continue;
    }
    if (std::string why = CheckTaintMap(*m.map, m.name, domains, rng); !why.empty()) {
      return OracleResult::Violation("taint-map inconsistency: " + why);
    }
  }
  return OracleResult{};
}

// ---------------------------------------------------------------------------
// threads: SweepEngine 1-vs-N bit-identity on a synthetic channel
// ---------------------------------------------------------------------------

OracleResult RunThreads(const FuzzCase& c) {
  static constexpr std::size_t kRounds[] = {48, 64, 96};
  const std::size_t rounds = kRounds[Pick(c, 0, 3)];
  static constexpr std::size_t kThreads[] = {2, 3, 4};
  const std::size_t threads = kThreads[Pick(c, 1, 3)];
  const std::size_t nplat = 1 + Pick(c, 2, 2);
  const std::size_t nmodes = 1 + Pick(c, 3, 2);
  static constexpr double kSep[] = {0.0, 5.0};
  const double sep = kSep[Pick(c, 4, 2)];
  static constexpr std::size_t kShards[] = {2, 4, 8};
  const std::size_t max_shards = kShards[Pick(c, 5, 3)];
  // Param 6 is retired; corpus tokens keep their layout.
  const std::size_t nvar = 1 + Pick(c, 7, 2);

  runner::GridSpec spec;
  spec.root_seed = c.seed;
  spec.rounds = rounds;
  spec.min_shard_rounds = 8;
  spec.max_shards = max_shards;
  spec.platforms = std::vector<std::string>{"alpha", "beta"};
  spec.platforms.resize(nplat);
  spec.modes = std::vector<std::string>{"m0", "m1"};
  spec.modes.resize(nmodes);
  spec.variants = std::vector<std::string>{"v0", "v1"};
  spec.variants.resize(nvar);

  const auto shard_fn = [sep](const runner::GridCell& cell,
                              const runner::Shard& shard) -> mi::Observations {
    mi::Observations obs;
    Rng rng(shard.seed ^ runner::Fnv1a64(cell.CoordKey()));
    for (std::size_t r = 0; r < shard.rounds; ++r) {
      const int sym = static_cast<int>(rng.Below(4));
      obs.Add(sym, sep * static_cast<double>(sym) + rng.UnitDouble());
    }
    return obs;
  };

  mi::LeakageOptions leak;
  leak.shuffles = 10;

  const runner::ExperimentRunner single(1);
  const runner::ExperimentRunner pool(threads);
  const std::vector<runner::SweepCellResult> a =
      runner::SweepEngine(single).RunChannelGrid(spec, shard_fn, leak);
  const std::vector<runner::SweepCellResult> b =
      runner::SweepEngine(pool).RunChannelGrid(spec, shard_fn, leak);

  if (a.size() != b.size()) {
    return OracleResult::Violation("threads: cell count " + U(a.size()) + " vs " + U(b.size()));
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const runner::SweepCellResult& x = a[i];
    const runner::SweepCellResult& y = b[i];
    auto at = [&](const std::string& what) {
      return "threads: cell " + x.cell.Name() + " 1-vs-" + U(threads) + " thread " + what;
    };
    if (x.cell.Name() != y.cell.Name()) {
      return OracleResult::Violation(at("ordering mismatch (got " + y.cell.Name() + ")"));
    }
    if (x.status != y.status) {
      return OracleResult::Violation(at("status " + x.status + " vs " + y.status));
    }
    if (x.shards != y.shards) {
      return OracleResult::Violation(at("shard accounting mismatch"));
    }
    if (x.observations.inputs() != y.observations.inputs()) {
      return OracleResult::Violation(at("observation inputs differ"));
    }
    const std::vector<double>& xo = x.observations.outputs();
    const std::vector<double>& yo = y.observations.outputs();
    if (xo.size() != yo.size()) {
      return OracleResult::Violation(at("observation count differs"));
    }
    for (std::size_t k = 0; k < xo.size(); ++k) {
      if (!BitEq(xo[k], yo[k])) {
        return OracleResult::Violation(at("observation output " + U(k) + " differs"));
      }
    }
    if (!BitEq(x.leakage.mi_bits, y.leakage.mi_bits) ||
        !BitEq(x.leakage.m0_bits, y.leakage.m0_bits)) {
      return OracleResult::Violation(at("MI estimate differs"));
    }
  }
  return OracleResult{};
}

// ---------------------------------------------------------------------------
// trajectory: JSON parser robustness
// ---------------------------------------------------------------------------

// Independent strict JSON validator: a second, reference implementation of
// the grammar the parser must accept exactly (RFC 8259 JSON, finite
// numbers, nesting depth <= 64 to mirror the parser's bound). Kept
// deliberately separate in style and structure from trajectory/json.cpp so
// a shared bug is unlikely.
class MiniValidator {
 public:
  explicit MiniValidator(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value(0)) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }
  bool Value(int depth) {
    if (depth > 64 || pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return Object(depth);
      case '[':
        return Array(depth);
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object(int depth) {
    ++pos_;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"' || !String()) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_++] != ':') {
        return false;
      }
      SkipWs();
      if (!Value(depth + 1)) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size()) {
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool Array(int depth) {
    ++pos_;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!Value(depth + 1)) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size()) {
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool String() {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char ch = text_[pos_++];
      if (ch == '"') {
        return true;
      }
      if (static_cast<unsigned char>(ch) < 0x20) {
        return false;  // strict JSON forbids raw control characters
      }
      if (ch != '\\') {
        continue;
      }
      if (pos_ >= text_.size()) {
        return false;
      }
      const char esc = text_[pos_++];
      if (esc == 'u') {
        for (int i = 0; i < 4; ++i) {
          if (pos_ >= text_.size() ||
              std::isxdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
            return false;
          }
          ++pos_;
        }
      } else if (std::strchr("\"\\/bfnrt", esc) == nullptr) {
        return false;
      }
    }
    return false;
  }
  bool Number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    if (pos_ >= text_.size() || std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
      return false;
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
        return false;
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
        return false;
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    }
    // The parser (by design) rejects numbers that overflow to infinity.
    const std::string num(text_.substr(start, pos_ - start));
    return std::isfinite(std::strtod(num.c_str(), nullptr));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void SerializeJson(const trajectory::JsonValue& v, std::string& out) {
  using Type = trajectory::JsonValue::Type;
  switch (v.type) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += v.boolean ? "true" : "false";
      break;
    case Type::kNumber: {
      char buf[40];
      const double d = v.number;
      // "%lld" would print -0 as 0 and lose the sign the round trip checks.
      const bool negative_zero = d == 0 && std::signbit(d);
      if (!negative_zero && d == static_cast<double>(static_cast<long long>(d)) &&
          std::fabs(d) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
      } else {
        std::snprintf(buf, sizeof(buf), "%.17g", d);
      }
      out += buf;
      break;
    }
    case Type::kString: {
      out += '"';
      for (char ch : v.string) {
        const unsigned char u = static_cast<unsigned char>(ch);
        if (ch == '"' || ch == '\\') {
          out += '\\';
          out += ch;
        } else if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out += ch;
        }
      }
      out += '"';
      break;
    }
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i != 0) {
          out += ',';
        }
        SerializeJson(v.array[i], out);
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        if (i != 0) {
          out += ',';
        }
        trajectory::JsonValue key;
        key.type = Type::kString;
        key.string = v.object[i].first;
        SerializeJson(key, out);
        out += ':';
        SerializeJson(v.object[i].second, out);
      }
      out += '}';
      break;
    }
  }
}

std::string StructDiff(const trajectory::JsonValue& a, const trajectory::JsonValue& b);

std::string StructDiff(const trajectory::JsonValue& a, const trajectory::JsonValue& b) {
  using Type = trajectory::JsonValue::Type;
  if (a.type != b.type) {
    return "value type changed";
  }
  switch (a.type) {
    case Type::kNull:
      return "";
    case Type::kBool:
      return a.boolean == b.boolean ? "" : "boolean changed";
    case Type::kNumber:
      return BitEq(a.number, b.number) ? "" : "number changed";
    case Type::kString:
      return a.string == b.string ? "" : "string changed";
    case Type::kArray: {
      if (a.array.size() != b.array.size()) {
        return "array size changed";
      }
      for (std::size_t i = 0; i < a.array.size(); ++i) {
        if (std::string why = StructDiff(a.array[i], b.array[i]); !why.empty()) {
          return why;
        }
      }
      return "";
    }
    case Type::kObject: {
      if (a.object.size() != b.object.size()) {
        return "object size changed";
      }
      for (std::size_t i = 0; i < a.object.size(); ++i) {
        if (a.object[i].first != b.object[i].first) {
          return "object key changed";
        }
        if (std::string why = StructDiff(a.object[i].second, b.object[i].second);
            !why.empty()) {
          return why;
        }
      }
      return "";
    }
  }
  return "";
}

// The results-file reader against the parser it stands on. ReadResults
// accepts exactly the blank documents and the JSON arrays. An array's
// element spans are ascending, disjoint and inside the payload; each span
// reparsed alone is structurally its element; the reader returns exactly
// those span texts; and reading JoinRecordTexts of them gives them back.
OracleResult CheckResultsReader(const std::string& payload,
                                const std::optional<trajectory::JsonValue>& parsed) {
  std::string error;
  const auto elements = trajectory::ReadResults(payload, &error);
  const bool array = parsed.has_value() && parsed->is(trajectory::JsonValue::Type::kArray);
  const bool blank = std::all_of(payload.begin(), payload.end(), [](char ch) {
    return ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n';
  });
  if (elements.has_value() && !array && !blank) {
    return OracleResult::Violation("trajectory: results reader accepted a non-array document");
  }
  if (!elements.has_value() && (array || blank)) {
    return OracleResult::Violation("trajectory: results reader refused an array: " + error);
  }
  if (!array) {
    return OracleResult{};
  }
  if (elements->size() != parsed->array.size()) {
    return OracleResult::Violation("trajectory: results reader lost or added elements");
  }
  std::vector<std::string> texts;
  std::size_t prev_end = 0;
  for (std::size_t i = 0; i < elements->size(); ++i) {
    const trajectory::JsonValue& v = parsed->array[i];
    const std::string where = "trajectory: element " + U(i) + " span ";
    if (v.begin < prev_end || v.begin >= v.end || v.end > payload.size()) {
      return OracleResult::Violation(where + "overlaps, is empty or leaves the payload");
    }
    prev_end = v.end;
    texts.push_back(payload.substr(v.begin, v.end - v.begin));
    const std::optional<trajectory::JsonValue> alone = trajectory::ParseJson(texts[i], &error);
    if (!alone.has_value()) {
      return OracleResult::Violation(where + "does not reparse: " + error);
    }
    if (std::string why = StructDiff(v, *alone); !why.empty()) {
      return OracleResult::Violation(where + "reparses to another value: " + why);
    }
    if ((*elements)[i].text != texts[i]) {
      return OracleResult::Violation(where + "differs from the results reader's text");
    }
  }
  const auto again = trajectory::ReadResults(trajectory::JoinRecordTexts(texts), &error);
  if (!again.has_value() || again->size() != texts.size()) {
    return OracleResult::Violation("trajectory: joined texts do not read back: " + error);
  }
  for (std::size_t i = 0; i < texts.size(); ++i) {
    if ((*again)[i].text != texts[i]) {
      return OracleResult::Violation("trajectory: JoinRecordTexts changed element " + U(i));
    }
  }
  return OracleResult{};
}

OracleResult RunTrajectory(const FuzzCase& c) {
  std::string error;
  const std::optional<trajectory::JsonValue> parsed = trajectory::ParseJson(c.payload, &error);
  if (OracleResult reader = CheckResultsReader(c.payload, parsed); !reader.ok) {
    return reader;
  }

  if (!parsed.has_value()) {
    // Error format invariant: "offset N: why" with N within the input.
    const char* prefix = "offset ";
    if (error.compare(0, std::strlen(prefix), prefix) != 0) {
      return OracleResult::Violation("trajectory: error lacks offset prefix: \"" + error + "\"");
    }
    char* end = nullptr;
    const unsigned long long off = std::strtoull(error.c_str() + std::strlen(prefix), &end, 10);
    if (end == nullptr || end[0] != ':' || end[1] != ' ' || end[2] == '\0') {
      return OracleResult::Violation("trajectory: malformed error string: \"" + error + "\"");
    }
    if (off > c.payload.size()) {
      return OracleResult::Violation("trajectory: error offset " + U(off) +
                                     " beyond input size " + U(c.payload.size()));
    }
    // Differential invariant: the parser and the independent validator
    // accept exactly the same documents.
    if (MiniValidator(c.payload).Valid()) {
      return OracleResult::Violation(
          "trajectory: parser rejected strictly-valid JSON: \"" + error + "\"");
    }
    return OracleResult{};
  }
  if (!MiniValidator(c.payload).Valid()) {
    return OracleResult::Violation("trajectory: parser accepted JSON the validator rejects");
  }

  // Round-trip invariant: serialize -> reparse -> structurally identical.
  std::string serialized;
  SerializeJson(*parsed, serialized);
  std::string reparse_error;
  const std::optional<trajectory::JsonValue> reparsed =
      trajectory::ParseJson(serialized, &reparse_error);
  if (!reparsed.has_value()) {
    return OracleResult::Violation("trajectory: serialized form failed to reparse: " +
                                   reparse_error);
  }
  if (std::string why = StructDiff(*parsed, *reparsed); !why.empty()) {
    return OracleResult::Violation("trajectory: round trip not structure-preserving: " + why);
  }
  return OracleResult{};
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

void GenerateSoa(Rng& rng, FuzzCase& c) {
  static constexpr std::size_t kLines[] = {16, 32, 64, 128};
  const std::size_t line = kLines[rng.Below(4)];
  const std::size_t assoc = 1 + rng.Below(8);
  const std::size_t sets = 1 + rng.Below(24);
  const std::size_t slices = 1 + rng.Below(4);
  std::size_t size = line * assoc * sets * slices;
  std::size_t line_out = line;
  std::size_t assoc_out = assoc;
  std::size_t slices_out = slices;
  std::size_t tlb_assoc = 1 + rng.Below(8);
  std::size_t tlb_entries = tlb_assoc * (1 + rng.Below(16));
  // One case in ten carries a deliberately invalid geometry so the
  // Validate()/constructor agreement arm gets continuous coverage.
  if (rng.Chance(10)) {
    switch (rng.Below(5)) {
      case 0:
        line_out = 0;
        break;
      case 1:
        assoc_out = 65 + rng.Below(16);
        break;
      case 2:
        slices_out = 0;
        break;
      case 3:
        size += 1;
        break;
      default:
        tlb_entries = tlb_assoc * 2 + 1;  // not a multiple when assoc > 1
        break;
    }
  }
  c.params = {size,
              line_out,
              assoc_out,
              slices_out,
              rng.Below(2),
              12 + rng.Below(14),
              tlb_entries,
              tlb_assoc};
  const std::size_t n = 200 + rng.Below(1801);
  for (std::size_t i = 0; i < n; ++i) {
    c.ops.push_back(rng.Next());
  }
}

void GenerateReplay(Rng& rng, FuzzCase& c) {
  for (int i = 0; i < 11; ++i) {
    c.params.push_back(rng.Next());
  }
  const std::size_t n = 20 + rng.Below(61);
  for (std::size_t i = 0; i < n; ++i) {
    c.ops.push_back(rng.Next());
  }
}

void GenerateTaint(Rng& rng, FuzzCase& c) {
  for (int i = 0; i < 7; ++i) {
    c.params.push_back(rng.Next());
  }
  const std::size_t n = 4 + rng.Below(9);
  for (std::size_t i = 0; i < n; ++i) {
    c.ops.push_back(rng.Next());
  }
  // Guarantee at least one real cross-domain switch in the schedule.
  c.ops[0] = 0;  // domain 1
  c.ops[1] = 1;  // domain 2
}

void GenerateThreads(Rng& rng, FuzzCase& c) {
  for (int i = 0; i < 8; ++i) {
    c.params.push_back(rng.Next());
  }
}

void AppendJsonValue(Rng& rng, int depth, std::string& out) {
  const std::uint64_t kind = depth >= 6 ? rng.Below(4) : rng.Below(6);
  switch (kind) {
    case 0:
      out += "null";
      break;
    case 1:
      out += rng.Chance(50) ? "true" : "false";
      break;
    case 2: {
      if (rng.Chance(50)) {
        out += '-';
      }
      out += std::to_string(rng.Below(100000));
      if (rng.Chance(40)) {
        out += ".5";  // exactly representable; round-trips bit-for-bit
      }
      break;
    }
    case 3: {
      out += '"';
      const std::size_t n = rng.Below(9);
      static constexpr char kSafe[] = "abcdefghijklmnopqrstuvwxyz0123456789 ";
      for (std::size_t i = 0; i < n; ++i) {
        out += kSafe[rng.Below(sizeof(kSafe) - 1)];
      }
      out += '"';
      break;
    }
    case 4: {
      out += '[';
      const std::size_t n = rng.Below(4);
      for (std::size_t i = 0; i < n; ++i) {
        if (i != 0) {
          out += ',';
        }
        AppendJsonValue(rng, depth + 1, out);
      }
      out += ']';
      break;
    }
    default: {
      out += '{';
      const std::size_t n = rng.Below(4);
      for (std::size_t i = 0; i < n; ++i) {
        if (i != 0) {
          out += ',';
        }
        out += '"';
        out += static_cast<char>('a' + i);
        out += "\":";
        AppendJsonValue(rng, depth + 1, out);
      }
      out += '}';
      break;
    }
  }
}

// One results-file-shaped record: a subset of the record keys, each with a
// value of its schema type or, now and then, any JSON value.
std::string ResultsLikeRecord(Rng& rng) {
  static constexpr const char* kFields[][2] = {
      {"schema_version", "3"},
      {"bench", "\"fig3\""},
      {"label", "\"base\""},
      {"cell", "\"x86/raw\""},
      {"quick", "true"},
      {"rounds", "150"},
      {"mi_bits", "0.5"},
      {"wall_ns", "1234"},
      {"metrics", "{\"switch_us\": 29.5}"},
      {"cell_status", "\"failed\""},
  };
  std::string rec = "{";
  for (const auto& [key, value] : kFields) {
    if (!rng.Chance(80)) {
      continue;
    }
    rec += rec.size() == 1 ? "\"" : ", \"";
    rec += key;
    rec += "\": ";
    if (rng.Chance(10)) {
      AppendJsonValue(rng, 1, rec);
    } else {
      rec += value;
    }
  }
  return rec + "}";
}

void GenerateTrajectory(Rng& rng, FuzzCase& c) {
  const std::uint64_t kind = rng.Below(5);
  c.params = {kind};
  switch (kind) {
    case 0: {  // random bytes, biased toward JSON punctuation
      const std::size_t n = rng.Below(200);
      static constexpr char kJsonish[] = "{}[]\",:0123456789.eE+-truefalsn \t\n\\/u";
      for (std::size_t i = 0; i < n; ++i) {
        c.payload += rng.Chance(60) ? kJsonish[rng.Below(sizeof(kJsonish) - 1)]
                                    : static_cast<char>(rng.Below(256));
      }
      break;
    }
    case 1:  // structured valid document
      AppendJsonValue(rng, 0, c.payload);
      break;
    case 2: {  // valid document with a few byte mutations
      AppendJsonValue(rng, 0, c.payload);
      const std::size_t mutations = 1 + rng.Below(4);
      for (std::size_t i = 0; i < mutations && !c.payload.empty(); ++i) {
        const std::size_t pos = rng.Below(c.payload.size());
        switch (rng.Below(3)) {
          case 0:
            c.payload[pos] = static_cast<char>(rng.Below(256));
            break;
          case 1:
            c.payload.insert(pos, 1, static_cast<char>(rng.Below(256)));
            break;
          default:
            c.payload.erase(pos, 1);
            break;
        }
      }
      break;
    }
    case 3: {  // pathological shapes targeting known hardening
      switch (rng.Below(6)) {
        case 0:
          c.payload.assign(65 + rng.Below(16), '[');
          break;
        case 1:
          c.payload = "1e99999";
          break;
        case 2:
          c.payload = "-1e99999";
          break;
        case 3:
          c.payload = "\"" + std::string(20 + rng.Below(100), 'a');  // unterminated
          break;
        case 4:
          c.payload.assign(200 + rng.Below(300), '1');  // huge integer literal
          break;
        default: {
          std::string doc;
          const std::size_t depth = 60 + rng.Below(10);
          for (std::size_t i = 0; i < depth; ++i) {
            doc += "{\"a\":";
          }
          doc += "1";
          for (std::size_t i = 0; i < depth; ++i) {
            doc += '}';
          }
          c.payload = doc;
          break;
        }
      }
      break;
    }
    default: {  // a results file as the writers frame it, some bytes off
      // A byte replaced, inserted or erased makes the refusals the reader
      // must share with the loader: "tru", ",}", an unbalanced brace.
      static constexpr char kJsonish[] = "{}[]\",:0123456789.eE+-tfn \\";
      std::vector<std::string> records(rng.Below(6));
      for (std::string& rec : records) {
        rec = ResultsLikeRecord(rng);
        if (!rng.Chance(25)) {
          continue;
        }
        const std::size_t pos = rng.Below(rec.size());
        const char byte = kJsonish[rng.Below(sizeof(kJsonish) - 1)];
        switch (rng.Below(3)) {
          case 0:
            rec[pos] = byte;
            break;
          case 1:
            rec.insert(pos, 1, byte);
            break;
          default:
            rec.erase(pos, 1);
            break;
        }
      }
      c.payload = trajectory::JoinRecordTexts(records);
      if (rng.Chance(10)) {  // a byte after the closing ']'
        c.payload += kJsonish[rng.Below(sizeof(kJsonish) - 1)];
      }
      break;
    }
  }
}

}  // namespace

OracleResult RunCase(const FuzzCase& c) {
  try {
    switch (c.target) {
      case Target::kSoa:
        return RunSoa(c);
      case Target::kReplay:
        return RunReplay(c);
      case Target::kTaint:
        return RunTaint(c);
      case Target::kThreads:
        return RunThreads(c);
      case Target::kTrajectory:
        return RunTrajectory(c);
    }
  } catch (const std::exception& e) {
    return OracleResult::Violation(std::string("unhandled exception: ") + e.what());
  }
  return OracleResult::Violation("unknown target");
}

FuzzCase GenerateCase(Target target, std::uint64_t case_seed) {
  FuzzCase c;
  c.target = target;
  c.seed = case_seed;
  Rng rng(runner::SplitMix64(case_seed ^ 0xF022));
  switch (target) {
    case Target::kSoa:
      GenerateSoa(rng, c);
      break;
    case Target::kReplay:
      GenerateReplay(rng, c);
      break;
    case Target::kTaint:
      GenerateTaint(rng, c);
      break;
    case Target::kThreads:
      GenerateThreads(rng, c);
      break;
    case Target::kTrajectory:
      GenerateTrajectory(rng, c);
      break;
  }
  return c;
}

}  // namespace tp::fuzz
