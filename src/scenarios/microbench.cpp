// Host-throughput microbenchmarks of the simulator's hot paths and the
// kernel's primitive operations. These measure how fast the *model* runs on
// the host (ns/op), complementing the paper-reproduction scenarios which
// report *simulated* cycles. Hand-rolled timing loops — no external
// benchmark library — so the scenario registers unconditionally and its
// cells are wall-gated like every other channel.
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/domain.hpp"
#include "hw/machine.hpp"
#include "kernel/kernel.hpp"
#include "runner/quick.hpp"
#include "runner/recorder.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/scenario_util.hpp"
#include "scenarios/summary.hpp"

namespace tp::scenarios {
namespace {

struct Micro {
  const char* name;
  std::size_t iterations;                       // full-mode count
  std::function<void(std::size_t)> run;         // run exactly n operations
};

std::vector<Micro> Benches() {
  std::vector<Micro> benches;

  benches.push_back({"cache_access_hit", 1'000'000, [](std::size_t n) {
                       hw::Machine m(hw::MachineConfig::Haswell(1));
                       hw::FlatTranslationContext ctx(1);
                       hw::InstallFlatContext(m.core(0), ctx);
                       m.core(0).Access(0x1000, hw::AccessKind::kRead);
                       for (std::size_t i = 0; i < n; ++i) {
                         m.core(0).Access(0x1000, hw::AccessKind::kRead);
                       }
                     }});

  benches.push_back({"cache_access_miss_stream", 400'000, [](std::size_t n) {
                       hw::Machine m(hw::MachineConfig::Haswell(1));
                       hw::FlatTranslationContext ctx(1);
                       hw::InstallFlatContext(m.core(0), ctx);
                       hw::VAddr va = 0;
                       for (std::size_t i = 0; i < n; ++i) {
                         m.core(0).Access(va, hw::AccessKind::kRead);
                         va += 64;
                       }
                     }});

  benches.push_back({"branch_predicted", 1'000'000, [](std::size_t n) {
                       hw::Machine m(hw::MachineConfig::Haswell(1));
                       for (int i = 0; i < 64; ++i) {
                         m.core(0).Branch(0x1000, 0x2000, true, true);
                       }
                       for (std::size_t i = 0; i < n; ++i) {
                         m.core(0).Branch(0x1000, 0x2000, true, true);
                       }
                     }});

  // The address-decode fast path (shift/mask set indexing) exercised alone:
  // every probe hits a different set of the sliced LLC.
  benches.push_back({"llc_decode_sweep", 1'000'000, [](std::size_t n) {
                       hw::SetAssociativeCache llc("LLC", hw::MachineConfig::Haswell(1).llc,
                                                   hw::Indexing::kPhysical);
                       for (std::size_t i = 0; i < n; ++i) {
                         llc.Access(i * 64, i * 64, false);
                       }
                     }});

  benches.push_back({"tlb_lookup_hit", 2'000'000, [](std::size_t n) {
                       hw::Tlb tlb("D-TLB", hw::MachineConfig::Haswell(1).dtlb);
                       tlb.Insert(0x42, 1, false);
                       for (std::size_t i = 0; i < n; ++i) {
                         tlb.Lookup(0x42, 1);
                       }
                     }});

  benches.push_back({"tlb_flush", 200'000, [](std::size_t n) {
                       hw::Machine m(hw::MachineConfig::Haswell(1));
                       hw::FlatTranslationContext ctx(1);
                       hw::InstallFlatContext(m.core(0), ctx);
                       for (std::size_t i = 0; i < n; ++i) {
                         m.core(0).Access(0x5000, hw::AccessKind::kRead);
                         m.core(0).FlushTlbAll();
                       }
                     }});

  benches.push_back({"kernel_syscall_signal", 150'000, [](std::size_t n) {
                       hw::Machine machine(hw::MachineConfig::Haswell(1));
                       kernel::KernelConfig kc;
                       kc.timeslice_cycles = machine.MicrosToCycles(1e9);
                       kernel::Kernel k(machine, kc);
                       core::DomainManager mgr(k);
                       core::Domain& d = mgr.CreateDomain({.id = 1});
                       kernel::CapIdx cap = mgr.GrantCap(d, mgr.CreateNotification(d));

                       struct Sig final : kernel::UserProgram {
                         kernel::CapIdx n = 0;
                         void Step(kernel::UserApi& api) override { api.Signal(n); }
                       } prog;
                       prog.n = cap;
                       mgr.StartThread(d, &prog, 100, 0);
                       k.SetDomainSchedule(0, {1});
                       for (std::size_t i = 0; i < n; ++i) {
                         k.StepCore(0);
                       }
                     }});

  benches.push_back({"kernel_tick_domain_switch", 2'000, [](std::size_t n) {
                       hw::Machine machine(hw::MachineConfig::Haswell(1));
                       kernel::KernelConfig kc;
                       kc.clone_support = true;
                       kc.flush_mode = kernel::FlushMode::kOnCore;
                       kc.prefetch_shared_data = true;
                       kc.timeslice_cycles = 50'000;
                       kernel::Kernel k(machine, kc);
                       core::DomainManager mgr(k);
                       mgr.CreateDomain({.id = 1});
                       mgr.CreateDomain({.id = 2});
                       k.SetDomainSchedule(0, {1, 2});
                       for (std::size_t i = 0; i < n; ++i) {
                         k.RunFor(100'000);  // two protected domain switches
                       }
                     }});

  return benches;
}

std::vector<runner::GridSpec> Grids() {
  runner::GridSpec grid;
  grid.variants.clear();
  for (const Micro& bench : Benches()) {
    grid.variants.emplace_back(bench.name);
  }
  return {grid};
}

// ns/op is a host-speed measurement, timed around the bench loop alone.
runner::CostCell Cell(const runner::GridCell& cell) {
  for (const Micro& bench : Benches()) {
    if (cell.variant != bench.name) {
      continue;
    }
    std::size_t n = bench::Scaled(bench.iterations, bench.iterations / 64);
    std::uint64_t t0 = bench::Recorder::NowNs();
    bench.run(n);
    std::uint64_t wall = bench::Recorder::NowNs() - t0;
    double ns_per_op = static_cast<double>(wall) / static_cast<double>(n);
    return {.rounds = n, .metrics = {{"ns_per_op", ns_per_op}}};
  }
  throw std::invalid_argument("unknown microbench: " + cell.variant);
}

void Report(const std::vector<runner::SweepCellResult>& results) {
  Table t({"microbench", "ops", "ns/op"});
  for (const runner::SweepCellResult& r : results) {
    t.AddRow({r.cell.variant, std::to_string(r.rounds), Fmt("%.1f", Metric(r, "ns_per_op"))});
  }
  std::printf("\n");
  t.Print();
  std::printf("\n(host simulation throughput, not simulated time)\n");
}

const RegisterChannel registrar{{
    .name = "microbench",
    .title = "Microbenchmarks: host throughput of the simulator's hot paths",
    .paper = "n/a (simulator implementation metric, not a paper figure)",
    .contract = "all cells clean",
    .grids = Grids,
    .cost_cell = Cell,
    .report = Report,
}};

}  // namespace
}  // namespace tp::scenarios
