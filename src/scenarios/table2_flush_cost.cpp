// Table 2: worst-case cost of cache flushes (µs), direct and indirect, as a
// platform x {L1, full} grid.
//
// Direct cost: the flush operations with every L1-D line dirty (the paper's
// worst case). The x86 L1 figure is the "manual" flush of §4.3 (loads +
// serialised jump chain) — the paper notes a hardware-assisted flush would
// cost ~1 µs. Indirect cost: the one-off slowdown of an application whose
// working set matches the flushed cache, measured as extra cycles on its
// first sweep after the flush.
#include <cstdio>
#include <map>
#include <string>

#include "core/domain.hpp"
#include "hw/machine.hpp"
#include "kernel/kernel.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/scenario_util.hpp"
#include "scenarios/summary.hpp"

namespace tp::scenarios {
namespace {

// Sweeps a buffer once per Step; returns cycles of the last sweep.
class SweepProgram final : public kernel::UserProgram {
 public:
  SweepProgram(const core::MappedBuffer& buffer, std::size_t line)
      : buf_(buffer), line_(line) {}
  void Step(kernel::UserApi& api) override {
    hw::Cycles t0 = api.Now();
    for (std::size_t off = 0; off < buf_.bytes; off += line_) {
      api.Write(buf_.base + off);
    }
    last_sweep_ = api.Now() - t0;
    ++sweeps_;
  }
  hw::Cycles last_sweep() const { return last_sweep_; }
  std::uint64_t sweeps() const { return sweeps_; }

 private:
  core::MappedBuffer buf_;
  std::size_t line_;
  hw::Cycles last_sweep_ = 0;
  std::uint64_t sweeps_ = 0;
};

std::vector<runner::GridSpec> Grids() {
  runner::GridSpec grid;
  grid.platforms = {kHaswell, kSabre};
  grid.variants = {"L1", "full"};
  return {grid};
}

runner::CostCell Cell(const runner::GridCell& cell) {
  const hw::MachineConfig mc = PlatformConfig(cell.platform);
  const bool full = cell.variant == "full";
  hw::Machine machine(mc);
  kernel::KernelConfig kc;
  kc.timeslice_cycles = machine.MicrosToCycles(1e6);  // no preemption
  kernel::Kernel kernel(machine, kc);
  core::DomainManager mgr(kernel);
  core::Domain& d = mgr.CreateDomain({.id = 1});
  std::size_t ws = full ? mc.llc.size_bytes : mc.l1d.size_bytes;
  core::MappedBuffer buf = mgr.AllocBuffer(d, ws);
  SweepProgram prog(buf, mc.l1d.line_size);
  mgr.StartThread(d, &prog, 100, 0);
  kernel.SetDomainSchedule(0, {1});
  kernel.KickSchedule(0);

  // Warm up: several sweeps so the working set is cache-resident and the
  // L1 is fully dirty (writes).
  while (prog.sweeps() < 4) {
    kernel.StepCore(0);
  }
  hw::Cycles steady = prog.last_sweep();

  hw::Cycles direct = full ? kernel.MeasureFullFlush(0) : kernel.MeasureOnCoreFlush(0);

  // One sweep right after the flush: the indirect (refill) cost.
  std::uint64_t n = prog.sweeps();
  while (prog.sweeps() == n) {
    kernel.StepCore(0);
  }
  hw::Cycles cold = prog.last_sweep();
  hw::Cycles refill = cold > steady ? cold - steady : 0;
  return {.metrics = {{"direct_us", machine.CyclesToMicros(direct)},
                      {"indirect_us", machine.CyclesToMicros(refill)}}};
}

void Report(const std::vector<runner::SweepCellResult>& results) {
  const std::map<std::string, const char*> paper = {
      {std::string(kHaswell) + "/L1", "26 / 1 / 27"},
      {std::string(kHaswell) + "/full", "270 / 250 / 520"},
      {std::string(kSabre) + "/L1", "20 / 25 / 45"},
      {std::string(kSabre) + "/full", "380 / 770 / 1150"},
  };
  Table t({"platform", "cache", "direct", "indirect", "total", "paper(d/i/t)"});
  for (const runner::SweepCellResult& r : results) {
    auto it = paper.find(r.cell.Name());
    const double direct = Metric(r, "direct_us");
    const double indirect = Metric(r, "indirect_us");
    t.AddRow({r.cell.platform, r.cell.variant == "full" ? "Full flush" : "L1 only",
              Fmt("%.1f", direct), Fmt("%.1f", indirect), Fmt("%.1f", direct + indirect),
              it != paper.end() ? it->second : "-"});
  }
  std::printf("\n");
  t.Print();
  std::printf(
      "\nShape checks: full >> L1 on both platforms; x86 manual L1 flush is\n"
      "dominated by the serialised jump chain (would be ~1 us with hardware "
      "support).\n");
}

const RegisterChannel registrar{{
    .name = "table2_flush_cost",
    .title = "Table 2: worst-case cost of cache flushes (us)",
    .paper = "x86 L1 dir 26 ind 1 tot 27; full 270/250/520. Arm L1 20/25/45; "
             "full 380/770/1150. (x86 L1 is the manual flush; ~1us with "
             "hardware support)",
    .contract = "all cells clean",
    .grids = Grids,
    .cost_cell = Cell,
    .report = Report,
}};

}  // namespace
}  // namespace tp::scenarios
