// Table 7: cost of kernel clone and destroy (µs) vs monolithic process
// creation (the paper compares against Linux fork+exec on the same
// hardware), per platform.
//
// Paper: x86 clone 79 µs, destroy 0.6 µs, fork+exec 257 µs; Arm clone
// 608 µs, destroy 67 µs, fork+exec 4300 µs. Shapes: clone is a fraction of
// process creation; destroy is 1-2 orders of magnitude cheaper still.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/domain.hpp"
#include "hw/machine.hpp"
#include "kernel/kernel.hpp"
#include "runner/quick.hpp"
#include "runner/runner.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/scenario_util.hpp"
#include "scenarios/summary.hpp"

namespace tp::scenarios {
namespace {

struct CloneCosts {
  double clone_us = 0.0;
  double destroy_us = 0.0;
  double spawn_us = 0.0;
};

// One shard's worth of reps on a fresh machine, summed.
CloneCosts Measure(const hw::MachineConfig& mc, std::size_t reps) {
  CloneCosts costs;
  hw::Machine machine(mc);
  kernel::KernelConfig kc;
  kc.clone_support = true;
  kc.timeslice_cycles = machine.MicrosToCycles(1e6);
  kernel::Kernel kernel(machine, kc);
  kernel::CSpace& cs = *kernel.boot_info().root_cspace;
  kernel::CapIdx untyped = kernel.boot_info().untyped;
  hw::Core& cpu = machine.core(0);

  std::size_t kmem_bytes = kernel.ImageBytes() + hw::kPageSize;

  for (std::size_t i = 0; i < reps; ++i) {
    kernel::CapIdx dest = 0;
    kernel::CapIdx kmem = 0;
    if (!kernel.Retype(0, cs, untyped, kernel::ObjectType::kKernelImage, 0, &dest).ok() ||
        !kernel.Retype(0, cs, untyped, kernel::ObjectType::kKernelMemory, kmem_bytes, &kmem)
             .ok()) {
      break;
    }
    hw::Cycles t0 = cpu.now();
    kernel.KernelClone(0, cs, dest, kernel.boot_info().kernel_image, kmem);
    costs.clone_us += machine.CyclesToMicros(cpu.now() - t0);

    t0 = cpu.now();
    kernel.KernelDestroy(0, cs, dest);
    costs.destroy_us += machine.CyclesToMicros(cpu.now() - t0);
  }

  for (std::size_t i = 0; i < reps; ++i) {
    hw::Cycles t0 = cpu.now();
    kernel::CapIdx vspace = 0;
    kernel.SpawnProcessEager(0, cs, untyped, /*image_pages=*/64, /*map_pages=*/96, &vspace);
    costs.spawn_us += machine.CyclesToMicros(cpu.now() - t0);
  }

  return costs;
}

std::vector<runner::GridSpec> Grids() {
  runner::GridSpec grid;
  grid.platforms = {kHaswell, kSabre};
  return {grid};
}

// The reps split into shards, each on a freshly booted machine, that run
// in shard order: the sums, and so the averages over the total, are the
// same on every host.
runner::CostCell Cell(const runner::GridCell& cell) {
  const std::size_t reps = bench::Scaled(24, 6);
  const hw::MachineConfig mc = PlatformConfig(cell.platform, 4);
  CloneCosts total;
  const runner::ShardPlan plan = runner::PlanShards(reps, /*root_seed=*/0, /*min_shard_rounds=*/2);
  for (std::size_t shard_reps : plan.shard_rounds) {
    const CloneCosts part = Measure(mc, shard_reps);
    total.clone_us += part.clone_us;
    total.destroy_us += part.destroy_us;
    total.spawn_us += part.spawn_us;
  }
  const double n = static_cast<double>(reps);
  return {.rounds = reps,
          .metrics = {{"clone_us", total.clone_us / n},
                      {"destroy_us", total.destroy_us / n},
                      {"spawn_us", total.spawn_us / n}}};
}

void Report(const std::vector<runner::SweepCellResult>& results) {
  const std::map<std::string, const char*> paper = {
      {kHaswell, "79 / 0.6 / 257"},
      {kSabre, "608 / 67 / 4300"},
  };
  Table t({"platform", "clone", "destroy", "process-create",
           "paper clone/destroy/fork+exec"});
  for (const runner::SweepCellResult& r : results) {
    auto it = paper.find(r.cell.platform);
    t.AddRow({r.cell.platform, Fmt("%.1f", Metric(r, "clone_us")),
              Fmt("%.2f", Metric(r, "destroy_us")), Fmt("%.1f", Metric(r, "spawn_us")),
              it != paper.end() ? it->second : "-"});
  }
  std::printf("\n");
  t.Print();
  std::printf(
      "\nShape checks: clone << process creation; destroy << clone.\n"
      "(The process-creation comparator performs the eager map + image copy +\n"
      "zeroing work of fork+exec on the same simulated hardware.)\n");
}

const RegisterChannel registrar{{
    .name = "table7_clone_cost",
    .title = "Table 7: kernel clone/destroy vs monolithic process creation (us)",
    .paper = "x86: clone 79, destroy 0.6, fork+exec 257. Arm: clone 608, "
             "destroy 67, fork+exec 4300",
    .contract = "all cells clean",
    .grids = Grids,
    .cost_cell = Cell,
    .report = Report,
}};

}  // namespace
}  // namespace tp::scenarios
