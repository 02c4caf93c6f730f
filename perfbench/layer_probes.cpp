#include "layer_probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/domain.hpp"
#include "hw/machine.hpp"
#include "kernel/kernel.hpp"

namespace tp::perfbench {
namespace {

constexpr hw::PAddr kPageTables = 0x40000000;  // above every probe buffer

// User addresses translate to themselves; page walks read two PTE lines in
// a table region of their own.
class IdentityContext final : public hw::TranslationContext {
 public:
  std::optional<hw::Translation> Translate(hw::VAddr vaddr) const override {
    if (hw::IsKernelAddress(vaddr)) {
      return hw::Translation{hw::PageAlignDown(hw::PaddrOfKernelVaddr(vaddr)), false};
    }
    return hw::Translation{hw::PageAlignDown(vaddr), false};
  }
  void WalkPath(hw::VAddr vaddr, std::vector<hw::PAddr>& out) const override {
    out.push_back(kPageTables + (hw::PageNumber(vaddr) % 512) * 8);
    out.push_back(kPageTables + hw::kPageSize + (hw::PageNumber(vaddr) % 512) * 8);
  }
  hw::Asid asid() const override { return 1; }
};

double NowNs() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
  return v[v.size() / 2];
}

// Median over `reps` timed calls of `loop` of the time per call, divided by
// `ops_per_loop`.
template <typename Fn>
double MedianNsPerOp(std::size_t reps, std::size_t ops_per_loop, Fn&& loop) {
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const double t0 = NowNs();
    loop();
    samples.push_back((NowNs() - t0) / static_cast<double>(ops_per_loop));
  }
  return Median(std::move(samples));
}

void Require(bool ok, const std::string& what) {
  if (!ok) {
    throw std::runtime_error("layer probe missed its path: " + what);
  }
}

std::vector<hw::VAddr> Lines(hw::VAddr base, std::size_t count, std::size_t stride) {
  std::vector<hw::VAddr> lines(count);
  for (std::size_t i = 0; i < count; ++i) {
    lines[i] = base + i * stride;
  }
  return lines;
}

using Metrics = std::vector<std::pair<std::string, double>>;

// Access-path probes: each address set is cycled until warm, then timed.
void AccessProbes(const hw::MachineConfig& cfg, const std::string& suffix, Metrics& out) {
  hw::Machine machine(cfg);
  IdentityContext ctx;
  hw::Core& core = machine.core(0);
  core.SetUserContext(&ctx);
  core.SetKernelContext(&ctx, true);
  const hw::PerfCounters& pc = core.counters();
  const std::size_t line = cfg.l1d.line_size;
  std::uint64_t sink = 0;

  auto probe = [&](const char* name, const std::vector<hw::VAddr>& addrs,
                   std::size_t rounds) {
    auto loop = [&] {
      for (std::size_t r = 0; r < rounds; ++r) {
        for (hw::VAddr va : addrs) {
          sink += core.Access(va, hw::AccessKind::kRead);
        }
      }
    };
    loop();
    loop();
    const hw::PerfCounters before = pc;
    const double ns = MedianNsPerOp(31, rounds * addrs.size(), loop);
    out.emplace_back(std::string("hw.access_ns.") + name + suffix, ns);
    return std::pair{pc.l1d_misses - before.l1d_misses, pc.llc_misses - before.llc_misses};
  };

  // Eight lines of one page: L1 and first-level TLB hits.
  auto [l1_misses, l1_llc] = probe("l1_hit", Lines(0x100000, 8, line), 512);
  Require(l1_misses == 0 && l1_llc == 0, "l1_hit");

  // Twice as many lines as the private caches have ways, all in one set of
  // each private level: every access misses privately and hits the LLC.
  std::size_t span = cfg.l1d.WaySpanBytes();
  std::size_t ways = cfg.l1d.associativity;
  if (cfg.has_private_l2) {
    span = std::max(span, cfg.l2.WaySpanBytes());
    ways = std::max(ways, cfg.l2.associativity);
  }
  const std::vector<hw::VAddr> llc_set = Lines(0x1000000, 2 * ways, span);
  const std::size_t llc_ops = 31 * 256 * llc_set.size();
  auto [llc_l1, llc_llc] = probe("llc_hit", llc_set, 256);
  Require(llc_l1 == llc_ops && llc_llc == 0,
          "llc_hit: " + std::to_string(llc_l1) + " L1-D and " + std::to_string(llc_llc) +
              " LLC misses in " + std::to_string(llc_ops) + " accesses");

  // Eight more lines than the LLC has ways, all in one LLC set and slice:
  // every access goes to DRAM (page walks of the thrashed TLB add a few
  // misses of their own).
  const std::size_t llc_span = cfg.llc.WaySpanBytes();
  std::vector<hw::VAddr> dram_set;
  const hw::PAddr dram_base = 0x2000000;
  const std::size_t slice = machine.llc().SliceOf(dram_base);
  for (hw::PAddr pa = dram_base; dram_set.size() < cfg.llc.associativity + 8;
       pa += llc_span) {
    if (machine.llc().SliceOf(pa) == slice) {
      dram_set.push_back(pa);
    }
  }
  const std::size_t dram_ops = 31 * 64 * dram_set.size();
  auto [dram_l1, dram_llc] = probe("dram", dram_set, 64);
  Require(dram_l1 >= dram_ops && dram_llc >= dram_ops,
          "dram: " + std::to_string(dram_l1) + " L1-D and " + std::to_string(dram_llc) +
              " LLC misses in " + std::to_string(dram_ops) + " accesses");

  // A 64-line batch: live (alternating two spans with the same contents, so
  // the memo never matches) and replayed (one span repeated).
  const std::vector<hw::VAddr> batch_a = Lines(0x200000, 64, line);
  const std::vector<hw::VAddr> batch_b = batch_a;
  core.AccessBatch(batch_a, hw::AccessKind::kRead);
  core.AccessBatch(batch_b, hw::AccessKind::kRead);
  hw::PerfCounters before = pc;
  out.emplace_back("hw.batch_ns.live" + suffix, MedianNsPerOp(31, 512, [&] {
                     for (int i = 0; i < 256; ++i) {
                       sink += core.AccessBatch(batch_a, hw::AccessKind::kRead);
                       sink += core.AccessBatch(batch_b, hw::AccessKind::kRead);
                     }
                   }));
  Require(pc.l1d_misses == before.l1d_misses, "batch_ns.live");
  core.AccessBatch(batch_a, hw::AccessKind::kRead);
  out.emplace_back("hw.batch_ns.replay" + suffix, MedianNsPerOp(31, 512, [&] {
                     for (int i = 0; i < 512; ++i) {
                       sink += core.AccessBatch(batch_a, hw::AccessKind::kRead);
                     }
                   }));

  std::vector<hw::MemOp> ops(batch_a.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i] = {batch_a[i], i % 2 == 0 ? hw::AccessKind::kRead : hw::AccessKind::kWrite};
  }
  core.AccessBatch(ops);
  before = pc;
  out.emplace_back("hw.memop_batch_ns" + suffix, MedianNsPerOp(31, 512, [&] {
                     for (int i = 0; i < 512; ++i) {
                       sink += core.AccessBatch(ops);
                     }
                   }));
  Require(pc.l1d_misses == before.l1d_misses, "memop_batch_ns");

  // Lines no core holds: the probe of every private cache that each LLC
  // eviction pays.
  const std::vector<hw::VAddr> absent = Lines(0x300000, 64, line);
  out.emplace_back("hw.back_invalidate_ns" + suffix, MedianNsPerOp(31, 64 * 64, [&] {
                     for (int i = 0; i < 64; ++i) {
                       for (hw::PAddr pa : absent) {
                         machine.BackInvalidateLine(pa);
                       }
                     }
                   }));
  if (sink == 0) {
    throw std::runtime_error("layer probes simulated no cycles");
  }
}

// Writes every line of its buffer once per step, dirtying the L1-D.
class DirtyL1 final : public kernel::UserProgram {
 public:
  explicit DirtyL1(std::vector<hw::VAddr> lines) : lines_(std::move(lines)) {}
  void Step(kernel::UserApi& api) override {
    api.WriteBatch(lines_);
    ++sweeps_;
  }
  std::uint64_t sweeps() const { return sweeps_; }

 private:
  std::vector<hw::VAddr> lines_;
  std::uint64_t sweeps_ = 0;
};

// Host time of one flush call on a booted kernel whose L1-D a user thread
// re-dirties before every call.
double FlushProbeUs(const hw::MachineConfig& cfg, bool full) {
  hw::Machine machine(cfg);
  kernel::KernelConfig kc;
  kc.timeslice_cycles = machine.MicrosToCycles(1e6);  // no preemption
  kernel::Kernel kernel(machine, kc);
  core::DomainManager mgr(kernel);
  core::Domain& d = mgr.CreateDomain({.id = 1});
  core::MappedBuffer buf = mgr.AllocBuffer(d, cfg.l1d.size_bytes);
  DirtyL1 prog(Lines(buf.base, cfg.l1d.TotalLines(), cfg.l1d.line_size));
  mgr.StartThread(d, &prog, 100, 0);
  kernel.SetDomainSchedule(0, {1});
  kernel.KickSchedule(0);

  std::vector<double> samples;
  std::uint64_t cycles = 0;
  for (int rep = 0; rep < 51; ++rep) {
    const std::uint64_t n = prog.sweeps();
    for (int steps = 0; prog.sweeps() == n; ++steps) {
      Require(steps < 100000, "flush probe thread never ran");
      kernel.StepCore(0);
    }
    const double t0 = NowNs();
    cycles += full ? kernel.MeasureFullFlush(0) : kernel.MeasureOnCoreFlush(0);
    samples.push_back((NowNs() - t0) / 1000.0);
  }
  Require(cycles > 0, full ? "full_flush" : "on_core_flush");
  return Median(std::move(samples));
}

}  // namespace

std::vector<std::pair<std::string, double>> RunLayerProbes() {
  Metrics out;
  const std::pair<hw::MachineConfig, const char*> platforms[] = {
      {hw::MachineConfig::Haswell(1), ".haswell"}, {hw::MachineConfig::Sabre(1), ".sabre"}};
  for (const auto& [cfg, suffix] : platforms) {
    AccessProbes(cfg, suffix, out);
    out.emplace_back(std::string("kernel.on_core_flush_host_us") + suffix,
                     FlushProbeUs(cfg, false));
    out.emplace_back(std::string("kernel.full_flush_host_us") + suffix,
                     FlushProbeUs(cfg, true));
  }
  return out;
}

}  // namespace tp::perfbench
