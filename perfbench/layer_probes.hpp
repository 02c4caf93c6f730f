// Per-call host-time probes of the hw and kernel layers, run on machines
// the benchmark builds itself (one core, as every scenario cell uses).
// Each probe reports the median over repeated timed loops and checks the
// simulator's own counters, so a probe that stopped exercising the path it
// names fails instead of reporting a wrong number.
#ifndef PERFBENCH_LAYER_PROBES_HPP_
#define PERFBENCH_LAYER_PROBES_HPP_

#include <string>
#include <utility>
#include <vector>

namespace tp::perfbench {

// (metric name, value) pairs, each name suffixed with its platform
// (.haswell, .sabre):
//   hw.access_ns.{l1_hit,llc_hit,dram}  Core::Access, ns per access
//   hw.batch_ns.{live,replay}           Core::AccessBatch(span<VAddr>) of a
//                                       64-line batch, ns per call, first
//                                       run vs memoised repeat
//   hw.memop_batch_ns                   Core::AccessBatch(span<MemOp>) of 64
//                                       ops, ns per call
//   hw.back_invalidate_ns               Machine::BackInvalidateLine, ns per call
//   kernel.on_core_flush_host_us        Kernel::MeasureOnCoreFlush, host us
//   kernel.full_flush_host_us           Kernel::MeasureFullFlush, host us
// Throws std::runtime_error when a probe's counters show it missed its path.
std::vector<std::pair<std::string, double>> RunLayerProbes();

}  // namespace tp::perfbench

#endif  // PERFBENCH_LAYER_PROBES_HPP_
