// Continuous mutual information between discrete inputs and continuous
// outputs, estimated with KDE + the rectangle method (paper §5.1): treating
// outputs as purely discrete would ignore their ordering and could miss
// leaks, so the toolchain integrates the estimated conditional densities.
#ifndef TP_MI_MUTUAL_INFORMATION_HPP_
#define TP_MI_MUTUAL_INFORMATION_HPP_

#include <cstdint>

#include "mi/observations.hpp"

namespace tp::mi {

struct MiOptions {
  std::size_t grid_points = 512;
};

// M: mutual information (bits per input symbol) between a uniform
// distribution on inputs and the observed outputs.
double EstimateMi(const Observations& obs, const MiOptions& options = {});

}  // namespace tp::mi

#endif  // TP_MI_MUTUAL_INFORMATION_HPP_
