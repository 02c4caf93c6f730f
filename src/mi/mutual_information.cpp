#include "mi/mutual_information.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mi/kde.hpp"

namespace tp::mi {

double EstimateMi(const Observations& obs, const MiOptions& options) {
  if (obs.size() == 0 || options.grid_points < 2) {
    // A sub-2-point grid has no spacing to integrate over; indexing
    // grid[1] below would read past the end and poison the estimate.
    return 0.0;
  }
  std::map<int, std::vector<double>> by_input = obs.ByInput();
  if (by_input.size() < 2) {
    return 0.0;
  }

  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (double y : obs.outputs()) {
    lo = std::min(lo, y);
    hi = std::max(hi, y);
  }
  if (!(hi > lo)) {
    return 0.0;  // all outputs identical: nothing can leak
  }

  // Pad the support so Gaussian tails are integrated.
  double max_h = 0.0;
  for (const auto& [input, ys] : by_input) {
    max_h = std::max(max_h, SilvermanBandwidth(ys));
  }
  double pad = std::max(3.0 * max_h, (hi - lo) * 0.05);
  std::vector<double> grid = MakeGrid(lo - pad, hi + pad, options.grid_points);
  double dy = grid[1] - grid[0];

  // Conditional densities f(y|x), uniform prior p(x) = 1/|I| (§5.1).
  std::size_t k = by_input.size();
  double px = 1.0 / static_cast<double>(k);
  std::vector<std::vector<double>> cond;
  cond.reserve(k);
  for (const auto& [input, ys] : by_input) {
    double h = SilvermanBandwidth(ys);
    cond.push_back(KdeOnGrid(ys, grid, h));
  }

  // Marginal f(y) = sum_x p(x) f(y|x).
  std::vector<double> marginal(grid.size(), 0.0);
  for (const std::vector<double>& fx : cond) {
    for (std::size_t g = 0; g < grid.size(); ++g) {
      marginal[g] += px * fx[g];
    }
  }

  // Rectangle method: M = sum_x p(x) sum_g f(y|x) log2(f(y|x)/f(y)) dy.
  double mi = 0.0;
  for (const std::vector<double>& fx : cond) {
    for (std::size_t g = 0; g < grid.size(); ++g) {
      if (fx[g] > 0.0 && marginal[g] > 0.0) {
        mi += px * fx[g] * std::log2(fx[g] / marginal[g]) * dy;
      }
    }
  }
  return std::max(mi, 0.0);
}

}  // namespace tp::mi
