#include "mi/interval.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <vector>

namespace tp::mi {

namespace {

// Data is degenerate — MI is exactly 0 by construction — when there are no
// observations, a single input symbol, or a constant output column.
bool Degenerate(const Observations& obs, const std::map<int, std::vector<double>>& by_input) {
  if (obs.size() == 0 || by_input.size() < 2) {
    return true;
  }
  double lo = obs.outputs().front();
  for (double y : obs.outputs()) {
    if (y != lo) {
      return false;
    }
  }
  return true;
}

}  // namespace

double NormalQuantile(double p) {
  // Acklam's inverse-normal-CDF approximation: rational polynomials over a
  // central region and two tails.
  if (!(p > 0.0)) {
    return -8.0;
  }
  if (!(p < 1.0)) {
    return 8.0;
  }
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  if (p < p_low) {
    double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - p_low) {
    double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  double q = p - 0.5;
  double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

MiInterval BootstrapInterval(const Observations& obs, const MiOptions& options,
                             double significance, std::size_t resamples, std::uint64_t seed) {
  const std::map<int, std::vector<double>> by_input = obs.ByInput();
  MiInterval interval;
  if (Degenerate(obs, by_input)) {
    return interval;
  }
  interval.mi_bits = EstimateMi(obs, options);

  // Input-stratified bootstrap: resample outputs with replacement within
  // each symbol's group, preserving the per-symbol sample sizes the
  // estimator saw. One sequential RNG keeps the resamples a pure function
  // of (seed, data).
  std::mt19937_64 rng(seed);
  std::vector<double> estimates;
  estimates.reserve(resamples);
  for (std::size_t r = 0; r < resamples; ++r) {
    Observations resampled;
    for (const auto& [input, ys] : by_input) {
      std::uniform_int_distribution<std::size_t> pick(0, ys.size() - 1);
      for (std::size_t i = 0; i < ys.size(); ++i) {
        resampled.Add(input, ys[pick(rng)]);
      }
    }
    estimates.push_back(EstimateMi(resampled, options));
  }
  double mean = 0.0;
  for (double e : estimates) {
    mean += e;
  }
  mean /= static_cast<double>(estimates.size());
  double var = 0.0;
  for (double e : estimates) {
    var += (e - mean) * (e - mean);
  }
  var /= static_cast<double>(std::max<std::size_t>(estimates.size() - 1, 1));
  double sd = std::sqrt(std::max(var, 0.0));

  // Normal-approximation interval centred on the *pooled* estimate (the
  // bootstrap supplies the spread, not the centre — percentile intervals
  // on small resample counts would jitter the bound).
  double z = NormalQuantile(1.0 - significance / 2.0);
  interval.ci_low = std::max(interval.mi_bits - z * sd, 0.0);
  interval.ci_high = interval.mi_bits + z * sd;
  return interval;
}

}  // namespace tp::mi
