// Confidence intervals on the MI estimate.
//
// The fixed-rounds leakage test (leakage_test.hpp) answers "did these N
// samples show evidence of a channel?" with a point estimate. Sequential
// stopping needs more: a *bound* on the estimate after every wave of
// observations, so a sweep can resolve "leaks" / "doesn't leak" against the
// leak threshold early and stop sampling ("Can We Prove Time Protection?"
// argues verdicts should rest on bounds, not points).
//
// BootstrapInterval brackets the KDE + rectangle-method estimate (the
// sweep's verdict estimator, §5.1) with an input-stratified bootstrap CI:
// outputs are resampled with replacement *within* each input symbol, so the
// resamples preserve the per-symbol sample sizes, and the normal-
// approximation interval is centred on the pooled estimate. It is a pure
// function of its arguments — callers key the seed on accumulated rounds so
// the interval is a pure function of the data prefix.
//
// Degenerate data (no observations, a single input symbol, constant
// outputs) returns MI 0 with a [0, 0] interval, never NaN.
#ifndef TP_MI_INTERVAL_HPP_
#define TP_MI_INTERVAL_HPP_

#include <cstdint>

#include "mi/mutual_information.hpp"
#include "mi/observations.hpp"

namespace tp::mi {

// Two-sided standard-normal quantile Phi^{-1}(p) for p in (0, 1)
// (Acklam's rational approximation, |error| < 1.2e-9). Clamped inputs
// outside (0, 1) return -/+ 8 rather than infinities.
double NormalQuantile(double p);

// An estimate with its (1 - significance) two-sided confidence interval.
struct MiInterval {
  double mi_bits = 0.0;
  double ci_low = 0.0;  // clamped at 0 (MI is non-negative)
  double ci_high = 0.0;
};

// The pooled EstimateMi(obs, options) bracketed by a bootstrap interval at
// two-sided `significance` from `resamples` input-stratified resamples;
// `seed` drives the resampling only.
MiInterval BootstrapInterval(const Observations& obs, const MiOptions& options,
                             double significance, std::size_t resamples, std::uint64_t seed);

}  // namespace tp::mi

#endif  // TP_MI_INTERVAL_HPP_
