// Bootstrap MI intervals: degenerate data is total (never NaN), the
// bootstrap is seed-deterministic, and the interval brackets the point
// estimate and resolves clearly leaky and clearly flat channels.
#include "mi/interval.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "mi/kde.hpp"
#include "mi/mutual_information.hpp"
#include "support/test_support.hpp"

namespace tp::mi {
namespace {

class Streaming : public test::DeterministicTest {};

MiInterval Interval(const Observations& obs, std::uint64_t seed = 0x5eed) {
  return BootstrapInterval(obs, MiOptions{}, 0.05, 40, seed);
}

void ExpectDegenerate(const Observations& obs) {
  MiInterval ci = Interval(obs);
  EXPECT_TRUE(std::isfinite(ci.mi_bits) && std::isfinite(ci.ci_low) && std::isfinite(ci.ci_high));
  EXPECT_EQ(ci.mi_bits, 0.0);
  EXPECT_EQ(ci.ci_low, 0.0);
  EXPECT_EQ(ci.ci_high, 0.0);
}

TEST_F(Streaming, EmptyStreamIsZeroNotNan) { ExpectDegenerate(Observations{}); }

TEST_F(Streaming, SingleInputSymbolCarriesNoInformation) {
  Observations obs;
  for (int i = 0; i < 200; ++i) {
    obs.Add(0, static_cast<double>(i));
  }
  ExpectDegenerate(obs);
}

TEST_F(Streaming, ConstantOutputsAreZeroNotNan) {
  // Zero output variance gives a zero Silverman bandwidth — the KDE path
  // must not divide by it.
  Observations obs;
  for (int i = 0; i < 200; ++i) {
    obs.Add(i % 4, 42.0);
  }
  ExpectDegenerate(obs);
}

TEST_F(Streaming, EstimateMiRejectsTinyGrids) {
  Observations obs = test::GaussianChannel(2, 5.0, 1.0, 100, seed());
  MiOptions options;
  options.grid_points = 1;  // grid[1] does not exist
  EXPECT_EQ(EstimateMi(obs, options), 0.0);
}

TEST_F(Streaming, KdeOnGridHandlesZeroWidthGrid) {
  std::vector<double> samples = test::GaussianSamples(100, 0.0, 1.0, seed());
  std::vector<double> grid(16, 1.0);  // all grid points identical
  std::vector<double> density = KdeOnGrid(samples, grid, 0.5);
  for (double d : density) {
    EXPECT_TRUE(std::isfinite(d));
  }
}

TEST_F(Streaming, BootstrapIsSeedDeterministic) {
  Observations obs = test::GaussianChannel(2, 2.0, 1.0, 300, seed());
  MiInterval a = Interval(obs, 0xABCD);
  MiInterval b = Interval(obs, 0xABCD);
  MiInterval c = Interval(obs, 0xABCE);
  EXPECT_EQ(a.ci_low, b.ci_low);
  EXPECT_EQ(a.ci_high, b.ci_high);
  // A different seed resamples differently; the interval moves (the point
  // estimate is pooled and seed-independent).
  EXPECT_EQ(a.mi_bits, c.mi_bits);
  EXPECT_NE(a.ci_high, c.ci_high);
}

TEST_F(Streaming, IntervalBracketsPointEstimate) {
  Observations obs = test::GaussianChannel(2, 3.0, 1.0, 500, seed());
  MiInterval ci = Interval(obs);
  EXPECT_EQ(ci.mi_bits, EstimateMi(obs));
  EXPECT_LE(ci.ci_low, ci.mi_bits);
  EXPECT_GE(ci.ci_high, ci.mi_bits);
}

TEST_F(Streaming, SeparatedChannelResolvesLeaky) {
  // A clearly separated 2-symbol channel: even the CI lower bound clears
  // any sub-bit leak threshold.
  MiInterval ci = Interval(test::GaussianChannel(2, 50.0, 0.5, 400, seed()));
  EXPECT_GT(ci.ci_low, 0.5);
  EXPECT_NEAR(ci.mi_bits, 1.0, 0.1);
}

TEST_F(Streaming, FlatChannelResolvesClean) {
  MiInterval ci = Interval(test::IndependentChannel(4, 1.0, 3000, seed()));
  EXPECT_LT(ci.ci_high, 0.05);
}

TEST(NormalQuantileTest, MatchesKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959964, 1e-5);
  // Clamped outside (0, 1) rather than returning infinities.
  EXPECT_EQ(NormalQuantile(0.0), -8.0);
  EXPECT_EQ(NormalQuantile(1.0), 8.0);
}

}  // namespace
}  // namespace tp::mi
