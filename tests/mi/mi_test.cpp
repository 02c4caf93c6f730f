// Point examples for the MI estimator, KDE, leakage test and channel
// matrix, on the shared tests/support observation builders.
#include <gtest/gtest.h>

#include <cmath>

#include "mi/channel_matrix.hpp"
#include "mi/kde.hpp"
#include "mi/leakage_test.hpp"
#include "mi/mutual_information.hpp"
#include "support/test_support.hpp"

namespace tp::mi {
namespace {

class Kde : public test::DeterministicTest {};
class Mi : public test::DeterministicTest {};
class LeakageTest : public test::DeterministicTest {};

TEST_F(Kde, SilvermanBandwidthScalesWithSpread) {
  std::vector<double> tight{1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02};
  std::vector<double> wide{1.0, 11.0, -9.0, 10.5, -9.5, 1.0, 10.2};
  EXPECT_GT(SilvermanBandwidth(wide), SilvermanBandwidth(tight));
}

TEST_F(Kde, DegenerateDataHasZeroBandwidth) {
  std::vector<double> constant(50, 3.0);
  EXPECT_EQ(SilvermanBandwidth(constant), 0.0);
  EXPECT_EQ(SilvermanBandwidth({1.0}), 0.0);
}

TEST_F(Kde, DensityIntegratesToOne) {
  std::vector<double> samples = test::GaussianSamples(2000, 0.0, 1.0, seed());
  std::vector<double> grid = MakeGrid(-6.0, 6.0, 512);
  std::vector<double> density = KdeOnGrid(samples, grid, SilvermanBandwidth(samples));
  double integral = 0.0;
  double dy = grid[1] - grid[0];
  for (double d : density) {
    integral += d * dy;
  }
  EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST_F(Kde, KdeOnGridHandlesZeroWidthGrid) {
  std::vector<double> samples = test::GaussianSamples(100, 0.0, 1.0, seed());
  std::vector<double> grid(16, 1.0);  // all grid points identical
  std::vector<double> density = KdeOnGrid(samples, grid, 0.5);
  for (double d : density) {
    EXPECT_TRUE(std::isfinite(d));
  }
}

TEST_F(Kde, DensityPeaksAtMean) {
  std::vector<double> samples = test::GaussianSamples(2000, 2.0, 0.5, seed());
  std::vector<double> grid = MakeGrid(-1.0, 5.0, 256);
  std::vector<double> density = KdeOnGrid(samples, grid, SilvermanBandwidth(samples));
  std::size_t peak = 0;
  for (std::size_t i = 0; i < density.size(); ++i) {
    if (density[i] > density[peak]) {
      peak = i;
    }
  }
  EXPECT_NEAR(grid[peak], 2.0, 0.3);
}

TEST_F(Mi, PerfectBinaryChannelIsOneBit) {
  // Two inputs with fully separated outputs: M = log2(2) = 1 bit.
  Observations obs = test::GaussianChannel(2, 100.0, 0.5, 2000, seed());
  EXPECT_NEAR(EstimateMi(obs), 1.0, 0.05);
}

TEST_F(Mi, PerfectFourSymbolChannelIsTwoBits) {
  Observations obs = test::GaussianChannel(4, 100.0, 0.5, 1500, seed());
  EXPECT_NEAR(EstimateMi(obs), 2.0, 0.08);
}

TEST_F(Mi, IndependentOutputsCarryNoInformation) {
  Observations obs = test::IndependentChannel(4, 10.0, 6000, seed());
  EXPECT_LT(EstimateMi(obs), 0.02);
}

TEST_F(Mi, PartialOverlapGivesIntermediateMi) {
  Observations obs = test::GaussianChannel(2, 2.0, 2.0, 3000, seed());  // heavy overlap
  double m = EstimateMi(obs);
  EXPECT_GT(m, 0.05);
  EXPECT_LT(m, 0.6);
}

// Degenerate data carries no information: the estimate is exactly 0,
// never NaN.
void ExpectZeroNotNan(const Observations& obs) {
  const double m = EstimateMi(obs);
  EXPECT_TRUE(std::isfinite(m));
  EXPECT_EQ(m, 0.0);
}

TEST_F(Mi, ConstantOutputsGiveZero) {
  Observations obs;
  for (int i = 0; i < 100; ++i) {
    obs.Add(i % 2, 42.0);
  }
  ExpectZeroNotNan(obs);
}

TEST_F(Mi, ConstantOutputsAreZeroNotNan) {
  // Zero output variance gives a zero Silverman bandwidth for every symbol;
  // the KDE path must not divide by it.
  Observations obs;
  for (int i = 0; i < 200; ++i) {
    obs.Add(i % 4, 42.0);
  }
  ExpectZeroNotNan(obs);
}

TEST_F(Mi, EmptySetIsZeroNotNan) { ExpectZeroNotNan(Observations{}); }

TEST_F(Mi, SingleInputSymbolCarriesNoInformation) {
  Observations obs;
  for (int i = 0; i < 200; ++i) {
    obs.Add(0, static_cast<double>(i));
  }
  ExpectZeroNotNan(obs);
}

TEST_F(Mi, EstimateMiRejectsTinyGrids) {
  Observations obs = test::GaussianChannel(2, 5.0, 1.0, 100, seed());
  MiOptions options;
  options.grid_points = 1;  // grid[1] does not exist
  EXPECT_EQ(EstimateMi(obs, options), 0.0);
}

TEST_F(LeakageTest, DetectsRealLeak) {
  Observations obs = test::GaussianChannel(2, 6.0, 1.0, 1200, seed());
  LeakageResult r = test::Analyse(obs);
  EXPECT_TRUE(r.leak);
  EXPECT_GT(r.mi_bits, r.m0_bits);
}

TEST_F(LeakageTest, NoFalsePositiveOnNoise) {
  Observations obs = test::IndependentChannel(4, 1.0, 4000, seed());
  LeakageResult r = test::Analyse(obs);
  EXPECT_FALSE(r.leak) << "M=" << r.mi_bits << " M0=" << r.m0_bits;
}

TEST_F(LeakageTest, M0TracksShuffleDistribution) {
  Observations obs = test::GaussianChannel(2, 0.0, 1.0, 1000, seed());
  LeakageResult r = test::Analyse(obs, 30);
  EXPECT_GE(r.m0_bits, r.shuffle_mean);
  EXPECT_NEAR(r.m0_bits, r.shuffle_mean + 1.96 * r.shuffle_sd, 1e-12);
}

TEST(ChannelMatrix, RowsAreConditionalDistributions) {
  Observations obs;
  for (int i = 0; i < 100; ++i) {
    obs.Add(0, 1.0);
    obs.Add(1, 9.0);
  }
  ChannelMatrix m(obs, 10);
  ASSERT_EQ(m.num_inputs(), 2u);
  double sum0 = 0.0;
  for (std::size_t b = 0; b < m.num_bins(); ++b) {
    sum0 += m.Probability(0, b);
  }
  EXPECT_NEAR(sum0, 1.0, 1e-9);
  EXPECT_GT(m.Probability(0, 0), 0.9);
  EXPECT_GT(m.Probability(1, 9), 0.9);
}

TEST(ChannelMatrix, CsvHasHeaderAndRows) {
  Observations obs;
  obs.Add(0, 1.0);
  obs.Add(1, 2.0);
  ChannelMatrix m(obs, 4);
  std::string csv = m.ToCsv();
  EXPECT_NE(csv.find("input_0"), std::string::npos);
  EXPECT_NE(csv.find("input_1"), std::string::npos);
}

}  // namespace
}  // namespace tp::mi
