// Tests for src/core/metrics: the roughness/kurtosis metrics, the IID
// closed forms (Eq. 2 and Eq. 4) and the Eq. 5/6 pruning machinery.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/random.h"
#include "core/metrics.h"
#include "fft/autocorrelation.h"
#include "stats/descriptive.h"
#include "stats/welford.h"
#include "ts/generators.h"
#include "window/sma.h"

namespace asap {
namespace {

// --- Roughness basics (Fig. 4 anchors) ----------------------------------------

TEST(RoughnessTest, StraightLineHasZeroRoughness) {
  // Fig. 4 series C: constant slope <=> roughness 0 (up to the FP
  // rounding of the slope increments).
  EXPECT_NEAR(Roughness(gen::Linear(100, -3.0, 0.7)), 0.0, 1e-12);
  EXPECT_NEAR(Roughness(gen::Linear(100, 5.0, 0.0)), 0.0, 1e-12);
}

TEST(RoughnessTest, OrderingMatchesVisualIntuition) {
  // Jagged > slightly bent > straight (Fig. 4 A > B > C).
  std::vector<double> jagged;
  for (int i = 0; i < 100; ++i) {
    jagged.push_back(i % 2 == 0 ? 1.0 : -1.0);
  }
  std::vector<double> bent;
  for (int i = 0; i < 100; ++i) {
    bent.push_back(i < 50 ? i * 0.5 : 25.0 + (i - 50) * 1.5);
  }
  std::vector<double> straight = gen::Linear(100, 0.0, 1.0);
  EXPECT_GT(Roughness(jagged), Roughness(bent));
  EXPECT_GT(Roughness(bent), Roughness(straight));
}

TEST(RoughnessTest, KnownSmallCase) {
  // x = {0, 1, 0, 1}: diffs = {1, -1, 1}; population sd = sqrt(8/9).
  EXPECT_NEAR(Roughness({0, 1, 0, 1}), std::sqrt(8.0 / 9.0), 1e-12);
}

TEST(RoughnessTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(Roughness({}), 0.0);
  EXPECT_DOUBLE_EQ(Roughness({1.0}), 0.0);
  EXPECT_DOUBLE_EQ(Roughness({1.0, 5.0}), 0.0);  // one diff: sd undefined -> 0
}

// Roughness() folds only the first-difference recurrence; it must stay
// bitwise equal to the full ScoreAccumulator it replaced, on lengths
// around the < 3 cutoff and up to a few thousand points, at offsets
// and scales where rounding differs.
class RoughnessParityTest : public ::testing::TestWithParam<int> {};

TEST_P(RoughnessParityTest, BitwiseEqualToScoreAccumulator) {
  Pcg32 rng(static_cast<uint64_t>(GetParam()) * 7919);
  const size_t n = GetParam() <= 4 ? static_cast<size_t>(GetParam() - 1)
                                   : static_cast<size_t>(rng.Uniform(5, 4000));
  const double offset = rng.Uniform(-1e6, 1e6);
  const double scale = std::pow(10.0, rng.Uniform(-3, 3));
  std::vector<double> x = GetParam() % 2 == 0
                              ? GaussianVector(&rng, n, offset, scale)
                              : LaplaceVector(&rng, n, offset, scale);
  stats::ScoreAccumulator full;
  for (double v : x) {
    full.Add(v);
  }
  const double got = Roughness(x);
  const double want = full.roughness();
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(got)), 0)
      << "n=" << n << ": " << got << " vs " << want;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoughnessParityTest, ::testing::Range(1, 25));

TEST(RoughnessTest, ScalesLinearlyWithAmplitude) {
  Pcg32 rng(3);
  std::vector<double> x = GaussianVector(&rng, 1000, 0, 1);
  const double r1 = Roughness(x);
  const double r3 = Roughness(gen::Scale(x, 3.0));
  EXPECT_NEAR(r3, 3.0 * r1, 1e-9);
}

TEST(RoughnessTest, InvariantToLevelShift) {
  Pcg32 rng(4);
  std::vector<double> x = GaussianVector(&rng, 1000, 0, 1);
  std::vector<double> shifted = x;
  gen::InjectLevelShift(&shifted, 0, shifted.size(), 100.0);
  EXPECT_NEAR(Roughness(shifted), Roughness(x), 1e-9);
}

// --- Eq. 2: IID roughness decays as sqrt(2) sigma / w ---------------------------

class IidRoughnessTest : public ::testing::TestWithParam<size_t> {};

TEST_P(IidRoughnessTest, MatchesEquation2) {
  const size_t w = GetParam();
  Pcg32 rng(100 + w);
  const double sigma = 2.0;
  std::vector<double> x = GaussianVector(&rng, 200000, 0.0, sigma);
  std::vector<double> y = window::Sma(x, w);
  const double expected = IidRoughness(sigma, w);
  // Statistical tolerance: 5% relative.
  EXPECT_NEAR(Roughness(y), expected, 0.05 * expected) << "w=" << w;
}

INSTANTIATE_TEST_SUITE_P(Windows, IidRoughnessTest,
                         ::testing::Values(1, 2, 5, 10, 25, 50));

TEST(IidFormulaTest, RoughnessFormulaValues) {
  EXPECT_DOUBLE_EQ(IidRoughness(1.0, 1), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(IidRoughness(3.0, 6), std::sqrt(2.0) / 2.0);
}

// --- Eq. 4: IID kurtosis excess decays as 1/w -----------------------------------

class IidKurtosisTest : public ::testing::TestWithParam<size_t> {};

TEST_P(IidKurtosisTest, MatchesEquation4ForLaplace) {
  const size_t w = GetParam();
  Pcg32 rng(200 + w);
  // Laplace: kurtosis 6, excess 3 -> smoothed excess 3/w.
  std::vector<double> x = LaplaceVector(&rng, 400000, 0.0, 1.0);
  std::vector<double> y = window::Sma(x, w);
  const double expected = IidKurtosis(6.0, w);
  EXPECT_NEAR(Kurtosis(y), expected, 0.12) << "w=" << w;
}

INSTANTIATE_TEST_SUITE_P(Windows, IidKurtosisTest,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(IidFormulaTest, KurtosisFormulaValues) {
  EXPECT_DOUBLE_EQ(IidKurtosis(6.0, 1), 6.0);
  EXPECT_DOUBLE_EQ(IidKurtosis(6.0, 3), 4.0);
  // Sub-Gaussian kurtosis rises toward 3.
  EXPECT_DOUBLE_EQ(IidKurtosis(1.8, 2), 2.4);
  EXPECT_GT(IidKurtosis(1.8, 10), IidKurtosis(1.8, 2));
}

// --- Eq. 5: autocorrelation-aware roughness estimate -----------------------------

TEST(RoughnessEstimateTest, ReducesToEq2WhenUncorrelated) {
  // acf_w = 0 and n >> w: estimate ~ sqrt(2) sigma / w.
  const double est = RoughnessEstimate(2.0, 1000000, 10, 0.0);
  EXPECT_NEAR(est, IidRoughness(2.0, 10), 1e-6);
}

TEST(RoughnessEstimateTest, HighAcfShrinksEstimate) {
  const double low = RoughnessEstimate(1.0, 10000, 10, 0.0);
  const double high = RoughnessEstimate(1.0, 10000, 10, 0.9);
  EXPECT_LT(high, low);
}

TEST(RoughnessEstimateTest, ClampsNegativeRadicand) {
  EXPECT_DOUBLE_EQ(RoughnessEstimate(1.0, 100, 50, 0.99), 0.0);
}

class Eq5AccuracyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(Eq5AccuracyTest, EstimateTracksMeasuredRoughness) {
  // Reproduces the Fig. A.1 experiment on a stationary periodic series:
  // the estimate should stay within a few percent of the measured value.
  const size_t w = GetParam();
  Pcg32 rng(17);
  std::vector<double> x = gen::Add(gen::Sine(4000, 48.0, 1.0),
                                   gen::WhiteNoise(&rng, 4000, 0.4));
  const double sigma = stats::StdDev(x);
  std::vector<double> acf = fft::AutocorrelationFft(x, w);
  const double estimated = RoughnessEstimate(sigma, x.size(), w, acf[w]);
  const double measured = Roughness(window::Sma(x, w));
  EXPECT_NEAR(estimated, measured, 0.05 * measured + 1e-3) << "w=" << w;
}

INSTANTIATE_TEST_SUITE_P(Windows, Eq5AccuracyTest,
                         ::testing::Values(2, 6, 12, 24, 48, 96));

// --- Pruning comparators (Algorithm 1 helpers) -----------------------------------

TEST(EstimatedRougherTest, LargerWindowSmootherAtEqualAcf) {
  // Same autocorrelation: larger window always smoother.
  EXPECT_TRUE(EstimatedRougher(10, 0.5, 20, 0.5));
  EXPECT_FALSE(EstimatedRougher(20, 0.5, 10, 0.5));
}

TEST(EstimatedRougherTest, HighAcfCanBeatLargerWindow) {
  // w=10 with acf 0.99 estimates smoother than w=20 with acf 0.
  EXPECT_FALSE(EstimatedRougher(10, 0.99, 20, 0.0));
  EXPECT_TRUE(EstimatedRougher(20, 0.0, 10, 0.99));
}

TEST(WindowLowerBoundTest, MatchesEquation6) {
  // w * sqrt((1 - max_acf) / (1 - acf_w)).
  EXPECT_NEAR(WindowLowerBound(20, 0.5, 0.875), 10.0, 1e-12);
  // acf_w == max_acf: bound equals w.
  EXPECT_NEAR(WindowLowerBound(20, 0.5, 0.5), 20.0, 1e-12);
}

TEST(WindowLowerBoundTest, PerfectCorrelationReturnsW) {
  EXPECT_DOUBLE_EQ(WindowLowerBound(15, 1.0, 0.9), 15.0);
}

TEST(WindowLowerBoundTest, NegativeRatioClampsToZero) {
  // max_acf > 1 can't happen, but numeric drift can push the ratio
  // negative; bound should clamp at 0, not NaN.
  EXPECT_DOUBLE_EQ(WindowLowerBound(15, 0.5, 1.2), 0.0);
}

// --- Smoothing monotonicity sanity ------------------------------------------------

TEST(MetricsIntegrationTest, SmoothingReducesRoughnessOnNoise) {
  Pcg32 rng(5);
  std::vector<double> x = GaussianVector(&rng, 5000, 0, 1);
  double prev = Roughness(x);
  for (size_t w : {2u, 4u, 8u, 16u}) {
    const double r = Roughness(window::Sma(x, w));
    EXPECT_LT(r, prev) << "w=" << w;
    prev = r;
  }
}

TEST(MetricsIntegrationTest, SmoothingAveragesOutIsolatedOutlier) {
  // §3.2's argument: a single extreme outlier loses kurtosis under SMA,
  // so the constraint correctly blocks smoothing.
  Pcg32 rng(6);
  std::vector<double> x = GaussianVector(&rng, 2000, 0, 0.3);
  gen::InjectSpike(&x, 1000, 10.0);
  const double kurt_raw = Kurtosis(x);
  const double kurt_smooth = Kurtosis(window::Sma(x, 10));
  EXPECT_LT(kurt_smooth, kurt_raw);
}

}  // namespace
}  // namespace asap
