// Tests for src/core/acf_peaks: peak detection on periodic, composite
// and aperiodic signals.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/random.h"
#include "core/acf_peaks.h"
#include "fft/autocorrelation.h"
#include "ts/generators.h"

namespace asap {
namespace {

bool ContainsNear(const std::vector<size_t>& peaks, size_t target,
                  size_t tolerance) {
  return std::any_of(peaks.begin(), peaks.end(), [&](size_t p) {
    return p + tolerance >= target && p <= target + tolerance;
  });
}

TEST(FindAcfPeaksTest, EmptyAndTinyInputs) {
  EXPECT_TRUE(FindAcfPeaks({}).empty());
  EXPECT_TRUE(FindAcfPeaks({1.0}).empty());
  EXPECT_TRUE(FindAcfPeaks({1.0, 0.5}).empty());
}

TEST(FindAcfPeaksTest, DetectsInteriorLocalMaximum) {
  // Peak of 0.8 at lag 3.
  std::vector<double> acf = {1.0, 0.2, 0.5, 0.8, 0.4, 0.1};
  std::vector<size_t> peaks = FindAcfPeaks(acf, 0.2);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0], 3u);
}

TEST(FindAcfPeaksTest, ThresholdFiltersWeakPeaks) {
  std::vector<double> acf = {1.0, 0.0, 0.1, 0.15, 0.1, 0.0};
  EXPECT_TRUE(FindAcfPeaks(acf, 0.2).empty());
  EXPECT_EQ(FindAcfPeaks(acf, 0.05).size(), 1u);
}

TEST(FindAcfPeaksTest, LagOneIsNeverAPeak) {
  // Even a huge lag-1 correlation is sampling continuity, not period.
  std::vector<double> acf = {1.0, 0.95, 0.5, 0.2, 0.1, 0.05};
  EXPECT_TRUE(FindAcfPeaks(acf, 0.2).empty());
}

TEST(ComputeAcfInfoTest, SineWavePeaksAtPeriodMultiples) {
  std::vector<double> x = gen::Sine(1024, 32.0);
  AcfInfo info = ComputeAcfInfo(x, 128);
  EXPECT_TRUE(ContainsNear(info.peaks, 32, 1));
  EXPECT_TRUE(ContainsNear(info.peaks, 64, 1));
  EXPECT_TRUE(ContainsNear(info.peaks, 96, 1));
  EXPECT_GT(info.max_acf, 0.9);
}

TEST(ComputeAcfInfoTest, NoisySinePeaksSurvive) {
  Pcg32 rng(2);
  std::vector<double> x = gen::Add(gen::Sine(2048, 48.0),
                                   gen::WhiteNoise(&rng, 2048, 0.5));
  AcfInfo info = ComputeAcfInfo(x, 200);
  EXPECT_TRUE(ContainsNear(info.peaks, 48, 2));
  EXPECT_TRUE(ContainsNear(info.peaks, 96, 2));
}

TEST(ComputeAcfInfoTest, WhiteNoiseHasNoPeaks) {
  Pcg32 rng(3);
  std::vector<double> x = gen::WhiteNoise(&rng, 8000, 1.0);
  AcfInfo info = ComputeAcfInfo(x, 400);
  EXPECT_TRUE(info.peaks.empty());
  EXPECT_DOUBLE_EQ(info.max_acf, 0.0);
}

TEST(ComputeAcfInfoTest, CompositePeriodsBothFound) {
  Pcg32 rng(4);
  // Daily 50 + weekly 350 composite (taxi-like structure).
  std::vector<double> x = gen::SeasonalComposite(
      &rng, 7000, {50.0, 350.0}, {1.0, 0.8}, 0.3);
  AcfInfo info = ComputeAcfInfo(x, 700);
  EXPECT_TRUE(ContainsNear(info.peaks, 50, 2));
  EXPECT_TRUE(ContainsNear(info.peaks, 350, 3));
}

TEST(ComputeAcfInfoTest, MaxLagClampedToSeriesLength) {
  std::vector<double> x = gen::Sine(64, 8.0);
  AcfInfo info = ComputeAcfInfo(x, 10000);  // absurd max_lag
  EXPECT_EQ(info.correlations.size(), 64u);
}

TEST(ComputeAcfInfoTest, PeaksAreSortedAscending) {
  std::vector<double> x = gen::Sine(1024, 20.0);
  AcfInfo info = ComputeAcfInfo(x, 256);
  EXPECT_TRUE(std::is_sorted(info.peaks.begin(), info.peaks.end()));
}

TEST(ComputeAcfInfoTest, MaxAcfIsMaxOverPeaks) {
  std::vector<double> x = gen::Sine(1024, 32.0);
  AcfInfo info = ComputeAcfInfo(x, 128);
  double expected = 0.0;
  for (size_t p : info.peaks) {
    expected = std::max(expected, info.correlations[p]);
  }
  EXPECT_DOUBLE_EQ(info.max_acf, expected);
}

// --- Direct vs FFT path -------------------------------------------------------

TEST(AcfPathRuleTest, IsAPureFunctionOfLengthAndLagCount) {
  // (max_lag + 1) * n <= kDirectAcfBudget, exactly at the boundary.
  EXPECT_EQ(kDirectAcfBudget, size_t{1} << 20);
  EXPECT_TRUE(UseDirectAcf(1024, 1023));   // 1024 * 1024 == budget
  EXPECT_FALSE(UseDirectAcf(1025, 1023));  // one series point over
  EXPECT_TRUE(UseDirectAcf(3000, 348));    // 349 * 3000 <= budget
  EXPECT_FALSE(UseDirectAcf(3000, 349));   // 350 * 3000 > budget
  EXPECT_TRUE(UseDirectAcf(2, 0));
  EXPECT_TRUE(UseDirectAcf(kDirectAcfBudget, 0));
  EXPECT_FALSE(UseDirectAcf(kDirectAcfBudget + 1, 0));
  // Refresh-sized (400 panes, max_window + 1 = 41 lags) vs a long
  // batch series at the same n/10 lag ratio.
  EXPECT_TRUE(UseDirectAcf(400, 41));
  EXPECT_TRUE(UseDirectAcf(3200, 320));
  EXPECT_FALSE(UseDirectAcf(8000, 800));
}

bool BitEq(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct AcfFixture {
  const char* name;
  std::vector<double> x;
  size_t max_lag;
};

// The series of the ComputeAcfInfoTest cases above: the first three sit
// below the budget (direct path), the last two above it (FFT).
std::vector<AcfFixture> Fixtures() {
  Pcg32 noisy(2);
  Pcg32 white(3);
  Pcg32 composite(4);
  return {
      {"sine", gen::Sine(1024, 32.0), 128},
      {"noisy-sine",
       gen::Add(gen::Sine(2048, 48.0), gen::WhiteNoise(&noisy, 2048, 0.5)),
       200},
      {"short-sine", gen::Sine(64, 8.0), 63},
      {"white-noise", gen::WhiteNoise(&white, 8000, 1.0), 400},
      {"composite",
       gen::SeasonalComposite(&composite, 7000, {50.0, 350.0}, {1.0, 0.8},
                              0.3),
       700},
  };
}

TEST(ComputeAcfInfoTest, TakesTheRulesPathAndBothPathsFindTheSamePeaks) {
  size_t direct = 0;
  for (const AcfFixture& f : Fixtures()) {
    SCOPED_TRACE(f.name);
    const size_t n = f.x.size();
    const AcfInfo info = ComputeAcfInfo(f.x, f.max_lag);
    const std::vector<double> by_sum =
        fft::AutocorrelationBruteForce(f.x, f.max_lag);
    const std::vector<double> by_fft = fft::AutocorrelationFft(f.x, f.max_lag);
    const bool use_direct = UseDirectAcf(n, f.max_lag);
    direct += use_direct ? 1 : 0;
    EXPECT_TRUE(BitEq(info.correlations, use_direct ? by_sum : by_fft));
    // The path across the budget changes rounding only: the same peaks
    // on either side.
    EXPECT_EQ(FindAcfPeaks(by_sum), info.peaks);
    EXPECT_EQ(FindAcfPeaks(by_fft), info.peaks);
    for (size_t k = 0; k <= f.max_lag; ++k) {
      ASSERT_NEAR(by_sum[k], by_fft[k], 1e-12) << "lag " << k;
    }
  }
  EXPECT_EQ(direct, 3u);
}

TEST(ComputeAcfInfoTest, ConstantSeriesIsDegenerateOnBothPaths) {
  const std::vector<double> flat(3000, 0.0);
  for (size_t max_lag : {size_t{10}, size_t{2999}}) {
    ASSERT_EQ(UseDirectAcf(flat.size(), max_lag), max_lag == 10);
    const AcfInfo info = ComputeAcfInfo(flat, max_lag);
    ASSERT_EQ(info.correlations.size(), max_lag + 1);
    EXPECT_EQ(info.correlations[0], 1.0);
    for (size_t k = 1; k <= max_lag; ++k) {
      EXPECT_EQ(info.correlations[k], 0.0);
    }
    EXPECT_TRUE(info.peaks.empty());
  }
}

}  // namespace
}  // namespace asap
