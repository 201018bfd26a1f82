// Tests for src/window: SMA (batch, slide, incremental), pane-based
// aggregation and pixel-aware preaggregation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/random.h"
#include "window/panes.h"
#include "window/preaggregate.h"
#include "window/sma.h"

namespace asap {
namespace window {
namespace {

std::vector<double> NaiveSma(const std::vector<double>& x, size_t w,
                             size_t slide) {
  std::vector<double> out;
  for (size_t b = 0; b + w <= x.size(); b += slide) {
    double sum = 0.0;
    for (size_t i = b; i < b + w; ++i) {
      sum += x[i];
    }
    out.push_back(sum / static_cast<double>(w));
  }
  return out;
}

// --- Batch SMA --------------------------------------------------------------

TEST(SmaTest, WindowOneIsIdentity) {
  std::vector<double> x = {3, 1, 4, 1, 5};
  EXPECT_EQ(Sma(x, 1), x);
}

TEST(SmaTest, FullWindowIsSinglePoint) {
  std::vector<double> x = {2, 4, 6};
  std::vector<double> y = Sma(x, 3);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
}

TEST(SmaTest, KnownSmallCase) {
  std::vector<double> y = Sma({1, 2, 3, 4}, 2);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 1.5);
  EXPECT_DOUBLE_EQ(y[1], 2.5);
  EXPECT_DOUBLE_EQ(y[2], 3.5);
}

class SmaPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SmaPropertyTest, MatchesNaiveForAllWindows) {
  Pcg32 rng(GetParam());
  std::vector<double> x = UniformVector(&rng, 200, -10, 10);
  const size_t w = GetParam();
  std::vector<double> fast = Sma(x, w);
  std::vector<double> slow = NaiveSma(x, w, 1);
  ASSERT_EQ(fast.size(), slow.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, SmaPropertyTest,
                         ::testing::Values(1, 2, 3, 7, 50, 199, 200));

TEST(SmaTest, OutputLengthIsNMinusWPlusOne) {
  std::vector<double> x(100, 1.0);
  EXPECT_EQ(Sma(x, 10).size(), 91u);
  EXPECT_EQ(Sma(x, 100).size(), 1u);
}

TEST(SmaTest, ConstantSeriesIsUnchanged) {
  std::vector<double> x(50, 2.5);
  for (double v : Sma(x, 13)) {
    EXPECT_DOUBLE_EQ(v, 2.5);
  }
}

// --- SMA with slide -----------------------------------------------------------

TEST(SmaWithSlideTest, MatchesNaive) {
  Pcg32 rng(5);
  std::vector<double> x = UniformVector(&rng, 127, 0, 1);
  for (size_t w : {1u, 3u, 10u}) {
    for (size_t s : {1u, 2u, 5u, 10u}) {
      std::vector<double> fast = SmaWithSlide(x, w, s);
      std::vector<double> slow = NaiveSma(x, w, s);
      ASSERT_EQ(fast.size(), slow.size()) << "w=" << w << " s=" << s;
      for (size_t i = 0; i < fast.size(); ++i) {
        EXPECT_NEAR(fast[i], slow[i], 1e-9);
      }
    }
  }
}

// --- Running-sum drift regression (kRecomputeInterval) -------------------------

// Exact mean of x[begin, begin + w) via compensated summation — the
// drift-free reference the running-sum implementations are pinned to.
double ExactWindowMean(const std::vector<double>& x, size_t begin, size_t w) {
  double sum = 0.0;
  double comp = 0.0;
  for (size_t i = begin; i < begin + w; ++i) {
    const double y = x[i] - comp;
    const double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
  }
  return sum / static_cast<double>(w);
}

TEST(SmaTest, DriftStaysBelow1e9OnMillionPointSeries) {
  Pcg32 rng(2024);
  std::vector<double> x = UniformVector(&rng, 1000000, 10.0, 11.0);
  const size_t w = 1000;
  const std::vector<double> y = Sma(x, w);
  ASSERT_EQ(y.size(), x.size() - w + 1);
  // Sample positions across the whole series, including the tail where
  // an unbounded running sum would have accumulated the most error.
  for (size_t i = 0; i < y.size(); i += 9973) {
    ASSERT_NEAR(y[i], ExactWindowMean(x, i, w), 1e-9) << "i=" << i;
  }
  ASSERT_NEAR(y.back(), ExactWindowMean(x, y.size() - 1, w), 1e-9);
}

TEST(SmaWithSlideTest, DriftStaysBelow1e9OnMillionPointSeries) {
  // Regression for the running-sum + periodic-resummation path: before
  // it shared Sma's kRecomputeInterval bound, a long overlapped-slide
  // scan either drifted (incremental) or cost O(N * w / slide)
  // (fresh sums). Pin both accuracy and the exact output geometry.
  Pcg32 rng(4048);
  std::vector<double> x = UniformVector(&rng, 1000000, 10.0, 11.0);
  const size_t w = 1000;
  for (size_t slide : {1u, 3u, 7u}) {
    const std::vector<double> y = SmaWithSlide(x, w, slide);
    ASSERT_EQ(y.size(), (x.size() - w) / slide + 1) << "slide=" << slide;
    for (size_t k = 0; k < y.size(); k += 9973) {
      ASSERT_NEAR(y[k], ExactWindowMean(x, k * slide, w), 1e-9)
          << "slide=" << slide << " k=" << k;
    }
    ASSERT_NEAR(y.back(), ExactWindowMean(x, (y.size() - 1) * slide, w), 1e-9)
        << "slide=" << slide;
  }
}

// --- Incremental SMA -----------------------------------------------------------

TEST(IncrementalSmaTest, WarmupThenMatchesBatch) {
  Pcg32 rng(6);
  std::vector<double> x = UniformVector(&rng, 100, -1, 1);
  const size_t w = 8;
  IncrementalSma inc(w);
  std::vector<double> batch = Sma(x, w);
  size_t out_i = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    auto v = inc.Push(x[i]);
    if (i + 1 < w) {
      EXPECT_FALSE(v.has_value());
    } else {
      ASSERT_TRUE(v.has_value());
      EXPECT_NEAR(*v, batch[out_i++], 1e-9);
    }
  }
  EXPECT_EQ(out_i, batch.size());
}

TEST(IncrementalSmaTest, ResetClearsWarmup) {
  IncrementalSma inc(3);
  inc.Push(1);
  inc.Push(2);
  inc.Push(3);
  EXPECT_TRUE(inc.warm());
  inc.Reset();
  EXPECT_FALSE(inc.warm());
  EXPECT_FALSE(inc.Push(10).has_value());
}

// --- Panes ----------------------------------------------------------------------

TEST(PanesTest, Gcd) {
  EXPECT_EQ(Gcd(12, 8), 4u);
  EXPECT_EQ(Gcd(8, 12), 4u);
  EXPECT_EQ(Gcd(7, 13), 1u);
  EXPECT_EQ(Gcd(5, 0), 5u);
  EXPECT_EQ(Gcd(0, 5), 5u);
}

TEST(PanesTest, BuildPanesSumsAndCounts) {
  std::vector<Pane> panes = BuildPanes({1, 2, 3, 4, 5}, 2);
  ASSERT_EQ(panes.size(), 3u);
  EXPECT_DOUBLE_EQ(panes[0].sum, 3.0);
  EXPECT_EQ(panes[0].count, 2u);
  EXPECT_DOUBLE_EQ(panes[2].sum, 5.0);
  EXPECT_EQ(panes[2].count, 1u);  // trailing partial pane
  EXPECT_DOUBLE_EQ(panes[2].Mean(), 5.0);
}

TEST(PanesTest, PaneSmaMatchesSlideSma) {
  Pcg32 rng(7);
  std::vector<double> x = UniformVector(&rng, 240, -3, 3);
  for (size_t w : {4u, 6u, 12u}) {
    for (size_t s : {2u, 3u, 6u}) {
      std::vector<double> via_panes = PaneSma(x, w, s);
      std::vector<double> direct = SmaWithSlide(x, w, s);
      ASSERT_EQ(via_panes.size(), direct.size()) << "w=" << w << " s=" << s;
      for (size_t i = 0; i < direct.size(); ++i) {
        EXPECT_NEAR(via_panes[i], direct[i], 1e-9);
      }
    }
  }
}

/// The ring's two runs, oldest first, in one vector.
std::vector<double> Concatenated(const SplitSpan& view) {
  std::vector<double> out(view.first, view.first + view.first_size);
  out.insert(out.end(), view.second, view.second + view.second_size);
  return out;
}

TEST(PaneBufferTest, CompletesPanesAtBoundary) {
  PaneBuffer buffer(3, 4);
  EXPECT_FALSE(buffer.Push(1));
  EXPECT_FALSE(buffer.Push(2));
  EXPECT_TRUE(buffer.Push(3));  // pane completed
  EXPECT_EQ(buffer.size(), 1u);
  EXPECT_DOUBLE_EQ(Concatenated(buffer.Means())[0], 2.0);
}

TEST(PaneBufferTest, EvictsOldestBeyondCapacity) {
  PaneBuffer buffer(1, 3);
  for (int i = 1; i <= 5; ++i) {
    buffer.Push(i);
  }
  EXPECT_EQ(buffer.size(), 3u);
  std::vector<double> means = Concatenated(buffer.Means());
  EXPECT_DOUBLE_EQ(means[0], 3.0);
  EXPECT_DOUBLE_EQ(means[2], 5.0);
  EXPECT_EQ(buffer.points_consumed(), 5u);
}

void CollectMean(void* ctx, double mean) {
  static_cast<std::vector<double>*>(ctx)->push_back(mean);
}

TEST(PaneBufferTest, TimestampedAppendCommitsOnBucketChange) {
  // Time grid: 10 ticks per bucket from epoch 0. pane_size (2) is the
  // arrival clock's and must not close a time-grid pane.
  PaneBuffer buffer(2, 3, /*epoch=*/0, /*width_ticks=*/10);
  std::vector<double> sunk;
  buffer.set_pane_sink(&CollectMean, &sunk);

  const double a[] = {1, 2, 6};
  const int64_t ta[] = {0, 3, 9};  // bucket 0, three points
  buffer.Append(a, ta, 3);
  EXPECT_EQ(buffer.size(), 0u);  // no later bucket yet: still open
  EXPECT_TRUE(sunk.empty());

  // One call: bucket 1 (repeated ts), then bucket 4 (2 and 3 skipped).
  const double b[] = {4, 8, 8, 5, 7};
  const int64_t tb[] = {10, 12, 12, 40, 49};
  buffer.Append(b, tb, 5);
  ASSERT_EQ(buffer.size(), 2u);
  EXPECT_EQ(Concatenated(buffer.Means()),
            (std::vector<double>{3.0, 20.0 / 3.0}));
  EXPECT_EQ(sunk, Concatenated(buffer.Means()));  // once per committed pane
  EXPECT_EQ(buffer.points_consumed(), 8u);

  // Bucket 4 commits only when a point of another bucket arrives.
  const double c = 1;
  const int64_t tc = 50;
  buffer.Append(&c, &tc, 1);
  ASSERT_EQ(buffer.size(), 3u);
  EXPECT_EQ(Concatenated(buffer.Means())[2], 6.0);
  EXPECT_EQ(sunk.size(), 3u);
}

TEST(PaneBufferTest, RequiresAtLeastOnePane) {
  EXPECT_DEATH(PaneBuffer(2, 0), "max_panes");
}

std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> bits(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    std::memcpy(&bits[i], &v[i], sizeof(double));
  }
  return bits;
}

// The ring's two runs, read in order, are the retained means oldest
// first: the last `capacity` means the sink saw (or that were
// restored), bit for bit, at every fill level and across wraps.
void ExpectViewHoldsNewest(const PaneBuffer& buffer,
                           const std::vector<double>& history,
                           size_t capacity, const char* what) {
  const size_t kept = std::min(history.size(), capacity);
  const std::vector<double> expected(history.end() - kept, history.end());
  const SplitSpan view = buffer.Means();
  ASSERT_EQ(view.size(), kept) << what;
  EXPECT_EQ(Bits(Concatenated(view)), Bits(expected)) << what;
}

TEST(PaneBufferTest, RingViewHoldsNewestMeansAcrossWrap) {
  constexpr size_t kCapacity = 5;
  constexpr size_t kPaneSize = 3;
  Pcg32 rng(21);
  const std::vector<double> x =
      UniformVector(&rng, 3 * kCapacity * kPaneSize + 2, -1, 1);

  // Arrival clock, one point at a time.
  {
    PaneBuffer buffer(kPaneSize, kCapacity);
    std::vector<double> sunk;
    buffer.set_pane_sink(&CollectMean, &sunk);
    for (double v : x) {
      buffer.Push(v);
      ExpectViewHoldsNewest(buffer, sunk, kCapacity, "arrival");
    }
    ASSERT_EQ(sunk.size(), 3 * kCapacity);
  }
  // Time grid: kPaneSize ticks per bucket, one Append per point.
  {
    PaneBuffer buffer(kPaneSize, kCapacity, /*epoch=*/0,
                      /*width_ticks=*/static_cast<int64_t>(kPaneSize));
    std::vector<double> sunk;
    buffer.set_pane_sink(&CollectMean, &sunk);
    for (size_t i = 0; i < x.size(); ++i) {
      const int64_t ts = static_cast<int64_t>(i);
      buffer.Append(&x[i], &ts, 1);
      ExpectViewHoldsNewest(buffer, sunk, kCapacity, "time grid");
    }
    ASSERT_EQ(sunk.size(), 3 * kCapacity);
  }
  // Restored means are kept bit for bit, signed zero and NaN included.
  {
    PaneBuffer buffer(kPaneSize, kCapacity);
    std::vector<double> restored;
    for (size_t i = 0; i < 3 * kCapacity; ++i) {
      const double mean = i == 4   ? -0.0
                          : i == 9 ? std::numeric_limits<double>::quiet_NaN()
                                   : x[i] / 3.0;
      buffer.RestoreCompleted(mean);
      restored.push_back(mean);
      ExpectViewHoldsNewest(buffer, restored, kCapacity, "restore");
    }
    EXPECT_EQ(buffer.points_consumed(), 3 * kCapacity * kPaneSize);
  }
}

// --- Preaggregation --------------------------------------------------------------

TEST(PreaggregateTest, RatioComputation) {
  EXPECT_EQ(PointToPixelRatio(1'000'000, 272), 3676u);   // Apple Watch row
  EXPECT_EQ(PointToPixelRatio(1'000'000, 2304), 434u);   // MacBook Pro row
  EXPECT_EQ(PointToPixelRatio(604'800, 2304), 262u);     // §4.4 example
  EXPECT_EQ(PointToPixelRatio(100, 200), 1u);            // more pixels than pts
  EXPECT_EQ(PointToPixelRatio(100, 0), 1u);              // disabled
}

TEST(PreaggregateTest, AggregatesBucketMeans) {
  Preaggregated agg = Preaggregate({1, 2, 3, 4, 5, 6}, 3);
  EXPECT_EQ(agg.points_per_pixel, 2u);
  ASSERT_EQ(agg.series.size(), 3u);
  EXPECT_DOUBLE_EQ(agg.series[0], 1.5);
  EXPECT_DOUBLE_EQ(agg.series[2], 5.5);
}

TEST(PreaggregateTest, DropsTrailingPartialBucket) {
  Preaggregated agg = Preaggregate({1, 2, 3, 4, 5, 6, 7}, 3);
  EXPECT_EQ(agg.points_per_pixel, 2u);
  EXPECT_EQ(agg.series.size(), 3u);  // 7th point dropped
}

TEST(PreaggregateTest, NoOpWhenWithinResolution) {
  std::vector<double> x = {1, 2, 3};
  Preaggregated agg = Preaggregate(x, 10);
  EXPECT_EQ(agg.points_per_pixel, 1u);
  EXPECT_EQ(agg.series, x);
}

TEST(PreaggregateTest, ZeroResolutionDisables) {
  std::vector<double> x = {1, 2, 3, 4};
  Preaggregated agg = Preaggregate(x, 0);
  EXPECT_EQ(agg.points_per_pixel, 1u);
  EXPECT_EQ(agg.series, x);
}

TEST(PreaggregateTest, PreservesMeanOfCoveredPrefix) {
  Pcg32 rng(8);
  std::vector<double> x = UniformVector(&rng, 1000, 0, 1);
  Preaggregated agg = Preaggregate(x, 100);
  double raw_mean = 0.0;
  const size_t covered = agg.series.size() * agg.points_per_pixel;
  for (size_t i = 0; i < covered; ++i) {
    raw_mean += x[i];
  }
  raw_mean /= static_cast<double>(covered);
  double agg_mean = 0.0;
  for (double v : agg.series) {
    agg_mean += v;
  }
  agg_mean /= static_cast<double>(agg.series.size());
  EXPECT_NEAR(agg_mean, raw_mean, 1e-9);
}

}  // namespace
}  // namespace window
}  // namespace asap
