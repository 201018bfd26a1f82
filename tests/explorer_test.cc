// Tests for src/core/explorer: pyramid construction, viewport
// rendering, zoom/scroll semantics, and consistency with Smooth().

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/explorer.h"
#include "core/smooth.h"
#include "datasets/datasets.h"
#include "ts/generators.h"

namespace asap {
namespace {

TimeSeries BigPeriodicSeries(size_t n = 200'000, double period = 4000.0) {
  Pcg32 rng(5);
  return TimeSeries(
      gen::Add(gen::Sine(n, period, 1.0), gen::WhiteNoise(&rng, n, 0.4)),
      0.0, 1.0, "explorer-test");
}

ExplorerOptions Options(size_t resolution = 400) {
  ExplorerOptions options;
  options.resolution = resolution;
  return options;
}

TEST(ExplorerTest, CreateValidatesInput) {
  EXPECT_FALSE(Explorer::Create(TimeSeries::FromValues({1, 2, 3}),
                                Options())
                   .ok());
  ExplorerOptions tiny;
  tiny.resolution = 4;
  EXPECT_FALSE(Explorer::Create(BigPeriodicSeries(1000), tiny).ok());
  EXPECT_TRUE(Explorer::Create(BigPeriodicSeries(1000), Options()).ok());
}

TEST(ExplorerTest, PyramidLevelsCoverTheSeries) {
  Explorer explorer =
      Explorer::Create(BigPeriodicSeries(), Options()).ValueOrDie();
  // 200k points at 400 px: levels until <= 800 points: 200k/2^k <= 800
  // -> k = 8 -> 9+ levels including raw.
  EXPECT_GE(explorer.levels(), 8u);
}

TEST(ExplorerTest, RenderAllFitsResolution) {
  Explorer explorer =
      Explorer::Create(BigPeriodicSeries(), Options()).ValueOrDie();
  ViewFrame frame = explorer.RenderAll().ValueOrDie();
  // The pyramid level plus residual preaggregation land within a
  // factor of two of the display width (floor semantics of the
  // point-to-pixel ratio, same as Preaggregate).
  EXPECT_LE(frame.series.size(), 2 * 400u);
  EXPECT_GE(frame.series.size(), 100u);
  EXPECT_EQ(frame.begin, 0u);
  EXPECT_EQ(frame.end, explorer.series().size());
  EXPECT_GE(frame.window, 1u);
  // points_per_bucket must roughly tile the viewport onto the display.
  EXPECT_GE(frame.points_per_bucket * 400, explorer.series().size() / 2);
}

TEST(ExplorerTest, RenderRejectsBadViewports) {
  Explorer explorer =
      Explorer::Create(BigPeriodicSeries(1000), Options()).ValueOrDie();
  EXPECT_FALSE(explorer.Render(10, 10).ok());
  EXPECT_FALSE(explorer.Render(10, 5).ok());
  EXPECT_FALSE(explorer.Render(0, 5000).ok());
  EXPECT_FALSE(explorer.Render(100, 105).ok());  // < 8 points
}

TEST(ExplorerTest, SmoothingReducesViewportRoughness) {
  Explorer explorer =
      Explorer::Create(BigPeriodicSeries(), Options()).ValueOrDie();
  ViewFrame frame = explorer.RenderAll().ValueOrDie();
  EXPECT_LT(frame.roughness_after, frame.roughness_before);
  EXPECT_GE(frame.kurtosis_after, frame.kurtosis_before - 1e-9);
}

TEST(ExplorerTest, ZoomInUsesFinerLevels) {
  Explorer explorer =
      Explorer::Create(BigPeriodicSeries(), Options()).ValueOrDie();
  ViewFrame all = explorer.RenderAll().ValueOrDie();
  ViewFrame zoomed = explorer.Zoom(0.1).ValueOrDie();  // 10x in
  EXPECT_LT(zoomed.end - zoomed.begin, all.end - all.begin);
  EXPECT_LE(zoomed.level, all.level);
  EXPECT_LT(zoomed.points_per_bucket, all.points_per_bucket);
}

TEST(ExplorerTest, ZoomOutClampsToSeries) {
  Explorer explorer =
      Explorer::Create(BigPeriodicSeries(), Options()).ValueOrDie();
  explorer.RenderAll().ValueOrDie();
  ViewFrame frame = explorer.Zoom(100.0).ValueOrDie();
  EXPECT_EQ(frame.begin, 0u);
  EXPECT_EQ(frame.end, explorer.series().size());
}

TEST(ExplorerTest, ZoomRequiresPriorRender) {
  Explorer explorer =
      Explorer::Create(BigPeriodicSeries(1000), Options()).ValueOrDie();
  EXPECT_FALSE(explorer.Zoom(0.5).ok());
  EXPECT_FALSE(explorer.Scroll(10).ok());
}

TEST(ExplorerTest, ZoomRejectsBadFactor) {
  Explorer explorer =
      Explorer::Create(BigPeriodicSeries(1000), Options()).ValueOrDie();
  explorer.RenderAll().ValueOrDie();
  EXPECT_FALSE(explorer.Zoom(0.0).ok());
  EXPECT_FALSE(explorer.Zoom(-2.0).ok());
}

TEST(ExplorerTest, ScrollMovesViewportAndClamps) {
  Explorer explorer =
      Explorer::Create(BigPeriodicSeries(), Options()).ValueOrDie();
  explorer.RenderAll().ValueOrDie();
  ViewFrame window = explorer.Zoom(0.25).ValueOrDie();
  const size_t span = window.end - window.begin;

  ViewFrame right = explorer.Scroll(1000).ValueOrDie();
  EXPECT_EQ(right.end - right.begin, span);
  EXPECT_EQ(right.begin, window.begin + 1000);

  // Scrolling far left clamps at zero.
  ViewFrame left = explorer.Scroll(-static_cast<long>(10 * span)).ValueOrDie();
  EXPECT_EQ(left.begin, 0u);
  EXPECT_EQ(left.end - left.begin, span);
}

TEST(ExplorerTest, FullViewAgreesWithSmoothOnWindowScale) {
  // Rendering the whole series should pick a window in the same
  // neighborhood as the one Smooth() picks at the same resolution
  // (grids differ: pyramid + residual aggregation vs direct buckets).
  TimeSeries series = BigPeriodicSeries();
  Explorer explorer = Explorer::Create(series, Options(500)).ValueOrDie();
  ViewFrame frame = explorer.RenderAll().ValueOrDie();

  SmoothOptions options;
  options.resolution = 500;
  SmoothingResult direct = Smooth(series.values(), options).ValueOrDie();

  const double frame_raw_window =
      static_cast<double>(frame.window * frame.points_per_bucket);
  const double direct_raw_window =
      static_cast<double>(direct.window_raw_points);
  EXPECT_LT(std::abs(frame_raw_window - direct_raw_window),
            0.5 * direct_raw_window + 2.0 * frame.points_per_bucket);
}

TEST(ExplorerTest, WorksOnRealisticDataset) {
  datasets::Dataset taxi = datasets::MakeTaxi();
  Explorer explorer = Explorer::Create(taxi.series, Options()).ValueOrDie();
  ViewFrame all = explorer.RenderAll().ValueOrDie();
  EXPECT_GT(all.window, 1u);
  // Zoom into the anomaly neighborhood; rendering must still work and
  // produce a reasonable frame.
  ViewFrame zoom =
      explorer
          .Render(taxi.info.anomaly_begin > 200 ? taxi.info.anomaly_begin - 200
                                                : 0,
                  std::min(taxi.info.anomaly_end + 200, taxi.series.size()))
          .ValueOrDie();
  EXPECT_GE(zoom.series.size(), 100u);
}

TEST(ExplorerTest, RepeatedRendersWarmStart) {
  Explorer explorer =
      Explorer::Create(BigPeriodicSeries(), Options()).ValueOrDie();
  ViewFrame first = explorer.RenderAll().ValueOrDie();
  ViewFrame second = explorer.RenderAll().ValueOrDie();
  // Same viewport re-rendered: same window, and the warm-started
  // search cannot evaluate more candidates than the cold one.
  EXPECT_EQ(first.window, second.window);
  EXPECT_LE(second.candidates_evaluated, first.candidates_evaluated + 1);
}

TEST(ExplorerTest, WarmStartRechecksTheLastWindowOnTheNewViewport) {
  // A periodic half then a spiky half: both viewports land on the same
  // pyramid level, so the spiky render warm-starts from the periodic
  // render's window. That window smooths the spikes away (kurtosis
  // drops from ~250 to ~3), so the re-check must reject it and the
  // warm render must match a cold explorer's.
  Pcg32 rng(21);
  std::vector<double> x = gen::Add(gen::Sine(4000, 400.0, 2.0),
                                   gen::WhiteNoise(&rng, 4000, 0.3));
  std::vector<double> spiky = gen::WhiteNoise(&rng, 4000, 0.1);
  gen::InjectSpike(&spiky, 1000, 60.0);
  gen::InjectSpike(&spiky, 2600, 50.0);
  x.insert(x.end(), spiky.begin(), spiky.end());
  const TimeSeries series = TimeSeries::FromValues(x);

  Explorer warm = Explorer::Create(series, Options()).ValueOrDie();
  const ViewFrame periodic = warm.Render(0, 4000).ValueOrDie();
  const ViewFrame warm_spiky = warm.Render(4000, 8000).ValueOrDie();
  Explorer cold = Explorer::Create(series, Options()).ValueOrDie();
  const ViewFrame cold_spiky = cold.Render(4000, 8000).ValueOrDie();

  ASSERT_EQ(periodic.level, warm_spiky.level);
  ASSERT_GT(periodic.window, 1u);
  EXPECT_EQ(warm_spiky.window, cold_spiky.window);
  EXPECT_EQ(warm_spiky.series, cold_spiky.series);
  EXPECT_GE(warm_spiky.kurtosis_after, warm_spiky.kurtosis_before);
  // The rejected re-check is the one extra candidate.
  EXPECT_EQ(warm_spiky.candidates_evaluated,
            cold_spiky.candidates_evaluated + 1);
}

}  // namespace
}  // namespace asap
