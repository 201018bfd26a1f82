// Interactive exploration: zoom, scroll, re-render (paper §2: "When
// ASAP users change the range of time series to visualize (e.g., via
// zoom-in, zoom-out, scrolling), ASAP re-renders its output in
// accordance with the new range").
//
// The Explorer precomputes a dyadic pane pyramid (level k holds means
// of 2^k consecutive raw points) so that rendering any viewport costs
// O(resolution) slicing plus one ASAP search on ~resolution points,
// independent of the viewport's raw size — the interactive-latency
// requirement of §1. Rendering also warm-starts each level's search
// from the window of the previous render at that level, re-checked on
// the new viewport (the streaming CheckLastWindow applied to
// exploration).

#ifndef ASAP_CORE_EXPLORER_H_
#define ASAP_CORE_EXPLORER_H_

#include <cstddef>
#include <map>
#include <vector>

#include "common/result.h"
#include "core/search.h"
#include "ts/timeseries.h"

namespace asap {

/// Explorer configuration.
struct ExplorerOptions {
  /// Target display width in pixels.
  size_t resolution = 800;
  /// Window-search options applied at render time.
  SearchOptions search;
};

/// A rendered viewport.
struct ViewFrame {
  /// Smoothed series for the viewport.
  std::vector<double> series;
  /// Chosen SMA window, in display buckets.
  size_t window = 1;
  /// Pyramid level used (raw points per level sample = 2^level).
  size_t level = 0;
  /// Raw points represented by one rendered bucket.
  size_t points_per_bucket = 1;
  /// Viewport bounds in raw point indices.
  size_t begin = 0;
  size_t end = 0;
  /// Quality metrics of the viewport before/after smoothing.
  double roughness_before = 0.0;
  double roughness_after = 0.0;
  double kurtosis_before = 0.0;
  double kurtosis_after = 0.0;
  /// Candidates the render's search evaluated (including the
  /// warm-start re-check of the level's last window).
  size_t candidates_evaluated = 0;
};

/// Multi-resolution explorer over an immutable series.
class Explorer {
 public:
  /// Builds the pyramid; O(N) total work and memory (geometric sum).
  /// Fails for series shorter than 8 points or resolution < 16.
  static Result<Explorer> Create(TimeSeries series,
                                 const ExplorerOptions& options);

  /// Renders the viewport [begin, end) of raw points; fails on bad
  /// ranges or viewports shorter than 8 points.
  Result<ViewFrame> Render(size_t begin, size_t end);

  /// Renders the whole series.
  Result<ViewFrame> RenderAll();

  /// Zooms by `factor` around the viewport center of the last render
  /// (factor > 1 zooms out, < 1 zooms in; clamped to the series).
  /// Must be called after a successful Render.
  Result<ViewFrame> Zoom(double factor);

  /// Scrolls the last-rendered viewport by `delta` raw points
  /// (negative = left/earlier; clamped to the series).
  Result<ViewFrame> Scroll(long delta);

  /// Number of pyramid levels (level 0 is the raw series).
  size_t levels() const { return pyramid_.size(); }

  const TimeSeries& series() const { return series_; }

 private:
  Explorer(TimeSeries series, const ExplorerOptions& options);

  TimeSeries series_;
  ExplorerOptions options_;
  /// pyramid_[k] = means of 2^k consecutive raw points.
  std::vector<std::vector<double>> pyramid_;
  /// Per-level warm start: the window the level's last render chose.
  std::map<size_t, size_t> level_window_;
  /// Evaluation context rebound to the current viewport on every
  /// Render; Reset reuses its buffers so interactive pan/zoom stays
  /// allocation-stable (mirrors StreamingAsap's refresh path).
  SeriesContext ctx_;
  bool has_last_view_ = false;
  size_t last_begin_ = 0;
  size_t last_end_ = 0;
};

}  // namespace asap

#endif  // ASAP_CORE_EXPLORER_H_
