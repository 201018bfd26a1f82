#include "core/explorer.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "window/preaggregate.h"
#include "window/sma.h"

namespace asap {

Explorer::Explorer(TimeSeries series, const ExplorerOptions& options)
    : series_(std::move(series)), options_(options) {
  // Level 0 is the raw series; level k halves level k-1 (dropping a
  // trailing odd sample). Stop once a level fits within the display.
  pyramid_.push_back(series_.values());
  while (pyramid_.back().size() > 2 * options_.resolution) {
    const std::vector<double>& prev = pyramid_.back();
    std::vector<double> next;
    next.reserve(prev.size() / 2);
    for (size_t i = 0; i + 1 < prev.size(); i += 2) {
      next.push_back(0.5 * (prev[i] + prev[i + 1]));
    }
    pyramid_.push_back(std::move(next));
  }
}

Result<Explorer> Explorer::Create(TimeSeries series,
                                  const ExplorerOptions& options) {
  if (series.size() < 8) {
    return Status::InvalidArgument("series too short to explore");
  }
  if (options.resolution < 16) {
    return Status::InvalidArgument("resolution must be >= 16 pixels");
  }
  return Explorer(std::move(series), options);
}

Result<ViewFrame> Explorer::Render(size_t begin, size_t end) {
  if (begin >= end || end > series_.size()) {
    return Status::OutOfRange(
        "viewport [" + std::to_string(begin) + ", " + std::to_string(end) +
        ") out of range for a series of " + std::to_string(series_.size()) +
        " points");
  }
  const size_t span = end - begin;
  if (span < 8) {
    return Status::InvalidArgument("viewport must cover at least 8 points");
  }

  // Choose the coarsest pyramid level that still oversamples the
  // display: 2^level <= span / resolution.
  size_t level = 0;
  while (level + 1 < pyramid_.size() &&
         (span >> (level + 1)) >= options_.resolution) {
    ++level;
  }
  const size_t scale = static_cast<size_t>(1) << level;
  const size_t level_begin = begin / scale;
  const size_t level_end = std::max(level_begin + 1, end / scale);
  const std::vector<double>& data = pyramid_[level];
  const size_t clamped_end = std::min(level_end, data.size());
  std::vector<double> view(data.begin() + level_begin,
                           data.begin() + clamped_end);

  // Residual preaggregation down to the display resolution (the level
  // only gets us within a factor of 2).
  const window::Preaggregated agg =
      window::Preaggregate(view, options_.resolution);
  if (agg.series.size() < 4) {
    return Status::InvalidArgument("viewport too small at this resolution");
  }

  // Warm-start per level: zooming/scrolling at the same scale usually
  // keeps the same period structure, so the level's last window seeds
  // the search if it still preserves this viewport's kurtosis. The
  // context serves the search, the before-metrics (cached), and the
  // after-metrics (one fused pass) without re-sweeping the viewport.
  ctx_.Reset(agg.series);
  SearchDiagnostics check;
  const auto last = level_window_.find(level);
  AsapState state =
      last != level_window_.end()
          ? CheckLastWindow(&ctx_, last->second, options_.search, &check)
          : AsapState{};
  const SearchResult search = AsapSearch(&ctx_, options_.search, &state);
  level_window_[level] = search.window;

  ViewFrame frame;
  frame.level = level;
  frame.points_per_bucket = scale * agg.points_per_pixel;
  frame.begin = begin;
  frame.end = end;
  frame.window = search.window;
  frame.roughness_before = ctx_.roughness();
  frame.kurtosis_before = ctx_.kurtosis();
  frame.series = window::Sma(agg.series, search.window);
  const CandidateScore after = ScoreWindow(ctx_, search.window);
  frame.roughness_after = after.roughness;
  frame.kurtosis_after = after.kurtosis;
  frame.candidates_evaluated =
      check.candidates_evaluated + search.diag.candidates_evaluated;

  has_last_view_ = true;
  last_begin_ = begin;
  last_end_ = end;
  return frame;
}

Result<ViewFrame> Explorer::RenderAll() { return Render(0, series_.size()); }

Result<ViewFrame> Explorer::Zoom(double factor) {
  if (!has_last_view_) {
    return Status::InvalidArgument("Zoom requires a prior Render");
  }
  if (!(factor > 0.0) || !std::isfinite(factor)) {
    return Status::InvalidArgument("zoom factor must be positive and finite");
  }
  const double center = 0.5 * (static_cast<double>(last_begin_) +
                               static_cast<double>(last_end_));
  const double half_span =
      0.5 * static_cast<double>(last_end_ - last_begin_) * factor;
  const double lo = std::max(0.0, center - half_span);
  const double hi = std::min(static_cast<double>(series_.size()),
                             center + half_span);
  size_t begin = static_cast<size_t>(std::llround(lo));
  size_t end = static_cast<size_t>(std::llround(hi));
  if (end - begin < 8) {
    // Fully zoomed in: clamp to the minimum viewport around the center.
    const size_t c = static_cast<size_t>(std::llround(center));
    begin = c >= 4 ? c - 4 : 0;
    end = std::min(series_.size(), begin + 8);
    begin = end >= 8 ? end - 8 : 0;
  }
  return Render(begin, end);
}

Result<ViewFrame> Explorer::Scroll(long delta) {
  if (!has_last_view_) {
    return Status::InvalidArgument("Scroll requires a prior Render");
  }
  const long span = static_cast<long>(last_end_ - last_begin_);
  long begin = static_cast<long>(last_begin_) + delta;
  begin = std::max(begin, 0L);
  begin = std::min(begin, static_cast<long>(series_.size()) - span);
  begin = std::max(begin, 0L);
  return Render(static_cast<size_t>(begin),
                static_cast<size_t>(begin + span));
}

}  // namespace asap
