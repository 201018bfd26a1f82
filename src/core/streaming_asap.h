// Streaming ASAP (paper §4.5, Algorithm 3).
//
// The operator ingests raw points, sub-aggregates them into panes
// sized at the point-to-pixel ratio (§4.4 applied to streams), retains
// the panes covering the visible time window, and re-runs the window
// search only at a configurable, human-perceptible refresh interval
// (on-demand updates). Each refresh:
//
//   1. UpdateAcf      — recompute the ACF over the visible panes;
//   2. CheckLastWindow — test whether the previous window is still
//      feasible; if so, seed the new search with it (warm start that
//      arms the roughness-estimate pruning immediately);
//   3. FindWindow     — run the (seeded) ASAP search and re-render.
//
// The preaggregation/strategy/refresh knobs exist so the Fig. 11
// factor analysis and lesion study can disable each optimization
// independently while exercising the identical pipeline.

#ifndef ASAP_CORE_STREAMING_ASAP_H_
#define ASAP_CORE_STREAMING_ASAP_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "core/series_context.h"
#include "core/smooth.h"
#include "window/panes.h"

namespace asap {

/// Configuration of the streaming operator.
struct StreamingOptions {
  /// Target display width in pixels.
  size_t resolution = 800;

  /// Raw points covered by the visible window (e.g. 30 min of 1 Hz
  /// telemetry = 1800). Required.
  size_t visible_points = 0;

  /// Raw points between refreshes. 0 = refresh whenever a pane
  /// completes (the non-lazy default); larger values are the
  /// "on-demand update" optimization (e.g. one day's worth of points).
  size_t refresh_every_points = 0;

  /// Disable to make panes one point wide (the Fig. 11 "no pixel"
  /// lesion).
  bool enable_preaggregation = true;

  /// Search strategy run at each refresh (the Fig. 11 "no AC" lesion
  /// replaces ASAP with exhaustive search).
  SearchStrategy strategy = SearchStrategy::kAsap;

  /// Published frames retained for snapshot readers (the snapshot
  /// ring). 1 keeps only the latest; K > 1 lets dashboard readers diff
  /// the last K refreshes for incremental rendering. Must be >= 1.
  size_t snapshot_ring_frames = 1;

  /// The time grid PushTimed places points on. When pane_width_ticks
  /// > 0, a point with timestamp ts lands in pane floor((ts -
  /// pane_epoch) / pane_width_ticks), and the in-progress pane commits
  /// when a point of a different pane index arrives, so a pane holds
  /// however many points actually fell in its time bucket — the fix
  /// for the arrival-order pane-stamping bug class, where wall-clock
  /// skew between collectors smeared points across pane boundaries.
  /// Push, PushBatch and Prefill always use the arrival clock (a pane
  /// every pane_size points); with 0 (the default) the fleet engine
  /// feeds the arrival clock too and never reads Record::ts. Must be
  /// >= 0; choose pane_width_ticks so a bucket covers ~pane_size()
  /// points of the expected point rate (e.g. pane_size * tick period)
  /// — pane means then match the arrival-order pane means whenever
  /// input arrives in time order at a uniform rate.
  int64_t pane_epoch = 0;
  int64_t pane_width_ticks = 0;

  /// Window-search options.
  SearchOptions search;
};

/// The streaming ASAP operator.
class StreamingAsap {
 public:
  /// The most recent rendered frame plus lifetime counters.
  struct Frame {
    /// Smoothed visible series (empty until the first refresh).
    std::vector<double> series;
    /// Chosen SMA window in panes.
    size_t window = 1;
    /// Number of refreshes so far.
    uint64_t refreshes = 0;
    /// Searches that reused the previous window as a warm start.
    uint64_t seeded_searches = 0;
    /// Searches started from scratch (first refresh or failed
    /// CheckLastWindow).
    uint64_t cold_searches = 0;
    /// Total candidate windows evaluated across all refreshes
    /// (including the CheckLastWindow warm-start evaluation).
    uint64_t candidates_evaluated = 0;
    /// Of those, how many went through the fused zero-allocation
    /// ScoreWindow kernel (all of them unless
    /// SearchOptions::use_naive_evaluator is set).
    uint64_t allocation_free_evals = 0;
  };

  /// Validates options; fails if visible_points < 8 or resolution
  /// semantics are inconsistent.
  static Result<StreamingAsap> Create(const StreamingOptions& options);

  /// Ingests one raw point; returns true iff a refresh happened.
  bool Push(double x) {
    return Ingest(&x, nullptr, 1, /*refresh=*/true) != 0;
  }

  /// Loads historical points into the pane buffer WITHOUT triggering
  /// refreshes (bootstrap from a backfill, or bench warm-up so that
  /// steady-state throughput is measured against a full window).
  void Prefill(const std::vector<double>& xs);

  /// Ingests a batch; returns the number of refreshes triggered.
  /// Points are bulk-appended up to the next refresh-interval boundary
  /// at a time, with the refresh condition checked per chunk instead
  /// of per point — refresh-for-refresh identical to calling Push()
  /// on each point.
  size_t PushBatch(const double* xs, size_t n);
  size_t PushBatch(const std::vector<double>& xs) {
    return PushBatch(xs.data(), xs.size());
  }

  /// Timestamped batch ingest: point i carries value xs[i] and
  /// timestamp ts[i] and lands in the pane its timestamp maps to (see
  /// StreamingOptions::pane_width_ticks, which must then be > 0).
  /// ts == nullptr is the arrival clock, exactly PushBatch. Refreshes
  /// fire exactly where per-point ingest would fire them. Returns the
  /// number of refreshes triggered. Callers feed points in
  /// non-decreasing ts order per series (the sequencer's output
  /// order); out-of-order input within a pane is tolerated, across
  /// panes it would reopen a committed bucket as a new pane.
  size_t PushTimed(const double* xs, const int64_t* ts, size_t n);

  /// Forces a refresh now (used when the user scrolls/zooms).
  /// No-op until at least 4 panes are buffered.
  void Refresh();

  /// Routes each completed pane's mean to `sink` (the durable-store
  /// hookup; see window::PaneBuffer::PaneSink). Pass nullptr to clear.
  void set_pane_sink(window::PaneBuffer::PaneSink sink, void* ctx) {
    panes_.set_pane_sink(sink, ctx);
  }

  /// Restores `n` recovered pane means as already-complete panes,
  /// advancing the point clock by n * pane_size and NOT firing the
  /// pane sink (the panes are already durable). The refresh schedule
  /// live ingestion would have run is replayed pane by pane — frames
  /// (and the snapshot ring) come out identical to an uninterrupted
  /// run whenever refresh_interval_points is a multiple of pane_size
  /// (always true for the refresh-per-pane default). Only legal
  /// before any live point is pushed.
  void RestorePanes(const double* means, size_t n);

  /// The newest published frame (frame_snapshot()'s frame; an empty
  /// Frame before the first refresh). For the ingest thread: the
  /// reference stays valid until this operator's next refresh, restore
  /// or destruction, whichever comes first. Other threads read frames
  /// through frame_snapshot().
  const Frame& frame() const {
    return published_ring_ != nullptr ? *published_ring_->back()
                                      : *EmptyFrame();
  }

  /// Snapshot of the most recent frame, safe to call from any thread
  /// while another thread is pushing points: it is the back() of the
  /// snapshot ring each refresh publishes behind an atomically swapped
  /// shared_ptr, so readers never block the ingest path and no copy
  /// is made to serve a read. Never null; before the first refresh it
  /// points at an empty Frame.
  std::shared_ptr<const Frame> frame_snapshot() const;

  /// The last min(snapshot_ring_frames, refreshes) published frames,
  /// oldest first (back() is the frame_snapshot() frame). Empty before
  /// the first refresh. Same thread-safety as frame_snapshot(): the
  /// ring is republished behind an atomically swapped shared_ptr, so
  /// readers never block the ingest path.
  std::vector<std::shared_ptr<const Frame>> FrameHistory() const;

  /// Raw points consumed so far.
  uint64_t points_consumed() const { return panes_.points_consumed(); }

  /// Points per pane (the point-to-pixel ratio in effect).
  size_t pane_size() const { return pane_size_; }

  /// Raw points between refreshes in effect.
  size_t refresh_interval_points() const { return refresh_interval_points_; }

 private:
  explicit StreamingAsap(const StreamingOptions& options);

  /// The one ingest loop behind Push, PushBatch, PushTimed and
  /// Prefill (ts == nullptr: arrival clock). Appends in chunks up to
  /// the next refresh-interval boundary; with `refresh` false the
  /// points load without refreshing and the interval restarts.
  /// Returns the number of refreshes triggered.
  size_t Ingest(const double* xs, const int64_t* ts, size_t n, bool refresh);

  StreamingOptions options_;
  size_t pane_size_ = 1;
  size_t refresh_interval_points_ = 1;
  window::PaneBuffer panes_;
  uint64_t points_since_refresh_ = 0;

  /// The shared empty Frame served before the first refresh.
  static const std::shared_ptr<const Frame>& EmptyFrame();

  /// Evaluation context rebuilt in place from the pane ring at every
  /// refresh; once warm, the rebuild, the ACF and the search allocate
  /// nothing, so a refresh allocates only to publish its frame.
  SeriesContext ctx_;
  bool has_previous_window_ = false;
  size_t previous_window_ = 1;
  /// Lifetime counters, copied into each published Frame.
  uint64_t refreshes_ = 0;
  uint64_t seeded_searches_ = 0;
  uint64_t cold_searches_ = 0;
  uint64_t candidates_evaluated_ = 0;
  uint64_t allocation_free_evals_ = 0;
  /// The snapshot ring (oldest first, at most snapshot_ring_frames
  /// frames; null before the first refresh): the single publication
  /// point, swapped atomically at the end of each refresh, so
  /// frame_snapshot() (serving back()) and FrameHistory() can never
  /// be observed out of step. Written only by the ingest thread, which
  /// may therefore read it without the atomic load (frame()).
  using FrameRing = std::vector<std::shared_ptr<const Frame>>;
  std::shared_ptr<const FrameRing> published_ring_;
};

// Forced inline: Push forwards one point at a time, and an outlined
// loop costs per-point callers (the alert monitor) a call and the
// chunk bookkeeping per point.
ASAP_ALWAYS_INLINE size_t StreamingAsap::Ingest(const double* xs,
                                                const int64_t* ts, size_t n,
                                                bool refresh) {
  size_t refreshes = 0;
  for (size_t i = 0; i < n;) {
    // The refresh condition (points_since_refresh_ >= interval AND
    // >= 4 complete panes) cannot hold before the interval boundary,
    // so every point up to it appends unchecked, on either clock.
    // Past the boundary with fewer than 4 panes (warm-up only) points
    // go one at a time.
    const size_t room =
        !refresh ? n - i
        : points_since_refresh_ < refresh_interval_points_
            ? refresh_interval_points_ - points_since_refresh_
            : 1;
    const size_t chunk = std::min(n - i, room);
    panes_.Append(xs + i, ts == nullptr ? nullptr : ts + i, chunk);
    i += chunk;
    points_since_refresh_ += chunk;
    if (refresh && points_since_refresh_ >= refresh_interval_points_ &&
        panes_.size() >= 4) {
      Refresh();
      points_since_refresh_ = 0;
      ++refreshes;
    }
  }
  if (!refresh) {
    points_since_refresh_ = 0;
  }
  return refreshes;
}

}  // namespace asap

#endif  // ASAP_CORE_STREAMING_ASAP_H_
