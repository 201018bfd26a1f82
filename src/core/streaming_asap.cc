#include "core/streaming_asap.h"

#include <algorithm>
#include <atomic>

#include "common/macros.h"
#include "window/preaggregate.h"
#include "window/sma.h"

namespace asap {

StreamingAsap::StreamingAsap(const StreamingOptions& options)
    : options_(options),
      pane_size_(options.enable_preaggregation
                     ? window::PointToPixelRatio(options.visible_points,
                                                 options.resolution)
                     : 1),
      refresh_interval_points_(options.refresh_every_points != 0
                                   ? options.refresh_every_points
                                   : pane_size_),
      panes_(pane_size_,
             /*max_panes=*/std::max<size_t>(options.visible_points /
                                                std::max<size_t>(pane_size_, 1),
                                            4),
             options.pane_epoch, options.pane_width_ticks) {}

Result<StreamingAsap> StreamingAsap::Create(const StreamingOptions& options) {
  if (options.visible_points < 8) {
    return Status::InvalidArgument(
        "visible_points must be >= 8 (got " +
        std::to_string(options.visible_points) + ")");
  }
  if (options.snapshot_ring_frames < 1) {
    return Status::InvalidArgument("snapshot_ring_frames must be >= 1");
  }
  if (options.pane_width_ticks < 0) {
    return Status::InvalidArgument("pane_width_ticks must be >= 0");
  }
  return StreamingAsap(options);
}

void StreamingAsap::Prefill(const std::vector<double>& xs) {
  Ingest(xs.data(), nullptr, xs.size(), /*refresh=*/false);
}

size_t StreamingAsap::PushBatch(const double* xs, size_t n) {
  return Ingest(xs, nullptr, n, /*refresh=*/true);
}

size_t StreamingAsap::PushTimed(const double* xs, const int64_t* ts,
                                size_t n) {
  ASAP_CHECK(ts == nullptr || options_.pane_width_ticks > 0);
  return Ingest(xs, ts, n, /*refresh=*/true);
}

void StreamingAsap::RestorePanes(const double* means, size_t n) {
  // Replay the live refresh cadence one pane at a time: each restored
  // pane advances the point clock by pane_size, firing Refresh at
  // exactly the boundaries live ingestion would have (boundaries are
  // pane-aligned whenever refresh_interval_points is a multiple of
  // pane_size — in particular for the refresh-per-pane default).
  for (size_t i = 0; i < n; ++i) {
    panes_.RestoreCompleted(means[i]);
    points_since_refresh_ += pane_size_;
    if (points_since_refresh_ >= refresh_interval_points_ &&
        panes_.size() >= 4) {
      Refresh();
      points_since_refresh_ = 0;
    }
  }
}

const std::shared_ptr<const StreamingAsap::Frame>&
StreamingAsap::EmptyFrame() {
  static const std::shared_ptr<const Frame> kEmpty =
      std::make_shared<const Frame>();
  return kEmpty;
}

std::shared_ptr<const StreamingAsap::Frame> StreamingAsap::frame_snapshot()
    const {
  const std::shared_ptr<const FrameRing> ring =
      std::atomic_load_explicit(&published_ring_, std::memory_order_acquire);
  return ring != nullptr ? ring->back() : EmptyFrame();
}

std::vector<std::shared_ptr<const StreamingAsap::Frame>>
StreamingAsap::FrameHistory() const {
  const std::shared_ptr<const FrameRing> ring =
      std::atomic_load_explicit(&published_ring_, std::memory_order_acquire);
  return ring == nullptr ? FrameRing{} : *ring;
}

void StreamingAsap::Refresh() {
  if (panes_.size() < 4) {
    return;
  }
  // Rebuild the evaluation context straight from the pane ring: prefix
  // sums and series metrics are recomputed once per refresh, then every
  // candidate evaluation below is an allocation-free fused pass.
  ctx_.Reset(panes_.Means());

  // CheckLastWindow: seed with the previous solution if it is still
  // feasible on the refreshed data; otherwise search from scratch.
  // The ACF (UpdateAcf: the visible window changed) is computed on
  // demand by the seed check and the ASAP search, cached in ctx_.
  SearchDiagnostics check;
  AsapState state =
      has_previous_window_
          ? CheckLastWindow(&ctx_, previous_window_, options_.search, &check)
          : AsapState{};
  const bool seeded = state.has_feasible;

  SearchResult result;
  switch (options_.strategy) {
    case SearchStrategy::kAsap:
      result = AsapSearch(&ctx_, options_.search, &state);
      break;
    case SearchStrategy::kExhaustive:
      result = ExhaustiveSearch(&ctx_, options_.search);
      break;
    case SearchStrategy::kGrid:
      result = GridSearch(&ctx_, options_.search);
      break;
    case SearchStrategy::kBinary:
      result = BinarySearch(&ctx_, options_.search);
      break;
  }

  refreshes_ += 1;
  candidates_evaluated_ +=
      check.candidates_evaluated + result.diag.candidates_evaluated;
  allocation_free_evals_ +=
      check.allocation_free_evals + result.diag.allocation_free_evals;
  if (seeded) {
    seeded_searches_ += 1;
  } else {
    cold_searches_ += 1;
  }
  has_previous_window_ = true;
  previous_window_ = result.window;

  // The SMA is written straight into the frame being published.
  auto fresh = std::make_shared<Frame>();
  fresh->series.resize(ctx_.size() - result.window + 1);
  window::Sma(ctx_.x().data(), ctx_.size(), result.window,
              fresh->series.data());
  fresh->window = result.window;
  fresh->refreshes = refreshes_;
  fresh->seeded_searches = seeded_searches_;
  fresh->cold_searches = cold_searches_;
  fresh->candidates_evaluated = candidates_evaluated_;
  fresh->allocation_free_evals = allocation_free_evals_;

  // Publish the refreshed frame for lock-free snapshot readers (the
  // sharded engine's dashboards read frames mid-run through this) by
  // republishing the snapshot ring as a whole: a new vector sharing
  // the previous ring's frame pointers (cheap — K-1 shared_ptr
  // copies), so readers always see an immutable, internally
  // consistent history. K == 1 is a one-frame ring.
  const size_t ring_frames = options_.snapshot_ring_frames;
  auto ring = std::make_shared<FrameRing>();
  ring->reserve(ring_frames);
  if (published_ring_ != nullptr) {
    const FrameRing& old = *published_ring_;
    const size_t keep = std::min(old.size(), ring_frames - 1);
    ring->insert(ring->end(), old.end() - static_cast<ptrdiff_t>(keep),
                 old.end());
  }
  ring->push_back(std::move(fresh));
  std::atomic_store_explicit(&published_ring_,
                             std::shared_ptr<const FrameRing>(std::move(ring)),
                             std::memory_order_release);
}

}  // namespace asap
