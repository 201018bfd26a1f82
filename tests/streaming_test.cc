// Tests for src/core/streaming_asap: Algorithm 3's refresh mechanics,
// warm starts, and consistency with the batch operator.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>

#include "common/random.h"
#include "core/smooth.h"
#include "core/streaming_asap.h"
#include "ts/generators.h"

namespace asap {
namespace {

std::vector<double> PeriodicStream(uint64_t seed, size_t n,
                                   double period = 48.0) {
  Pcg32 rng(seed);
  return gen::Add(gen::Sine(n, period, 1.0), gen::WhiteNoise(&rng, n, 0.4));
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

StreamingOptions BasicOptions() {
  StreamingOptions options;
  options.resolution = 200;
  options.visible_points = 4000;
  return options;
}

TEST(StreamingAsapTest, CreateValidatesOptions) {
  StreamingOptions options;
  options.visible_points = 0;
  EXPECT_FALSE(StreamingAsap::Create(options).ok());
  options.visible_points = 4;
  EXPECT_FALSE(StreamingAsap::Create(options).ok());
  options.visible_points = 4000;
  EXPECT_TRUE(StreamingAsap::Create(options).ok());
}

TEST(StreamingAsapTest, PaneSizeIsPointToPixelRatio) {
  StreamingAsap op = StreamingAsap::Create(BasicOptions()).ValueOrDie();
  EXPECT_EQ(op.pane_size(), 20u);  // 4000 / 200
}

TEST(StreamingAsapTest, DisablingPreaggregationMakesUnitPanes) {
  StreamingOptions options = BasicOptions();
  options.enable_preaggregation = false;
  StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
  EXPECT_EQ(op.pane_size(), 1u);
}

TEST(StreamingAsapTest, DefaultRefreshIsPerPane) {
  StreamingAsap op = StreamingAsap::Create(BasicOptions()).ValueOrDie();
  EXPECT_EQ(op.refresh_interval_points(), op.pane_size());
}

TEST(StreamingAsapTest, RefreshCadenceFollowsInterval) {
  StreamingOptions options = BasicOptions();
  options.refresh_every_points = 500;
  StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
  const size_t refreshes = op.PushBatch(PeriodicStream(1, 5000));
  // 5000 points / 500-point interval = 10 refreshes, minus warm-up
  // gating (needs >= 4 panes = 80 points, so the first interval fires).
  EXPECT_GE(refreshes, 8u);
  EXPECT_LE(refreshes, 10u);
  EXPECT_EQ(op.frame().refreshes, refreshes);
}

TEST(StreamingAsapTest, NoRefreshBeforeWarmup) {
  StreamingAsap op = StreamingAsap::Create(BasicOptions()).ValueOrDie();
  // 3 panes' worth of points: not enough to search.
  for (size_t i = 0; i < 3 * op.pane_size(); ++i) {
    EXPECT_FALSE(op.Push(1.0));
  }
  EXPECT_EQ(op.frame().refreshes, 0u);
  EXPECT_TRUE(op.frame().series.empty());
}

TEST(StreamingAsapTest, FrameCarriesSmoothedSeries) {
  StreamingAsap op = StreamingAsap::Create(BasicOptions()).ValueOrDie();
  op.PushBatch(PeriodicStream(2, 4000));
  ASSERT_GT(op.frame().refreshes, 0u);
  EXPECT_FALSE(op.frame().series.empty());
  EXPECT_GE(op.frame().window, 1u);
  EXPECT_EQ(op.points_consumed(), 4000u);
}

TEST(StreamingAsapTest, WarmStartsAfterFirstRefresh) {
  StreamingAsap op = StreamingAsap::Create(BasicOptions()).ValueOrDie();
  op.PushBatch(PeriodicStream(3, 8000));
  const auto& frame = op.frame();
  EXPECT_GE(frame.refreshes, 2u);
  // The very first search is necessarily cold; later refreshes may
  // occasionally re-seed when the previous window loses feasibility on
  // the shifted data, but warm starts must dominate on a stationary
  // stream.
  EXPECT_GE(frame.cold_searches, 1u);
  EXPECT_EQ(frame.cold_searches + frame.seeded_searches, frame.refreshes);
  EXPECT_GT(frame.seeded_searches, frame.refreshes / 2);
}

TEST(StreamingAsapTest, StreamingMatchesBatchOnStationaryData) {
  // Once the visible window is full of stationary data, the streaming
  // choice should match what batch ASAP picks on the same window.
  StreamingOptions options;
  options.resolution = 250;
  options.visible_points = 5000;
  StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
  const std::vector<double> data = PeriodicStream(4, 10000, 40.0);
  op.PushBatch(data);

  SmoothOptions batch_options;
  batch_options.resolution = 250;
  const std::vector<double> window(data.end() - 5000, data.end());
  Result<SmoothingResult> batch = Smooth(window, batch_options);
  ASSERT_TRUE(batch.ok());
  // Identical pane grids are not guaranteed (stream pane boundaries
  // depend on arrival order), so allow the neighborhood.
  EXPECT_NEAR(static_cast<double>(op.frame().window),
              static_cast<double>(batch->window),
              static_cast<double>(batch->window) * 0.5 + 2.0);
}

TEST(StreamingAsapTest, AdaptsWindowWhenPeriodChanges) {
  StreamingOptions options;
  options.resolution = 200;
  options.visible_points = 4000;
  StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
  op.PushBatch(PeriodicStream(5, 6000, 40.0));
  const size_t window_before = op.frame().window;
  // Stream in data with a very different period; after the visible
  // window fully turns over, the chosen window should move.
  op.PushBatch(PeriodicStream(6, 6000, 160.0));
  const size_t window_after = op.frame().window;
  EXPECT_NE(window_before, window_after);
}

TEST(StreamingAsapTest, ExplicitRefreshBeforeIntervalIsNoOpUntilWarm) {
  StreamingAsap op = StreamingAsap::Create(BasicOptions()).ValueOrDie();
  op.Refresh();  // no panes yet: must not crash or count
  EXPECT_EQ(op.frame().refreshes, 0u);
  op.PushBatch(PeriodicStream(7, 4000));
  const uint64_t before = op.frame().refreshes;
  op.Refresh();  // explicit re-render (zoom/scroll path)
  EXPECT_EQ(op.frame().refreshes, before + 1);
}

TEST(StreamingAsapTest, LesionStrategiesRun) {
  // The Fig. 11 lesions must all be executable.
  for (SearchStrategy strategy :
       {SearchStrategy::kAsap, SearchStrategy::kExhaustive,
        SearchStrategy::kBinary}) {
    StreamingOptions options = BasicOptions();
    options.strategy = strategy;
    StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
    op.PushBatch(PeriodicStream(8, 4000));
    EXPECT_GT(op.frame().refreshes, 0u);
  }
}

TEST(StreamingAsapTest, CandidateAccountingAccumulates) {
  StreamingAsap op = StreamingAsap::Create(BasicOptions()).ValueOrDie();
  op.PushBatch(PeriodicStream(9, 6000));
  EXPECT_GT(op.frame().candidates_evaluated, op.frame().refreshes);
}

TEST(StreamingAsapTest, PushBatchFastPathMatchesPerPointPush) {
  // The pane-granular bulk path must be refresh-for-refresh (and
  // bitwise) identical to per-point Push, for any batch segmentation
  // and refresh cadence — including batch boundaries that split panes
  // and refresh intervals smaller than a batch.
  const std::vector<double> data = PeriodicStream(10, 2500);
  for (size_t refresh_every : {size_t{0}, size_t{7}, size_t{500}}) {
    for (bool preaggregate : {true, false}) {
      StreamingOptions options;
      options.resolution = 100;
      options.visible_points = 1000;
      options.refresh_every_points = refresh_every;
      options.enable_preaggregation = preaggregate;

      StreamingAsap per_point = StreamingAsap::Create(options).ValueOrDie();
      size_t point_refreshes = 0;
      for (double x : data) {
        point_refreshes += per_point.Push(x) ? 1 : 0;
      }

      for (size_t batch : {size_t{1}, size_t{3}, size_t{64}, size_t{1000},
                           data.size()}) {
        StreamingAsap bulk = StreamingAsap::Create(options).ValueOrDie();
        size_t bulk_refreshes = 0;
        for (size_t i = 0; i < data.size(); i += batch) {
          const size_t n = std::min(batch, data.size() - i);
          bulk_refreshes += bulk.PushBatch(data.data() + i, n);
        }
        SCOPED_TRACE("refresh_every=" + std::to_string(refresh_every) +
                     " preaggregate=" + std::to_string(preaggregate) +
                     " batch=" + std::to_string(batch));
        EXPECT_EQ(bulk_refreshes, point_refreshes);
        EXPECT_EQ(bulk.points_consumed(), per_point.points_consumed());
        EXPECT_EQ(bulk.frame().refreshes, per_point.frame().refreshes);
        EXPECT_EQ(bulk.frame().window, per_point.frame().window);
        EXPECT_EQ(bulk.frame().series, per_point.frame().series);
        EXPECT_EQ(bulk.frame().candidates_evaluated,
                  per_point.frame().candidates_evaluated);
      }
    }
  }

  // The same pin on the time grid: per-point PushTimed against random
  // chunkings, over timestamps that repeat, skip whole buckets, and
  // put chunk boundaries anywhere relative to bucket boundaries.
  Pcg32 rng(17);
  std::vector<int64_t> ts(data.size());
  int64_t clock = -95;  // starts before the epoch
  for (int64_t& t : ts) {
    const uint32_t r = rng.NextBounded(20);
    clock += r < 4 ? 0 : (r < 19 ? 1 : 35);  // repeat, step, skip buckets
    t = clock;
  }
  struct TimedRun {
    size_t refreshes = 0;
    std::vector<double> sunk;  // pane-sink sequence
    std::unique_ptr<StreamingAsap> op;
  };
  const auto collect = [](void* ctx, double mean) {
    static_cast<std::vector<double>*>(ctx)->push_back(mean);
  };
  for (size_t refresh_every : {size_t{0}, size_t{7}, size_t{500}}) {
    StreamingOptions options;
    options.resolution = 100;
    options.visible_points = 1000;
    options.refresh_every_points = refresh_every;
    options.pane_epoch = 3;
    options.pane_width_ticks = 10;
    // max_chunk 1 is the per-point reference.
    const auto run = [&](size_t max_chunk) {
      TimedRun r;
      r.op = std::make_unique<StreamingAsap>(
          StreamingAsap::Create(options).ValueOrDie());
      r.op->set_pane_sink(collect, &r.sunk);
      for (size_t i = 0; i < data.size();) {
        const size_t n = std::min<size_t>(
            1 + rng.NextBounded(static_cast<uint32_t>(max_chunk)),
            data.size() - i);
        r.refreshes += r.op->PushTimed(data.data() + i, ts.data() + i, n);
        i += n;
      }
      return r;
    };
    const TimedRun per_point = run(1);
    ASSERT_GT(per_point.refreshes, 3u);
    for (size_t max_chunk : {size_t{3}, size_t{40}, size_t{700}, data.size()}) {
      const TimedRun bulk = run(max_chunk);
      SCOPED_TRACE("timed refresh_every=" + std::to_string(refresh_every) +
                   " max_chunk=" + std::to_string(max_chunk));
      const StreamingAsap::Frame& got = bulk.op->frame();
      const StreamingAsap::Frame& want = per_point.op->frame();
      EXPECT_EQ(bulk.refreshes, per_point.refreshes);
      EXPECT_EQ(got.refreshes, want.refreshes);
      EXPECT_EQ(got.window, want.window);
      EXPECT_EQ(got.candidates_evaluated, want.candidates_evaluated);
      EXPECT_TRUE(BitwiseEqual(got.series, want.series));
      EXPECT_TRUE(BitwiseEqual(bulk.sunk, per_point.sunk));
      EXPECT_EQ(bulk.op->points_consumed(), per_point.op->points_consumed());
    }
  }
}

TEST(StreamingAsapTest, FrameSnapshotPublishesEachRefresh) {
  StreamingAsap op = StreamingAsap::Create(BasicOptions()).ValueOrDie();
  const auto empty = op.frame_snapshot();
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->refreshes, 0u);

  op.PushBatch(PeriodicStream(11, 4000));
  const auto frame = op.frame_snapshot();
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->refreshes, op.frame().refreshes);
  EXPECT_EQ(frame->window, op.frame().window);
  EXPECT_EQ(frame->series, op.frame().series);
  // The old snapshot is immutable — publishing never touched it.
  EXPECT_EQ(empty->refreshes, 0u);

  // A snapshot taken now survives (and stays coherent) across future
  // refreshes.
  op.PushBatch(PeriodicStream(12, 4000));
  EXPECT_GT(op.frame().refreshes, frame->refreshes);
}

TEST(StreamingAsapTest, SnapshotRingRejectsZeroFrames) {
  StreamingOptions options = BasicOptions();
  options.snapshot_ring_frames = 0;
  EXPECT_FALSE(StreamingAsap::Create(options).ok());
}

TEST(StreamingAsapTest, DefaultRingKeepsOnlyTheLatestFrame) {
  StreamingAsap op = StreamingAsap::Create(BasicOptions()).ValueOrDie();
  EXPECT_TRUE(op.FrameHistory().empty());  // nothing published yet

  op.PushBatch(PeriodicStream(21, 8000));
  const auto history = op.FrameHistory();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0]->refreshes, op.frame().refreshes);
  EXPECT_EQ(history[0].get(), op.frame_snapshot().get());
}

TEST(StreamingAsapTest, SnapshotRingRetainsLastKFrames) {
  StreamingOptions options = BasicOptions();
  options.refresh_every_points = 500;
  options.snapshot_ring_frames = 3;
  StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
  EXPECT_TRUE(op.FrameHistory().empty());

  // Fewer refreshes than the ring holds: history grows with each.
  op.PushBatch(PeriodicStream(22, 1000));  // 2 refreshes
  ASSERT_EQ(op.FrameHistory().size(), 2u);

  op.PushBatch(PeriodicStream(23, 4000));  // many more refreshes
  const auto history = op.FrameHistory();
  ASSERT_EQ(history.size(), 3u);
  // Oldest first, consecutive refreshes, newest == frame_snapshot().
  EXPECT_EQ(history[0]->refreshes + 1, history[1]->refreshes);
  EXPECT_EQ(history[1]->refreshes + 1, history[2]->refreshes);
  EXPECT_EQ(history[2].get(), op.frame_snapshot().get());
  EXPECT_EQ(history[2]->refreshes, op.frame().refreshes);

  // Dashboard diffing: every retained frame is immutable, so a reader
  // can compare consecutive frames without copies.
  EXPECT_GE(history[2]->window, 1u);
}

TEST(StreamingAsapTest, SnapshotRingEvictsOldestInOrderOnWraparound) {
  // Publish far more refreshes than the ring holds: the window slides
  // forward refresh by refresh, always the *newest* K in order — the
  // oldest frame evicted first, never reordered or skipped.
  StreamingOptions options = BasicOptions();
  options.refresh_every_points = 200;
  const size_t kRing = 4;
  options.snapshot_ring_frames = kRing;
  StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();

  const std::vector<double> data = PeriodicStream(24, 12000);
  size_t pushed = 0;
  uint64_t last_newest = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (op.Push(data[i])) {
      ++pushed;
      const auto history = op.FrameHistory();
      ASSERT_EQ(history.size(), std::min<size_t>(pushed, kRing));
      // Contiguous ascending refresh counters ending at the current
      // refresh — exactly the newest min(pushed, K) frames.
      for (size_t j = 0; j < history.size(); ++j) {
        EXPECT_EQ(history[j]->refreshes,
                  pushed - history.size() + 1 + j);
      }
      EXPECT_EQ(history.back()->refreshes, pushed);
      EXPECT_GT(history.back()->refreshes, last_newest);
      last_newest = history.back()->refreshes;
    }
  }
  ASSERT_GT(pushed, 3 * kRing);  // the ring really wrapped, repeatedly
  EXPECT_EQ(op.FrameHistory().size(), kRing);
}

TEST(StreamingAsapTest, SnapshotRingReadsStayCoherentUnderConcurrentPush) {
  // A reader diffs FrameHistory() while the ingest thread pushes: it
  // must always observe an immutable ring — oldest-first, contiguous
  // refresh counters, back() agreeing with frame_snapshot() — no
  // matter how the writer races it (the TSan CI job gates this).
  StreamingOptions options = BasicOptions();
  options.refresh_every_points = 100;
  options.snapshot_ring_frames = 3;
  StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> rings_seen{0};
  std::thread reader([&] {
    uint64_t newest_seen = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto history = op.FrameHistory();
      if (history.empty()) {
        continue;
      }
      ASSERT_LE(history.size(), 3u);
      for (size_t j = 1; j < history.size(); ++j) {
        EXPECT_EQ(history[j - 1]->refreshes + 1, history[j]->refreshes);
      }
      // Monotone publication: the ring never goes backwards.
      EXPECT_GE(history.back()->refreshes, newest_seen);
      newest_seen = history.back()->refreshes;
      // A frame_snapshot taken right after must be at least as new as
      // the ring's back (the ring IS the publication point).
      EXPECT_GE(op.frame_snapshot()->refreshes, newest_seen);
      rings_seen.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const std::vector<double> data = PeriodicStream(25, 30000);
  op.PushBatch(data);
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(op.frame().refreshes, 3u);
  EXPECT_GT(rings_seen.load(), 0u);
  const auto final_history = op.FrameHistory();
  ASSERT_EQ(final_history.size(), 3u);
  EXPECT_EQ(final_history.back()->refreshes, op.frame().refreshes);
}

}  // namespace
}  // namespace asap
