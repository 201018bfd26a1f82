// Tests for the multi-series fleet runtime: named tagged sources, the
// per-shard series registry, overflow policies, and the sharded
// engine's determinism parity — for any shard count, every series'
// final frame must be identical to running that series alone through
// StreamingAsap.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/random.h"
#include "stream/sharded_engine.h"
#include "stream/source.h"
#include "ts/generators.h"

namespace asap {
namespace stream {
namespace {

std::vector<double> FleetSeries(size_t index, size_t n) {
  Pcg32 rng(1000 + index);
  const double period = 24.0 + 8.0 * static_cast<double>(index % 7);
  return gen::Add(gen::Sine(n, period, 1.0 + 0.1 * index),
                  gen::WhiteNoise(&rng, n, 0.4));
}

std::string HostName(size_t index) {
  return "host-" + std::to_string(index);
}

StreamingOptions FleetOptions() {
  StreamingOptions options;
  options.resolution = 100;
  options.visible_points = 2000;
  options.refresh_every_points = 250;
  return options;
}

TEST(TaggedSourceTest, TagsEveryPointWithTheInternedSeries) {
  SeriesCatalog catalog;
  auto inner = std::make_unique<VectorSource>(std::vector<double>{1, 2, 3});
  TaggedSource source(&catalog, "tagged/series", std::move(inner));
  const SeriesId id = catalog.FindId("tagged/series").value();
  RecordBatch out;
  EXPECT_EQ(source.NextBatch(2, &out), 2u);
  EXPECT_EQ(source.NextBatch(10, &out), 1u);
  EXPECT_EQ(source.NextBatch(10, &out), 0u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (Record{id, 1.0}));
  EXPECT_EQ(out[2], (Record{id, 3.0}));
  EXPECT_EQ(source.TotalPoints(), 3u);
}

TEST(InterleavingMultiSourceTest, PreservesPerSeriesOrder) {
  SeriesCatalog catalog;
  InterleavingMultiSource source(&catalog);
  const std::vector<std::vector<double>> series = {
      {1, 2, 3, 4, 5, 6, 7}, {10, 20, 30}, {100, 200, 300, 400, 500}};
  for (size_t i = 0; i < series.size(); ++i) {
    source.AddVector(HostName(i), series[i]);
  }
  EXPECT_EQ(source.series_count(), 3u);
  EXPECT_EQ(source.TotalPoints(), 15u);
  EXPECT_EQ(catalog.size(), 3u);  // Add interned each name

  RecordBatch all;
  RecordBatch batch;
  size_t n;
  while ((n = source.NextBatch(4, &batch)) > 0) {
    all.insert(all.end(), batch.begin(), batch.end());
    batch.clear();
  }
  ASSERT_EQ(all.size(), 15u);

  // Projecting the interleaved stream onto one series must yield that
  // series' values in order.
  std::map<SeriesId, std::vector<double>> by_series;
  for (const Record& r : all) {
    by_series[r.series_id].push_back(r.value);
  }
  ASSERT_EQ(by_series.size(), 3u);
  for (size_t i = 0; i < series.size(); ++i) {
    const SeriesId id = catalog.FindId(HostName(i)).value();
    EXPECT_EQ(by_series[id], series[i]) << HostName(i);
  }
}

TEST(InterleavingMultiSourceTest, UnboundedMemberMakesFleetUnbounded) {
  SeriesCatalog catalog;
  InterleavingMultiSource source(&catalog);
  source.AddVector("bounded", {1, 2, 3});
  source.AddLooping("endless", {4, 5}, /*total_points=*/0);  // 0 = endless
  EXPECT_EQ(source.TotalPoints(), 0u);
  // The endless member really does keep producing.
  RecordBatch out;
  EXPECT_EQ(source.NextBatch(100, &out), 100u);
  EXPECT_EQ(source.NextBatch(100, &out), 100u);
}

TEST(SeriesRegistryTest, LazilyCreatesFromFactoryOptions) {
  SeriesRegistry registry(FleetOptions());
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.Find(7), nullptr);

  StreamingAsap& op = registry.GetOrCreate(7);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(&registry.GetOrCreate(7), &op);  // same instance on re-lookup
  EXPECT_EQ(registry.Find(7), &op);
  EXPECT_EQ(op.pane_size(), 20u);  // 2000 / 100, from the shared options

  registry.GetOrCreate(3);
  registry.GetOrCreate(11);
  EXPECT_EQ(registry.Ids(), (std::vector<SeriesId>{3, 7, 11}));
}

TEST(ShardedEngineTest, ShardOfIsStableAndInRange) {
  for (size_t shard_count : {1u, 2u, 7u, 8u}) {
    for (SeriesId id = 0; id < 200; ++id) {
      const size_t shard = ShardedEngine::ShardOf(id, shard_count);
      EXPECT_LT(shard, shard_count);
      EXPECT_EQ(shard, ShardedEngine::ShardOf(id, shard_count));
    }
  }
  // The hash must actually spread the catalog's dense ids across 8
  // shards.
  std::vector<size_t> counts(8, 0);
  for (SeriesId id = 0; id < 64; ++id) {
    ++counts[ShardedEngine::ShardOf(id, 8)];
  }
  for (size_t c : counts) {
    EXPECT_GT(c, 0u);
  }
}

TEST(ShardedEngineTest, CreateValidatesOptions) {
  StreamingOptions bad_series;
  bad_series.visible_points = 4;  // StreamingAsap::Create rejects < 8
  EXPECT_FALSE(ShardedEngine::Create(bad_series).ok());

  ShardedEngineOptions bad_engine;
  bad_engine.shards = 0;
  EXPECT_FALSE(ShardedEngine::Create(FleetOptions(), bad_engine).ok());
  bad_engine.shards = 2;
  bad_engine.queue_capacity = 0;
  EXPECT_FALSE(ShardedEngine::Create(FleetOptions(), bad_engine).ok());
}

// The acceptance criterion: for T in {1, 4, 8}, every series' final
// frame (window, series values, refresh count) is identical to running
// that series alone through StreamingAsap sequentially.
TEST(ShardedEngineTest, DeterminismParityAcrossShardCounts) {
  const size_t kSeries = 16;
  const size_t kPointsPerSeries = 5000;
  const StreamingOptions options = FleetOptions();

  // Sequential reference: one series at a time, point by point.
  std::vector<StreamingAsap> reference;
  for (size_t i = 0; i < kSeries; ++i) {
    StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
    for (double x : FleetSeries(i, kPointsPerSeries)) {
      op.Push(x);
    }
    reference.push_back(std::move(op));
  }

  for (size_t shard_count : {1u, 4u, 8u}) {
    ShardedEngineOptions engine_options;
    engine_options.shards = shard_count;
    engine_options.batch_size = 512;
    ShardedEngine engine =
        ShardedEngine::Create(options, engine_options).ValueOrDie();

    InterleavingMultiSource source(engine.catalog());
    for (size_t i = 0; i < kSeries; ++i) {
      source.AddVector(HostName(i), FleetSeries(i, kPointsPerSeries));
    }
    const FleetReport report = engine.RunToCompletion(&source);

    EXPECT_EQ(report.points, kSeries * kPointsPerSeries);
    EXPECT_EQ(report.series, kSeries);
    ASSERT_EQ(report.per_series.size(), kSeries);

    std::map<std::string, const SeriesReport*> by_name;
    for (const SeriesReport& sr : report.per_series) {
      by_name[sr.name] = &sr;
    }
    for (size_t i = 0; i < kSeries; ++i) {
      const auto frame = engine.Snapshot(HostName(i));
      ASSERT_NE(frame, nullptr) << HostName(i);
      const StreamingAsap::Frame& expected = reference[i].frame();
      EXPECT_EQ(frame->window, expected.window)
          << "shards=" << shard_count << " " << HostName(i);
      EXPECT_EQ(frame->refreshes, expected.refreshes)
          << "shards=" << shard_count << " " << HostName(i);
      EXPECT_EQ(frame->series, expected.series)
          << "shards=" << shard_count << " " << HostName(i);
      // The report row must agree with the frame.
      ASSERT_NE(by_name[HostName(i)], nullptr) << HostName(i);
      const SeriesReport& sr = *by_name[HostName(i)];
      EXPECT_EQ(sr.refreshes, expected.refreshes);
      EXPECT_EQ(sr.window, expected.window);
      EXPECT_EQ(sr.points, kPointsPerSeries);
    }
  }
}

TEST(ShardedEngineTest, FleetReportAggregatesShardSlices) {
  ShardedEngineOptions engine_options;
  engine_options.shards = 4;
  engine_options.batch_size = 256;
  engine_options.queue_capacity = 4;
  ShardedEngine engine =
      ShardedEngine::Create(FleetOptions(), engine_options).ValueOrDie();

  InterleavingMultiSource source(engine.catalog());
  const size_t kSeries = 12;
  for (size_t i = 0; i < kSeries; ++i) {
    source.AddVector(HostName(i), FleetSeries(i, 3000));
  }
  const FleetReport report = engine.RunToCompletion(&source);

  ASSERT_EQ(report.shards.size(), 4u);
  uint64_t shard_points = 0;
  uint64_t shard_refreshes = 0;
  size_t shard_series = 0;
  for (const ShardReport& sr : report.shards) {
    shard_points += sr.points;
    shard_refreshes += sr.refreshes;
    shard_series += sr.series;
    EXPECT_LE(sr.peak_queue_depth, engine_options.queue_capacity);
  }
  EXPECT_EQ(shard_points, report.points);
  EXPECT_EQ(shard_refreshes, report.refreshes);
  EXPECT_EQ(shard_series, report.series);
  EXPECT_EQ(report.series, kSeries);
  EXPECT_GT(report.refreshes, 0u);
  EXPECT_GT(report.points_per_second, 0.0);

  // Names in per_series are sorted and unique.
  for (size_t i = 1; i < report.per_series.size(); ++i) {
    EXPECT_LT(report.per_series[i - 1].name, report.per_series[i].name);
  }
}

TEST(ShardedEngineTest, SnapshotIsSafeWhileRunIsInFlight) {
  // A dashboard thread polls frames by name while the fleet streams —
  // the TSan CI job gates this path for data races.
  ShardedEngineOptions engine_options;
  engine_options.shards = 4;
  engine_options.batch_size = 512;
  ShardedEngine engine =
      ShardedEngine::Create(FleetOptions(), engine_options).ValueOrDie();

  InterleavingMultiSource source(engine.catalog());
  const size_t kSeries = 8;
  for (size_t i = 0; i < kSeries; ++i) {
    source.AddLooping(HostName(i), FleetSeries(i, 4000),
                      /*total_points=*/60000);
  }

  std::atomic<bool> done{false};
  std::atomic<uint64_t> frames_seen{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (size_t i = 0; i < kSeries; ++i) {
        const auto frame = engine.Snapshot(HostName(i));
        if (frame != nullptr && frame->refreshes > 0) {
          // Reading through the snapshot must always be coherent.
          EXPECT_GE(frame->window, 1u);
          frames_seen.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::this_thread::yield();
    }
  });

  const FleetReport report = engine.RunToCompletion(&source);
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(report.points, kSeries * 60000u);
  EXPECT_GT(report.refreshes, 0u);
  // The reader must have observed at least the final frames.
  for (size_t i = 0; i < kSeries; ++i) {
    EXPECT_NE(engine.Snapshot(HostName(i)), nullptr);
  }
}

TEST(ShardedEngineTest, RunForBudgetStopsPullingEarly) {
  ShardedEngineOptions engine_options;
  engine_options.shards = 2;
  engine_options.batch_size = 1024;
  ShardedEngine engine =
      ShardedEngine::Create(FleetOptions(), engine_options).ValueOrDie();

  InterleavingMultiSource source(engine.catalog());
  for (size_t i = 0; i < 4; ++i) {
    // Effectively endless: the budget, not the source, must stop us.
    source.AddLooping(HostName(i), FleetSeries(i, 4000),
                      /*total_points=*/size_t{1} << 40);
  }
  const FleetReport report = engine.RunForBudget(&source, 0.15);
  EXPECT_GT(report.points, 0u);
  EXPECT_GE(report.seconds, 0.15);
  EXPECT_LT(report.seconds, 10.0);  // termination, with headroom for CI
}

TEST(ShardedEngineTest, BlockPolicyNeverDrops) {
  ShardedEngineOptions engine_options;
  engine_options.shards = 2;
  engine_options.queue_capacity = 1;  // maximal backpressure
  engine_options.batch_size = 128;
  ShardedEngine engine =
      ShardedEngine::Create(FleetOptions(), engine_options).ValueOrDie();

  InterleavingMultiSource source(engine.catalog());
  for (size_t i = 0; i < 8; ++i) {
    source.AddVector(HostName(i), FleetSeries(i, 4000));
  }
  const FleetReport report = engine.RunToCompletion(&source);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.conflated, 0u);
  uint64_t consumed = 0;
  for (const ShardReport& sr : report.shards) {
    EXPECT_EQ(sr.dropped, 0u);
    consumed += sr.points;
  }
  EXPECT_EQ(consumed, report.points);  // lossless
}

TEST(ShardedEngineTest, DropNewestPolicyAccountsForEveryRecord) {
  // A tiny queue, refresh-heavy operators, and exhaustive search make
  // the workers slow enough that the producer overruns the queues;
  // drops are timing-dependent, so the test pins the accounting
  // invariants rather than an exact count.
  StreamingOptions series_options = FleetOptions();
  series_options.strategy = SearchStrategy::kExhaustive;
  series_options.refresh_every_points = 100;

  ShardedEngineOptions engine_options;
  engine_options.shards = 2;
  engine_options.batch_size = 64;
  engine_options.queue_capacity = 1;
  engine_options.overflow_policy = OverflowPolicy::kDropNewest;
  ShardedEngine engine =
      ShardedEngine::Create(series_options, engine_options).ValueOrDie();

  InterleavingMultiSource source(engine.catalog());
  for (size_t i = 0; i < 8; ++i) {
    source.AddVector(HostName(i), FleetSeries(i, 8000));
  }
  const FleetReport report = engine.RunToCompletion(&source);

  // Every pulled record was either consumed by a shard or counted
  // dropped — none vanish.
  uint64_t consumed = 0;
  uint64_t dropped = 0;
  for (const ShardReport& sr : report.shards) {
    consumed += sr.points;
    dropped += sr.dropped;
  }
  EXPECT_EQ(dropped, report.dropped);
  EXPECT_EQ(consumed + dropped, report.points);
  EXPECT_EQ(report.points, 8u * 8000u);
}

TEST(ShardedEngineTest, ConflatePolicyCollapsesInsteadOfDropping) {
  // Same overload pressure as the kDropNewest test, but overflow
  // collapses batches into pane partials: nothing is dropped, every
  // pulled record is either consumed raw or accounted as conflated
  // away, and the queues never exceed capacity.
  StreamingOptions series_options = FleetOptions();
  series_options.strategy = SearchStrategy::kExhaustive;
  series_options.refresh_every_points = 100;

  ShardedEngineOptions engine_options;
  engine_options.shards = 2;
  // Batches large enough that each series' slice of one batch spans
  // complete pane groups (512 records / 8 series = 64 > pane size 20)
  // — otherwise conflation has only short trailing groups to keep.
  engine_options.batch_size = 512;
  engine_options.queue_capacity = 1;
  engine_options.overflow_policy = OverflowPolicy::kConflate;
  ShardedEngine engine =
      ShardedEngine::Create(series_options, engine_options).ValueOrDie();

  InterleavingMultiSource source(engine.catalog());
  const size_t kSeries = 8;
  const size_t kPointsPerSeries = 8000;
  for (size_t i = 0; i < kSeries; ++i) {
    source.AddVector(HostName(i), FleetSeries(i, kPointsPerSeries));
  }
  const FleetReport report = engine.RunToCompletion(&source);

  EXPECT_EQ(report.points, kSeries * kPointsPerSeries);
  // The slow consumers guarantee overflow, so conflation must have
  // engaged...
  EXPECT_GT(report.conflated, 0u);
  // ...and the accounting closes: consumed records + records collapsed
  // away (+ any stalled-consumer backstop drops) equals everything
  // pulled.
  uint64_t consumed = 0;
  uint64_t conflated = 0;
  uint64_t dropped = 0;
  for (const ShardReport& sr : report.shards) {
    consumed += sr.points;
    conflated += sr.conflated;
    dropped += sr.dropped;
    EXPECT_LE(sr.peak_queue_depth, engine_options.queue_capacity);
  }
  EXPECT_EQ(conflated, report.conflated);
  EXPECT_EQ(dropped, report.dropped);
  EXPECT_EQ(consumed + conflated + dropped, report.points);
  // Every series still produced frames (its shape survived).
  for (size_t i = 0; i < kSeries; ++i) {
    const auto frame = engine.Snapshot(HostName(i));
    ASSERT_NE(frame, nullptr) << HostName(i);
    EXPECT_GT(frame->refreshes, 0u) << HostName(i);
  }
}

// ---------------------------------------------------------------------
// Timed pane mode + the per-shard sequencer.

/// Replays a prebuilt RecordBatch — wire-style input whose records
/// already carry timestamps (and arbitrary order).
class BatchSource : public MultiSource {
 public:
  explicit BatchSource(RecordBatch records) : records_(std::move(records)) {}

  size_t NextBatch(size_t max_records, RecordBatch* out) override {
    const size_t n = std::min(max_records, records_.size() - position_);
    out->insert(out->end(), records_.begin() + static_cast<ptrdiff_t>(position_),
                records_.begin() + static_cast<ptrdiff_t>(position_ + n));
    position_ += n;
    return n;
  }
  size_t TotalPoints() const override { return records_.size(); }

 private:
  RecordBatch records_;
  size_t position_ = 0;
};

TEST(ConflatePanePartialsTest, CountModeCollapsesPaneSizedGroups) {
  const RecordBatch batch = {{1, 1.0, 0}, {1, 2.0, 0}, {1, 3.0, 0},
                             {1, 4.0, 0}, {1, 5.0, 0}, {1, 6.0, 0},
                             {1, 7.0, 0}};
  const RecordBatch out = ConflatePanePartials(batch, 3, 0, 0);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0].value, 2.0);  // mean(1,2,3)
  EXPECT_DOUBLE_EQ(out[1].value, 5.0);  // mean(4,5,6)
  EXPECT_DOUBLE_EQ(out[2].value, 7.0);  // trailing short group: raw
}

TEST(ConflatePanePartialsTest, TimedModeGroupsByPaneNeverAcrossBoundaries) {
  // Pane width 10: series 1 has three records in pane 0, one in pane
  // 1, two in pane 2; series 2 interleaves with two in pane 0. Groups
  // collapse per (series, pane) and carry the group's first
  // timestamp, so a collapsed record re-enters its own pane.
  const RecordBatch batch = {{1, 1.0, 1},  {2, 10.0, 2}, {1, 2.0, 5},
                             {2, 20.0, 6}, {1, 3.0, 9},  {1, 4.0, 12},
                             {1, 5.0, 21}, {1, 7.0, 25}};
  const RecordBatch out = ConflatePanePartials(batch, 999, 0, 10);
  ASSERT_EQ(out.size(), 4u);
  // Stable grouping: series 1's groups first (its first record leads).
  EXPECT_EQ(out[0], (Record{1, 2.0, 1}));    // mean(1,2,3) @ pane 0
  EXPECT_EQ(out[1], (Record{1, 4.0, 12}));   // singleton: raw
  EXPECT_EQ(out[2], (Record{1, 6.0, 21}));   // mean(5,7) @ pane 2
  EXPECT_EQ(out[3], (Record{2, 15.0, 2}));   // mean(10,20) @ pane 0
}

TEST(ConflatePanePartialsTest, AdjacentPanesDoNotMerge) {
  // ts 9 and 11 are one tick apart but in different panes — count-
  // based grouping would have collapsed them (the bug class); pane-
  // aware grouping must not.
  const RecordBatch batch = {{1, 1.0, 9}, {1, 2.0, 11}};
  const RecordBatch out = ConflatePanePartials(batch, 2, 0, 10);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (Record{1, 1.0, 9}));
  EXPECT_EQ(out[1], (Record{1, 2.0, 11}));
}

StreamingOptions TimedParityOptions() {
  StreamingOptions options = FleetOptions();
  // A refresh cadence that never lands on a pane boundary (251k mod
  // 20 != 0 for every refresh in a 4000-point stream): timed mode
  // commits a pane one point later than count mode (on the first
  // point of the next bucket), so a refresh at an exact boundary
  // would see one fewer pane and break bitwise parity. Off-boundary
  // refreshes see identical committed pane sets in both modes.
  options.refresh_every_points = 251;
  return options;
}

TEST(ShardedEngineTimedTest, TimedPaneParityMatchesArrivalOrder) {
  const size_t kSeries = 8;
  const size_t kPointsPerSeries = 4000;
  const StreamingOptions arrival_options = TimedParityOptions();
  const size_t pane_size =
      StreamingAsap::Create(arrival_options).ValueOrDie().pane_size();

  // Arrival-order reference: one series at a time, count-based panes.
  std::vector<StreamingAsap> reference;
  for (size_t i = 0; i < kSeries; ++i) {
    StreamingAsap op = StreamingAsap::Create(arrival_options).ValueOrDie();
    for (double x : FleetSeries(i, kPointsPerSeries)) {
      op.Push(x);
    }
    reference.push_back(std::move(op));
  }

  // Timed engine: uniform 1-tick sample clock, pane width = pane_size
  // ticks, so pane k holds exactly the points count mode would give
  // it. Frames must come out bitwise identical at any shard count.
  StreamingOptions timed_options = arrival_options;
  timed_options.pane_epoch = 0;
  timed_options.pane_width_ticks = static_cast<int64_t>(pane_size);

  for (size_t shard_count : {1u, 4u, 8u}) {
    ShardedEngineOptions engine_options;
    engine_options.shards = shard_count;
    engine_options.batch_size = 512;
    // The interleaver deals unequal per-series shares inside a batch,
    // so per-series sample clocks skew by up to a couple of batches;
    // the horizon must cover that skew for in-order-per-series input
    // to stay late-free (the sorted emit order is the same for any
    // sufficient horizon).
    engine_options.sequencer_horizon_ticks =
        4 * static_cast<int64_t>(engine_options.batch_size);
    ShardedEngine engine =
        ShardedEngine::Create(timed_options, engine_options).ValueOrDie();

    InterleavingMultiSource source(engine.catalog());
    source.StampTimestamps(0, 1);
    for (size_t i = 0; i < kSeries; ++i) {
      source.AddVector(HostName(i), FleetSeries(i, kPointsPerSeries));
    }
    const FleetReport report = engine.RunToCompletion(&source);

    EXPECT_EQ(report.points, kSeries * kPointsPerSeries);
    EXPECT_EQ(report.late, 0u) << "in-order input must never be late";
    for (size_t i = 0; i < kSeries; ++i) {
      const auto frame = engine.Snapshot(HostName(i));
      ASSERT_NE(frame, nullptr) << HostName(i);
      const StreamingAsap::Frame& expected = reference[i].frame();
      EXPECT_EQ(frame->refreshes, expected.refreshes)
          << "shards=" << shard_count << " " << HostName(i);
      EXPECT_EQ(frame->window, expected.window)
          << "shards=" << shard_count << " " << HostName(i);
      EXPECT_EQ(frame->series, expected.series)
          << "shards=" << shard_count << " " << HostName(i);
    }
  }
}

TEST(ShardedEngineTimedTest, ShuffledWithinHorizonMatchesSortedInput) {
  // Wire-style skew: the same timed records, shuffled within blocks
  // small enough that no record leaves the reordering horizon, must
  // produce frames bitwise identical to the in-order replay — the
  // sequencer undoes the skew before the panes see it.
  const size_t kSeries = 6;
  const size_t kPointsPerSeries = 3000;
  StreamingOptions timed_options = TimedParityOptions();
  const size_t pane_size =
      StreamingAsap::Create(timed_options).ValueOrDie().pane_size();
  timed_options.pane_epoch = 0;
  timed_options.pane_width_ticks = static_cast<int64_t>(pane_size);

  std::vector<std::string> names;
  std::vector<std::vector<double>> series;
  for (size_t i = 0; i < kSeries; ++i) {
    names.push_back(HostName(i));
    series.push_back(FleetSeries(i, kPointsPerSeries));
  }

  auto run = [&](const RecordBatch& records) {
    ShardedEngineOptions engine_options;
    engine_options.shards = 3;
    engine_options.batch_size = 256;
    engine_options.sequencer_horizon_ticks = 40;
    ShardedEngine engine =
        ShardedEngine::Create(timed_options, engine_options).ValueOrDie();
    // Intern the names in sender order: ids are dense and assigned in
    // first-sight order, so the prebuilt records' ids resolve to the
    // same names in this engine's catalog.
    for (const std::string& name : names) {
      engine.catalog()->Intern(name);
    }
    BatchSource source(records);
    const FleetReport report = engine.RunToCompletion(&source);
    EXPECT_EQ(report.late, 0u);
    std::vector<std::vector<double>> frames;
    for (size_t i = 0; i < kSeries; ++i) {
      const auto frame = engine.Snapshot(names[i]);
      EXPECT_NE(frame, nullptr) << names[i];
      frames.push_back(frame == nullptr ? std::vector<double>{}
                                        : frame->series);
    }
    return frames;
  };

  SeriesCatalog catalog;  // shared sender-side catalog for both batches
  const RecordBatch sorted =
      InterleaveToRecordsTimed(&catalog, names, series, 0, 1);
  RecordBatch shuffled = sorted;
  Pcg32 rng(0xf00d);
  const size_t kBlock = 24;  // spans ~4 ticks << horizon 40
  for (size_t start = 0; start + kBlock <= shuffled.size();
       start += kBlock) {
    for (size_t k = kBlock - 1; k > 0; --k) {
      std::swap(shuffled[start + k],
                shuffled[start + rng.NextBounded(static_cast<uint32_t>(k + 1))]);
    }
  }

  const auto frames_sorted = run(sorted);
  const auto frames_shuffled = run(shuffled);
  for (size_t i = 0; i < kSeries; ++i) {
    EXPECT_EQ(frames_shuffled[i], frames_sorted[i]) << names[i];
    EXPECT_FALSE(frames_sorted[i].empty()) << names[i];
  }
}

TEST(ShardedEngineTimedTest, LateRecordsAreCountedExactly) {
  StreamingOptions timed_options = FleetOptions();
  timed_options.pane_epoch = 0;
  timed_options.pane_width_ticks = 10;

  ShardedEngineOptions engine_options;
  engine_options.shards = 1;
  engine_options.sequencer_horizon_ticks = 50;
  ShardedEngine engine =
      ShardedEngine::Create(timed_options, engine_options).ValueOrDie();

  const SeriesId id = engine.catalog()->Intern("late/a");
  RecordBatch records;
  for (int64_t ts = 0; ts < 100; ++ts) {
    records.push_back(Record{id, 1.0, ts});  // in order: never late
  }
  records.push_back(Record{id, 1.0, 200});  // watermark jumps to 200
  for (int64_t ts = 100; ts < 150; ++ts) {
    records.push_back(Record{id, 1.0, ts});  // all < floor 150: late
  }
  records.push_back(Record{id, 1.0, 150});  // exactly at floor: on time
  records.push_back(Record{id, 1.0, 160});  // on time
  BatchSource source(records);
  const FleetReport report = engine.RunToCompletion(&source);

  EXPECT_EQ(report.points, records.size());
  EXPECT_EQ(report.late, 50u);
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_EQ(report.shards[0].late, 50u);
  EXPECT_EQ(report.shards[0].points + report.late, report.points);
  ASSERT_EQ(report.per_series.size(), 1u);
  EXPECT_EQ(report.per_series[0].late, 50u);
}

/// BatchSource plus the in-band low mark of an in-order stream: after
/// each batch, {kLowMarkId, 0, newest ts} (only when it advanced).
class MarkedSource : public MultiSource {
 public:
  explicit MarkedSource(RecordBatch records) : inner_(std::move(records)) {}

  size_t NextBatch(size_t max_records, RecordBatch* out) override {
    const size_t n = inner_.NextBatch(max_records, out);
    if (n > 0 && out->back().ts > last_mark_) {
      last_mark_ = out->back().ts;
      out->push_back(Record{kLowMarkId, 0.0, last_mark_});
      ++marks_;
    }
    return n;
  }
  size_t TotalPoints() const override { return inner_.TotalPoints(); }
  size_t marks() const { return marks_; }

 private:
  BatchSource inner_;
  int64_t last_mark_ = kNoLowMark;
  size_t marks_ = 0;
};

TEST(ShardedEngineTimedTest, LowMarkIsStrippedBeforeRouting) {
  // The control record must never become a series, a point or a count
  // — with or without a sequencer, whatever the shard count (at 4
  // shards, 3 series leave some splits empty: mark-only elements) and
  // under a lossy policy — and with a sequencer it must not change a
  // frame: in-order input emits the same sequence, only sooner.
  StreamingOptions timed_options = FleetOptions();
  timed_options.pane_epoch = 0;
  timed_options.pane_width_ticks = 10;
  const std::vector<std::string> names = {"mark/a", "mark/b", "mark/c"};
  std::vector<std::vector<double>> series;
  for (size_t i = 0; i < names.size(); ++i) {
    series.push_back(FleetSeries(i, 3000));
  }
  SeriesCatalog sender;
  const RecordBatch records =
      InterleaveToRecordsTimed(&sender, names, series, 0, 1);

  for (int64_t horizon : {int64_t{0}, int64_t{1} << 40}) {
    for (size_t shards : {size_t{1}, size_t{4}}) {
      for (OverflowPolicy policy :
           {OverflowPolicy::kBlock, OverflowPolicy::kConflate}) {
        SCOPED_TRACE("horizon=" + std::to_string(horizon) + " shards=" +
                     std::to_string(shards) + " policy=" +
                     std::to_string(static_cast<int>(policy)));
        auto run = [&](MultiSource* source) {
          ShardedEngineOptions engine_options;
          engine_options.shards = shards;
          engine_options.batch_size = 128;
          engine_options.overflow_policy = policy;
          engine_options.queue_capacity =
              policy == OverflowPolicy::kBlock ? 16 : 1;
          engine_options.sequencer_horizon_ticks = horizon;
          auto engine = std::make_unique<ShardedEngine>(
              ShardedEngine::Create(timed_options, engine_options)
                  .ValueOrDie());
          for (const std::string& name : names) {
            engine->catalog()->Intern(name);
          }
          const FleetReport report = engine->RunToCompletion(source);
          uint64_t consumed = 0;
          for (const ShardReport& sr : report.shards) {
            consumed += sr.points;
          }
          EXPECT_EQ(report.points, records.size());
          EXPECT_EQ(consumed + report.dropped + report.conflated + report.late,
                    report.points);
          EXPECT_EQ(report.late, 0u);
          EXPECT_EQ(report.series, names.size());
          EXPECT_EQ(engine->catalog()->size(), names.size());
          return engine;
        };
        MarkedSource marked(records);
        const auto with_marks = run(&marked);
        EXPECT_GT(marked.marks(), 1u);
        if (policy != OverflowPolicy::kBlock) {
          continue;  // lossy: frames depend on shard timing
        }
        BatchSource plain(records);
        const auto without_marks = run(&plain);
        for (const std::string& name : names) {
          ASSERT_NE(with_marks->Snapshot(name), nullptr) << name;
          EXPECT_EQ(with_marks->Snapshot(name)->series,
                    without_marks->Snapshot(name)->series)
              << name;
        }
      }
    }
  }
}

TEST(ShardedEngineTimedTest, ConflateAccountingClosesUnderReorderedInput) {
  // kConflate under timed, skewed input: every pulled record must land
  // in exactly one bucket — consumed, conflated away, backstop-
  // dropped, or late — whatever the shard timing did.
  StreamingOptions timed_options = FleetOptions();
  timed_options.strategy = SearchStrategy::kExhaustive;
  timed_options.refresh_every_points = 100;
  timed_options.pane_epoch = 0;
  timed_options.pane_width_ticks = 20;

  ShardedEngineOptions engine_options;
  engine_options.shards = 2;
  engine_options.batch_size = 512;
  engine_options.queue_capacity = 1;
  engine_options.overflow_policy = OverflowPolicy::kConflate;
  engine_options.sequencer_horizon_ticks = 60;
  ShardedEngine engine =
      ShardedEngine::Create(timed_options, engine_options).ValueOrDie();

  InterleavingMultiSource source(engine.catalog());
  source.StampTimestamps(0, 1);
  const size_t kSeries = 8;
  const size_t kPointsPerSeries = 8000;
  for (size_t i = 0; i < kSeries; ++i) {
    source.AddVector(HostName(i), FleetSeries(i, kPointsPerSeries));
  }
  const FleetReport report = engine.RunToCompletion(&source);

  EXPECT_EQ(report.points, kSeries * kPointsPerSeries);
  uint64_t consumed = 0;
  uint64_t conflated = 0;
  uint64_t dropped = 0;
  uint64_t late = 0;
  for (const ShardReport& sr : report.shards) {
    consumed += sr.points;
    conflated += sr.conflated;
    dropped += sr.dropped;
    late += sr.late;
    EXPECT_LE(sr.peak_queue_depth, engine_options.queue_capacity);
  }
  EXPECT_EQ(conflated, report.conflated);
  EXPECT_EQ(dropped, report.dropped);
  EXPECT_EQ(late, report.late);
  EXPECT_EQ(consumed + conflated + dropped + late, report.points);
  for (size_t i = 0; i < kSeries; ++i) {
    const auto frame = engine.Snapshot(HostName(i));
    ASSERT_NE(frame, nullptr) << HostName(i);
    EXPECT_GT(frame->refreshes, 0u) << HostName(i);
  }
}

TEST(ShardedEngineTest, RegistriesPersistAcrossRuns) {
  ShardedEngine engine = ShardedEngine::Create(FleetOptions()).ValueOrDie();

  InterleavingMultiSource first(engine.catalog());
  first.AddVector("persistent/series", FleetSeries(5, 3000));
  const FleetReport r1 = engine.RunToCompletion(&first);
  const uint64_t refreshes_after_first = r1.refreshes;
  EXPECT_GT(refreshes_after_first, 0u);

  // A second run over the same named series continues its state:
  // refresh counters are lifetime, and the visible window carries
  // over.
  InterleavingMultiSource second(engine.catalog());
  second.AddVector("persistent/series", FleetSeries(5, 3000));
  const FleetReport r2 = engine.RunToCompletion(&second);
  EXPECT_GT(r2.refreshes, refreshes_after_first);
  EXPECT_EQ(r2.series, 1u);
  EXPECT_EQ(engine.Snapshot("persistent/series")->refreshes, r2.refreshes);
}

}  // namespace
}  // namespace stream
}  // namespace asap
