// Tests for src/telemetry: instrument exactness under concurrency,
// histogram error bounds and merge algebra, exposition golden output,
// and SelfScrapeSource determinism through the standard pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "stream/fleet_view.h"
#include "stream/sharded_engine.h"
#include "telemetry/exposition.h"
#include "telemetry/metrics.h"
#include "telemetry/self_scrape.h"

namespace asap {
namespace telemetry {
namespace {

// --- Counter ---------------------------------------------------------------

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter.Increment();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(CounterTest, AddAccumulatesDeltas) {
  Counter counter;
  counter.Add(5);
  counter.Add(0);
  counter.Add(37);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(CounterTest, KillSwitchSuppressesWrites) {
  Counter counter;
  counter.Add(1);
  SetTelemetryEnabled(false);
  counter.Add(100);
  SetTelemetryEnabled(true);
  counter.Add(1);
  EXPECT_EQ(counter.Value(), 2u);
}

// --- Gauge -----------------------------------------------------------------

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(2.5);
  EXPECT_EQ(gauge.Value(), 2.5);
  gauge.Add(-1.25);
  EXPECT_EQ(gauge.Value(), 1.25);
}

TEST(GaugeTest, ConcurrentAddsAreExact) {
  Gauge gauge;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) {
        gauge.Add(1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(gauge.Value(), static_cast<double>(kThreads * kPerThread));
}

// --- LatencyHistogram: bucket layout ---------------------------------------

TEST(LatencyHistogramTest, UnitBucketsAreExact) {
  for (uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), v);
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(static_cast<unsigned>(v)), v);
    EXPECT_EQ(LatencyHistogram::BucketMidpoint(static_cast<unsigned>(v)), v);
  }
}

TEST(LatencyHistogramTest, BucketBoundsBracketTheirValues) {
  // Every value must land in a bucket whose [lower, next-lower) range
  // contains it — swept across octaves including the boundaries.
  std::vector<uint64_t> probes;
  for (unsigned e = 0; e < 40; ++e) {
    const uint64_t p = uint64_t{1} << e;
    probes.push_back(p - 1);
    probes.push_back(p);
    probes.push_back(p + 1);
    probes.push_back(p + p / 3);
  }
  for (uint64_t v : probes) {
    const unsigned idx = LatencyHistogram::BucketIndex(v);
    ASSERT_LT(idx, LatencyHistogram::kBucketCount);
    EXPECT_LE(LatencyHistogram::BucketLowerBound(idx), v) << "value " << v;
    if (idx + 1 < LatencyHistogram::kBucketCount) {
      EXPECT_GT(LatencyHistogram::BucketLowerBound(idx + 1), v)
          << "value " << v;
    }
  }
}

TEST(LatencyHistogramTest, PowersOfTwoAreBucketBoundaries) {
  // Every power of two starts a bucket of the base-2 layout.
  for (unsigned e = 0; e < 40; ++e) {
    const uint64_t p = uint64_t{1} << e;
    const unsigned idx = LatencyHistogram::BucketIndex(p);
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(idx), p) << "2^" << e;
  }
}

// --- LatencyHistogram: quantile error bound --------------------------------

TEST(LatencyHistogramTest, QuantilesWithinSubBucketErrorBound) {
  Pcg32 rng(7);
  LatencyHistogram hist;
  std::vector<uint64_t> reference;
  constexpr size_t kN = 20000;
  reference.reserve(kN);
  for (size_t i = 0; i < kN; ++i) {
    // Log-uniform-ish spread over ~6 decades, like real latencies.
    const uint64_t v =
        static_cast<uint64_t>(std::exp(rng.Uniform(0.0, 14.0))) + 1;
    reference.push_back(v);
    hist.Record(v);
  }
  std::sort(reference.begin(), reference.end());
  const LatencyHistogram::Snapshot snap = hist.TakeSnapshot();
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    // Same rank convention as Snapshot::Quantile.
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(kN));
    if (rank < 1) rank = 1;
    if (rank > kN) rank = kN;
    const uint64_t truth = reference[rank - 1];
    const uint64_t est = snap.Quantile(q);
    // Midpoint estimate of the bucket holding the rank-th element:
    // off by at most half a sub-bucket, i.e. 1/16 relative.
    const double tolerance = static_cast<double>(truth) / 16.0 + 1.0;
    EXPECT_NEAR(static_cast<double>(est), static_cast<double>(truth),
                tolerance)
        << "q=" << q;
  }
}

TEST(LatencyHistogramTest, EmptyQuantileIsZero) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.TakeSnapshot().Quantile(0.5), 0u);
  EXPECT_EQ(hist.TakeSnapshot().Mean(), 0.0);
}

// --- LatencyHistogram: merge algebra ---------------------------------------

LatencyHistogram::Snapshot RandomSnapshot(uint64_t seed, size_t n) {
  Pcg32 rng(seed);
  LatencyHistogram hist;
  for (size_t i = 0; i < n; ++i) {
    hist.Record(static_cast<uint64_t>(std::exp(rng.Uniform(0.0, 20.0))));
  }
  return hist.TakeSnapshot();
}

void ExpectSnapshotsEqual(const LatencyHistogram::Snapshot& a,
                          const LatencyHistogram::Snapshot& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.max, b.max);
  for (unsigned i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    ASSERT_EQ(a.counts[i], b.counts[i]) << "bucket " << i;
  }
}

TEST(LatencyHistogramTest, MergeIsAssociativeAndCommutative) {
  const LatencyHistogram::Snapshot a = RandomSnapshot(1, 500);
  const LatencyHistogram::Snapshot b = RandomSnapshot(2, 700);
  const LatencyHistogram::Snapshot c = RandomSnapshot(3, 300);

  LatencyHistogram::Snapshot ab_c = a;
  ab_c.Merge(b);
  ab_c.Merge(c);

  LatencyHistogram::Snapshot bc = b;
  bc.Merge(c);
  LatencyHistogram::Snapshot a_bc = a;
  a_bc.Merge(bc);

  LatencyHistogram::Snapshot cba = c;
  cba.Merge(b);
  cba.Merge(a);

  ExpectSnapshotsEqual(ab_c, a_bc);
  ExpectSnapshotsEqual(ab_c, cba);
}

TEST(LatencyHistogramTest, ConcurrentRecordsCountExactly) {
  LatencyHistogram hist;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<uint64_t>(t) * 1000 + (i & 1023));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hist.Count(), kThreads * kPerThread);
  const LatencyHistogram::Snapshot snap = hist.TakeSnapshot();
  uint64_t bucket_total = 0;
  for (unsigned i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    bucket_total += snap.counts[i];
  }
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

// --- ScopedTimer -----------------------------------------------------------

TEST(ScopedTimerTest, RecordsOnceOnDestruction) {
  LatencyHistogram hist;
  {
    ScopedTimer timer(&hist);
  }
  EXPECT_EQ(hist.Count(), 1u);
}

TEST(ScopedTimerTest, NullHistogramIsSafe) {
  ScopedTimer timer(nullptr);  // must not crash on destruction
}

// --- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistryTest, GetOrCreateReturnsSameInstrument) {
  MetricsRegistry registry;
  auto a = registry.GetCounter({"asap_test_total", "", {{"loop", "0"}}});
  auto b = registry.GetCounter({"asap_test_total", "", {{"loop", "0"}}});
  auto c = registry.GetCounter({"asap_test_total", "", {{"loop", "1"}}});
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
}

TEST(MetricsRegistryTest, LabelOrderDoesNotSplitInstruments) {
  MetricsRegistry registry;
  auto a = registry.GetCounter(
      {"asap_test_total", "", {{"b", "2"}, {"a", "1"}}});
  auto b = registry.GetCounter(
      {"asap_test_total", "", {{"a", "1"}, {"b", "2"}}});
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());
}

TEST(MetricsRegistryTest, KindMismatchReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter({"asap_test_total", ""}), nullptr);
  EXPECT_EQ(registry.GetGauge({"asap_test_total", ""}), nullptr);
  EXPECT_EQ(registry.GetHistogram({"asap_test_total", ""}), nullptr);
}

TEST(MetricsRegistryTest, EntriesAreSortedByNameThenLabels) {
  MetricsRegistry registry;
  registry.GetCounter({"asap_z_total", ""});
  registry.GetCounter({"asap_a_total", "", {{"loop", "1"}}});
  registry.GetCounter({"asap_a_total", "", {{"loop", "0"}}});
  const std::vector<MetricsRegistry::Entry> entries = registry.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].spec.name, "asap_a_total");
  EXPECT_EQ(entries[0].spec.labels[0].second, "0");
  EXPECT_EQ(entries[1].spec.labels[0].second, "1");
  EXPECT_EQ(entries[2].spec.name, "asap_z_total");
}

// --- Exposition ------------------------------------------------------------

TEST(ExpositionTest, GoldenOutput) {
  MetricsRegistry registry;
  auto gauge = registry.GetGauge({"asap_test_depth", ""});
  gauge->Set(2.5);
  auto hist = registry.GetHistogram({"asap_test_latency", "Latency"});
  hist->Record(1);
  hist->Record(2);
  hist->Record(3);
  auto counter =
      registry.GetCounter({"asap_test_requests_total", "Requests",
                           {{"loop", "0"}}});
  counter->Add(3);

  const std::string expected =
      "# TYPE asap_test_depth gauge\n"
      "asap_test_depth 2.5\n"
      "# TYPE asap_test_latency summary\n"
      "# HELP asap_test_latency Latency\n"
      "asap_test_latency{quantile=\"0.5\"} 1\n"
      "asap_test_latency{quantile=\"0.9\"} 2\n"
      "asap_test_latency{quantile=\"0.99\"} 2\n"
      "asap_test_latency_sum 6\n"
      "asap_test_latency_count 3\n"
      "# TYPE asap_test_requests_total counter\n"
      "# HELP asap_test_requests_total Requests\n"
      "asap_test_requests_total{loop=\"0\"} 3\n";
  EXPECT_EQ(RenderPrometheus(registry), expected);
}

TEST(ExpositionTest, ScaleRendersNanosAsSeconds) {
  MetricsRegistry registry;
  auto hist = registry.GetHistogram(
      {"asap_test_seconds", "", {}, 1e-9});
  hist->Record(1500000000);  // 1.5s in nanos: an exact unscaled bucket?
  std::string out = RenderPrometheus(registry);
  // _sum is the recorded nanos scaled to seconds.
  EXPECT_NE(out.find("asap_test_seconds_sum 1.5\n"), std::string::npos) << out;
  EXPECT_NE(out.find("asap_test_seconds_count 1\n"), std::string::npos);
}

// --- SelfScrapeSource ------------------------------------------------------

TEST(SelfScrapeTest, SelfSeriesNames) {
  EXPECT_EQ(SelfSeriesName({"asap_wire_records_total", ""}, nullptr),
            "asap.self.wire_records_total");
  EXPECT_EQ(SelfSeriesName({"asap_query_seconds", "", {{"kind", "sample"}}},
                           ".p99"),
            "asap.self.query_seconds.p99{kind=sample}");
  EXPECT_EQ(SelfSeriesName({"custom_metric", ""}, nullptr),
            "asap.self.custom_metric");
}

/// A registry whose instruments advance deterministically per tick via
/// the tick_hook — the scrape stream becomes a pure function of tick
/// count.
struct DeterministicRig {
  MetricsRegistry registry;
  std::shared_ptr<Counter> requests;
  std::shared_ptr<Gauge> depth;
  std::shared_ptr<LatencyHistogram> latency;
  size_t tick = 0;

  DeterministicRig() {
    requests = registry.GetCounter({"asap_rig_requests_total", ""});
    depth = registry.GetGauge({"asap_rig_depth", ""});
    latency = registry.GetHistogram({"asap_rig_latency", ""});
  }

  SelfScrapeOptions Options(size_t max_ticks) {
    SelfScrapeOptions options;
    options.tick_interval_ms = 0.0;
    options.max_ticks = max_ticks;
    options.tick_hook = [this] {
      ++tick;
      requests->Add(tick);       // deltas 1, 2, 3, ...
      depth->Set(10.0 * static_cast<double>(tick));
      latency->Record(tick * 100);
    };
    return options;
  }
};

TEST(SelfScrapeTest, EmitsDeltasGaugesAndQuantiles) {
  DeterministicRig rig;
  stream::SeriesCatalog catalog;
  SelfScrapeSource source(&catalog, &rig.registry, rig.Options(3));
  stream::RecordBatch out;
  while (source.NextBatch(1024, &out) > 0) {
  }
  EXPECT_EQ(source.ticks(), 3u);
  // Per tick: counter delta + gauge + hist p50 + hist p99 = 4 records.
  ASSERT_EQ(out.size(), 12u);
  const stream::SeriesId depth_id =
      catalog.Intern("asap.self.rig_depth");
  const stream::SeriesId requests_id =
      catalog.Intern("asap.self.rig_requests_total");
  std::vector<double> depths;
  std::vector<double> deltas;
  for (const stream::Record& r : out) {
    if (r.series_id == depth_id) depths.push_back(r.value);
    if (r.series_id == requests_id) deltas.push_back(r.value);
  }
  EXPECT_EQ(depths, (std::vector<double>{10.0, 20.0, 30.0}));
  EXPECT_EQ(deltas, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(SelfScrapeTest, PaginationPreservesTheStream) {
  DeterministicRig big;
  stream::SeriesCatalog big_catalog;
  SelfScrapeSource big_source(&big_catalog, &big.registry, big.Options(5));
  stream::RecordBatch all_at_once;
  while (big_source.NextBatch(4096, &all_at_once) > 0) {
  }

  DeterministicRig small;
  stream::SeriesCatalog small_catalog;
  SelfScrapeSource small_source(&small_catalog, &small.registry,
                                small.Options(5));
  stream::RecordBatch one_by_one;
  while (small_source.NextBatch(1, &one_by_one) > 0) {
  }

  // Identical rigs, identical catalogs built in identical order: the
  // two streams must match record for record regardless of batch size.
  EXPECT_EQ(all_at_once, one_by_one);
}

TEST(SelfScrapeTest, StopEndsTheStream) {
  DeterministicRig rig;
  stream::SeriesCatalog catalog;
  SelfScrapeSource source(&catalog, &rig.registry, rig.Options(0));
  stream::RecordBatch out;
  ASSERT_GT(source.NextBatch(1024, &out), 0u);
  source.Stop();
  out.clear();
  EXPECT_EQ(source.NextBatch(1024, &out), 0u);
}

TEST(SelfScrapeTest, EndToEndThroughShardedEngineIsDeterministic) {
  // The dogfood path: asap.self.* flows through the standard sharded
  // pipeline, twice, with identical deterministic rigs — the published
  // frames must match exactly (the engine's determinism parity now
  // extends to its own telemetry).
  auto run = [](std::vector<double>* frame_out) {
    DeterministicRig rig;
    StreamingOptions series_options;
    series_options.resolution = 20;
    series_options.visible_points = 64;
    series_options.refresh_every_points = 16;
    stream::ShardedEngineOptions engine_options;
    engine_options.shards = 2;
    stream::ShardedEngine engine =
        stream::ShardedEngine::Create(series_options, engine_options)
            .ValueOrDie();
    SelfScrapeSource source(engine.catalog(), &rig.registry,
                            rig.Options(64));
    const stream::FleetReport report = engine.RunToCompletion(&source);
    EXPECT_EQ(report.points, 64u * 4u);  // 4 records per tick
    EXPECT_EQ(report.series, 4u);
    const stream::FleetView view(&engine);
    const auto frame = view.Frame("asap.self.rig_depth");
    ASSERT_NE(frame, nullptr);
    ASSERT_FALSE(frame->series.empty());
    *frame_out = frame->series;
  };
  std::vector<double> first;
  std::vector<double> second;
  run(&first);
  run(&second);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace telemetry
}  // namespace asap
