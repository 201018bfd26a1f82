// restart: closed-loop durable ingest, then close, reopen and replay.
//
// Each round ingests the same fixed job (128 series, small 4-point
// panes, refresh on demand) from an in-process InterleavingMultiSource
// into 2 shards with a DurableStore (no fsync) whose small WAL segments
// make background compaction run during ingest. The engine and store are
// then closed, the store reopened (DurableStore::Open) and replayed
// into a fresh engine (ReplayIntoEngine, kFaithful). WAL append,
// compaction, the chunk codec and recovery dominate; the net layer is
// bypassed and search mostly is.
//
// The store lives in the checkout, on a disk shared with other
// machines' work: the durable ingest rate of a closed loop there swung
// 2-3x from run to run with the disk's load (on tmpfs it held within
// ~15%). So this workload's end-to-end rate is recovery's: records
// restored into operators per second of Open + ReplayIntoEngine, which
// reads what the round just wrote back from the page cache. The durable
// ingest rate is the per-layer storage.durable_ingest_rps.
//
// Latency here is per-series recovery: from the start of the reopen to
// the first snapshot poll that serves the series' pre-restart frame.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "harness.h"
#include "storage/recovery.h"
#include "storage/store.h"
#include "stream/fleet_view.h"
#include "stream/sharded_engine.h"
#include "stream/source.h"
#include "ts/generators.h"

namespace pipebench {
namespace {

constexpr size_t kSeries = 128;
constexpr size_t kRoundPoints = 32768;  // per series per round
constexpr size_t kPanePoints = 4;

asap::StreamingOptions SeriesOptions() {
  asap::StreamingOptions o;
  o.resolution = 1000;
  o.visible_points = kPanePoints * o.resolution;
  o.refresh_every_points = 4 * o.visible_points;  // on demand
  return o;
}

asap::storage::StoreOptions StoreOptionsFor(
    asap::telemetry::MetricsRegistry* registry) {
  asap::storage::StoreOptions o;
  // write() without fsync: the store lives in the checkout, on a disk
  // shared with other machines' work. With interval sync, disk stalls
  // cut the ingest rate of some runs to a third.
  o.sync = asap::storage::SyncPolicy::kNone;
  // Several segments per round, so compaction runs during ingest; not
  // smaller, because every segment roll fsyncs the directory on the
  // shared disk.
  o.wal_segment_bytes = 4u << 20;
  o.maintenance_interval_seconds = 0.02;
  o.metrics = registry;
  return o;
}

asap::stream::ShardedEngine MakeEngine(
    asap::storage::DurableStore* store,
    asap::telemetry::MetricsRegistry* registry) {
  asap::stream::ShardedEngineOptions o;
  o.shards = 2;
  o.storage = store;
  o.metrics = registry;
  return asap::stream::ShardedEngine::Create(SeriesOptions(), o).ValueOrDie();
}

/// What one round measured.
struct Round {
  double ingest_s = 0.0;
  uint64_t records = 0;
  uint64_t restored_records = 0;
  std::vector<TimedSample> recovery_ms;  // per series, due at the reopen
  double open_s = 0.0;
  double replay_s = 0.0;
};

}  // namespace

WorkloadResult RunRestart(const RunArgs& args) {
  WorkloadResult result;
  std::vector<std::string> names;
  std::vector<std::vector<double>> payload;
  auto make_payload = [&] {
    names.clear();
    payload.clear();
    for (size_t i = 0; i < kSeries; ++i) {
      asap::Pcg32 rng(args.seed, i);
      names.push_back("rs-" + std::to_string(i) + "/disk");
      payload.push_back(asap::gen::Add(
          asap::gen::RandomWalk(&rng, kRoundPoints, 0.2),
          asap::gen::Sine(kRoundPoints, 96.0 + static_cast<double>(i % 40),
                          1.0)));
    }
  };
  const ScratchDir root(args.data_dir + "/restart-" +
                        std::to_string(::getpid()));

  ThreadTrace main_trace("main", args.trace);
  ThreadTrace poller_trace("poller", args.trace);
  LayerInputs in;

  // One round: ingest the job into a fresh store, close, reopen,
  // replay, and check the recovered fleet against the closed one.
  auto run_round = [&](uint64_t index, bool measured, size_t points) {
    Round round;
    ThreadTrace off("off", false);
    ThreadTrace* mt = measured ? &main_trace : &off;
    ThreadTrace* pt = measured ? &poller_trace : &off;
    const ScratchDir round_dir(root.path() + "/round-" +
                               std::to_string(index));
    const std::string& dir = round_dir.path();
    asap::telemetry::MetricsRegistry registry;
    std::vector<std::shared_ptr<const asap::StreamingAsap::Frame>> before(
        kSeries);
    uint64_t panes_before = 0;
    {
      std::unique_ptr<asap::storage::DurableStore> store;
      {
        ScopedSpan span(mt, Layer::kStorage);
        store = asap::storage::DurableStore::Open(dir, StoreOptionsFor(&registry))
                    .ValueOrDie();
      }
      asap::stream::ShardedEngine engine = [&] {
        ScopedSpan span(mt, Layer::kStream);
        return MakeEngine(store.get(), &registry);
      }();
      asap::stream::InterleavingMultiSource inner(engine.catalog());
      {
        ScopedSpan span(mt, Layer::kGen);
        for (size_t i = 0; i < kSeries; ++i) {
          inner.AddVector(names[i], std::vector<double>(
                                        payload[i].begin(),
                                        payload[i].begin() + points));
        }
      }
      TimedSource source(&inner, mt, Layer::kGen);
      const int64_t t0 = NowNs();
      asap::stream::FleetReport report;
      {
        ScopedSpan span(mt, Layer::kStream);
        report = engine.RunToCompletion(&source);
      }
      round.ingest_s = static_cast<double>(NowNs() - t0) * 1e-9;
      round.records = report.points;
      {
        ScopedSpan span(mt, Layer::kStream);
        for (size_t i = 0; i < kSeries; ++i) before[i] = engine.Snapshot(names[i]);
      }
      LayerInputs unmeasured;
      LayerInputs* inputs = measured ? &in : &unmeasured;
      const uint64_t shard_points = AddFleetReport(report, inputs, &result);
      inputs->gen_source_s += source.wait_s();
      inputs->engine_refreshes += static_cast<double>(report.refreshes);
      result.Check(report.points == kSeries * points,
                   "every generated record was pulled");
      if (measured) {
        result.attempted += kSeries * points;
        result.failed +=
            kSeries * points - std::min<uint64_t>(kSeries * points, shard_points);
      }
      ScopedSpan span(mt, Layer::kStorage);
      for (size_t i = 0; i < kSeries; ++i) {
        panes_before += store->PaneCount(*store->FindSeries(names[i]));
      }
      // Closing order: the engine (its shards append to the store),
      // then the store (final WAL sync).
      { asap::stream::ShardedEngine closing = std::move(engine); }
      store.reset();
    }
    const StoreCounters ingest_counters = StoreCounters::Read(registry);
    const double push_s =
        RegistryReader(&registry).HistogramSeconds("asap_shard_push_seconds");

    // Recovery, with the poller waiting for each series' frame.
    std::atomic<asap::stream::ShardedEngine*> live{nullptr};
    std::atomic<bool> stop{false};
    std::vector<int64_t> served_ns(kSeries, 0);  // poller-owned until joined
    std::atomic<size_t> served{0};
    const int64_t reopen = NowNs();
    std::optional<ScopedSpan> spawn(std::in_place, mt, Layer::kIdle);
    std::thread poller([&] {
      pt->Start();
      size_t pending = kSeries;
      while (pending > 0 && !stop.load(std::memory_order_acquire)) {
        asap::stream::ShardedEngine* engine =
            live.load(std::memory_order_acquire);
        if (engine != nullptr) {
          ScopedSpan span(pt, Layer::kStream);
          for (size_t i = 0; i < kSeries; ++i) {
            if (served_ns[i] != 0) continue;
            const auto frame = engine->Snapshot(names[i]);
            if (frame != nullptr && before[i] != nullptr &&
                frame->refreshes == before[i]->refreshes) {
              served_ns[i] = NowNs();
              --pending;
              served.fetch_add(1, std::memory_order_release);
            }
          }
        }
        ScopedSpan idle(pt, Layer::kIdle);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      pt->Stop();
    });
    spawn.reset();
    std::unique_ptr<asap::storage::DurableStore> store;
    {
      ScopedSpan span(mt, Layer::kStorage);
      store = asap::storage::DurableStore::Open(dir, StoreOptionsFor(&registry))
                  .ValueOrDie();
    }
    const int64_t opened = NowNs();
    asap::stream::ShardedEngine engine = [&] {
      ScopedSpan span(mt, Layer::kStream);
      return MakeEngine(store.get(), &registry);
    }();
    live.store(&engine, std::memory_order_release);
    asap::storage::EngineReplayReport replay;
    {
      ScopedSpan span(mt, Layer::kStorage);
      replay = asap::storage::ReplayIntoEngine(
                   *store, &engine, asap::storage::ReplayFidelity::kFaithful)
                   .ValueOrDie();
    }
    const int64_t replayed = NowNs();
    round.open_s = static_cast<double>(opened - reopen) * 1e-9;
    round.restored_records = replay.panes_restored * kPanePoints;
    round.replay_s = static_cast<double>(replayed - opened) * 1e-9;
    // Every series' final frame is servable once the replay returns;
    // give the poller a bounded moment to observe the last ones.
    spawn.emplace(mt, Layer::kIdle);
    for (int i = 0; i < 1000; ++i) {
      if (served.load(std::memory_order_acquire) == kSeries) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true, std::memory_order_release);
    poller.join();
    spawn.reset();

    std::optional<ScopedSpan> checks(std::in_place, mt, Layer::kGen);
    result.Check(replay.panes_restored == panes_before,
                 "recovered pane count equals the appended count");
    result.Check(ingest_counters.panes == panes_before,
                 "asap_store_panes_total equals the durable pane count");
    result.Check(replay.series_restored == kSeries && replay.series_skipped == 0,
                 "every series was restored");
    for (size_t i = 0; i < kSeries; ++i) {
      const auto frame = engine.Snapshot(names[i]);
      result.Check(before[i] != nullptr && before[i]->refreshes > 0 &&
                       frame != nullptr && SameFrame(*frame, *before[i]),
                   "recovered frame of " + names[i] +
                       " equals the frame before the restart");
      if (served_ns[i] != 0) {
        round.recovery_ms.push_back(
            {reopen, static_cast<double>(served_ns[i] - reopen) * 1e-6});
      }
    }
    if (measured) {
      result.attempted += kSeries;
      result.failed += kSeries - round.recovery_ms.size();
      in.store.AddDelta(ingest_counters, StoreCounters{});
      in.shard_push_s += push_s;
      in.open_s += round.open_s;
      in.replay_s += round.replay_s;
      in.recovered_panes += static_cast<double>(replay.panes_restored);
      asap::stream::FleetView view(&engine);
      view.ForEachSeries(
          [&](std::string_view, const asap::StreamingAsap::Frame& f) {
            AddFrameCounters(f, &in);
          });
    }
    checks.reset();
    ScopedSpan close(mt, Layer::kStorage);
    { asap::stream::ShardedEngine closing = std::move(engine); }
    store.reset();
    return round;
  };

  // Set-up is payload generation plus opening an empty store and
  // creating the engine on it; it runs several times and reports the
  // median. The untimed warm-up is one half-size round: its durable
  // ingest writes to the disk, whose load would set the figure.
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    const ScratchDir dir(root.path() + "/setup-" + std::to_string(k));
    asap::telemetry::MetricsRegistry registry;
    const int64_t t0 = NowNs();
    make_payload();
    std::unique_ptr<asap::storage::DurableStore> store =
        asap::storage::DurableStore::Open(dir.path(), StoreOptionsFor(&registry))
            .ValueOrDie();
    asap::stream::ShardedEngine engine = MakeEngine(store.get(), &registry);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    { asap::stream::ShardedEngine closing = std::move(engine); }
    store.reset();
  }
  run_round(0, false, kRoundPoints / 2);
  const int64_t measure_start = NowNs();
  main_trace.Start();
  std::vector<Round> rounds;
  while (rounds.empty() ||
         static_cast<double>(NowNs() - measure_start) * 1e-9 < args.seconds) {
    rounds.push_back(run_round(1 + rounds.size(), true, kRoundPoints));
  }
  main_trace.Stop();

  std::vector<double> round_rps, ingest_rps;
  std::vector<TimedSample> recovery_ms;
  for (const Round& r : rounds) {
    round_rps.push_back(static_cast<double>(r.restored_records) /
                        (r.open_s + r.replay_s));
    ingest_rps.push_back(static_cast<double>(r.records) / r.ingest_s);
    recovery_ms.insert(recovery_ms.end(), r.recovery_ms.begin(),
                       r.recovery_ms.end());
  }
  // Medians over rounds: each round is one window, so one stall of a
  // shared machine moves one round rather than the run's figure.
  result.ingest_rps = Median(round_rps);
  result.notes.push_back("recovery re-ingest " +
                         FormatDouble(result.ingest_rps) +
                         " records/s; durable ingest " +
                         FormatDouble(Median(ingest_rps)) + " records/s");
  result.notes.push_back(
      "closed loop, in-process durable ingest, " + std::to_string(kSeries) +
      " series x " + std::to_string(kRoundPoints) + " points per round, " +
      std::to_string(rounds.size()) + " rounds; store under " + root.path());
  result.notes.push_back(
      "latency = per-series recovery (reopen -> pre-restart frame served), " +
      std::to_string(recovery_ms.size()) + " samples; every recovered frame "
      "checked bitwise against the frame before the restart");
  if (!args.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("ingest_rps", result.ingest_rps, "records/s");
    // Every sample of a round is due at its reopen: a 1 ns window is
    // exactly one round.
    result.Add("latency_p50_ms", WindowedQuantile(recovery_ms, 1, 0.5), "ms");
    result.Add("latency_p90_ms", WindowedQuantile(recovery_ms, 1, 0.90),
               "ms");
    return result;
  }
  const Baseline baseline =
      TimeSingleThread(SeriesOptions(), payload, kRoundPoints / 8);
  in.baseline = &baseline;
  in.latency_p99_ms = WindowedQuantile(recovery_ms, 1, 0.99);
  in.durable_ingest_rps = Median(ingest_rps);
  const TraceReport trace = SummarizeTraces({&main_trace, &poller_trace});
  for (const std::string& line : trace.lines) result.notes.push_back(line);
  AddLayerMetrics(in, trace, &result);
  return result;
}

}  // namespace pipebench
