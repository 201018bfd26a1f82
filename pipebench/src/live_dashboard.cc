// live_dashboard: an open loop at a fixed offered rate, read while it
// runs.
//
// One sender thread plays two collectors over two Unix-domain socket
// connections, sending timestamped 0xA7 frames on a 1 ms schedule; the
// second collector's records are one slot (1 ms) older than the
// first's. 4 ms time buckets are the panes of timed-mode operators that
// refresh on every pane, behind a per-shard sequencer, with the durable
// store on. While that runs, a probe poller reads probe frames and a
// dashboard reader runs its query mix every 10 ms: SampleGlob over a
// fixed slice, PercentileBands, TopKByRoughness, AnomalyCounts and a
// History deeper than the snapshot ring on a rotating series. The only
// workload with the sequencer, timed panes, frame publication to
// concurrent readers and store reads beside store writes.
//
// The 20 ms horizon is what this loop needs to lose no record on a
// shared machine: a scheduling stall lets both connections back up,
// the server then drains one connection's backlog before the other's,
// and the older records fall that far behind the newest; at 3-10 ms
// horizons such stalls dropped records as late.
//
// Unix-domain sockets rather than loopback TCP: over TCP, freshness
// read about 3 ms higher in roughly half the runs and the same in the
// rest, a two-mode spread wider than this benchmark's bounds.
//
// Latency here is freshness: from the scheduled end of a probe pane's
// time bucket to the first poll whose frame covers that pane. Every
// sample is timed from due time, so a stall is charged to everything
// queued behind it.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "harness.h"
#include "net/net_source.h"
#include "net/wire_client.h"
#include "net/wire_server.h"
#include "storage/store.h"
#include "stream/fleet_view.h"
#include "stream/sharded_engine.h"
#include "ts/generators.h"

namespace pipebench {
namespace {

using asap::stream::Record;
using asap::stream::RecordBatch;

constexpr size_t kSeries = 256;
constexpr int64_t kTickUs = 250;         // one point per series per tick
constexpr int64_t kSlotUs = 1000;        // sender schedule
constexpr int64_t kPaneUs = 4000;        // time bucket = pane width
constexpr int64_t kHorizonUs = 20000;    // sequencer horizon
constexpr int64_t kLagSlots = 1;         // collector B's lag
constexpr int64_t kPointsPerSlot = kSlotUs / kTickUs;
constexpr int64_t kPointsPerPane = kPaneUs / kTickUs;
constexpr int64_t kWarmupSlots = 500;
constexpr int64_t kQueryEveryUs = 10000;
constexpr size_t kRingFrames = 4;
constexpr size_t kHistoryFrames = 2 * kRingFrames;
constexpr size_t kValueTable = 4096;     // per-series value cycle
constexpr size_t kCheckStride = 64;
// Freshness quantiles are medians over 250 ms windows (~500 samples
// each): a scheduling stall of the shared machine delays every probe
// pane for its length plus the horizon, and in 1 s windows a few such
// stalls in a run moved the windowed p90 by a pane width (4 ms).
constexpr int64_t kFreshWindowNs = 250'000'000;

asap::StreamingOptions SeriesOptions() {
  asap::StreamingOptions o;
  o.visible_points = 64 * kPointsPerPane;  // 64 panes visible
  o.resolution = 64;
  o.refresh_every_points = 0;  // refresh on every pane
  o.snapshot_ring_frames = kRingFrames;
  o.pane_epoch = 0;
  o.pane_width_ticks = kPaneUs;
  return o;
}

std::string SeriesName(size_t i) {
  return "dc" + std::to_string(i % 4) + "-host" + std::to_string(i) + "/cpu";
}

/// Series i's point j: a probe carries its pane index, the rest cycle
/// through a seeded table.
struct Values {
  std::vector<std::vector<double>> table;
  double At(size_t i, int64_t j) const {
    if (IsProbe(i)) return static_cast<double>(j / kPointsPerPane);
    return table[i][static_cast<size_t>(j) % kValueTable];
  }
};

/// The seeded payload and the collectors' catalog.
struct Payload {
  Values values;
  std::vector<std::string> names;
  asap::stream::SeriesCatalog client_catalog;
  std::vector<asap::stream::SeriesId> client_ids;
};

std::unique_ptr<Payload> MakePayload(uint64_t seed) {
  auto payload = std::make_unique<Payload>();
  for (size_t i = 0; i < kSeries; ++i) {
    asap::Pcg32 rng(seed, i);
    payload->names.push_back(SeriesName(i));
    const double period = 32.0 + static_cast<double>((i * 11) % 480);
    payload->values.table.push_back(asap::gen::SeasonalComposite(
        &rng, kValueTable, {period, 512.0}, {1.0, 0.3}, 0.25));
  }
  for (const std::string& name : payload->names) {
    payload->client_ids.push_back(payload->client_catalog.Intern(name));
  }
  return payload;
}

struct ProbeTrack {
  size_t series = 0;
  int64_t newest_seen = -1;
  std::vector<int64_t> seen_ns;  // by pane index
};

struct Bookkeeping {
  int64_t t_ns;
  uint64_t sent;
  uint64_t consumed;
};

/// The pipeline under test, in destruction order: the collectors,
/// server, engine and store go before the store's directory.
struct Rig {
  explicit Rig(std::string dir_path) : dir(std::move(dir_path)) {}
  ScratchDir dir;
  asap::telemetry::MetricsRegistry registry;
  std::unique_ptr<asap::storage::DurableStore> store;
  std::optional<asap::stream::ShardedEngine> engine;
  std::optional<asap::net::WireServer> server;
  std::vector<asap::net::WireClient> clients;
};

std::unique_ptr<Rig> BuildRig(const RunArgs& args,
                              const asap::StreamingOptions& series_options,
                              const asap::stream::SeriesCatalog* client_catalog,
                              WorkloadResult* result) {
  auto rig = std::make_unique<Rig>(args.data_dir + "/live-" +
                                   std::to_string(::getpid()));
  asap::telemetry::MetricsRegistry* registry = &rig->registry;
  // write() without fsync: the store lives in the checkout, on a disk
  // shared with other machines' work, whose fsync stalls would be
  // charged to this program's freshness.
  asap::storage::StoreOptions store_options;
  store_options.sync = asap::storage::SyncPolicy::kNone;
  // 4 MiB segments: compaction runs every 2-3 s of the run rather than
  // once, whenever the default 16 MB segment happens to fill, while
  // the directory fsync of each segment roll (in the shards' append
  // path) stays rare on the shared disk.
  store_options.wal_segment_bytes = 4u << 20;
  store_options.metrics = registry;
  rig->store =
      asap::storage::DurableStore::Open(rig->dir.path(), store_options)
          .ValueOrDie();
  asap::stream::ShardedEngineOptions engine_options;
  engine_options.shards = 2;
  engine_options.sequencer_horizon_ticks = kHorizonUs;
  engine_options.storage = rig->store.get();
  engine_options.metrics = registry;
  rig->engine.emplace(
      asap::stream::ShardedEngine::Create(series_options, engine_options)
          .ValueOrDie());
  const std::string socket_path =
      std::filesystem::relative(rig->dir.path() + ".sock").string();
  std::filesystem::remove(socket_path);
  asap::net::WireServerOptions server_options;
  server_options.enable_tcp = false;
  server_options.uds_path = socket_path;
  server_options.num_event_loops = 1;
  server_options.metrics = registry;
  rig->server.emplace(
      asap::net::WireServer::Create(server_options, rig->engine->catalog())
          .ValueOrDie());
  rig->server->Start();

  for (int c = 0; c < 2; ++c) {
    asap::net::WireClientOptions o;
    o.catalog = client_catalog;
    o.timestamped = true;
    rig->clients.push_back(
        asap::net::WireClient::ConnectUds(socket_path, o).ValueOrDie());
  }
  result->Check(WaitForConnections(*rig->server, 2),
                "collector connections accepted");

  return rig;
}

}  // namespace

WorkloadResult RunLiveDashboard(const RunArgs& args) {
  WorkloadResult result;
  const asap::StreamingOptions series_options = SeriesOptions();

  // Set up several times and report the median; the last set-up runs.
  // Set-up is payload generation plus store, engine, server and
  // collector creation. The warm-up slots of the schedule that follow
  // are mostly waiting for their due times and are not counted.
  std::unique_ptr<Payload> payload;
  std::unique_ptr<Rig> rig;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    rig.reset();
    const int64_t t0 = NowNs();
    payload = MakePayload(args.seed);
    rig = BuildRig(args, series_options, &payload->client_catalog, &result);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  const Values& values = payload->values;
  const std::vector<std::string>& names = payload->names;
  const asap::stream::SeriesCatalog& client_catalog = payload->client_catalog;
  const std::vector<asap::stream::SeriesId>& client_ids = payload->client_ids;
  asap::telemetry::MetricsRegistry* registry = &rig->registry;
  asap::stream::ShardedEngine& engine = *rig->engine;
  asap::net::WireServer& server = *rig->server;
  std::vector<asap::net::WireClient>& clients = rig->clients;

  const int64_t measured_slots =
      static_cast<int64_t>(args.seconds * 1e6) / kSlotUs;
  const int64_t total_slots = kWarmupSlots + measured_slots;
  // Schedule epoch: tick 0 of every timestamp. Slot k is due at
  // epoch + (k + 1) ms, when its time interval has passed.
  const int64_t epoch = NowNs() + 20'000'000;
  auto due_ns = [&](int64_t us) { return epoch + us * 1000; };
  const int64_t measure_start = due_ns(kWarmupSlots * kSlotUs);
  const int64_t measure_end = due_ns(total_slots * kSlotUs);

  ThreadTrace producer_trace("producer", args.trace);
  ThreadTrace sender_trace("sender", args.trace);
  ThreadTrace poller_trace("poller", args.trace);
  ThreadTrace reader_trace("reader", args.trace);
  const ConsumedCounter consumed(registry);
  std::vector<std::shared_ptr<asap::telemetry::Gauge>> seq_gauges;
  for (const auto& entry : registry->Entries()) {
    if (entry.spec.name == "asap_seq_buffered" && entry.gauge != nullptr) {
      seq_gauges.push_back(entry.gauge);
    }
  }

  // --- sender: two collectors on one schedule ---------------------------
  std::atomic<uint64_t> sent{0};
  std::vector<TimedSample> lag_ms;  // measured slots only
  bool send_ok = true;
  std::thread sender([&] {
    sender_trace.Start();
    RecordBatch batch;
    // Collector c sends slot k - c * kLagSlots at slot k's due time;
    // B therefore needs kLagSlots extra turns at the end.
    for (int64_t k = 0; k < total_slots + kLagSlots; ++k) {
      const int64_t due = due_ns((k + 1) * kSlotUs);
      {
        ScopedSpan idle(&sender_trace, Layer::kIdle);
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(due)));
      }
      const int64_t start = NowNs();
      if (k >= kWarmupSlots && k < total_slots) {
        lag_ms.push_back({due, static_cast<double>(start - due) * 1e-6});
      }
      for (int64_t c = 0; c < 2; ++c) {
        const int64_t slot = k - c * kLagSlots;
        if (slot < 0 || slot >= total_slots) continue;
        {
          ScopedSpan gen(&sender_trace, Layer::kGen);
          batch.clear();
          for (int64_t p = 0; p < kPointsPerSlot; ++p) {
            const int64_t j = slot * kPointsPerSlot + p;
            for (size_t i = static_cast<size_t>(c); i < kSeries; i += 2) {
              batch.push_back(Record{client_ids[i], values.At(i, j), j * kTickUs});
            }
          }
        }
        ScopedSpan net(&sender_trace, Layer::kNet);
        send_ok = send_ok && clients[c].Send(batch).ok() && clients[c].Flush().ok();
        sent.fetch_add(batch.size(), std::memory_order_relaxed);
      }
    }
    {
      ScopedSpan net(&sender_trace, Layer::kNet);
      for (auto& client : clients) client.Close();
    }
    sender_trace.Stop();
  });

  // --- probe poller ------------------------------------------------------
  std::atomic<bool> engine_done{false};
  std::vector<ProbeTrack> probes;
  for (size_t i = 0; i < kSeries; i += kProbeStride) probes.push_back({i, -1, {}});
  asap::telemetry::LatencyHistogram poll_ns;
  std::vector<Bookkeeping> books;
  double seq_peak = 0.0;
  std::thread poller([&] {
    poller_trace.Start();
    int64_t next_book = 0;
    while (!engine_done.load(std::memory_order_acquire)) {
      for (ProbeTrack& probe : probes) {
        ScopedSpan span(&poller_trace, Layer::kStream);
        const int64_t t0 = NowNs();
        const auto frame = engine.Snapshot(names[probe.series]);
        const int64_t t1 = NowNs();
        poll_ns.Record(static_cast<uint64_t>(t1 - t0));
        const int64_t newest = frame == nullptr ? -1 : NewestProbePane(*frame);
        if (newest > probe.newest_seen) {
          probe.seen_ns.resize(static_cast<size_t>(newest) + 1, 0);
          for (int64_t p = probe.newest_seen + 1; p <= newest; ++p) {
            probe.seen_ns[static_cast<size_t>(p)] = t1;
          }
          probe.newest_seen = newest;
        }
      }
      const int64_t now = NowNs();
      if (now >= next_book) {
        ScopedSpan span(&poller_trace, Layer::kGen);
        books.push_back({now, sent.load(std::memory_order_relaxed),
                         consumed.Value()});
        for (const auto& g : seq_gauges) seq_peak = std::max(seq_peak, g->Value());
        next_book = now + 10'000'000;
      }
      ScopedSpan idle(&poller_trace, Layer::kIdle);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    poller_trace.Stop();
  });

  // --- dashboard reader --------------------------------------------------
  std::vector<double> q_sample, q_bands, q_topk, q_anomaly, q_history, q_tick;
  uint64_t queries = 0, query_failures = 0;
  std::thread reader([&] {
    asap::stream::FleetView view(&engine);
    reader_trace.Start();
    {
      ScopedSpan idle(&reader_trace, Layer::kIdle);
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(measure_start)));
    }
    size_t rotate = 1;
    for (int64_t due = measure_start; due + kQueryEveryUs * 1000 <= measure_end;
         due += kQueryEveryUs * 1000) {
      {
        ScopedSpan idle(&reader_trace, Layer::kIdle);
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(due)));
      }
      ScopedSpan tick(&reader_trace, Layer::kStream);
      auto timed = [&](std::vector<double>* out, auto&& fn) {
        const int64_t t0 = NowNs();
        const bool ok = fn();
        out->push_back(static_cast<double>(NowNs() - t0) * 1e-6);
        ++queries;
        if (!ok) ++query_failures;
      };
      timed(&q_sample, [&] { return !view.SampleGlob("dc1-*").series.empty(); });
      timed(&q_bands, [&] { return view.PercentileBands().positions > 0; });
      timed(&q_topk, [&] { return !view.TopKByRoughness(10).ranks.empty(); });
      timed(&q_anomaly, [&] { return view.AnomalyCounts().series > 0; });
      rotate = (rotate + 7) % kSeries;
      timed(&q_history, [&] {
        return view.History(names[rotate], kHistoryFrames).size() ==
               kHistoryFrames;
      });
      q_tick.push_back(static_cast<double>(NowNs() - due) * 1e-6);
    }
    reader_trace.Stop();
  });

  // --- producer: the engine run -----------------------------------------
  asap::net::NetMultiSourceOptions source_options;
  source_options.poll_timeout_ms = 5;
  asap::net::NetMultiSource net_source(&server, source_options);
  TimedSource source(&net_source, &producer_trace, Layer::kNet);
  const RegistryReader reader_view(registry);
  asap::stream::FleetReport report;
  producer_trace.Start();
  {
    ScopedSpan run(&producer_trace, Layer::kStream);
    report = engine.RunToCompletion(&source);
  }
  producer_trace.Stop();
  sender.join();
  reader.join();
  engine_done.store(true, std::memory_order_release);
  poller.join();

  // --- checks -----------------------------------------------------------
  LayerInputs in;
  const uint64_t units = sent.load();
  result.Check(send_ok, "collector sends succeeded");
  const uint64_t shard_points = AddFleetReport(report, &in, &result);
  AddWireStats(server.stats(), asap::net::WireServerStats{}, units,
               report.points, &in, &result);
  result.attempted = units;
  result.failed = units - std::min(units, shard_points);

  // Final frames equal the single-thread baseline fed each series'
  // records in time order. A series that lost records as late (counted
  // as failed above) has no lossless baseline and is not compared.
  std::vector<uint64_t> late_of(kSeries, 0);
  for (const asap::stream::SeriesReport& row : report.per_series) {
    const auto id = client_catalog.FindId(row.name);
    if (id.has_value()) late_of[*id] = row.late;
  }
  size_t frames_skipped = 0;
  Baseline baseline;
  const int64_t points_per_series = total_slots * kPointsPerSlot;
  std::vector<double> xs(static_cast<size_t>(points_per_series));
  std::vector<int64_t> ts(xs.size());
  size_t frames_checked = 0;
  for (size_t i = 0; i < kSeries; ++i) {
    if (i % kCheckStride != 0 && i % kCheckStride != 1 + kCheckStride / 2) {
      continue;
    }
    if (late_of[i] > 0) {
      ++frames_skipped;
      continue;
    }
    for (int64_t j = 0; j < points_per_series; ++j) {
      xs[static_cast<size_t>(j)] = values.At(i, j);
      ts[static_cast<size_t>(j)] = j * kTickUs;
    }
    asap::StreamingAsap op =
        asap::StreamingAsap::Create(series_options).ValueOrDie();
    baseline.PushTimed(&op, xs.data(), ts.data(), xs.size());
    const auto frame = engine.Snapshot(names[i]);

    result.Check(frame != nullptr && SameFrame(*frame, op.frame()),
                 "engine frame of " + names[i] + " equals the baseline");
    ++frames_checked;
  }

  // --- freshness --------------------------------------------------------
  // Panes whose bucket ends inside the measured window, short of the
  // tail the close could still cover.
  std::vector<TimedSample> fresh_ms;
  uint64_t missing = 0;
  const int64_t first_pane = kWarmupSlots * kSlotUs / kPaneUs;
  const int64_t last_end_us =
      total_slots * kSlotUs - kHorizonUs - 2 * kPaneUs;
  for (const ProbeTrack& probe : probes) {
    for (int64_t p = first_pane; (p + 1) * kPaneUs <= last_end_us; ++p) {
      const int64_t due = due_ns((p + 1) * kPaneUs);
      if (p < static_cast<int64_t>(probe.seen_ns.size()) &&
          probe.seen_ns[static_cast<size_t>(p)] != 0) {
        fresh_ms.push_back(
            {due, static_cast<double>(probe.seen_ns[static_cast<size_t>(p)] -
                                      due) *
                      1e-6});
      } else {
        ++missing;
      }
    }
  }
  result.attempted += fresh_ms.size() + missing + queries;
  result.failed += missing + query_failures;

  // --- open-loop validity ---------------------------------------------
  // Judged on 1 s windows, so a single hiccup of a shared machine does
  // not void the run while a rate the pipeline cannot sustain (a
  // backlog that keeps growing, a sender that keeps falling behind)
  // still does.
  const double offered_rps = static_cast<double>(kSeries) * 1e6 / kTickUs;
  std::vector<double> backlog_first, backlog_last;
  std::vector<int64_t> book_t;
  std::vector<uint64_t> book_consumed;
  for (const Bookkeeping& b : books) {
    const double backlog =
        static_cast<double>(b.sent) - static_cast<double>(b.consumed);
    if (b.t_ns >= measure_start && b.t_ns < measure_start + kWindowNs) {
      backlog_first.push_back(backlog);
    }
    if (b.t_ns >= measure_end - kWindowNs && b.t_ns < measure_end) {
      backlog_last.push_back(backlog);
    }
    if (b.t_ns >= measure_start && b.t_ns < measure_end) {
      book_t.push_back(b.t_ns);
      book_consumed.push_back(b.consumed);
    }
  }
  const double backlog_growth = Median(backlog_last) - Median(backlog_first);
  const double lag_p99 = WindowedQuantile(lag_ms, kWindowNs, 0.99);
  result.Check(lag_p99 < 20.0,
               "open loop valid: sender lag p99 " + FormatDouble(lag_p99) +
                   " ms < 20 ms");
  result.Check(backlog_growth < offered_rps * 0.05,
               "open loop valid: backlog grew by " +
                   FormatDouble(backlog_growth) +
                   " records < 50 ms of offered load");
  result.ingest_rps = WindowedRate(book_t, book_consumed, kWindowNs);
  result.Check(std::abs(result.ingest_rps / offered_rps - 1.0) < 0.05,
               "ingest rate " + FormatDouble(result.ingest_rps) +
                   " within 5% of the offered " + FormatDouble(offered_rps));

  result.notes.push_back(
      "open loop, offered " + FormatDouble(offered_rps) + " records/s: " +
      std::to_string(kSeries) + " series x 1 point per " +
      std::to_string(kTickUs) + " us, 2 collectors (one " +
      std::to_string(kLagSlots * kSlotUs) + " us behind), horizon " +
      std::to_string(kHorizonUs) + " us, " + std::to_string(kPaneUs) +
      " us panes, store on");
  result.notes.push_back(
      "latency = freshness (bucket end -> frame poll), " +
      std::to_string(fresh_ms.size()) + " samples, " + std::to_string(missing) +
      " missing; " + std::to_string(q_tick.size()) + " dashboard ticks, " +
      std::to_string(query_failures) + " failed queries; " +
      std::to_string(frames_checked) + " frames checked bitwise, " +
      std::to_string(frames_skipped) + " skipped for late records");
  std::vector<double> fresh_all;
  for (const TimedSample& sample : fresh_ms) fresh_all.push_back(sample.value);
  result.notes.push_back("whole-run freshness p50/p99 " +
                         FormatDouble(Percentile(fresh_all, 0.5)) + "/" +
                         FormatDouble(Percentile(fresh_all, 0.99)) +
                         " ms; query tick p50/p99 " +
                         FormatDouble(Percentile(q_tick, 0.5)) + "/" +
                         FormatDouble(Percentile(q_tick, 0.99)) + " ms");

  const StoreCounters store_after = StoreCounters::Read(*registry);

  if (!args.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("ingest_rps", result.ingest_rps, "records/s");
    result.Add("latency_p50_ms", WindowedQuantile(fresh_ms, kFreshWindowNs, 0.5),
               "ms");
    result.Add("latency_p90_ms", WindowedQuantile(fresh_ms, kFreshWindowNs, 0.90),
               "ms");
    return result;
  }

  in.gen_lag_p99_ms = lag_p99;
  in.gen_backlog_growth = backlog_growth;
  in.client_blocked_s =
      sender_trace.Summarize().self_s[static_cast<size_t>(Layer::kNet)];
  in.decode_s = reader_view.HistogramSeconds("asap_wire_decode_seconds");
  in.source_wait_s = source.wait_s();
  in.shard_push_s = reader_view.HistogramSeconds("asap_shard_push_seconds");
  in.seq_buffered_peak = seq_peak;
  in.snapshot_poll = poll_ns.TakeSnapshot();
  in.query_sample_ms = q_sample;
  in.query_bands_ms = q_bands;
  in.query_topk_ms = q_topk;
  in.query_anomaly_ms = q_anomaly;
  in.query_history_ms = q_history;
  in.query_tick_ms = q_tick;
  in.baseline = &baseline;
  in.latency_p99_ms = WindowedQuantile(fresh_ms, kFreshWindowNs, 0.99);
  in.engine_refreshes = static_cast<double>(report.refreshes);
  in.store.AddDelta(store_after, StoreCounters{});
  asap::stream::FleetView view(&engine);
  view.ForEachSeries([&](std::string_view, const asap::StreamingAsap::Frame& f) {
    AddFrameCounters(f, &in);
  });
  const TraceReport trace = SummarizeTraces(
      {&producer_trace, &sender_trace, &poller_trace, &reader_trace});
  for (const std::string& line : trace.lines) result.notes.push_back(line);
  AddLayerMetrics(in, trace, &result);
  return result;
}

}  // namespace pipebench
