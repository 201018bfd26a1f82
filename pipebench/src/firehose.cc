// firehose: closed-loop binary wire replay into the sharded engine.
//
// One sender thread replays pre-encoded 0xA5 frames over 2 loopback
// connections into a 1-loop WireServer; the producer pulls them through
// NetMultiSource into 2 shards of arrival-mode operators. No
// sequencer, no store, no readers. Operators are prefilled to a full
// visible window and refresh only every 8 windows (on demand), so
// per-record decode, queue-hop, routing and pane costs set the number
// and window search stays out of the way.
//
// The loop is closed with a window: the sender keeps at most
// kInFlight records sent but not yet consumed, as a client with that
// much outstanding work would. Latency here is ingest lag: from the
// moment the sender finished writing a chunk to the moment the
// operators had consumed as many records as had been sent by then.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "harness.h"
#include "net/net_source.h"
#include "net/protocol.h"
#include "net/wire_client.h"
#include "net/wire_server.h"
#include "stream/fleet_view.h"
#include "stream/sharded_engine.h"
#include "stream/source.h"
#include "ts/generators.h"

namespace pipebench {
namespace {

using asap::stream::RecordBatch;
using asap::stream::SeriesCatalog;

constexpr size_t kSeries = 2048;
constexpr size_t kConnections = 2;
constexpr size_t kVisible = 2048;
constexpr size_t kPrefillRounds = 3;    // >= one visible window per series
constexpr size_t kChunkRecords = 8192;  // per connection write
constexpr size_t kCheckStride = 127;    // checked series span all rates
constexpr uint64_t kInFlight = 1 << 20;  // records sent, not yet consumed

asap::StreamingOptions SeriesOptions() {
  asap::StreamingOptions o;
  o.resolution = 256;
  o.visible_points = kVisible;
  o.refresh_every_points = 8 * o.visible_points;
  return o;
}

/// Points series i sends per round. Series scrape at different rates
/// (768..1248 points a round, 1008 on average), so their refresh
/// points drift apart instead of the whole fleet refreshing in the
/// same few milliseconds every refresh interval.
size_t RoundPoints(size_t i) { return 768 + (i % 16) * 32; }

std::string SeriesName(size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "fh-%04zu/load", i);
  return buf;
}

/// One connection's round of records, pre-encoded: chunk 0 as a fresh
/// connection sends it (with the name registrations) and every chunk
/// as an established connection repeats it.
struct EncodedRound {
  std::string first_chunk;
  std::vector<std::string> chunks;
  std::vector<size_t> chunk_records;
};

struct SendLog {
  std::vector<int64_t> t_ns;
  std::vector<uint64_t> cum_records;
  uint64_t rounds = 0;
  uint64_t records = 0;
  bool ok = true;
};

std::vector<asap::net::WireClient> Connect(uint16_t port,
                                           const SeriesCatalog* catalog) {
  std::vector<asap::net::WireClient> clients;
  asap::net::WireClientOptions options;
  options.catalog = catalog;
  for (size_t c = 0; c < kConnections; ++c) {
    clients.push_back(
        asap::net::WireClient::ConnectTcp("127.0.0.1", port, options)
            .ValueOrDie());
  }
  return clients;
}

/// Replays rounds until `rounds` are sent (rounds > 0) or `seconds`
/// have passed (checked at round boundaries), alternating chunks
/// between the connections; then flushes and closes them.
/// Before each chunk, waits until fewer than kInFlight records are
/// outstanding (`consumed` counts from `consumed_base`).
void Send(std::vector<asap::net::WireClient>* clients,
          const std::vector<EncodedRound>& encoded, uint64_t rounds,
          double seconds, const ConsumedCounter* consumed,
          uint64_t consumed_base, ThreadTrace* trace, SendLog* log) {
  trace->Start();
  const int64_t t0 = NowNs();
  size_t chunks = 0;
  for (const EncodedRound& round : encoded) {
    chunks = std::max(chunks, round.chunks.size());
  }
  for (uint64_t r = 0;; ++r) {
    if (rounds > 0 ? r >= rounds
                   : static_cast<double>(NowNs() - t0) * 1e-9 >= seconds) {
      break;
    }
    for (size_t k = 0; k < chunks; ++k) {
      for (size_t c = 0; c < kConnections; ++c) {
        if (k >= encoded[c].chunks.size()) continue;
        while (log->records - (consumed->Value() - consumed_base) >
               kInFlight) {
          ScopedSpan idle(trace, Layer::kIdle);
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        ScopedSpan gen(trace, Layer::kGen);
        const std::string& bytes =
            r == 0 && k == 0 ? encoded[c].first_chunk : encoded[c].chunks[k];
        {
          ScopedSpan net(trace, Layer::kNet);
          log->ok = log->ok && (*clients)[c].SendRaw(bytes).ok();
        }
        log->records += encoded[c].chunk_records[k];
        log->t_ns.push_back(NowNs());
        log->cum_records.push_back(log->records);
      }
    }
    log->rounds = r + 1;
  }
  {
    ScopedSpan net(trace, Layer::kNet);
    for (auto& client : *clients) {
      log->ok = log->ok && client.Flush().ok();
      client.Close();
    }
  }
  trace->Stop();
}

/// Everything the measured run needs, built (and warmed) by Setup.
struct Rig {
  std::vector<std::string> names;
  std::vector<std::vector<double>> payload;
  SeriesCatalog client_catalog;
  std::vector<EncodedRound> encoded;
  std::optional<asap::stream::ShardedEngine> engine;
  std::optional<asap::net::WireServer> server;
  asap::stream::FleetReport warm;
};

asap::net::NetMultiSourceOptions SourceOptions() {
  asap::net::NetMultiSourceOptions o;
  o.poll_timeout_ms = 5;
  return o;
}

/// Generates the payload from the seed, pre-encodes it, builds the
/// engine and server and pushes the prefill rounds through the same
/// wire path, untimed.
std::unique_ptr<Rig> Setup(const RunArgs& args, WorkloadResult* result) {
  auto rig = std::make_unique<Rig>();
  for (size_t i = 0; i < kSeries; ++i) {
    asap::Pcg32 rng(args.seed, i);
    rig->names.push_back(SeriesName(i));
    const double period = 24.0 + static_cast<double>((i * 37) % 200);
    rig->payload.push_back(asap::gen::Add(
        asap::gen::Sine(RoundPoints(i), period, 1.0 + 0.01 * (i % 50)),
        asap::gen::WhiteNoise(&rng, RoundPoints(i), 0.3)));
  }
  // Series are split across the connections by index parity; each
  // connection carries its series round-robin, as a collector would.
  rig->encoded.resize(kConnections);
  for (size_t c = 0; c < kConnections; ++c) {
    std::vector<std::string> conn_names;
    std::vector<std::vector<double>> conn_payload;
    for (size_t i = c; i < kSeries; i += kConnections) {
      conn_names.push_back(rig->names[i]);
      conn_payload.push_back(rig->payload[i]);
    }
    const RecordBatch records = asap::stream::InterleaveToRecords(
        &rig->client_catalog, conn_names, conn_payload);
    asap::net::WireEncoder encoder(&rig->client_catalog,
                                   asap::net::WireEncoding::kBinary, 512);
    EncodedRound& round = rig->encoded[c];
    for (size_t off = 0; off < records.size(); off += kChunkRecords) {
      const size_t n = std::min(kChunkRecords, records.size() - off);
      if (off == 0) encoder.Encode(records.data(), n, &round.first_chunk);
      std::string chunk;
      encoder.Encode(records.data() + off, n, &chunk);
      round.chunks.push_back(std::move(chunk));
      round.chunk_records.push_back(n);
    }
  }

  asap::stream::ShardedEngineOptions engine_options;
  engine_options.shards = 2;
  engine_options.batch_size = 8192;
  engine_options.queue_capacity = 64;
  rig->engine.emplace(
      asap::stream::ShardedEngine::Create(SeriesOptions(), engine_options)
          .ValueOrDie());
  asap::net::WireServerOptions server_options;
  server_options.num_event_loops = 1;
  server_options.metrics = rig->engine->metrics();
  rig->server.emplace(
      asap::net::WireServer::Create(server_options, rig->engine->catalog())
          .ValueOrDie());
  rig->server->Start();

  std::vector<asap::net::WireClient> clients =
      Connect(rig->server->tcp_port(), &rig->client_catalog);
  result->Check(WaitForConnections(*rig->server, kConnections),
                "warm-up connections accepted");
  ThreadTrace off("warmup", false);
  const ConsumedCounter consumed(rig->engine->metrics());
  SendLog log;
  std::thread sender(Send, &clients, std::cref(rig->encoded), kPrefillRounds,
                     0.0, &consumed, consumed.Value(), &off, &log);
  asap::net::NetMultiSource source(&*rig->server, SourceOptions());
  rig->warm = rig->engine->RunToCompletion(&source);
  sender.join();
  result->Check(log.ok, "warm-up sends succeeded");
  result->Check(rig->warm.points == log.records,
                "warm-up: every record sent was consumed");
  return rig;
}

}  // namespace

WorkloadResult RunFirehose(const RunArgs& args) {
  WorkloadResult result;
  const asap::StreamingOptions series_options = SeriesOptions();
  // Set up several times and report the median; the last rig runs.
  std::unique_ptr<Rig> rig;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    rig.reset();
    const int64_t t0 = NowNs();
    rig = Setup(args, &result);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  asap::stream::ShardedEngine& engine = *rig->engine;
  asap::net::WireServer& server = *rig->server;
  const std::vector<std::string>& names = rig->names;
  const std::vector<std::vector<double>>& payload = rig->payload;
  const asap::stream::FleetReport& warm = rig->warm;
  const asap::net::NetMultiSourceOptions source_options = SourceOptions();

  // Measured run.
  std::vector<asap::net::WireClient> clients =
      Connect(server.tcp_port(), &rig->client_catalog);
  result.Check(WaitForConnections(server, kConnections),
               "measured connections accepted");
  asap::telemetry::MetricsRegistry* registry = engine.metrics();
  const RegistryReader reader(registry);
  const ConsumedCounter consumed(registry);
  const asap::net::WireServerStats wire_before = server.stats();
  const double decode_before = reader.HistogramSeconds("asap_wire_decode_seconds");
  const double push_before = reader.HistogramSeconds("asap_shard_push_seconds");
  const uint64_t consumed_before = consumed.Value();

  ThreadTrace producer_trace("producer", args.trace);
  ThreadTrace sender_trace("sender", args.trace);
  ThreadTrace monitor_trace("monitor", args.trace);
  SendLog log;
  std::atomic<bool> stop_monitor{false};
  std::vector<int64_t> mon_t;
  std::vector<uint64_t> mon_consumed;
  std::thread monitor([&] {
    monitor_trace.Start();
    while (!stop_monitor.load(std::memory_order_acquire)) {
      {
        ScopedSpan gen(&monitor_trace, Layer::kGen);
        mon_consumed.push_back(consumed.Value() - consumed_before);
        mon_t.push_back(NowNs());
      }
      ScopedSpan idle(&monitor_trace, Layer::kIdle);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    monitor_trace.Stop();
  });
  const int64_t measure_start = NowNs();
  std::thread sender(Send, &clients, std::cref(rig->encoded), uint64_t{0},
                     args.seconds, &consumed, consumed_before, &sender_trace,
                     &log);
  asap::net::NetMultiSource net_source(&server, source_options);
  TimedSource source(&net_source, &producer_trace, Layer::kNet);
  producer_trace.Start();
  asap::stream::FleetReport report;
  {
    ScopedSpan run(&producer_trace, Layer::kStream);
    report = engine.RunToCompletion(&source);
  }
  producer_trace.Stop();
  const int64_t measure_end = NowNs();
  sender.join();
  stop_monitor.store(true, std::memory_order_release);
  monitor.join();
  const double wall_s = static_cast<double>(measure_end - measure_start) * 1e-9;
  const uint64_t consumed_run = consumed.Value() - consumed_before;

  // --- checks -----------------------------------------------------------
  LayerInputs in;
  result.Check(log.ok, "sends succeeded");
  const uint64_t shard_points = AddFleetReport(report, &in, &result);
  AddWireStats(server.stats(), wire_before, log.records, report.points, &in,
               &result);
  result.Check(consumed_run == shard_points,
               "asap_shard_records_total agrees with the shard reports");
  result.attempted = log.records;
  result.failed = log.records - std::min<uint64_t>(log.records, shard_points);

  // Final frames of the sampled series equal the single-thread
  // baseline fed the same per-series sequence (arrival order).
  Baseline replay;
  const uint64_t rounds_total = kPrefillRounds + log.rounds;
  size_t frames_checked = 0, frames_refreshed = 0;
  for (size_t i = 1; i < kSeries; i += kCheckStride) {
    asap::StreamingAsap op =
        asap::StreamingAsap::Create(series_options).ValueOrDie();
    for (uint64_t r = 0; r < rounds_total; ++r) {
      replay.Push(&op, payload[i].data(), payload[i].size());
    }
    const auto frame = engine.Snapshot(names[i]);
    result.Check(frame != nullptr && SameFrame(*frame, op.frame()),
                 "engine frame of " + names[i] + " equals the baseline");
    frames_refreshed += op.frame().refreshes > 0 ? 1 : 0;
    ++frames_checked;
  }
  result.Check(frames_refreshed > 0,
               "at least one checked series refreshed, so the frame "
               "comparison covers a window search");

  // --- latency: ingest lag per chunk ------------------------------------
  mon_t.push_back(measure_end);
  mon_consumed.push_back(consumed_run);
  std::vector<TimedSample> lag_ms;
  lag_ms.reserve(log.t_ns.size());
  size_t j = 0;
  for (size_t k = 0; k < log.t_ns.size(); ++k) {
    while (j + 1 < mon_t.size() &&
           (mon_consumed[j] < log.cum_records[k] || mon_t[j] < log.t_ns[k])) {
      ++j;
    }
    lag_ms.push_back(
        {log.t_ns[k], static_cast<double>(mon_t[j] - log.t_ns[k]) * 1e-6});
  }

  // Rates and latencies are medians over 1 s windows, so one stall of
  // a shared machine moves one window rather than the run's figure.
  result.ingest_rps = WindowedRate(mon_t, mon_consumed, kWindowNs);
  result.notes.push_back("whole-run rate " +
                         FormatDouble(static_cast<double>(consumed_run) / wall_s) +
                         " records/s");
  result.notes.push_back("closed loop, 1 sender thread, 2 connections, " +
                         std::to_string(kSeries) + " series, " +
                         std::to_string(log.rounds) + " rounds of " +
                         "768-1248 points/series");
  result.notes.push_back("latency = ingest lag (chunk written -> consumed), " +
                         std::to_string(lag_ms.size()) + " samples; " +
                         std::to_string(frames_checked) + " (" +
                         std::to_string(frames_refreshed) + " refreshed)" +
                         " frames checked bitwise against the baseline");
  if (!args.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("ingest_rps", result.ingest_rps, "records/s");
    result.Add("latency_p50_ms", WindowedQuantile(lag_ms, kWindowNs, 0.5), "ms");
    result.Add("latency_p90_ms", WindowedQuantile(lag_ms, kWindowNs, 0.90),
               "ms");
    return result;
  }

  in.client_blocked_s =
      sender_trace.Summarize().self_s[static_cast<size_t>(Layer::kNet)];
  in.decode_s = reader.HistogramSeconds("asap_wire_decode_seconds") - decode_before;
  in.source_wait_s = source.wait_s();
  in.shard_push_s = reader.HistogramSeconds("asap_shard_push_seconds") - push_before;
  const Baseline baseline =
      TimeSingleThread(series_options, payload, 1024);
  const Baseline shard_baseline =
      TimeConcurrent(series_options, payload, 1024, 0, report.shards.size());
  in.baseline = &baseline;
  in.shard_baseline = &shard_baseline;
  in.latency_p99_ms = WindowedQuantile(lag_ms, kWindowNs, 0.99);
  in.engine_refreshes = static_cast<double>(report.refreshes - warm.refreshes);
  asap::stream::FleetView view(&engine);
  view.ForEachSeries([&](std::string_view, const asap::StreamingAsap::Frame& f) {
    AddFrameCounters(f, &in);
  });
  const TraceReport trace =
      SummarizeTraces({&producer_trace, &sender_trace, &monitor_trace});
  for (const std::string& line : trace.lines) result.notes.push_back(line);
  AddLayerMetrics(in, trace, &result);
  return result;
}

}  // namespace pipebench
