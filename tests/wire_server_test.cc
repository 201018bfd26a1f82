// Loopback end-to-end tests for the wire-ingestion subsystem: a
// WireClient replaying named fleets into a WireServer must feed the
// sharded fleet engine frames bitwise identical to in-process
// ingestion (both encodings — including 0xA6 name registrations — over
// TCP and UDS), FleetView queries must rank identically in both
// paths, and per-connection malformed input must never take down the
// server or its other connections. Timed collectors' low marks must
// release sequenced records long before the horizon without making any
// late, while a silent or stalled collector leaves release to the
// horizon.

#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "net/net_source.h"
#include "net/wire_client.h"
#include "net/wire_server.h"
#include "stream/fleet_view.h"
#include "stream/sharded_engine.h"
#include "stream/source.h"
#include "telemetry/metrics.h"
#include "ts/generators.h"

namespace asap {
namespace net {
namespace {

using stream::Record;
using stream::RecordBatch;
using stream::SeriesCatalog;

std::vector<double> FleetSeries(size_t index, size_t n) {
  Pcg32 rng(500 + index);
  const double period = 24.0 + 6.0 * static_cast<double>(index % 5);
  return gen::Add(gen::Sine(n, period, 1.0 + 0.1 * index),
                  gen::WhiteNoise(&rng, n, 0.4));
}

std::string HostName(size_t index) {
  return "host-" + std::to_string(index) + "/load";
}

StreamingOptions FleetOptions() {
  StreamingOptions options;
  options.resolution = 100;
  options.visible_points = 2000;
  options.refresh_every_points = 250;
  return options;
}

std::string TestUdsPath(const char* tag) {
  return "/tmp/asap_wire_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

// The acceptance criterion: WireClient -> WireServer -> ShardedEngine
// produces per-series final frames bitwise identical to in-process
// InterleavingMultiSource ingestion — for both encodings (the binary
// path exercising 0xA6 name-registration frames) — and
// FleetView::TopKByRoughness returns the identical ranking over both
// engines.
TEST(WireServerTest, LoopbackParityWithInProcessIngestion) {
  const size_t kSeries = 6;
  const size_t kPointsPerSeries = 5000;
  const StreamingOptions options = FleetOptions();

  std::vector<std::string> names;
  std::vector<std::vector<double>> payloads;
  for (size_t i = 0; i < kSeries; ++i) {
    names.push_back(HostName(i));
    payloads.push_back(FleetSeries(i, kPointsPerSeries));
  }

  // In-process reference run.
  stream::ShardedEngineOptions engine_options;
  engine_options.shards = 2;
  stream::ShardedEngine reference =
      stream::ShardedEngine::Create(options, engine_options).ValueOrDie();
  stream::InterleavingMultiSource in_process(reference.catalog());
  for (size_t i = 0; i < kSeries; ++i) {
    in_process.AddVector(names[i], payloads[i]);
  }
  reference.RunToCompletion(&in_process);
  const stream::FleetView reference_view(&reference);
  const std::vector<stream::SeriesRank> reference_ranks =
      reference_view.TopKByRoughness(kSeries).ranks;
  ASSERT_EQ(reference_ranks.size(), kSeries);

  // The collector's own catalog: ids on the wire are sender-local.
  SeriesCatalog collector_catalog;
  const RecordBatch records =
      stream::InterleaveToRecords(&collector_catalog, names, payloads);

  for (WireEncoding encoding : {WireEncoding::kText, WireEncoding::kBinary}) {
    stream::ShardedEngine engine =
        stream::ShardedEngine::Create(options, engine_options).ValueOrDie();

    WireServerOptions server_options;
    WireServer server =
        WireServer::Create(server_options, engine.catalog()).ValueOrDie();
    const uint16_t port = server.tcp_port();
    ASSERT_GT(port, 0);

    std::thread client_thread([&collector_catalog, &records, port,
                               encoding] {
      WireClientOptions client_options;
      client_options.catalog = &collector_catalog;
      client_options.encoding = encoding;
      WireClient client =
          WireClient::ConnectTcp("127.0.0.1", port, client_options)
              .ValueOrDie();
      ASSERT_TRUE(client.Send(records).ok());
      ASSERT_TRUE(client.Flush().ok());
      EXPECT_EQ(client.records_sent(), records.size());
      client.Close();
    });

    NetMultiSource source(&server);
    const stream::FleetReport report = engine.RunToCompletion(&source);
    client_thread.join();

    EXPECT_EQ(report.points, records.size()) << WireEncodingName(encoding);
    EXPECT_EQ(report.series, kSeries);
    EXPECT_EQ(report.dropped, 0u);
    const WireServerStats stats = server.stats();
    EXPECT_EQ(stats.records, records.size());
    EXPECT_EQ(stats.accepted, 1u);
    EXPECT_EQ(stats.malformed_lines, 0u);
    EXPECT_EQ(stats.malformed_frames, 0u);
    EXPECT_EQ(stats.unknown_series_records, 0u);
    if (encoding == WireEncoding::kBinary) {
      // One 0xA6 per series, announced before its first record.
      EXPECT_EQ(stats.name_registrations, kSeries);
    }

    for (size_t i = 0; i < kSeries; ++i) {
      const auto got = engine.Snapshot(names[i]);
      const auto want = reference.Snapshot(names[i]);
      ASSERT_NE(got, nullptr) << names[i];
      ASSERT_NE(want, nullptr) << names[i];
      EXPECT_EQ(got->window, want->window)
          << WireEncodingName(encoding) << " " << names[i];
      EXPECT_EQ(got->refreshes, want->refreshes)
          << WireEncodingName(encoding) << " " << names[i];
      // Bitwise-identical smoothed values (vector operator== on
      // doubles is exact equality).
      EXPECT_EQ(got->series, want->series)
          << WireEncodingName(encoding) << " " << names[i];
    }

    // The per-series report carries names, sorted.
    ASSERT_EQ(report.per_series.size(), kSeries);
    for (size_t i = 1; i < report.per_series.size(); ++i) {
      EXPECT_LT(report.per_series[i - 1].name, report.per_series[i].name);
    }

    // Fleet queries agree exactly: identical frames -> identical
    // roughness bits -> identical rankings.
    const stream::FleetView view(&engine);
    const std::vector<stream::SeriesRank> ranks =
        view.TopKByRoughness(kSeries).ranks;
    ASSERT_EQ(ranks.size(), reference_ranks.size());
    for (size_t i = 0; i < ranks.size(); ++i) {
      EXPECT_EQ(ranks[i].name, reference_ranks[i].name)
          << WireEncodingName(encoding) << " rank " << i;
      EXPECT_EQ(ranks[i].roughness, reference_ranks[i].roughness)
          << WireEncodingName(encoding) << " rank " << i;
      EXPECT_EQ(ranks[i].window, reference_ranks[i].window);
    }
  }
}

TEST(WireServerTest, UnixDomainSocketCarriesTheSameProtocol) {
  const std::string uds_path = TestUdsPath("uds");
  stream::ShardedEngine engine =
      stream::ShardedEngine::Create(FleetOptions()).ValueOrDie();
  WireServerOptions server_options;
  server_options.enable_tcp = false;
  server_options.uds_path = uds_path;
  WireServer server =
      WireServer::Create(server_options, engine.catalog()).ValueOrDie();
  EXPECT_EQ(server.tcp_port(), 0);

  const std::vector<double> payload = FleetSeries(0, 3000);
  std::thread client_thread([&payload, &uds_path] {
    SeriesCatalog catalog;
    const stream::SeriesId id = catalog.Intern("uds-host/load");
    WireClientOptions client_options;
    client_options.catalog = &catalog;
    WireClient client =
        WireClient::ConnectUds(uds_path, client_options).ValueOrDie();
    RecordBatch records;
    for (double x : payload) {
      records.push_back(Record{id, x});
    }
    ASSERT_TRUE(client.Send(records).ok());
    ASSERT_TRUE(client.Flush().ok());
  });

  NetMultiSource source(&server);
  const stream::FleetReport report = engine.RunToCompletion(&source);
  client_thread.join();

  EXPECT_EQ(report.points, payload.size());
  ASSERT_NE(engine.Snapshot("uds-host/load"), nullptr);

  // Parity against driving the one series directly.
  StreamingAsap direct = StreamingAsap::Create(FleetOptions()).ValueOrDie();
  direct.PushBatch(payload);
  EXPECT_EQ(engine.Snapshot("uds-host/load")->series, direct.frame().series);
  EXPECT_EQ(engine.Snapshot("uds-host/load")->refreshes,
            direct.frame().refreshes);
}

TEST(WireServerTest, ConcurrentClientsDemuxIntoDistinctSeries) {
  stream::ShardedEngineOptions engine_options;
  engine_options.shards = 4;
  stream::ShardedEngine engine =
      stream::ShardedEngine::Create(FleetOptions(), engine_options)
          .ValueOrDie();
  WireServer server =
      WireServer::Create(WireServerOptions{}, engine.catalog()).ValueOrDie();
  const uint16_t port = server.tcp_port();
  const size_t kClients = 4;
  const size_t kPointsPerClient = 3000;

  // Every client holds its connection until all have connected: the
  // NetMultiSource drain check must never observe a no-connections gap
  // between one replay ending and the next beginning.
  std::atomic<size_t> connected{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([c, port, &connected] {
      SeriesCatalog catalog;
      const stream::SeriesId id = catalog.Intern(HostName(c));
      WireClientOptions client_options;
      client_options.catalog = &catalog;
      client_options.encoding =
          c % 2 == 0 ? WireEncoding::kBinary : WireEncoding::kText;
      WireClient client =
          WireClient::ConnectTcp("127.0.0.1", port, client_options)
              .ValueOrDie();
      connected.fetch_add(1);
      while (connected.load() < kClients) {
        std::this_thread::yield();
      }
      const std::vector<double> payload = FleetSeries(c, kPointsPerClient);
      RecordBatch records;
      for (double x : payload) {
        records.push_back(Record{id, x});
      }
      ASSERT_TRUE(client.Send(records).ok());
      ASSERT_TRUE(client.Flush().ok());
    });
  }

  NetMultiSource source(&server);
  const stream::FleetReport report = engine.RunToCompletion(&source);
  for (auto& t : clients) {
    t.join();
  }

  EXPECT_EQ(report.points, kClients * kPointsPerClient);
  EXPECT_EQ(report.series, kClients);
  // Each client's connection is its own ordered byte stream, so every
  // series still matches its sequential reference exactly.
  for (size_t c = 0; c < kClients; ++c) {
    StreamingAsap direct = StreamingAsap::Create(FleetOptions()).ValueOrDie();
    direct.PushBatch(FleetSeries(c, kPointsPerClient));
    ASSERT_NE(engine.Snapshot(HostName(c)), nullptr) << HostName(c);
    EXPECT_EQ(engine.Snapshot(HostName(c))->series, direct.frame().series)
        << HostName(c);
  }
}

TEST(WireServerTest, MalformedConnectionIsDroppedOthersSurvive) {
  stream::ShardedEngine engine =
      stream::ShardedEngine::Create(FleetOptions()).ValueOrDie();
  WireServer server =
      WireServer::Create(WireServerOptions{}, engine.catalog()).ValueOrDie();
  const uint16_t port = server.tcp_port();

  // Both clients connect before either starts its replay, so the drain
  // check never sees a no-connections gap.
  std::atomic<size_t> connected{0};
  std::thread bad_client([port, &connected] {
    SeriesCatalog catalog;
    const stream::SeriesId id = catalog.Intern("bad/metric");
    WireClientOptions client_options;
    client_options.catalog = &catalog;
    WireClient client =
        WireClient::ConnectTcp("127.0.0.1", port, client_options)
            .ValueOrDie();
    connected.fetch_add(1);
    while (connected.load() < 2) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(client.Send(RecordBatch{{id, 2.0}}).ok());
    ASSERT_TRUE(client.Flush().ok());
    // Corrupt binary header: magic with an absurd length.
    std::string garbage;
    garbage.push_back(static_cast<char>(0xA5));
    garbage.append("\xff\xff\xff\xff", 4);
    ASSERT_TRUE(client.SendRaw(garbage).ok());
    // These records ride a poisoned stream and must be ignored.
    client.Send(RecordBatch{{id, 99.0}});
    client.Flush();  // may fail if the server already closed us
  });

  std::thread good_client([port, &connected] {
    SeriesCatalog catalog;
    const stream::SeriesId id = catalog.Intern("good/metric");
    WireClientOptions client_options;
    client_options.catalog = &catalog;
    client_options.encoding = WireEncoding::kText;
    WireClient client =
        WireClient::ConnectTcp("127.0.0.1", port, client_options)
            .ValueOrDie();
    connected.fetch_add(1);
    while (connected.load() < 2) {
      std::this_thread::yield();
    }
    RecordBatch records;
    for (double x : FleetSeries(2, 3000)) {
      records.push_back(Record{id, x});
    }
    ASSERT_TRUE(client.Send(records).ok());
    ASSERT_TRUE(client.Flush().ok());
  });

  NetMultiSource source(&server);
  const stream::FleetReport report = engine.RunToCompletion(&source);
  bad_client.join();
  good_client.join();

  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.poisoned_connections, 1u);
  EXPECT_GE(stats.malformed_frames, 1u);
  // The good client's series came through in full, plus the one
  // record the bad client sent before poisoning itself.
  EXPECT_EQ(report.points, 3000u + 1u);
  ASSERT_NE(engine.Snapshot("good/metric"), nullptr);
  EXPECT_GT(engine.Snapshot("good/metric")->refreshes, 0u);
}

TEST(WireServerTest, StopUnblocksAnIdleNextBatch) {
  SeriesCatalog catalog;
  WireServer server =
      WireServer::Create(WireServerOptions{}, &catalog).ValueOrDie();
  NetMultiSourceOptions source_options;
  source_options.poll_timeout_ms = 5;
  source_options.exit_when_drained = false;  // long-lived server mode
  NetMultiSource source(&server, source_options);

  std::thread stopper([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    source.Stop();
  });
  RecordBatch out;
  // No client ever connects: only Stop() can end this call.
  EXPECT_EQ(source.NextBatch(128, &out), 0u);
  stopper.join();
  EXPECT_TRUE(source.stopped());
}

TEST(WireServerTest, IdleTimeoutBoundsAnUnattendedNextBatch) {
  // RunForBudget checks its budget only between NextBatch calls, so a
  // long-lived source must be able to bound its own idle wait.
  SeriesCatalog catalog;
  WireServer server =
      WireServer::Create(WireServerOptions{}, &catalog).ValueOrDie();
  NetMultiSourceOptions source_options;
  source_options.poll_timeout_ms = 5;
  source_options.exit_when_drained = false;
  source_options.idle_timeout_ms = 50;
  NetMultiSource source(&server, source_options);

  RecordBatch out;
  // No client ever connects; the idle timeout alone ends the call.
  EXPECT_EQ(source.NextBatch(128, &out), 0u);
  EXPECT_FALSE(source.stopped());
}

TEST(WireServerTest, CreateValidatesOptions) {
  SeriesCatalog catalog;
  WireServerOptions no_listeners;
  no_listeners.enable_tcp = false;
  EXPECT_FALSE(WireServer::Create(no_listeners, &catalog).ok());

  EXPECT_FALSE(WireServer::Create(WireServerOptions{}, nullptr).ok());

  WireServerOptions bad_path;
  bad_path.enable_tcp = false;
  bad_path.uds_path = std::string(200, 'x');  // over sun_path
  EXPECT_FALSE(WireServer::Create(bad_path, &catalog).ok());

  WireServerOptions bad_host;
  bad_host.tcp_host = "not-an-ip";
  EXPECT_FALSE(WireServer::Create(bad_host, &catalog).ok());

  WireServerOptions tiny_frame;
  tiny_frame.max_frame_bytes = 8;  // cannot hold one binary record
  EXPECT_FALSE(WireServer::Create(tiny_frame, &catalog).ok());
}

TEST(WireServerTest, ClientRejectsBadOptionsBeforeConnecting) {
  SeriesCatalog catalog;
  WireClientOptions bad;
  bad.catalog = &catalog;
  bad.frame_records = 0;
  EXPECT_FALSE(WireClient::ConnectTcp("127.0.0.1", 1, bad).ok());

  WireClientOptions no_catalog;  // catalog is required
  EXPECT_FALSE(WireClient::ConnectTcp("127.0.0.1", 1, no_catalog).ok());
}

// The drain-on-shutdown guarantee: every byte the server received
// before Stop() — including on connections still open — is decoded and
// deliverable through PollOnce after Stop() returns. The old poll()
// server could only offer "whatever the last turn happened to read".
TEST(WireServerTest, StopDrainsEverythingAlreadyReceived) {
  SeriesCatalog catalog;
  WireServerOptions server_options;
  server_options.num_event_loops = 2;
  WireServer server =
      WireServer::Create(server_options, &catalog).ValueOrDie();
  server.Start();
  const uint16_t port = server.tcp_port();

  const size_t kRecordsPerClient = 400;
  std::vector<Socket> open_clients;
  for (size_t c = 0; c < 3; ++c) {
    Socket sock = ConnectTcp("127.0.0.1", port).ValueOrDie();
    std::string payload;
    for (size_t i = 0; i < kRecordsPerClient; ++i) {
      AppendTextRecord(HostName(c), static_cast<double>(i), &payload);
    }
    ASSERT_TRUE(SendAll(sock.fd(), payload.data(), payload.size()).ok());
    // The connections stay OPEN across Stop(): the drain must not
    // depend on peers closing first.
    open_clients.push_back(std::move(sock));
  }
  // Loopback send() completing puts the bytes in the server's socket
  // buffers; a short grace covers scheduling of the accept itself.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  server.Stop();

  RecordBatch got;
  while (server.PollOnce(0, 4096, &got) > 0) {
  }
  EXPECT_EQ(got.size(), 3 * kRecordsPerClient);
  EXPECT_EQ(server.pending_records(), 0u);
  EXPECT_EQ(server.active_connections(), 0u);
  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.records, 3 * kRecordsPerClient);
  EXPECT_EQ(stats.accepted, 3u);
}

// Connection churn: waves of short-lived connections across both
// encodings, including peers that vanish mid-binary-frame, against a
// two-loop server. Every well-formed record must land, every aborted
// frame must be counted, and the server must survive it all.
TEST(WireServerTest, ConnectionChurnAcrossEncodingsSurvives) {
  SeriesCatalog catalog;
  WireServerOptions server_options;
  server_options.num_event_loops = 2;
  WireServer server =
      WireServer::Create(server_options, &catalog).ValueOrDie();
  server.Start();
  const uint16_t port = server.tcp_port();

  const size_t kRounds = 25;
  const size_t kPerConn = 50;
  std::thread churn([port] {
    for (size_t round = 0; round < kRounds; ++round) {
      for (WireEncoding encoding :
           {WireEncoding::kText, WireEncoding::kBinary}) {
        SeriesCatalog sender;
        const stream::SeriesId id =
            sender.Intern(HostName(round % 5));
        WireClientOptions client_options;
        client_options.catalog = &sender;
        client_options.encoding = encoding;
        WireClient client =
            WireClient::ConnectTcp("127.0.0.1", port, client_options)
                .ValueOrDie();
        RecordBatch records;
        for (size_t i = 0; i < kPerConn; ++i) {
          records.push_back(Record{id, static_cast<double>(i)});
        }
        ASSERT_TRUE(client.Send(records).ok());
        ASSERT_TRUE(client.Flush().ok());
        client.Close();
      }
      // And one peer that dies mid-frame: a 0xA5 header promising 120
      // payload bytes, only half delivered before the close.
      Socket abrupt = ConnectTcp("127.0.0.1", port).ValueOrDie();
      std::string partial;
      partial.push_back(static_cast<char>(0xA5));
      const uint32_t len = 120;
      partial.append(reinterpret_cast<const char*>(&len), 4);
      partial.append(60, '\0');
      ASSERT_TRUE(SendAll(abrupt.fd(), partial.data(), partial.size()).ok());
      abrupt.Close();
    }
  });

  const size_t kExpected = kRounds * 2 * kPerConn;
  RecordBatch got;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (got.size() < kExpected || server.active_connections() > 0) {
    server.PollOnce(10, 4096, &got);
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "stalled at " << got.size() << "/" << kExpected;
  }
  churn.join();
  server.Stop();
  while (server.PollOnce(0, 4096, &got) > 0) {
  }

  EXPECT_EQ(got.size(), kExpected);
  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, kRounds * 3);
  EXPECT_EQ(stats.records, kExpected);
  // Each mid-frame disconnect is one malformed frame, and none of
  // them poisoned a *parsing* stream (the abort is an EOF, not a
  // corrupt byte fed to the decoder).
  EXPECT_GE(stats.malformed_frames, kRounds);
  EXPECT_EQ(stats.active, 0u);
  // Per-loop adoption accounting covers every kept connection.
  uint64_t adopted = 0;
  for (const WireLoopStats& ls : stats.per_loop) {
    adopted += ls.accepted;
  }
  EXPECT_EQ(adopted, stats.accepted);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.wakeups, 0u);
}

// Determinism parity across loop counts and transports: the same
// multi-client replay through 1, 2, and 4 loops, over TCP and over UDS
// (loop 0 accepts both and hands connections out), must produce frames
// bitwise identical to each series' sequential reference. One
// connection = one loop = one decoder, and the output queue is FIFO,
// so loop count must never reorder a connection's records.
TEST(WireServerTest, MultiLoopDemuxParityMatchesSequentialReference) {
  const size_t kClients = 4;
  const size_t kPointsPerClient = 2000;

  enum class Transport { kTcp, kUds };
  for (Transport transport : {Transport::kTcp, Transport::kUds}) {
    for (size_t loops : {size_t{1}, size_t{2}, size_t{4}}) {
      stream::ShardedEngineOptions engine_options;
      engine_options.shards = 2;
      stream::ShardedEngine engine =
          stream::ShardedEngine::Create(FleetOptions(), engine_options)
              .ValueOrDie();

      WireServerOptions server_options;
      server_options.num_event_loops = loops;
      const std::string uds_path = TestUdsPath("demux");
      if (transport == Transport::kUds) {
        server_options.enable_tcp = false;
        server_options.uds_path = uds_path;
      }
      WireServer server =
          WireServer::Create(server_options, engine.catalog()).ValueOrDie();
      const uint16_t port = server.tcp_port();

      std::atomic<size_t> connected{0};
      std::vector<std::thread> clients;
      for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([c, port, transport, &uds_path, &connected] {
          SeriesCatalog sender;
          const stream::SeriesId id = sender.Intern(HostName(c));
          WireClientOptions client_options;
          client_options.catalog = &sender;
          client_options.encoding =
              c % 2 == 0 ? WireEncoding::kBinary : WireEncoding::kText;
          Result<WireClient> connect =
              transport == Transport::kUds
                  ? WireClient::ConnectUds(uds_path, client_options)
                  : WireClient::ConnectTcp("127.0.0.1", port, client_options);
          WireClient client = std::move(connect).ValueOrDie();
          connected.fetch_add(1);
          while (connected.load() < kClients) {
            std::this_thread::yield();
          }
          RecordBatch records;
          for (double x : FleetSeries(c, kPointsPerClient)) {
            records.push_back(Record{id, x});
          }
          ASSERT_TRUE(client.Send(records).ok());
          ASSERT_TRUE(client.Flush().ok());
        });
      }

      NetMultiSource source(&server);
      const stream::FleetReport report = engine.RunToCompletion(&source);
      for (auto& t : clients) {
        t.join();
      }

      EXPECT_EQ(report.points, kClients * kPointsPerClient);
      EXPECT_EQ(report.series, kClients);
      for (size_t c = 0; c < kClients; ++c) {
        StreamingAsap direct =
            StreamingAsap::Create(FleetOptions()).ValueOrDie();
        direct.PushBatch(FleetSeries(c, kPointsPerClient));
        ASSERT_NE(engine.Snapshot(HostName(c)), nullptr) << HostName(c);
        EXPECT_EQ(engine.Snapshot(HostName(c))->series,
                  direct.frame().series)
            << "transport=" << static_cast<int>(transport)
            << " loops=" << loops << " " << HostName(c);
      }

      const WireServerStats stats = server.stats();
      ASSERT_EQ(stats.per_loop.size(), loops);
      uint64_t handoffs = 0;
      for (const WireLoopStats& ls : stats.per_loop) {
        handoffs += ls.handoffs;
      }
      if (loops > 1) {
        // Loop 0 spreads connections by mailbox.
        EXPECT_GT(handoffs, 0u)
            << "transport=" << static_cast<int>(transport)
            << " loops=" << loops;
      }
    }
  }
}

// Loop 0 accepts every connection and deals them out round-robin,
// itself included: k x loops held-open connections land exactly k on
// each loop, every one on loops != 0 through the mailbox.
TEST(WireServerTest, HandoffSpreadsConnectionsRoundRobin) {
  const size_t kPerLoop = 3;
  for (size_t loops : {size_t{2}, size_t{4}}) {
    SeriesCatalog catalog;
    WireServerOptions server_options;
    server_options.num_event_loops = loops;
    WireServer server =
        WireServer::Create(server_options, &catalog).ValueOrDie();
    server.Start();

    std::vector<Socket> held;
    for (size_t c = 0; c < kPerLoop * loops; ++c) {
      held.push_back(ConnectTcp("127.0.0.1", server.tcp_port()).ValueOrDie());
    }
    // Adoption through a mailbox completes on the target loop's next
    // turn; wait until every connection has an owner.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    WireServerStats stats = server.stats();
    for (;;) {
      uint64_t owned = 0;
      for (const WireLoopStats& ls : stats.per_loop) {
        owned += ls.accepted;
      }
      if (owned == kPerLoop * loops) {
        break;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "loops=" << loops << ": " << owned << " connections owned";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      stats = server.stats();
    }

    ASSERT_EQ(stats.per_loop.size(), loops);
    uint64_t accepted = 0;
    for (size_t i = 0; i < loops; ++i) {
      const WireLoopStats& ls = stats.per_loop[i];
      EXPECT_EQ(ls.accepted, kPerLoop) << "loops=" << loops << " loop " << i;
      EXPECT_EQ(ls.handoffs, i == 0 ? 0u : kPerLoop)
          << "loops=" << loops << " loop " << i;
      accepted += ls.accepted;
    }
    EXPECT_EQ(accepted, stats.accepted);
    EXPECT_EQ(stats.active, kPerLoop * loops);
  }
}

TEST(WireServerTest, UdsRefusesToClobberANonSocketPath) {
  const std::string path = TestUdsPath("clobber");
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("precious data\n", f);
  std::fclose(f);

  SeriesCatalog catalog;
  WireServerOptions server_options;
  server_options.enable_tcp = false;
  server_options.uds_path = path;
  EXPECT_FALSE(WireServer::Create(server_options, &catalog).ok());
  // The file survived.
  f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  ::unlink(path.c_str());
}

// --- Low marks ---------------------------------------------------------

/// Timed panes two points wide on a one-tick-per-point clock.
StreamingOptions TimedOptions() {
  StreamingOptions options = FleetOptions();
  options.pane_epoch = 0;
  options.pane_width_ticks =
      static_cast<int64_t>(StreamingAsap::Create(options).ValueOrDie()
                               .pane_size());
  return options;
}

/// The engine's sequencer instruments, summed (or maxed) over shards.
struct SeqReadout {
  uint64_t emitted = 0;
  double buffered = 0.0;
  double floor_lag_max = 0.0;
};

SeqReadout ReadSequencers(const telemetry::MetricsRegistry& registry) {
  SeqReadout r;
  for (const auto& entry : registry.Entries()) {
    if (entry.spec.name == "asap_seq_emitted_total" && entry.counter) {
      r.emitted += entry.counter->Value();
    } else if (entry.spec.name == "asap_seq_buffered" && entry.gauge) {
      r.buffered += entry.gauge->Value();
    } else if (entry.spec.name == "asap_seq_floor_lag_ticks" && entry.gauge) {
      r.floor_lag_max = std::max(r.floor_lag_max, entry.gauge->Value());
    }
  }
  return r;
}

/// Waits until every one of `sent` records has reached a sequencer
/// (released or staged); false after 10 s.
bool WaitStaged(const telemetry::MetricsRegistry& registry, uint64_t sent,
                SeqReadout* out) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    *out = ReadSequencers(registry);
    if (out->emitted + static_cast<uint64_t>(out->buffered) == sent) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Waits until exactly `n` connections are open; false after 10 s.
/// Collectors wait for each other's accept before sending, so none of
/// them first connects behind a floor the others already released.
bool WaitActive(const WireServer& server, size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.active_connections() != n) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// A timed UDS rig: engine with a sequencer, server, and collectors
/// whose series i belongs to collector i % collectors, point j of every
/// series at ts j. The engine runs on its own thread.
struct TimedRig {
  TimedRig(const char* tag, size_t shards, size_t loops, int64_t horizon,
           size_t collectors, size_t series)
      : uds_path(TestUdsPath(tag)), series_count(series) {
    stream::ShardedEngineOptions engine_options;
    engine_options.shards = shards;
    engine_options.sequencer_horizon_ticks = horizon;
    engine.emplace(
        stream::ShardedEngine::Create(TimedOptions(), engine_options)
            .ValueOrDie());
    WireServerOptions server_options;
    server_options.enable_tcp = false;
    server_options.uds_path = uds_path;
    server_options.num_event_loops = loops;
    server.emplace(
        WireServer::Create(server_options, engine->catalog()).ValueOrDie());
    server->Start();
    for (size_t i = 0; i < series; ++i) {
      ids.push_back(sender.Intern(HostName(i)));
    }
    WireClientOptions client_options;
    client_options.catalog = &sender;
    client_options.timestamped = true;
    for (size_t c = 0; c < collectors; ++c) {
      // Alternate encodings: 0xA7 frames and three-token text lines.
      client_options.encoding =
          c % 2 == 0 ? WireEncoding::kBinary : WireEncoding::kText;
      clients.push_back(
          WireClient::ConnectUds(uds_path, client_options).ValueOrDie());
    }
    accepted = WaitActive(*server, collectors);
    source.emplace(&*server);
    runner = std::thread([this] { report = engine->RunToCompletion(&*source); });
  }

  double Value(size_t i, int64_t j) const {
    return values[i][static_cast<size_t>(j)];
  }

  /// Collector c's records for points [from, to) of each of its
  /// series, in time order.
  RecordBatch Points(size_t c, int64_t from, int64_t to) const {
    RecordBatch batch;
    for (int64_t j = from; j < to; ++j) {
      for (size_t i = c; i < series_count; i += clients.size()) {
        batch.push_back(Record{ids[i], Value(i, j), j});
      }
    }
    return batch;
  }

  /// Collector c sends points [from, to) of each of its series.
  void Send(size_t c, int64_t from, int64_t to) {
    SendBatch(c, Points(c, from, to));
  }

  void SendBatch(size_t c, const RecordBatch& batch) {
    ASSERT_TRUE(clients[c].Send(batch).ok());
    ASSERT_TRUE(clients[c].Flush().ok());
    sent += batch.size();
  }

  stream::FleetReport Finish() {
    for (WireClient& client : clients) {
      client.Close();
    }
    runner.join();
    return report;
  }

  /// Each series' frame equals a lone operator fed points [0, n) in
  /// time order.
  void ExpectFramesMatch(int64_t n) const {
    for (size_t i = 0; i < series_count; ++i) {
      std::vector<int64_t> ts;
      for (int64_t j = 0; j < n; ++j) {
        ts.push_back(j);
      }
      StreamingAsap direct = StreamingAsap::Create(TimedOptions()).ValueOrDie();
      direct.PushTimed(values[i].data(), ts.data(), static_cast<size_t>(n));
      const auto frame = engine->Snapshot(HostName(i));
      ASSERT_NE(frame, nullptr) << HostName(i);
      EXPECT_EQ(frame->series, direct.frame().series) << HostName(i);
      EXPECT_EQ(frame->refreshes, direct.frame().refreshes) << HostName(i);
    }
  }

  std::string uds_path;
  size_t series_count;
  std::optional<stream::ShardedEngine> engine;
  std::optional<WireServer> server;
  SeriesCatalog sender;
  std::vector<stream::SeriesId> ids;
  std::vector<std::vector<double>> values;
  std::vector<WireClient> clients;
  bool accepted = false;
  std::optional<NetMultiSource> source;
  std::thread runner;
  stream::FleetReport report;
  uint64_t sent = 0;
};

// Two timed collectors, B one step behind A, under a horizon longer
// than the whole replay: without marks nothing would leave the
// sequencer before end of stream. With them, release follows B, no
// record is late, and frames are bitwise the in-order reference.
TEST(WireServerLowMarkTest, LaggingCollectorsReleaseEarlyAndLateFree) {
  constexpr size_t kSeries = 8;
  constexpr int64_t kSteps = 40;
  constexpr int64_t kStep = 50;  // ticks per send
  constexpr int64_t kPoints = kSteps * kStep;
  for (size_t shards : {size_t{1}, size_t{2}}) {
    for (size_t loops : {size_t{1}, size_t{2}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " loops=" + std::to_string(loops));
      TimedRig rig("lowmark", shards, loops, /*horizon=*/1'000'000,
                   /*collectors=*/2, kSeries);
      ASSERT_TRUE(rig.accepted);
      for (size_t i = 0; i < kSeries; ++i) {
        rig.values.push_back(FleetSeries(i, kPoints));
      }
      double peak_buffered = 0.0;
      for (int64_t k = 0; k <= kSteps; ++k) {
        if (k < kSteps) {
          rig.Send(0, k * kStep, (k + 1) * kStep);
        }
        if (k >= 1) {
          rig.Send(1, (k - 1) * kStep, k * kStep);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        peak_buffered = std::max(peak_buffered,
                                 ReadSequencers(*rig.engine->metrics()).buffered);
      }
      SeqReadout before_close;
      ASSERT_TRUE(WaitStaged(*rig.engine->metrics(), rig.sent, &before_close));
      const stream::FleetReport report = rig.Finish();

      EXPECT_EQ(report.late, 0u);
      EXPECT_EQ(report.points, rig.sent);
      EXPECT_EQ(report.series, kSeries);
      // A horizon's worth is the whole replay (16000 records). Marks
      // keep about two steps of it staged; a loaded machine can add one
      // engine pull (a server batch larger than the pull is marked only
      // once the rest of it is pulled), hence the looser sampled bound.
      EXPECT_LT(peak_buffered, static_cast<double>(rig.sent) / 2);
      EXPECT_LT(before_close.buffered, static_cast<double>(rig.sent) / 8);
      EXPECT_LT(before_close.floor_lag_max, 1'000'000.0);
      rig.ExpectFramesMatch(kPoints);
    }
  }
}

// A collector that is connected but holds its data back — silent from
// the start, or stopped mid-stream — holds release back to the
// horizon: records still leave once the horizon passes them, never
// later. Once it closes, it leaves the minimum and the next batch
// releases everything older than the live collector's newest record.
TEST(WireServerLowMarkTest, StalledCollectorLeavesReleaseToTheHorizon) {
  constexpr int64_t kHorizon = 200;
  constexpr int64_t kPoints = 1001;
  for (bool silent : {true, false}) {
    for (size_t loops : {size_t{1}, size_t{2}}) {
      SCOPED_TRACE(std::string(silent ? "silent" : "mid-stream") +
                   " loops=" + std::to_string(loops));
      TimedRig rig("stall", /*shards=*/1, loops, kHorizon,
                   /*collectors=*/2, /*series=*/2);
      ASSERT_TRUE(rig.accepted);
      for (size_t i = 0; i < 2; ++i) {
        rig.values.push_back(FleetSeries(i, kPoints));
      }
      // B (series 1) sends [0, 100) unless silent, then stalls; A
      // (series 0) runs on to 999.
      const int64_t b_sent = silent ? 0 : 100;
      if (!silent) {
        rig.Send(0, 0, 100);
        rig.Send(1, 0, b_sent);
        // B's records must be staged before A runs a horizon ahead, or
        // a loaded machine could make them late by the horizon rule.
        SeqReadout staged;
        ASSERT_TRUE(WaitStaged(*rig.engine->metrics(), rig.sent, &staged));
      }
      for (int64_t j = silent ? 0 : 100; j < 1000; j += 100) {
        rig.Send(0, j, j + 100);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      SeqReadout held;
      ASSERT_TRUE(WaitStaged(*rig.engine->metrics(), rig.sent, &held));
      // Watermark 999: the horizon releases ts <= 799 of A, and B's
      // stalled mark (99, or none) adds nothing.
      EXPECT_EQ(held.emitted, static_cast<uint64_t>(800 + b_sent));
      EXPECT_EQ(held.floor_lag_max, static_cast<double>(kHorizon));

      // B closes; A's next record carries a mark of 1000.
      rig.clients[1].Close();
      ASSERT_TRUE(WaitActive(*rig.server, 1));
      rig.Send(0, 1000, 1001);
      SeqReadout released;
      ASSERT_TRUE(WaitStaged(*rig.engine->metrics(), rig.sent, &released));
      EXPECT_EQ(released.emitted, static_cast<uint64_t>(1000 + b_sent));
      EXPECT_EQ(released.floor_lag_max, 1.0);

      const stream::FleetReport report = rig.Finish();
      EXPECT_EQ(report.late, 0u);
      EXPECT_EQ(report.points, rig.sent);
    }
  }
}

// A collector that shuffles its records within the horizon breaks the
// timed-connection promise in its first frame. It then gives no mark,
// so release falls back to the horizon, which absorbs the shuffle:
// nothing is late and frames are the in-order reference. Covers the
// binary (collector 0) and text (collector 1) wire forms.
TEST(WireServerLowMarkTest, ShuffledCollectorFallsBackToTheHorizon) {
  constexpr size_t kSeries = 4;
  constexpr int64_t kSteps = 40;
  constexpr int64_t kStep = 50;  // ticks per send
  constexpr int64_t kPoints = kSteps * kStep;
  constexpr int64_t kHorizon = 1000;
  for (size_t shuffler : {size_t{0}, size_t{1}}) {
    SCOPED_TRACE("shuffler=" + std::to_string(shuffler));
    TimedRig rig("shuffle", /*shards=*/2, /*loops=*/1, kHorizon,
                 /*collectors=*/2, kSeries);
    ASSERT_TRUE(rig.accepted);
    for (size_t i = 0; i < kSeries; ++i) {
      rig.values.push_back(FleetSeries(i, kPoints));
    }
    // The shuffler's whole stream, shuffled in blocks of three sends:
    // a record moves at most three steps (150 ticks), and every send
    // holds records older than the last one of the send before it.
    RecordBatch shuffled = rig.Points(shuffler, 0, kPoints);
    const size_t per_send = shuffled.size() / kSteps;
    Pcg32 rng(shuffler + 7);
    for (size_t begin = 0; begin < shuffled.size(); begin += 3 * per_send) {
      const size_t end = std::min(shuffled.size(), begin + 3 * per_send);
      for (size_t k = end - 1; k > begin; --k) {
        std::swap(shuffled[k],
                  shuffled[begin + rng.NextBounded(
                                       static_cast<uint32_t>(k - begin + 1))]);
      }
    }
    const size_t steady = 1 - shuffler;
    for (int64_t k = 0; k <= kSteps; ++k) {
      if (k < kSteps) {
        rig.Send(steady, k * kStep, (k + 1) * kStep);
      }
      if (k >= 1) {
        const auto from = shuffled.begin() +
                          static_cast<ptrdiff_t>((k - 1) * per_send);
        rig.SendBatch(shuffler, RecordBatch(
                                    from, from + static_cast<ptrdiff_t>(
                                                     per_send)));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    SeqReadout held;
    EXPECT_TRUE(WaitStaged(*rig.engine->metrics(), rig.sent, &held));
    // No mark ever moved the floor: it trails the watermark by exactly
    // the horizon.
    EXPECT_EQ(held.floor_lag_max, static_cast<double>(kHorizon));
    const stream::FleetReport report = rig.Finish();
    EXPECT_EQ(report.late, 0u);
    EXPECT_EQ(report.points, rig.sent);
    rig.ExpectFramesMatch(kPoints);
  }
}

// At horizon 0 the mark is stripped and ignored: it never becomes a
// series, a point or a count, and every decoded record is a point.
TEST(WireServerLowMarkTest, ControlRecordNeverReachesTheFleet) {
  // The second horizon is wider than any skew a loaded machine can put
  // between the two connections, so only a mark can release early.
  for (int64_t horizon : {int64_t{0}, int64_t{1} << 20}) {
    SCOPED_TRACE("horizon=" + std::to_string(horizon));
    TimedRig rig("ctl", /*shards=*/2, /*loops=*/1, horizon,
                 /*collectors=*/2, /*series=*/4);
    ASSERT_TRUE(rig.accepted);
    for (size_t i = 0; i < 4; ++i) {
      rig.values.push_back(FleetSeries(i, 600));
    }
    for (int64_t j = 0; j < 600; j += 60) {
      rig.Send(0, j, j + 60);
      rig.Send(1, j, j + 60);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const stream::FleetReport report = rig.Finish();
    EXPECT_EQ(report.points, rig.server->stats().records);
    EXPECT_EQ(report.points, rig.sent);
    uint64_t shard_points = 0;
    for (const stream::ShardReport& sr : report.shards) {
      shard_points += sr.points;
    }
    EXPECT_EQ(shard_points, report.points);
    EXPECT_EQ(report.late, 0u);
    EXPECT_EQ(report.series, 4u);
    EXPECT_EQ(rig.engine->catalog()->size(), 4u);
    rig.ExpectFramesMatch(600);
  }
}

}  // namespace
}  // namespace net
}  // namespace asap
