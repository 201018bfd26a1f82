// Tests for the durable storage tier: CRC32C, the pane-block codec,
// WAL framing and torn-tail scanning, the DurableStore facade
// (append / compact / read / reopen), kill -9 crash recovery with
// bitwise parity against an uninterrupted run, and the engine hookup
// (ShardedEngineOptions::storage + ReplayIntoEngine + FleetView deep
// history).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/chunk_codec.h"
#include "storage/chunk_store.h"
#include "storage/crc32c.h"
#include "storage/posix_file.h"
#include "storage/recovery.h"
#include "storage/store.h"
#include "storage/wal.h"
#include "stream/fleet_view.h"
#include "stream/sharded_engine.h"
#include "stream/source.h"
#include "telemetry/exposition.h"
#include "telemetry/metrics.h"
#include "ts/generators.h"

namespace asap {
namespace storage {
namespace {

/// A self-deleting temp directory for one test.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    char tmpl[] = "/tmp/asap_storage_XXXXXX";
    const char* made = mkdtemp(tmpl);
    ASAP_CHECK(made != nullptr);
    path_ = std::string(made) + "/" + tag;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(
        std::filesystem::path(path_).parent_path(), ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

StoreOptions TestStoreOptions() {
  StoreOptions options;
  options.sync = SyncPolicy::kEveryBatch;
  options.background_maintenance = false;
  return options;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(Crc32cTest, MatchesKnownVectors) {
  // RFC 3720 check value for "123456789".
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // 32 zero bytes (iSCSI test vector).
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  // Masking must round-trip-ably differ from the raw CRC.
  EXPECT_NE(Crc32cMask(0xE3069283u), 0xE3069283u);
}

TEST(ChunkCodecTest, RoundTripsContiguousAndGappedIndices) {
  Pcg32 rng(42);
  for (const bool gapped : {false, true}) {
    std::vector<uint64_t> indices;
    std::vector<double> values;
    uint64_t idx = gapped ? 1000 : 0;
    for (size_t i = 0; i < 500; ++i) {
      indices.push_back(idx);
      idx += gapped ? 1 + rng.NextBounded(5) : 1;
      // Smooth-ish walk with occasional jumps, plus exact repeats
      // (the XOR same-value fast path).
      values.push_back(i % 7 == 0 && i > 0 ? values.back()
                                           : rng.Gaussian(100.0, 5.0));
    }
    std::string block;
    EncodePaneBlock(indices.data(), values.data(), indices.size(), &block);
    std::vector<uint64_t> out_idx;
    std::vector<double> out_val;
    ASSERT_TRUE(
        DecodePaneBlock(block.data(), block.size(), &out_idx, &out_val).ok());
    EXPECT_EQ(out_idx, indices);
    EXPECT_TRUE(BitwiseEqual(out_val, values));
  }
}

TEST(ChunkCodecTest, ContiguousEncoderMatchesGenericEncoder) {
  std::vector<double> values;
  Pcg32 rng(7);
  for (size_t i = 0; i < 257; ++i) {
    values.push_back(rng.Gaussian());
  }
  std::vector<uint64_t> indices(values.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    indices[i] = 90 + i;
  }
  std::string generic, contiguous;
  EncodePaneBlock(indices.data(), values.data(), values.size(), &generic);
  EncodeContiguousPaneBlock(90, values.data(), values.size(), &contiguous);
  EXPECT_EQ(generic, contiguous);
}

TEST(ChunkCodecTest, RoundTripsSpecialValues) {
  const std::vector<uint64_t> indices = {0, 1, 2, 3, 4, 5, 6};
  const std::vector<double> values = {
      0.0, -0.0, 1e308, -1e-308,
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(), 1.0};
  std::string block;
  EncodePaneBlock(indices.data(), values.data(), values.size(), &block);
  std::vector<uint64_t> out_idx;
  std::vector<double> out_val;
  ASSERT_TRUE(
      DecodePaneBlock(block.data(), block.size(), &out_idx, &out_val).ok());
  EXPECT_EQ(out_idx, indices);
  EXPECT_TRUE(BitwiseEqual(out_val, values));
}

TEST(ChunkCodecTest, RejectsTruncatedAndGarbageInputWithoutCrashing) {
  std::vector<uint64_t> indices = {5, 6, 7, 8};
  std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  std::string block;
  EncodePaneBlock(indices.data(), values.data(), 4, &block);
  // Every strict prefix must fail cleanly.
  for (size_t cut = 0; cut < block.size(); ++cut) {
    std::vector<uint64_t> oi;
    std::vector<double> ov;
    EXPECT_FALSE(DecodePaneBlock(block.data(), cut, &oi, &ov).ok())
        << "prefix of " << cut << " bytes decoded";
  }
  // Random garbage must fail cleanly too.
  Pcg32 rng(99);
  for (int round = 0; round < 50; ++round) {
    std::string garbage(8 + rng.NextBounded(64), '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.NextU32());
    }
    std::vector<uint64_t> oi;
    std::vector<double> ov;
    (void)DecodePaneBlock(garbage.data(), garbage.size(), &oi, &ov);
  }
}

TEST(WalTest, AppendScanRoundTripAcrossSegmentRolls) {
  TempDir dir("wal");
  ASSERT_TRUE(MakeDirs(dir.path()).ok());
  WalOptions options;
  options.sync = SyncPolicy::kNone;
  options.segment_bytes = 256;  // force frequent rolls
  std::vector<std::string> payloads;
  {
    auto wal = Wal::Open(dir.path(), 1, options);
    ASSERT_TRUE(wal.ok());
    Pcg32 rng(3);
    for (int i = 0; i < 50; ++i) {
      std::string p(1 + rng.NextBounded(80), '\0');
      for (char& c : p) {
        c = static_cast<char>(rng.NextU32());
      }
      payloads.push_back(p);
      ASSERT_TRUE((*wal)->Append(p.data(), p.size()).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
    EXPECT_GT((*wal)->SealedSeqs().size(), 0u);
  }
  std::vector<std::string> scanned;
  WalScanStats stats;
  ASSERT_TRUE(ScanWal(dir.path(), 1,
                      [&](uint32_t, const char* p, size_t n) {
                        scanned.emplace_back(p, n);
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(scanned, payloads);
  EXPECT_FALSE(stats.tail_truncated);
  EXPECT_EQ(stats.frames, payloads.size());
  EXPECT_GT(stats.segments, 1u);
}

TEST(WalTest, SegmentRollFsyncsAreTimedAndCounted) {
  // Even with no sync policy, every roll seals the old segment and
  // creates the next one (file + directory entry): three fsyncs, each
  // of which must reach both fsync instruments.
  TempDir dir("wal_fsync");
  ASSERT_TRUE(MakeDirs(dir.path()).ok());
  telemetry::LatencyHistogram fsync_nanos;
  telemetry::Counter fsync_total;
  telemetry::Counter sealed_total;
  WalOptions options;
  options.sync = SyncPolicy::kNone;
  options.segment_bytes = 128;  // a roll every few appends
  options.fsync_nanos = &fsync_nanos;
  options.fsync_total = &fsync_total;
  options.segments_sealed_total = &sealed_total;
  {
    auto wal = Wal::Open(dir.path(), 1, options);
    ASSERT_TRUE(wal.ok());
    const std::string payload(40, 'p');
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE((*wal)->Append(payload.data(), payload.size()).ok());
    }
  }
  const uint64_t rolls = sealed_total.Value();
  ASSERT_GE(rolls, 5u);
  EXPECT_GE(fsync_total.Value(), 3 * rolls);
  EXPECT_EQ(fsync_nanos.TakeSnapshot().count, fsync_total.Value());
}

TEST(WalTest, ScanStopsCleanlyAtTornTail) {
  TempDir dir("wal_torn");
  ASSERT_TRUE(MakeDirs(dir.path()).ok());
  WalOptions options;
  options.sync = SyncPolicy::kNone;
  {
    auto wal = Wal::Open(dir.path(), 1, options);
    ASSERT_TRUE(wal.ok());
    const std::string a(40, 'a'), b(40, 'b');
    ASSERT_TRUE((*wal)->Append(a.data(), a.size()).ok());
    ASSERT_TRUE((*wal)->Append(b.data(), b.size()).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  // Tear the second frame: cut the segment mid-payload.
  const std::string seg = Wal::SegmentPath(dir.path(), 1);
  uint64_t size = 0;
  ASSERT_TRUE(FileSize(seg, &size).ok());
  ASSERT_TRUE(TruncateFile(seg, size - 17).ok());

  size_t frames = 0;
  WalScanStats stats;
  ASSERT_TRUE(ScanWal(dir.path(), 1,
                      [&](uint32_t, const char*, size_t) {
                        ++frames;
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(frames, 1u);
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_GT(stats.truncated_bytes, 0u);
}

TEST(WalTest, ShortWritesAreInvisibleToTheFrameStream) {
  // Cap every ::write at 5 bytes (the kernel is allowed to transfer
  // less than asked, and EINTR retries look the same): WriteFull must
  // loop until the frame is fully on disk, so a scan sees every frame
  // intact — short writes are a transport detail, never a tear.
  TempDir dir("wal_short");
  ASSERT_TRUE(MakeDirs(dir.path()).ok());
  SetWriteFaultInjection(/*max_bytes_per_write=*/5,
                         /*fail_after_total_bytes=*/-1);
  WalOptions options;
  options.sync = SyncPolicy::kNone;
  std::vector<std::string> payloads;
  {
    auto wal = Wal::Open(dir.path(), 1, options);
    ASSERT_TRUE(wal.ok());
    Pcg32 rng(11);
    for (int i = 0; i < 20; ++i) {
      std::string p(1 + rng.NextBounded(60), '\0');
      for (char& c : p) {
        c = static_cast<char>(rng.NextU32());
      }
      payloads.push_back(p);
      ASSERT_TRUE((*wal)->Append(p.data(), p.size()).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  SetWriteFaultInjection(0, -1);  // disarm
  std::vector<std::string> scanned;
  WalScanStats stats;
  ASSERT_TRUE(ScanWal(dir.path(), 1,
                      [&](uint32_t, const char* p, size_t n) {
                        scanned.emplace_back(p, n);
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(scanned, payloads);
  EXPECT_FALSE(stats.tail_truncated);
}

TEST(WalTest, InjectedMidFrameFailurePinsTruncationAtLastValidFrame) {
  // Kill the write() stream partway through a frame — short writes
  // followed by a hard failure, the torn bytes left on disk exactly as
  // a crash would leave them. The WAL must poison itself (every later
  // Append fails), and recovery must replay precisely the frames whose
  // Append returned OK, truncating at the last valid frame boundary.
  TempDir dir("wal_fault");
  ASSERT_TRUE(MakeDirs(dir.path()).ok());
  WalOptions options;
  options.sync = SyncPolicy::kNone;
  const std::string good(40, 'g');
  const size_t kGoodFrames = 10;
  const size_t frame_bytes = kWalFrameHeaderBytes + good.size();
  {
    auto wal = Wal::Open(dir.path(), 1, options);
    ASSERT_TRUE(wal.ok());
    for (size_t i = 0; i < kGoodFrames; ++i) {
      ASSERT_TRUE((*wal)->Append(good.data(), good.size()).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());

    // Next flush transfers 7+7+6 = 20 bytes — mid-payload — then
    // fails; the 20 torn bytes stay in the segment file.
    SetWriteFaultInjection(/*max_bytes_per_write=*/7,
                           /*fail_after_total_bytes=*/20);
    const std::string torn(40, 't');
    const Status failed = (*wal)->Append(torn.data(), torn.size());
    EXPECT_FALSE(failed.ok());
    SetWriteFaultInjection(0, -1);  // disarm
    // Poisoned: the WAL never pretends a later append is durable when
    // an earlier one vanished into a torn tail.
    EXPECT_FALSE((*wal)->Append(good.data(), good.size()).ok());
    EXPECT_FALSE((*wal)->Sync().ok());
  }
  SetWriteFaultInjection(0, -1);  // belt and braces (dtor flushes too)

  size_t frames = 0;
  WalScanStats stats;
  ASSERT_TRUE(ScanWal(dir.path(), 1,
                      [&](uint32_t, const char* p, size_t n) {
                        ++frames;
                        EXPECT_EQ(std::string(p, n), good);
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(frames, kGoodFrames);
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(stats.valid_end_offset,
            kWalSegmentHeaderBytes + kGoodFrames * frame_bytes);
  EXPECT_EQ(stats.truncated_bytes, 20u);
}

TEST(DurableStoreTest, RegistersAppendsReadsAndSurvivesReopen) {
  TempDir dir("store");
  std::vector<double> cpu = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> mem = {10.0, 20.0};
  {
    auto store = DurableStore::Open(dir.path(), TestStoreOptions());
    ASSERT_TRUE(store.ok());
    auto cpu_sid = (*store)->RegisterSeries("host-0/cpu");
    auto mem_sid = (*store)->RegisterSeries("host-0/mem");
    ASSERT_TRUE(cpu_sid.ok() && mem_sid.ok());
    // Re-registration returns the same sid.
    EXPECT_EQ((*store)->RegisterSeries("host-0/cpu").ValueOrDie(),
              cpu_sid.ValueOrDie());
    PaneRun runs[2] = {
        {cpu_sid.ValueOrDie(), cpu.data(), 4},
        {mem_sid.ValueOrDie(), mem.data(), 2},
    };
    ASSERT_TRUE((*store)->AppendPanes(runs, 2).ok());
    cpu.push_back(5.0);
    PaneRun more = {cpu_sid.ValueOrDie(), cpu.data() + 4, 1};
    ASSERT_TRUE((*store)->AppendPanes(&more, 1).ok());
    EXPECT_EQ((*store)->PaneCount(cpu_sid.ValueOrDie()), 5u);
  }
  // Reopen: everything must come back by name, from the WAL alone.
  auto store = DurableStore::Open(dir.path(), TestStoreOptions());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->series_count(), 2u);
  EXPECT_EQ((*store)->recovery().replayed_registrations, 2u);
  // Batches count per-series runs: the first append carried two runs,
  // the second one.
  EXPECT_EQ((*store)->recovery().replayed_pane_batches, 3u);
  EXPECT_FALSE((*store)->recovery().tail_truncated);
  const uint32_t cpu_sid = (*store)->FindSeries("host-0/cpu").ValueOrDie();
  const uint32_t mem_sid = (*store)->FindSeries("host-0/mem").ValueOrDie();
  EXPECT_EQ((*store)->NameOf(cpu_sid), "host-0/cpu");
  std::vector<double> out;
  ASSERT_TRUE((*store)->ReadPanes(cpu_sid, 0, 5, &out).ok());
  EXPECT_TRUE(BitwiseEqual(out, cpu));
  ASSERT_TRUE((*store)->ReadPanes(mem_sid, 0, 2, &out).ok());
  EXPECT_TRUE(BitwiseEqual(out, mem));
  // Sub-range read.
  ASSERT_TRUE((*store)->ReadPanes(cpu_sid, 2, 2, &out).ok());
  EXPECT_TRUE(BitwiseEqual(out, {3.0, 4.0}));
  // Past-the-end read is OutOfRange, not a crash.
  EXPECT_EQ((*store)->ReadPanes(cpu_sid, 0, 6, &out).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ((*store)->FindSeries("nope").status().code(),
            StatusCode::kNotFound);
}

TEST(DurableStoreTest, CompactionMovesTailIntoChunksAndPrunesWal) {
  TempDir dir("compact");
  Pcg32 rng(11);
  std::vector<double> means;
  for (int i = 0; i < 3000; ++i) {
    means.push_back(rng.Gaussian(50.0, 2.0));
  }
  StoreOptions options = TestStoreOptions();
  options.wal_segment_bytes = 4096;  // many sealed segments
  {
    auto store = DurableStore::Open(dir.path(), options);
    ASSERT_TRUE(store.ok());
    const uint32_t sid = (*store)->RegisterSeries("s").ValueOrDie();
    for (size_t i = 0; i < means.size(); i += 100) {
      PaneRun run = {sid, means.data() + i, 100};
      ASSERT_TRUE((*store)->AppendPanes(&run, 1).ok());
    }
    ASSERT_TRUE((*store)->CompactOnce(/*force=*/true).ok());
    // Reads stitch chunks + tail transparently.
    std::vector<double> out;
    ASSERT_TRUE((*store)->ReadPanes(sid, 0, means.size(), &out).ok());
    EXPECT_TRUE(BitwiseEqual(out, means));
    // Compaction must actually have dropped covered WAL segments.
    std::vector<std::string> names;
    ASSERT_TRUE(ListDir((*store)->dir() + "/wal", &names).ok());
    size_t wal_files = 0;
    for (const std::string& name : names) {
      wal_files += Wal::ParseSegmentFileName(name) != 0 ? 1 : 0;
    }
    EXPECT_LE(wal_files, 2u);
  }
  // Reopen after compaction: chunks + (short) WAL tail reassemble the
  // identical sequence.
  auto store = DurableStore::Open(dir.path(), options);
  ASSERT_TRUE(store.ok());
  const uint32_t sid = (*store)->FindSeries("s").ValueOrDie();
  ASSERT_EQ((*store)->PaneCount(sid), means.size());
  EXPECT_GT((*store)->recovery().chunk_panes, 0u);
  std::vector<double> out;
  ASSERT_TRUE((*store)->ReadPanes(sid, 0, means.size(), &out).ok());
  EXPECT_TRUE(BitwiseEqual(out, means));
  // Appending continues exactly where the durable count left off.
  const double extra = 123.0;
  PaneRun run = {sid, &extra, 1};
  ASSERT_TRUE((*store)->AppendPanes(&run, 1).ok());
  EXPECT_EQ((*store)->PaneCount(sid), means.size() + 1);
}

// The acceptance crash test: a child process ingests with
// kEveryBatch acks, then dies by SIGKILL with no shutdown path. The
// parent reopens the directory and must find every acked pane,
// bitwise identical to a run that was never interrupted.
TEST(DurableStoreTest, SigkillMidIngestRecoversAllAckedPanesBitwise) {
  TempDir crash_dir("crash");
  TempDir clean_dir("clean");
  constexpr size_t kBatches = 40;
  constexpr size_t kPerBatch = 25;

  const auto ingest = [&](const std::string& dir) {
    auto store = DurableStore::Open(dir, TestStoreOptions());
    ASAP_CHECK(store.ok());
    Pcg32 rng(2024);
    const uint32_t a = (*store)->RegisterSeries("crash/a").ValueOrDie();
    const uint32_t b = (*store)->RegisterSeries("crash/b").ValueOrDie();
    std::vector<double> batch(kPerBatch);
    for (size_t i = 0; i < kBatches; ++i) {
      for (double& v : batch) {
        v = rng.Gaussian();
      }
      PaneRun runs[2] = {{a, batch.data(), kPerBatch},
                         {b, batch.data(), kPerBatch / 5}};
      ASAP_CHECK((*store)->AppendPanes(runs, 2).ok());
    }
    return store;
  };

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: ingest, then die with no destructors, no flush, nothing.
    auto store = ingest(crash_dir.path());
    (void)store;
    raise(SIGKILL);
    _exit(127);  // unreachable
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  // The uninterrupted twin, closed cleanly.
  { auto store = ingest(clean_dir.path()); }

  auto crashed = DurableStore::Open(crash_dir.path(), TestStoreOptions());
  auto clean = DurableStore::Open(clean_dir.path(), TestStoreOptions());
  ASSERT_TRUE(crashed.ok());
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ((*crashed)->series_count(), (*clean)->series_count());
  for (uint32_t sid = 0; sid < (*clean)->series_count(); ++sid) {
    EXPECT_EQ((*crashed)->NameOf(sid), (*clean)->NameOf(sid));
    const uint64_t count = (*clean)->PaneCount(sid);
    // kEveryBatch acked every append before it returned, so the crash
    // may not have lost a single pane.
    ASSERT_EQ((*crashed)->PaneCount(sid), count);
    std::vector<double> got, want;
    ASSERT_TRUE((*crashed)->ReadPanes(sid, 0, count, &got).ok());
    ASSERT_TRUE((*clean)->ReadPanes(sid, 0, count, &want).ok());
    EXPECT_TRUE(BitwiseEqual(got, want)) << "sid " << sid;
  }
}

StreamingOptions FleetSeriesOptions() {
  StreamingOptions options;
  options.resolution = 100;
  options.visible_points = 2000;  // pane size 20
  options.snapshot_ring_frames = 2;
  return options;
}

std::vector<double> FleetSeries(size_t index, size_t n) {
  Pcg32 rng(500 + index);
  return gen::Add(gen::Sine(n, 24.0 + 8.0 * (index % 5), 1.0),
                  gen::WhiteNoise(&rng, n, 0.3));
}

// End-to-end: ingest a fleet with storage wired in, restart into a
// fresh engine via ReplayIntoEngine(kFaithful), and require bitwise
// frame parity — series, chosen window, refresh counters, the lot.
TEST(StorageEngineTest, FaithfulReplayReproducesFramesBitwise) {
  TempDir dir("engine");
  constexpr size_t kSeries = 6;
  constexpr size_t kPoints = 3000;  // 150 panes, multiple of pane size

  std::vector<std::shared_ptr<const StreamingAsap::Frame>> live_frames(
      kSeries);
  {
    auto store = DurableStore::Open(dir.path(), TestStoreOptions());
    ASSERT_TRUE(store.ok());
    stream::ShardedEngineOptions engine_options;
    engine_options.shards = 3;
    engine_options.storage = store->get();
    auto engine =
        stream::ShardedEngine::Create(FleetSeriesOptions(), engine_options);
    ASSERT_TRUE(engine.ok());
    stream::InterleavingMultiSource source(engine->catalog());
    for (size_t i = 0; i < kSeries; ++i) {
      source.AddVector("host-" + std::to_string(i) + "/cpu",
                       FleetSeries(i, kPoints));
    }
    const stream::FleetReport report = engine->RunToCompletion(&source);
    EXPECT_EQ(report.points, kSeries * kPoints);
    for (size_t i = 0; i < kSeries; ++i) {
      live_frames[i] =
          engine->Snapshot("host-" + std::to_string(i) + "/cpu");
      ASSERT_NE(live_frames[i], nullptr);
      ASSERT_GT(live_frames[i]->refreshes, 0u);
    }
  }

  // "Restart": reopen the store, replay into a brand-new engine.
  auto store = DurableStore::Open(dir.path(), TestStoreOptions());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->series_count(), kSeries);
  auto engine =
      stream::ShardedEngine::Create(FleetSeriesOptions(), {});
  ASSERT_TRUE(engine.ok());
  auto report =
      ReplayIntoEngine(**store, &*engine, ReplayFidelity::kFaithful);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->series_restored, kSeries);
  EXPECT_EQ(report->series_skipped, 0u);
  for (size_t i = 0; i < kSeries; ++i) {
    const auto frame =
        engine->Snapshot("host-" + std::to_string(i) + "/cpu");
    ASSERT_NE(frame, nullptr);
    EXPECT_EQ(frame->refreshes, live_frames[i]->refreshes);
    EXPECT_EQ(frame->window, live_frames[i]->window);
    EXPECT_TRUE(BitwiseEqual(frame->series, live_frames[i]->series))
        << "series " << i;
  }
}

// Deep history: with the ring at 2 frames, History(name, many) must
// reach back through the store — and a full-depth request replays
// from pane zero, so its frames match the live ones bitwise.
TEST(StorageEngineTest, FleetViewHistoryExtendsPastTheSnapshotRing) {
  TempDir dir("deep");
  auto store = DurableStore::Open(dir.path(), TestStoreOptions());
  ASSERT_TRUE(store.ok());
  stream::ShardedEngineOptions engine_options;
  engine_options.shards = 2;
  engine_options.storage = store->get();
  auto engine =
      stream::ShardedEngine::Create(FleetSeriesOptions(), engine_options);
  ASSERT_TRUE(engine.ok());
  stream::InterleavingMultiSource source(engine->catalog());
  source.AddVector("deep/series", FleetSeries(0, 3000));
  (void)engine->RunToCompletion(&source);

  stream::FleetView view(&*engine);
  const auto ring = view.History("deep/series");
  ASSERT_EQ(ring.size(), 2u) << "ring depth is snapshot_ring_frames";

  const auto deep = view.History("deep/series", 1000);
  EXPECT_GT(deep.size(), ring.size());
  ASSERT_FALSE(deep.empty());
  // A request deeper than the whole history replays from pane 0 with
  // the live cadence and seed lineage: the newest reconstructed frame
  // is the live frame, bitwise.
  const auto live = view.Frame("deep/series");
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(deep.back()->refreshes, live->refreshes);
  EXPECT_EQ(deep.back()->window, live->window);
  EXPECT_TRUE(BitwiseEqual(deep.back()->series, live->series));
  // Frames are oldest-first and strictly ordered by refresh count.
  for (size_t i = 1; i < deep.size(); ++i) {
    EXPECT_LT(deep[i - 1]->refreshes, deep[i]->refreshes);
  }

  // DiffHistory deeper than the ring goes through the same path.
  const stream::HistoryDiff diff =
      view.DiffHistory("deep/series", deep.size() - 1);
  EXPECT_TRUE(diff.known);
  EXPECT_EQ(diff.frames_apart, deep.size() - 1);
  EXPECT_GT(diff.refreshes_apart, 1u);

  // Without a store, the same request clamps to the ring.
  auto bare = stream::ShardedEngine::Create(FleetSeriesOptions(), {});
  ASSERT_TRUE(bare.ok());
  stream::FleetView bare_view(&*bare);
  EXPECT_TRUE(bare_view.History("deep/series", 1000).empty());
}

TEST(StorageEngineTest, StoreTelemetryFamiliesRegister) {
  TempDir dir("metrics");
  telemetry::MetricsRegistry registry;
  StoreOptions options = TestStoreOptions();
  options.metrics = &registry;
  auto store = DurableStore::Open(dir.path(), options);
  ASSERT_TRUE(store.ok());
  const uint32_t sid = (*store)->RegisterSeries("m").ValueOrDie();
  const double v = 1.5;
  PaneRun run = {sid, &v, 1};
  ASSERT_TRUE((*store)->AppendPanes(&run, 1).ok());
  ASSERT_TRUE((*store)->CompactOnce(/*force=*/true).ok());
  const std::string text = telemetry::RenderPrometheus(registry);
  for (const char* family :
       {"asap_store_wal_append_seconds", "asap_store_fsync_seconds",
        "asap_store_compaction_seconds", "asap_store_wal_bytes_total",
        "asap_store_panes_total", "asap_store_batches_total",
        "asap_store_chunks_written_total", "asap_store_series"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
}

}  // namespace
}  // namespace storage
}  // namespace asap
