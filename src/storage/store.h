// DurableStore: the facade the engine and query tiers talk to.
//
// It composes the WAL (durability frontier) and the ChunkStore
// (compacted history) behind one invariant: for every series, the
// durable pane sequence is
//
//     [ chunks: panes 0 .. tail_base )  [ tail: in-memory + WAL ]
//
// Appends land in the in-memory tail and the WAL; compaction moves a
// tail prefix into a chunk, publishes a manifest whose
// `wal_floor_seq` makes the covered WAL segments redundant, then
// deletes them. Reads stitch chunk blocks and the tail back together.
//
// Identity: the store owns a stable, dense series-id space keyed by
// name. Engine catalog ids are assigned in nondeterministic intern
// order across restarts, so nothing durable ever records one — the
// store id is allocated on first registration, logged to the WAL, and
// persisted in the manifest name table; recovery rebuilds the mapping
// by name.
//
// Pane semantics: a pane is identified by its index (position in the
// series' pane sequence) and carries its mean — exactly what the ASAP
// smoothing pipeline consumes (§6 pre-aggregation). `AppendPanes`
// assigns indices implicitly: each run's panes continue the series'
// current durable count, which makes replay idempotent (a batch whose
// range is already covered is a duplicate and is skipped).

#ifndef ASAP_STORAGE_STORE_H_
#define ASAP_STORAGE_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/chunk_store.h"
#include "storage/wal.h"

namespace asap {
namespace telemetry {
class MetricsRegistry;
}  // namespace telemetry

namespace storage {

struct StoreOptions {
  SyncPolicy sync = SyncPolicy::kInterval;
  double sync_interval_seconds = 0.05;
  size_t wal_segment_bytes = 16u << 20;
  /// Start a background thread that enforces the kInterval sync
  /// deadline during idle periods and triggers compaction.
  bool background_maintenance = true;
  double maintenance_interval_seconds = 0.25;
  /// Registers the asap_store_* instrument family when non-null.
  telemetry::MetricsRegistry* metrics = nullptr;
};

/// What recovery found and did during Open().
struct RecoveryReport {
  uint64_t chunk_series = 0;       ///< series present in the manifest
  uint64_t chunk_panes = 0;        ///< panes recovered from chunks
  uint64_t wal_segments = 0;       ///< segment files scanned
  uint64_t wal_frames = 0;         ///< valid frames replayed
  uint64_t wal_bytes = 0;          ///< payload bytes replayed
  uint64_t replayed_registrations = 0;
  uint64_t replayed_pane_batches = 0;
  uint64_t replayed_panes = 0;
  uint64_t duplicate_pane_batches = 0;  ///< already covered by chunks
  uint64_t orphan_pane_batches = 0;     ///< unknown sid (skipped)
  uint64_t gap_pane_batches = 0;        ///< non-contiguous (skipped)
  bool tail_truncated = false;   ///< a torn/corrupt tail was cut off
  uint64_t truncated_bytes = 0;  ///< bytes discarded with it
};

/// One series' completed panes entering the store in one append.
struct PaneRun {
  uint32_t sid = 0;
  const double* values = nullptr;  ///< pane means, oldest first
  uint32_t count = 0;
};

class DurableStore {
 public:
  /// Opens (creating if needed) a store rooted at `dir`: loads the
  /// chunk manifest, replays the WAL tail (stopping cleanly at a torn
  /// frame and truncating it), and resumes appends on a fresh
  /// segment. The recovery report says what was found.
  static Result<std::unique_ptr<DurableStore>> Open(std::string dir,
                                                    StoreOptions options);

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;
  ~DurableStore();

  /// Returns the stable store id for `name`, registering (and
  /// WAL-logging) it on first sight. Thread-safe.
  Result<uint32_t> RegisterSeries(std::string_view name);

  /// Store id for an existing series; NotFound otherwise.
  Result<uint32_t> FindSeries(std::string_view name) const;

  /// Name for a store id (empty if out of range).
  std::string NameOf(uint32_t sid) const;

  size_t series_count() const;

  /// Appends completed panes. Each run's panes implicitly occupy
  /// indices [PaneCount(sid), PaneCount(sid) + count). OK means
  /// durable per the sync policy. Concurrent callers must not append
  /// to the same sid (the engine's shard partitioning guarantees it).
  Status AppendPanes(const PaneRun* runs, size_t run_count);

  /// Forces the WAL to disk regardless of policy.
  Status Sync();

  /// Compacts the pane tail into a chunk and prunes covered WAL
  /// segments. With force=false, no-ops unless enough sealed segments
  /// are waiting. Serialized internally; safe alongside appends.
  Status CompactOnce(bool force);

  /// Total durable panes for `sid` (chunks + tail).
  uint64_t PaneCount(uint32_t sid) const;

  /// Reads pane means [first, first + count) into *out (cleared
  /// first), stitching chunk blocks and the live tail. OutOfRange if
  /// the range extends past PaneCount.
  Status ReadPanes(uint32_t sid, uint64_t first, uint64_t count,
                   std::vector<double>* out) const;

  const RecoveryReport& recovery() const { return recovery_; }
  const std::string& dir() const { return dir_; }
  const StoreOptions& options() const { return options_; }

  /// Bytes accepted by the WAL since open (testing / benchmarks).
  uint64_t wal_appended_bytes() const { return wal_->appended_bytes(); }

 private:
  DurableStore(std::string dir, StoreOptions options);

  struct SeriesState {
    uint64_t tail_base = 0;      ///< panes covered by chunks
    std::vector<double> tail;    ///< means past tail_base
  };

  Status OpenInternal();
  Status ReplayWalFrame(const char* payload, size_t len);
  void RegisterMetrics();
  void MaintenanceLoop();

  /// Serialises a pane-batch WAL payload for `runs` with explicit
  /// first-pane indices (parallel array).
  static void EncodePaneBatch(const PaneRun* runs, const uint64_t* firsts,
                              size_t run_count, std::string* out);

  const std::string dir_;
  const StoreOptions options_;

  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> name_to_sid_;
  std::vector<SeriesState> series_;

  std::unique_ptr<ChunkStore> chunks_;
  std::unique_ptr<Wal> wal_;
  RecoveryReport recovery_;

  std::mutex compact_mu_;  ///< serializes compactions

  std::thread maintenance_;
  std::mutex maint_mu_;
  std::condition_variable maint_cv_;
  bool stopping_ = false;

  // Telemetry (shared_ptr keeps instruments alive; raw pointers in
  // WalOptions/ChunkStore::Options alias these).
  std::shared_ptr<telemetry::LatencyHistogram> append_nanos_;
  std::shared_ptr<telemetry::LatencyHistogram> fsync_nanos_;
  std::shared_ptr<telemetry::LatencyHistogram> compaction_nanos_;
  std::shared_ptr<telemetry::Counter> wal_bytes_total_;
  std::shared_ptr<telemetry::Counter> fsync_total_;
  std::shared_ptr<telemetry::Counter> segments_sealed_total_;
  std::shared_ptr<telemetry::Counter> panes_total_;
  std::shared_ptr<telemetry::Counter> batches_total_;
  std::shared_ptr<telemetry::Counter> compactions_total_;
  std::shared_ptr<telemetry::Counter> chunks_written_total_;
  std::shared_ptr<telemetry::Counter> chunk_bytes_total_;
  std::shared_ptr<telemetry::Counter> recovery_frames_total_;
  std::shared_ptr<telemetry::Counter> recovery_panes_total_;
  std::shared_ptr<telemetry::Counter> recovery_truncated_bytes_total_;
  std::shared_ptr<telemetry::Gauge> series_gauge_;
  std::shared_ptr<telemetry::Gauge> tail_panes_gauge_;
};

}  // namespace storage
}  // namespace asap

#endif  // ASAP_STORAGE_STORE_H_
