// The multi-series, multi-threaded fleet engine.
//
// A fleet stream of tagged records is hash-partitioned by series id
// across T worker shards. Each shard owns a SeriesRegistry (its slice
// of the fleet's StreamingAsap operators), fed through a bounded FIFO
// batch queue by the producer (the caller's thread, which pulls the
// MultiSource). Because one series always lands on one shard and each
// shard's queue is FIFO, every series sees its points in stream order
// no matter how many shards run — fleet results are refresh-for-
// refresh identical to running each series alone (determinism parity).
//
// Topology per run:
//
//   MultiSource --pull--> producer --hash(series_id)--> queue[0] -> shard 0
//                                                       queue[1] -> shard 1
//                                                       ...         ...
//
// Bounded queues give natural backpressure: a producer outrunning the
// shards blocks instead of buffering without limit. A source's in-band
// low mark (MultiSource::NextBatch) is stripped by the producer and
// rides each shard's queue behind that shard's records, so every
// shard sequencer sees the mark after the records it covers. Live dashboards
// read per-series frames through StreamingAsap's lock-free snapshots
// (ShardedEngine::Snapshot) while the run is in flight.

#ifndef ASAP_STREAM_SHARDED_ENGINE_H_
#define ASAP_STREAM_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/streaming_asap.h"
#include "stream/catalog.h"
#include "stream/engine.h"
#include "stream/record.h"
#include "stream/registry.h"
#include "stream/source.h"
#include "telemetry/metrics.h"

namespace asap {
namespace storage {
class DurableStore;
}  // namespace storage

namespace stream {

/// What the producer does when a shard queue is full.
enum class OverflowPolicy {
  /// Block until the shard drains a batch (lossless; a slow shard
  /// stalls the producer — and through it, e.g., a wire socket loop).
  kBlock,
  /// Drop the incoming batch and keep pumping (lossy; dropped record
  /// counts surface in ShardReport/FleetReport). For producers that
  /// must never stall, like a live ingestion socket.
  kDropNewest,
  /// Collapse the incoming batch into pane partials and merge it into
  /// the newest queued batch instead of dropping it: per series, each
  /// complete group of pane_size consecutive records becomes one
  /// record carrying the group mean (what the pane buffer would have
  /// averaged anyway, at coarser alignment), so the shard still sees
  /// the series' shape — ~pane_size× fewer records — and the producer
  /// never stalls. Conflated-away record counts surface in
  /// ShardReport/FleetReport. The merged batch is bounded: a consumer
  /// stalled so long that even collapsed records pile past a few
  /// nominal batches degrades to dropping the overflow (counted in
  /// `dropped`), keeping queued memory finite. Lossy in time
  /// resolution: partial-group boundaries follow batch arrival, not
  /// pane boundaries, so (like kDropNewest) determinism parity is
  /// forfeited under overflow.
  kConflate,
};

/// Fleet engine configuration.
struct ShardedEngineOptions {
  /// Worker threads; series are hash-partitioned across them.
  size_t shards = 1;

  /// Records pulled from the MultiSource per producer pump.
  size_t batch_size = 4096;

  /// In-flight batches buffered per shard before overflow_policy
  /// applies (backpressure bound).
  size_t queue_capacity = 16;

  /// Full-queue behavior. Note kDropNewest forfeits determinism
  /// parity: which records drop depends on shard timing.
  OverflowPolicy overflow_policy = OverflowPolicy::kBlock;

  /// Reordering horizon of the per-shard sequencer (stream/
  /// sequencer.h), in the same ticks as Record::ts. 0 (the default)
  /// bypasses sequencing: batches reach the operators in arrival
  /// order, bitwise the pre-sequencer path. > 0 stages each shard's
  /// records and releases them in timestamp order once they age past
  /// the horizon — or sooner, once the source's in-band low mark
  /// (MultiSource::NextBatch) passes them, which timed wire collectors
  /// provide. Records older than what was already released, or more
  /// than horizon ticks older than the newest timestamp seen, are
  /// dropped as *late*, surfacing in ShardReport/FleetReport::late and
  /// asap_seq_late_total. Use with timed pane mode
  /// (StreamingOptions::pane_width_ticks > 0): a horizon of a few pane
  /// widths absorbs collector clock skew that would otherwise smear
  /// points across pane boundaries, and bounds how long a record waits
  /// on a silent collector.
  int64_t sequencer_horizon_ticks = 0;

  /// Registry the engine's asap_shard_* instruments register in.
  /// Null (the default) gives the engine a private registry — exact
  /// per-instance counts, reachable via metrics(). Inject a shared one
  /// (e.g. a process registry also holding the wire server's
  /// instruments) to scrape everything from one surface — which is
  /// also what SelfScrapeSource samples. Must outlive the engine.
  telemetry::MetricsRegistry* metrics = nullptr;

  /// Durable tier hookup. When non-null, every pane a shard worker
  /// completes is appended to the store at batch granularity: one
  /// DurableStore::AppendPanes call per drained batch, covering all
  /// series the batch touched (the store's WAL group-commits them in
  /// one frame). Series register in the store by *name* on first
  /// sight, so the durable identity survives restarts even though
  /// catalog ids are assigned in arrival order. Must outlive the
  /// engine. Null (the default) keeps the engine memory-only.
  storage::DurableStore* storage = nullptr;
};

/// Per-shard slice of a fleet run.
struct ShardReport {
  size_t shard = 0;
  /// Records this shard consumed during the run.
  uint64_t points = 0;
  /// Batches dequeued during the run.
  uint64_t batches = 0;
  /// Lifetime refreshes across this shard's series (mirrors
  /// RunReport::refreshes semantics).
  uint64_t refreshes = 0;
  /// Distinct series resident in this shard's registry.
  size_t series = 0;
  /// Deepest the shard's queue got during the run — a backpressure
  /// indicator (== queue_capacity means the producer blocked or, under
  /// kDropNewest, dropped).
  size_t peak_queue_depth = 0;
  /// Records dropped at this shard's full queue (kDropNewest, or
  /// kConflate's stalled-consumer backstop; always 0 under kBlock).
  uint64_t dropped = 0;
  /// Records conflated away at this shard's full queue (kConflate
  /// only): collapsed into pane-partial means instead of reaching the
  /// operator individually.
  uint64_t conflated = 0;
  /// Records the sequencer dropped as late (timestamp more than the
  /// reordering horizon behind the newest seen, or behind the floor a
  /// low mark released; always 0 when sequencer_horizon_ticks == 0).
  uint64_t late = 0;
  /// Wall time the worker spent consuming batches (vs waiting).
  double busy_seconds = 0.0;
};

/// Per-series slice of a fleet run (lifetime counters).
struct SeriesReport {
  /// The series' catalog name (e.g. "host-07/cpu").
  std::string name;
  uint64_t points = 0;
  uint64_t refreshes = 0;
  /// Final chosen SMA window in panes.
  size_t window = 1;
  /// This series' records dropped as late by the shard sequencer.
  /// (A series whose every record was late never reaches a registry
  /// and gets no SeriesReport row; its drops still count in the shard
  /// and fleet totals.)
  uint64_t late = 0;
};

/// Aggregate result of one fleet run.
struct FleetReport {
  /// Records pulled from the source during the run (includes any that
  /// were then dropped at a full queue).
  uint64_t points = 0;
  /// Records dropped across all shards (kDropNewest or kConflate's
  /// backstop); pulled records that never reached an operator.
  uint64_t dropped = 0;
  /// Records conflated away across all shards (kConflate only).
  uint64_t conflated = 0;
  /// Records dropped as late across all shard sequencers. Every
  /// pulled record lands in exactly one bucket:
  ///   points == sum(shards[i].points) + dropped + conflated + late.
  uint64_t late = 0;
  double seconds = 0.0;
  double points_per_second = 0.0;
  /// Sum of lifetime refreshes across all series.
  uint64_t refreshes = 0;
  /// Distinct series across all shards.
  size_t series = 0;
  std::vector<ShardReport> shards;
  /// Sorted by series name.
  std::vector<SeriesReport> per_series;
};

/// The kConflate collapse, exposed for tests. Records are stably
/// grouped by series (per-series order preserved); within a series,
/// pane_width_ticks == 0 collapses every complete run of `pane_size`
/// consecutive records to one record carrying the group mean (a
/// trailing short group passes through raw), while pane_width_ticks
/// > 0 is *pane-aware*: consecutive records of one series that fall
/// in the same time bucket (floor((ts - pane_epoch) /
/// pane_width_ticks)) collapse to one record carrying the group mean
/// and the group's first timestamp — groups never straddle a pane
/// boundary, so collapse cannot smear values across panes the way
/// count-based grouping does under timestamped input. Singleton
/// groups pass through raw. Lossy in weighting either way (a
/// collapsed group re-enters the pane sum with weight 1).
RecordBatch ConflatePanePartials(RecordBatch batch, size_t pane_size,
                                 int64_t pane_epoch,
                                 int64_t pane_width_ticks);

/// Drives a MultiSource through hash-sharded per-series StreamingAsap
/// operators on T worker threads. Registries persist across runs, so
/// an engine can alternate Run calls with live Snapshot reads the way
/// a dashboard alternates ingest and render.
///
/// The engine owns the fleet's SeriesCatalog: sources and the wire
/// tier construct against `catalog()` so every series is a *name* end
/// to end; internal SeriesIds never cross the public surface. Read
/// queries (per-name frames, top-k, cross-series rollups) go through
/// FleetView (stream/fleet_view.h).
class ShardedEngine {
 public:
  /// Validates both option structs (series options must satisfy
  /// StreamingAsap::Create; shards/batch/queue must be >= 1).
  static Result<ShardedEngine> Create(
      const StreamingOptions& series_options,
      const ShardedEngineOptions& engine_options = ShardedEngineOptions{});

  ShardedEngine(ShardedEngine&&) noexcept;
  ShardedEngine& operator=(ShardedEngine&&) noexcept;
  ~ShardedEngine();

  /// Pulls `source` to exhaustion through the fleet.
  FleetReport RunToCompletion(MultiSource* source);

  /// Stops pulling after `budget_seconds` of wall time (checked
  /// between batches); queued batches still drain.
  FleetReport RunForBudget(MultiSource* source, double budget_seconds);

  size_t shards() const;

  /// The fleet's name table. Stable across engine moves (held behind a
  /// shared_ptr), so sources and wire servers constructed against it
  /// stay valid. Interning is thread-safe.
  SeriesCatalog* catalog() const { return catalog_.get(); }

  /// The registry holding this engine's asap_shard_* and asap_query_*
  /// instruments: the injected ShardedEngineOptions::metrics, or the
  /// engine-private one. Stable across engine moves.
  telemetry::MetricsRegistry* metrics() const { return metrics_; }

  /// The shard a series id maps to (stable for the engine's lifetime).
  static size_t ShardOf(SeriesId id, size_t shard_count);

  /// Lock-free-published frame of one named series, safe to call from
  /// any thread while a run is in flight; nullptr if the name is
  /// unknown or no record of the series has reached a shard yet
  /// (before the first refresh the frame is empty: refreshes == 0).
  /// The returned frame is immutable — no copy is made to serve the
  /// read.
  std::shared_ptr<const StreamingAsap::Frame> Snapshot(
      std::string_view name) const;

  /// Id-keyed snapshot — implementation detail of the query tier
  /// (FleetView iterates the catalog's dense ids); application code
  /// should use Snapshot(name) or FleetView.
  std::shared_ptr<const StreamingAsap::Frame> SnapshotById(
      SeriesId id) const;

  /// Id-keyed snapshot-ring history (StreamingAsap::FrameHistory),
  /// oldest first; same thread-safety as SnapshotById. Like it, an
  /// implementation detail of FleetView::History.
  std::vector<std::shared_ptr<const StreamingAsap::Frame>>
  FrameHistoryById(SeriesId id) const;

  /// The durable store wired in via ShardedEngineOptions::storage
  /// (nullptr when the engine is memory-only). The query tier
  /// (FleetView) reaches chunked pane history through this.
  storage::DurableStore* storage() const { return options_.storage; }

  /// The per-series operator configuration in effect (what the query
  /// tier needs to rebuild frames from durable panes).
  const StreamingOptions& series_options() const { return series_options_; }

  /// Restores one recovered series: interns `name`, creates its
  /// operator on the owning shard, and replays `n` pane means as
  /// already-complete panes (see StreamingAsap::RestorePanes; the
  /// pane sink does NOT fire — the panes are already durable). The
  /// live refresh cadence is replayed so frames and the snapshot ring
  /// come out identical to an uninterrupted run. Only legal between
  /// runs.
  Status RestoreSeries(std::string_view name, const double* pane_means,
                       size_t n);

  /// Read access to one shard's series table. Contract: deep reads
  /// through the registry (iteration, frame() on operators) are
  /// unsynchronized against the shard worker, so they are only legal
  /// while no run is in flight — between Run calls, or before the
  /// first. Debug builds enforce this with a run-in-flight check;
  /// while a run is live, read frames through Snapshot instead.
  const SeriesRegistry& shard_registry(size_t shard) const;

 private:
  struct Shard;

  ShardedEngine(const StreamingOptions& series_options,
                const ShardedEngineOptions& engine_options);

  FleetReport Run(MultiSource* source, double budget_seconds);

  StreamingOptions series_options_;
  ShardedEngineOptions options_;
  /// Points per pane under series_options_ (uniform across the fleet:
  /// all operators share one options struct); the conflation group
  /// width for OverflowPolicy::kConflate.
  size_t pane_size_ = 1;
  std::shared_ptr<SeriesCatalog> catalog_;
  /// Owns the private registry when options_.metrics was null.
  std::shared_ptr<telemetry::MetricsRegistry> owned_metrics_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// True while Run is pumping/joining (heap-allocated so the engine
  /// stays movable); guards the shard_registry() contract above.
  std::shared_ptr<std::atomic<bool>> run_in_flight_;
};

}  // namespace stream
}  // namespace asap

#endif  // ASAP_STREAM_SHARDED_ENGINE_H_
