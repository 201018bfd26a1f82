// Stream sources: adapters that feed time series data into streaming
// operators. ASAP "can ingest and process raw data from time series
// databases as well as from visualization clients" (§2); sources are
// the ingestion half of that contract.

#ifndef ASAP_STREAM_SOURCE_H_
#define ASAP_STREAM_SOURCE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "stream/catalog.h"
#include "stream/record.h"
#include "ts/timeseries.h"

namespace asap {
namespace stream {

/// Pull-based source of raw points.
class Source {
 public:
  virtual ~Source() = default;

  /// Appends up to `max_points` new points to *out; returns the number
  /// appended (0 = exhausted).
  virtual size_t NextBatch(size_t max_points, std::vector<double>* out) = 0;

  /// Total points this source will ever produce (0 if unbounded).
  virtual size_t TotalPoints() const = 0;
};

/// Replays a fixed vector once.
class VectorSource : public Source {
 public:
  explicit VectorSource(std::vector<double> values);

  size_t NextBatch(size_t max_points, std::vector<double>* out) override;
  size_t TotalPoints() const override { return values_.size(); }

  void Rewind() { position_ = 0; }

 private:
  std::vector<double> values_;
  size_t position_ = 0;
};

/// Replays a vector cyclically until `total_points` have been emitted
/// (0 = endless) — used to stretch a dataset into an arbitrarily long
/// stream for throughput runs.
class LoopingSource : public Source {
 public:
  LoopingSource(std::vector<double> values, size_t total_points);

  size_t NextBatch(size_t max_points, std::vector<double>* out) override;
  size_t TotalPoints() const override { return total_points_; }

 private:
  std::vector<double> values_;
  size_t total_points_;
  size_t emitted_ = 0;
};

/// Pull-based source of *tagged* records — the multi-series ingestion
/// interface consumed by the sharded fleet engine. Contract: each
/// series' records appear in that series' stream order; records of
/// different series may interleave arbitrarily.
class MultiSource {
 public:
  virtual ~MultiSource() = default;

  /// Appends up to `max_records` data records to *out; returns the
  /// number of data records appended (0 = exhausted).
  ///
  /// Low marks: after its data records, a source that knows a *low
  /// mark* — no record older than it will follow — may append one
  /// control record {kLowMarkId, 0.0, mark}, and only when the mark
  /// has advanced since the last one it appended. The control record
  /// is not counted in the return value (so *out may grow by one more
  /// than it); the engine strips it before routing and hands the mark
  /// to its shard sequencers, which then release everything older
  /// without waiting out the horizon. The mark travels inside the
  /// batch so that wrappers forwarding only NextBatch carry it too.
  /// Sources that know no mark (every in-process source here) never
  /// append one; NetMultiSource does for timed wire connections.
  virtual size_t NextBatch(size_t max_records, RecordBatch* out) = 0;

  /// Total records this source will ever produce; 0 means unbounded
  /// or unknown (a member Source reporting 0 cannot be distinguished
  /// from one that happens to produce zero points).
  virtual size_t TotalPoints() const = 0;
};

/// Tags every point of a single-series Source with one named series —
/// lifts the existing sources (and anything built on them) into the
/// fleet world. The name is interned through `catalog` (normally the
/// engine's, via ShardedEngine::catalog()) at construction.
class TaggedSource : public MultiSource {
 public:
  TaggedSource(SeriesCatalog* catalog, std::string_view name,
               std::unique_ptr<Source> inner);

  size_t NextBatch(size_t max_records, RecordBatch* out) override;
  size_t TotalPoints() const override { return inner_->TotalPoints(); }

 private:
  SeriesId series_id_;
  std::unique_ptr<Source> inner_;
  std::vector<double> scratch_;
};

/// Round-robin interleaver over many (SeriesId, Source) pairs — models
/// a scrape cycle that visits every host once per interval. Each
/// NextBatch deals the budget across the series that are still live;
/// exhausted series drop out of the rotation. Per-series point order
/// is preserved, so fleet runs are refresh-for-refresh deterministic.
class InterleavingMultiSource : public MultiSource {
 public:
  /// Series names added below are interned through `catalog`
  /// (normally the engine's, via ShardedEngine::catalog()).
  explicit InterleavingMultiSource(SeriesCatalog* catalog);

  /// Registers a named series. Names must be unique across Add calls.
  void Add(std::string_view name, std::unique_ptr<Source> source);

  /// Convenience: registers a series replayed once from a vector
  /// (e.g. a dataset loader's values).
  void AddVector(std::string_view name, std::vector<double> values);

  /// Convenience: registers a series looped out to `total_points`
  /// (throughput runs over stretched datasets).
  void AddLooping(std::string_view name, std::vector<double> values,
                  size_t total_points);

  size_t NextBatch(size_t max_records, RecordBatch* out) override;
  size_t TotalPoints() const override;

  size_t series_count() const { return entries_.size(); }

  /// Stamps every emitted record with a synthetic uniform-rate
  /// timestamp: series point j carries ts = epoch + j * tick (a
  /// per-series sample clock — what a scrape loop at a fixed interval
  /// would produce). Call before the first NextBatch; tick must be
  /// >= 1. Default off: records carry ts = 0.
  void StampTimestamps(int64_t epoch, int64_t tick);

 private:
  struct Entry {
    SeriesId id;
    std::unique_ptr<Source> source;
    bool exhausted = false;
    int64_t emitted = 0;  // per-series sample index (timestamping)
  };

  SeriesCatalog* catalog_;
  std::vector<Entry> entries_;
  size_t cursor_ = 0;           // round-robin position
  size_t exhausted_count_ = 0;  // series that have run dry
  bool stamp_ = false;
  int64_t stamp_epoch_ = 0;
  int64_t stamp_tick_ = 1;
  std::vector<double> scratch_;
};

/// Materializes the round-robin scrape order over per-series payloads
/// into one RecordBatch — the same per-series order
/// InterleavingMultiSource emits. `names[i]` is payload i's series
/// name, interned through `catalog` in index order. Wire tests,
/// benches, and demos replay this batch over a socket to compare
/// against in-process ingestion.
RecordBatch InterleaveToRecords(
    SeriesCatalog* catalog, const std::vector<std::string>& names,
    const std::vector<std::vector<double>>& series);

/// InterleaveToRecords with uniform-rate timestamps: series i's point
/// j carries ts = epoch + j * tick (tick >= 1), the same per-series
/// sample clock InterleavingMultiSource::StampTimestamps stamps — so
/// a wire replay of this batch compares bitwise against an in-process
/// run over the stamped source.
RecordBatch InterleaveToRecordsTimed(
    SeriesCatalog* catalog, const std::vector<std::string>& names,
    const std::vector<std::vector<double>>& series, int64_t epoch,
    int64_t tick);

}  // namespace stream
}  // namespace asap

#endif  // ASAP_STREAM_SOURCE_H_
