#include "stream/fleet_view.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/macros.h"
#include "common/task_pool.h"
#include "core/kernels.h"
#include "core/metrics.h"
#include "storage/store.h"

namespace asap {
namespace stream {

namespace {

// IEEE-754 total order on doubles (negative NaN < -inf < ... < +inf <
// positive NaN): the deterministic tie-breaker for columns containing
// NaN, where operator< is not a strict weak ordering.
uint64_t TotalOrderKey(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return (bits & (1ull << 63)) ? ~bits : (bits | (1ull << 63));
}

bool TotalOrderLess(double a, double b) {
  return TotalOrderKey(a) < TotalOrderKey(b);
}

// The band percentile ranks over a column of n values: the lo/hi
// order statistics of p50, p90, p99 under the inclusive linear
// interpolation definition (fractional rank = p/100 * (n-1), result
// always within [min, max] so bands bracket their members).
struct BandRanks {
  double r50, r90, r99;   // fractional ranks
  size_t idx[6];          // lo/hi statistic indices, ascending
};

BandRanks RanksFor(size_t n) {
  BandRanks r;
  const double m = static_cast<double>(n - 1);
  r.r50 = (50.0 / 100.0) * m;
  r.r90 = (90.0 / 100.0) * m;
  r.r99 = (99.0 / 100.0) * m;
  const size_t l50 = static_cast<size_t>(r.r50);
  const size_t l90 = static_cast<size_t>(r.r90);
  const size_t l99 = static_cast<size_t>(r.r99);
  r.idx[0] = l50;
  r.idx[1] = std::min(l50 + 1, n - 1);
  r.idx[2] = l90;
  r.idx[3] = std::min(l90 + 1, n - 1);
  r.idx[4] = l99;
  r.idx[5] = std::min(l99 + 1, n - 1);
  return r;
}

// Exact p50/p90/p99 of col[0..n) without sorting the whole column:
// one min/max pass, one linear 256-bucket histogram pass (values
// scaled into the [min, max] range), then only the buckets containing
// the six needed order statistics are collected and sorted. Selecting
// the k-th smallest element this way returns exactly the value
// std::sort + indexing would, so the result matches a sort-based
// rollup bitwise while doing a fraction of its work.
// Columns containing NaN fall back to a full sort under IEEE total
// order (deterministic where operator< is not).
//
// `col` is scratch (the gathered column), `bidx`/`pool` are reusable
// per-thread scratch buffers.
void SelectColumnPercentiles(const double* col, size_t n,
                             const kern::KernelTable& kt,
                             unsigned char* bidx, std::vector<double>* pool,
                             double* out50, double* out90, double* out99) {
  ASAP_DCHECK(n >= 1);
  if (n == 1) {
    *out50 = *out90 = *out99 = col[0];
    return;
  }
  const BandRanks ranks = RanksFor(n);
  double vals[6];
  const kern::ColumnMinMax mm = kt.column_minmax(col, n);
  if (mm.has_nan) {
    pool->assign(col, col + n);
    std::sort(pool->begin(), pool->end(), TotalOrderLess);
    for (int k = 0; k < 6; ++k) {
      vals[k] = (*pool)[ranks.idx[k]];
    }
  } else if (!(mm.max_v > mm.min_v)) {
    // Constant column (every order statistic is the one value).
    for (int k = 0; k < 6; ++k) {
      vals[k] = mm.min_v;
    }
  } else {
    unsigned int hist[256] = {0};
    const double scale = 255.0 / (mm.max_v - mm.min_v);
    kt.bucketize(col, n, mm.min_v, scale, bidx, hist);
    // The six statistic indices are not ascending in k for small n
    // (p90's hi index can exceed p99's lo index), so visit them in
    // rank order to keep the histogram walk monotone.
    int order[6] = {0, 1, 2, 3, 4, 5};
    std::sort(order, order + 6, [&ranks](int a, int b) {
      return ranks.idx[a] < ranks.idx[b];
    });
    size_t cum = 0;  // elements in buckets below b
    size_t b = 0;
    size_t loaded = static_cast<size_t>(-1);
    for (int kk = 0; kk < 6; ++kk) {
      const int k = order[kk];
      const size_t r = ranks.idx[k];
      while (cum + hist[b] <= r) {
        cum += hist[b];
        ++b;
      }
      if (b != loaded) {
        pool->clear();
        for (size_t i = 0; i < n; ++i) {
          if (bidx[i] == b) {
            pool->push_back(col[i]);
          }
        }
        std::sort(pool->begin(), pool->end());
        loaded = b;
      }
      vals[k] = (*pool)[r - cum];
    }
  }
  const double f50 = ranks.r50 - static_cast<double>(ranks.idx[0]);
  const double f90 = ranks.r90 - static_cast<double>(ranks.idx[2]);
  const double f99 = ranks.r99 - static_cast<double>(ranks.idx[4]);
  *out50 = vals[0] + f50 * (vals[1] - vals[0]);
  *out90 = vals[2] + f90 * (vals[3] - vals[2]);
  *out99 = vals[4] + f99 * (vals[5] - vals[4]);
}

}  // namespace

namespace {
constexpr const char* kQueryKindNames[] = {
    "sample",    "sample_glob", "topk_roughness", "aggregate",
    "bands",     "anomalies",   "diff_history",   "topk_change",
    "history_deep",
};
}  // namespace

FleetView::FleetView(const ShardedEngine* engine) : engine_(engine) {
  ASAP_CHECK(engine_ != nullptr);
  for (size_t i = 0; i < kQueryKindCount; ++i) {
    query_nanos_[i] = engine_->metrics()->GetHistogram(
        {"asap_query_seconds",
         "FleetView query latency by rollup kind",
         {{"kind", kQueryKindNames[i]}},
         1e-9});
  }
}

FleetView::FleetView(const ShardedEngine* engine, const ExecPolicy& policy)
    : FleetView(engine) {
  policy_ = policy;
}

std::shared_ptr<const StreamingAsap::Frame> FleetView::Frame(
    std::string_view name) const {
  return engine_->Snapshot(name);
}

std::vector<std::shared_ptr<const StreamingAsap::Frame>> FleetView::History(
    std::string_view name) const {
  const std::optional<SeriesId> id = catalog()->FindId(name);
  if (!id.has_value()) {
    return {};
  }
  return engine_->FrameHistoryById(*id);
}

std::vector<std::shared_ptr<const StreamingAsap::Frame>> FleetView::History(
    std::string_view name, size_t max_frames) const {
  if (max_frames == 0) {
    return {};
  }
  std::vector<std::shared_ptr<const StreamingAsap::Frame>> ring =
      History(name);
  if (ring.size() >= max_frames) {
    ring.erase(ring.begin(),
               ring.end() - static_cast<ptrdiff_t>(max_frames));
    return ring;
  }
  std::vector<std::shared_ptr<const StreamingAsap::Frame>> deep =
      DeepHistory(name, max_frames);
  // The live ring can only be deeper than the reconstruction when
  // recent panes have not reached the store yet (sync lag); serve
  // whichever view reaches further back.
  return deep.size() > ring.size() ? deep : ring;
}

std::vector<std::shared_ptr<const StreamingAsap::Frame>>
FleetView::DeepHistory(std::string_view name, size_t max_frames) const {
  storage::DurableStore* store = engine_->storage();
  if (store == nullptr || max_frames == 0) {
    return {};
  }
  telemetry::ScopedTimer timer(query_nanos_[kQHistoryDeep].get());
  const Result<uint32_t> sid = store->FindSeries(name);
  if (!sid.ok()) {
    return {};
  }
  const uint64_t total = store->PaneCount(sid.ValueOrDie());
  if (total == 0) {
    return {};
  }

  StreamingOptions opts = engine_->series_options();
  opts.snapshot_ring_frames = max_frames;
  Result<StreamingAsap> op = StreamingAsap::Create(opts);
  if (!op.ok()) {
    return {};
  }
  const size_t pane = std::max<size_t>(op->pane_size(), 1);
  const size_t interval_points = op->refresh_interval_points();

  // Skip the durable prefix no requested frame can see: with the
  // refresh interval at I panes, boundaries sit at pane counts
  // c0 + k*I (c0 = max(4, I) — the 4-pane floor delays early ones),
  // and the oldest wanted boundary only renders the visible window's
  // worth of panes before it. Skipping a multiple of I panes keeps
  // the replayed boundary phase identical to a from-zero replay.
  uint64_t skip = 0;
  if (interval_points % pane == 0) {
    const uint64_t ipanes = std::max<uint64_t>(interval_points / pane, 1);
    const uint64_t c0 = std::max<uint64_t>(4, ipanes);
    if (total < c0) {
      return {};  // no refresh boundary fits the stored history
    }
    const uint64_t last = c0 + ((total - c0) / ipanes) * ipanes;
    const uint64_t span = (max_frames - 1) * ipanes;
    const uint64_t oldest = last > c0 + span ? last - span : c0;
    const uint64_t window_panes = std::max<uint64_t>(
        opts.visible_points / pane, 4);
    const uint64_t keep_from =
        std::min(oldest > window_panes ? oldest - window_panes : 0,
                 oldest - c0);
    skip = (keep_from / ipanes) * ipanes;
  }

  std::vector<double> means;
  if (!store->ReadPanes(sid.ValueOrDie(), skip, total - skip, &means).ok()) {
    return {};
  }
  op->RestorePanes(means.data(), means.size());
  return op->FrameHistory();
}

FleetSample FleetView::SampleSelected(const SeriesSelector* selector) const {
  FleetSample sample;
  const SeriesCatalog* catalog = this->catalog();
  const size_t n = catalog->size();
  for (SeriesId id = 0; static_cast<size_t>(id) < n; ++id) {
    const std::string_view name = catalog->NameOf(id);
    if (selector != nullptr && !selector->Matches(name)) {
      continue;
    }
    auto frame = SnapshotById(id);
    if (frame == nullptr || frame->refreshes == 0) {
      sample.skipped_unpublished += 1;
      continue;
    }
    sample.series.push_back(SampledSeries{name, id, std::move(frame)});
  }
  return sample;
}

FleetSample FleetView::Sample() const {
  telemetry::ScopedTimer timer(query_nanos_[kQSample].get());
  return SampleSelected(nullptr);
}

FleetSample FleetView::Sample(const SeriesSelector& selector) const {
  telemetry::ScopedTimer timer(query_nanos_[kQSample].get());
  return SampleSelected(&selector);
}

FleetSample FleetView::SampleGlob(std::string_view pattern) const {
  telemetry::ScopedTimer timer(query_nanos_[kQSampleGlob].get());
  std::lock_guard<std::mutex> lock(glob_cache_mu_);
  if (!glob_cache_selector_.has_value() ||
      pattern != glob_cache_pattern_) {
    glob_cache_pattern_.assign(pattern);
    glob_cache_selector_ = SeriesSelector::Glob(pattern);
    glob_cache_ids_.clear();
    glob_cache_covered_ = 0;
  }
  const SeriesCatalog* catalog = this->catalog();
  const size_t n = catalog->size();
  // The catalog interns append-only, so ids below glob_cache_covered_
  // were matched on an earlier call and their names cannot change;
  // only the newly interned tail needs glob matching.
  for (SeriesId id = static_cast<SeriesId>(glob_cache_covered_);
       static_cast<size_t>(id) < n; ++id) {
    if (glob_cache_selector_->Matches(catalog->NameOf(id))) {
      glob_cache_ids_.push_back(id);
    }
  }
  glob_cache_covered_ = n;

  FleetSample sample;
  for (const SeriesId id : glob_cache_ids_) {
    auto frame = SnapshotById(id);
    if (frame == nullptr || frame->refreshes == 0) {
      sample.skipped_unpublished += 1;
      continue;
    }
    sample.series.push_back(
        SampledSeries{catalog->NameOf(id), id, std::move(frame)});
  }
  return sample;
}

RoughnessRanking FleetView::TopKByRoughnessOf(const FleetSample& sample,
                                              size_t k) {
  return TopKByRoughnessOf(sample, k, ExecPolicy{});
}

RoughnessRanking FleetView::TopKByRoughnessOf(const FleetSample& sample,
                                              size_t k,
                                              const ExecPolicy& policy) {
  RoughnessRanking ranking;
  ranking.skipped_unpublished = sample.skipped_unpublished;
  const size_t n = sample.series.size();
  // Member roughnesses are independent; compute them into per-member
  // slots across threads, then assemble rows in sample order — the
  // ranking is identical at any parallelism.
  std::vector<double> roughness(n);
  const size_t chunks = std::min(n, kern::kMaxChunks);
  ParallelChunks(policy, chunks, [&](size_t c) {
    const size_t i0 = kern::ChunkBound(n, chunks, c);
    const size_t i1 = kern::ChunkBound(n, chunks, c + 1);
    for (size_t i = i0; i < i1; ++i) {
      roughness[i] = Roughness(sample.series[i].frame->series);
    }
  });
  ranking.ranks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const SampledSeries& member = sample.series[i];
    SeriesRank rank;
    rank.name = std::string(member.name);
    rank.roughness = roughness[i];
    rank.window = member.frame->window;
    rank.refreshes = member.frame->refreshes;
    ranking.ranks.push_back(std::move(rank));
  }
  // Descending roughness, ties by name: identical frames always
  // produce identical rankings (the wire-vs-in-process parity tests
  // lean on this determinism).
  std::sort(ranking.ranks.begin(), ranking.ranks.end(),
            [](const SeriesRank& a, const SeriesRank& b) {
              if (a.roughness != b.roughness) {
                return a.roughness > b.roughness;
              }
              return a.name < b.name;
            });
  if (ranking.ranks.size() > k) {
    ranking.ranks.resize(k);
  }
  return ranking;
}

RoughnessRanking FleetView::RankByRoughness(
    size_t k, const SeriesSelector* selector) const {
  telemetry::ScopedTimer timer(query_nanos_[kQTopKRoughness].get());
  return TopKByRoughnessOf(SampleSelected(selector), k, policy_);
}

RoughnessRanking FleetView::TopKByRoughness(size_t k) const {
  return RankByRoughness(k, nullptr);
}

RoughnessRanking FleetView::TopKByRoughness(
    size_t k, const SeriesSelector& selector) const {
  return RankByRoughness(k, &selector);
}

FleetAggregate FleetView::AggregateOf(const FleetSample& sample,
                                      AggKind kind) {
  FleetAggregate agg;
  agg.skipped_unpublished = sample.skipped_unpublished;
  for (const SampledSeries& member : sample.series) {
    if (member.frame->series.empty()) {
      continue;
    }
    const double latest = member.frame->series.back();
    if (agg.series == 0) {
      agg.value = latest;
    } else {
      switch (kind) {
        case AggKind::kSum:
        case AggKind::kMean:
          agg.value += latest;
          break;
        case AggKind::kMin:
          agg.value = std::min(agg.value, latest);
          break;
        case AggKind::kMax:
          agg.value = std::max(agg.value, latest);
          break;
      }
    }
    agg.series += 1;
  }
  if (kind == AggKind::kMean && agg.series > 0) {
    agg.value /= static_cast<double>(agg.series);
  }
  return agg;
}

FleetAggregate FleetView::AggregateSelected(
    AggKind kind, const SeriesSelector* selector) const {
  telemetry::ScopedTimer timer(query_nanos_[kQAggregate].get());
  return AggregateOf(SampleSelected(selector), kind);
}

FleetAggregate FleetView::Aggregate(AggKind kind) const {
  return AggregateSelected(kind, nullptr);
}

FleetAggregate FleetView::Aggregate(AggKind kind,
                                    const SeriesSelector& selector) const {
  return AggregateSelected(kind, &selector);
}

FleetPercentileBands FleetView::BandsOf(const FleetSample& sample) {
  return BandsOf(sample, ExecPolicy{});
}

FleetPercentileBands FleetView::BandsOf(const FleetSample& sample,
                                        const ExecPolicy& policy) {
  FleetPercentileBands bands;
  bands.skipped_unpublished = sample.skipped_unpublished;
  size_t positions = static_cast<size_t>(-1);
  for (const SampledSeries& member : sample.series) {
    positions = std::min(positions, member.frame->series.size());
  }
  if (sample.series.empty() || positions == 0) {
    bands.series = sample.series.size();
    return bands;
  }
  bands.positions = positions;
  bands.series = sample.series.size();
  bands.p50.resize(positions);
  bands.p90.resize(positions);
  bands.p99.resize(positions);

  const size_t n = sample.series.size();
  // Align every member at its newest pane: band position j is the
  // member's own position j counted within the newest `positions`
  // panes it published.
  std::vector<const double*> bases(n);
  for (size_t s = 0; s < n; ++s) {
    const std::vector<double>& series = sample.series[s].frame->series;
    bases[s] = series.data() + (series.size() - positions);
  }

  const kern::KernelTable& kt = kern::ActiveKernels(policy.simd);
  // Positions are processed in blocks of 4 so the gather is a tiled
  // 4x4 transpose (one vector load per series row covers 4 columns).
  // Blocks write disjoint output positions, so they fan out freely.
  const size_t blocks = (positions + 3) / 4;
  const size_t chunks = std::min(blocks, kern::kMaxChunks);
  ParallelChunks(policy, chunks, [&](size_t c) {
    std::vector<double> cols(4 * n);
    std::vector<unsigned char> bidx(n);
    std::vector<double> pool;
    const size_t b0 = kern::ChunkBound(blocks, chunks, c);
    const size_t b1 = kern::ChunkBound(blocks, chunks, c + 1);
    for (size_t b = b0; b < b1; ++b) {
      const size_t j0 = 4 * b;
      const size_t bw = std::min<size_t>(4, positions - j0);
      if (bw == 4) {
        kt.gather4(bases.data(), j0, n, cols.data(), cols.data() + n,
                   cols.data() + 2 * n, cols.data() + 3 * n);
      } else {
        for (size_t s = 0; s < n; ++s) {
          const double* r = bases[s] + j0;
          for (size_t q = 0; q < bw; ++q) {
            cols[q * n + s] = r[q];
          }
        }
      }
      for (size_t q = 0; q < bw; ++q) {
        const size_t j = j0 + q;
        SelectColumnPercentiles(cols.data() + q * n, n, kt, bidx.data(),
                                &pool, &bands.p50[j], &bands.p90[j],
                                &bands.p99[j]);
      }
    }
  });
  return bands;
}

FleetPercentileBands FleetView::PercentileBands() const {
  telemetry::ScopedTimer timer(query_nanos_[kQBands].get());
  return BandsOf(SampleSelected(nullptr), policy_);
}

FleetPercentileBands FleetView::PercentileBands(
    const SeriesSelector& selector) const {
  telemetry::ScopedTimer timer(query_nanos_[kQBands].get());
  return BandsOf(SampleSelected(&selector), policy_);
}

FleetAnomalyCounts FleetView::AnomalyCountsOf(const FleetSample& sample,
                                              const AlertOptions& options) {
  return AnomalyCountsOf(sample, options, ExecPolicy{});
}

FleetAnomalyCounts FleetView::AnomalyCountsOf(const FleetSample& sample,
                                              const AlertOptions& options,
                                              const ExecPolicy& policy) {
  FleetAnomalyCounts counts;
  counts.skipped_unpublished = sample.skipped_unpublished;
  const size_t n = sample.series.size();
  // Per-member detector runs are independent; SIZE_MAX marks a member
  // whose frame the detector rejected as too short.
  std::vector<size_t> alerts_per(n, 0);
  const size_t chunks = std::min(n, kern::kMaxChunks);
  ParallelChunks(policy, chunks, [&](size_t c) {
    const size_t i0 = kern::ChunkBound(n, chunks, c);
    const size_t i1 = kern::ChunkBound(n, chunks, c + 1);
    for (size_t i = i0; i < i1; ++i) {
      const Result<std::vector<Alert>> alerts =
          FindDeviations(sample.series[i].frame->series, options);
      alerts_per[i] =
          alerts.ok() ? alerts.ValueOrDie().size() : static_cast<size_t>(-1);
    }
  });
  for (size_t i = 0; i < n; ++i) {
    if (alerts_per[i] == static_cast<size_t>(-1)) {
      // The detector rejects only too-short series; a member that has
      // refreshed but not yet filled enough panes lands here.
      counts.skipped_short += 1;
      continue;
    }
    counts.series += 1;
    if (alerts_per[i] > 0) {
      counts.series_alerting += 1;
      counts.alerts += alerts_per[i];
    }
  }
  return counts;
}

FleetAnomalyCounts FleetView::AnomalyCounts(
    const AlertOptions& options) const {
  telemetry::ScopedTimer timer(query_nanos_[kQAnomalies].get());
  return AnomalyCountsOf(SampleSelected(nullptr), options, policy_);
}

FleetAnomalyCounts FleetView::AnomalyCounts(
    const SeriesSelector& selector, const AlertOptions& options) const {
  telemetry::ScopedTimer timer(query_nanos_[kQAnomalies].get());
  return AnomalyCountsOf(SampleSelected(&selector), options, policy_);
}

HistoryDiff FleetView::DiffRing(
    const std::vector<std::shared_ptr<const StreamingAsap::Frame>>& ring,
    size_t k, const ExecPolicy& policy) {
  HistoryDiff diff;
  if (ring.empty()) {
    return diff;
  }
  diff.known = true;
  diff.frames_apart = std::min(k, ring.size() - 1);
  const StreamingAsap::Frame& newer = *ring.back();
  const StreamingAsap::Frame& older =
      *ring[ring.size() - 1 - diff.frames_apart];
  diff.window_delta = static_cast<long long>(newer.window) -
                      static_cast<long long>(older.window);
  diff.refreshes_apart = newer.refreshes - older.refreshes;
  // Newest-pane alignment, same as BandsOf: position j counts within
  // the newest `len` panes of each frame.
  const size_t len = std::min(newer.series.size(), older.series.size());
  diff.delta.resize(len);
  if (len == 0) {
    diff.mean_abs_delta = 0.0;
    return diff;
  }
  const double* newer_p = newer.series.data() + (newer.series.size() - len);
  const double* older_p = older.series.data() + (older.series.size() - len);
  const kern::KernelTable& kt = kern::ActiveKernels(policy.simd);
  const size_t chunks = kern::ChunksFor(len);
  kern::AbsDeltaPartials parts[kern::kMaxChunks];
  ParallelChunks(policy, chunks, [&](size_t c) {
    const size_t b0 = kern::ChunkBound(len, chunks, c);
    const size_t b1 = kern::ChunkBound(len, chunks, c + 1);
    parts[c] = kt.abs_delta(newer_p + b0, older_p + b0, b1 - b0,
                            diff.delta.data() + b0);
  });
  double sum_abs = 0.0;
  double max_abs = 0.0;
  for (size_t c = 0; c < chunks; ++c) {
    sum_abs += parts[c].sum_abs;
    max_abs = (parts[c].max_abs > max_abs) ? parts[c].max_abs : max_abs;
  }
  diff.max_abs_delta = max_abs;
  diff.mean_abs_delta = sum_abs / static_cast<double>(len);
  return diff;
}

HistoryDiff FleetView::DiffHistory(std::string_view name, size_t k) const {
  telemetry::ScopedTimer timer(query_nanos_[kQDiffHistory].get());
  const std::optional<SeriesId> id = catalog()->FindId(name);
  if (!id.has_value()) {
    return HistoryDiff{};
  }
  std::vector<std::shared_ptr<const StreamingAsap::Frame>> ring =
      engine_->FrameHistoryById(*id);
  // A diff deeper than the ring holds reaches into the durable tier:
  // reconstruct a k+1-deep ring from stored panes and diff that.
  if (k + 1 > ring.size() && engine_->storage() != nullptr) {
    std::vector<std::shared_ptr<const StreamingAsap::Frame>> deep =
        DeepHistory(name, k + 1);
    if (deep.size() > ring.size()) {
      return DiffRing(deep, k, policy_);
    }
  }
  return DiffRing(ring, k, policy_);
}

ChangeRanking FleetView::RankByChange(size_t k, size_t frames_back,
                                      const SeriesSelector* selector) const {
  telemetry::ScopedTimer timer(query_nanos_[kQTopKChange].get());
  ChangeRanking ranking;
  const SeriesCatalog* catalog = this->catalog();
  const size_t n = catalog->size();
  // Selector matching stays sequential (cheap, preserves catalog
  // order); the per-series ring diffs fan out into per-series slots.
  std::vector<SeriesId> ids;
  ids.reserve(n);
  for (SeriesId id = 0; static_cast<size_t>(id) < n; ++id) {
    if (selector == nullptr || selector->Matches(catalog->NameOf(id))) {
      ids.push_back(id);
    }
  }
  std::vector<HistoryDiff> diffs(ids.size());
  ExecPolicy inner = policy_;
  inner.threads = 1;  // parallelism is across series here
  const size_t chunks = std::min(ids.size(), kern::kMaxChunks);
  ParallelChunks(policy_, chunks, [&](size_t c) {
    const size_t i0 = kern::ChunkBound(ids.size(), chunks, c);
    const size_t i1 = kern::ChunkBound(ids.size(), chunks, c + 1);
    for (size_t i = i0; i < i1; ++i) {
      diffs[i] = DiffRing(engine_->FrameHistoryById(ids[i]), frames_back,
                          inner);
    }
  });
  for (size_t i = 0; i < ids.size(); ++i) {
    const HistoryDiff& diff = diffs[i];
    if (!diff.known) {
      ranking.skipped_unpublished += 1;
      continue;
    }
    SeriesChange change;
    change.name = std::string(catalog->NameOf(ids[i]));
    change.mean_abs_delta = diff.mean_abs_delta;
    change.max_abs_delta = diff.max_abs_delta;
    change.frames_apart = diff.frames_apart;
    ranking.ranks.push_back(std::move(change));
  }
  std::sort(ranking.ranks.begin(), ranking.ranks.end(),
            [](const SeriesChange& a, const SeriesChange& b) {
              if (a.mean_abs_delta != b.mean_abs_delta) {
                return a.mean_abs_delta > b.mean_abs_delta;
              }
              if (a.max_abs_delta != b.max_abs_delta) {
                return a.max_abs_delta > b.max_abs_delta;
              }
              return a.name < b.name;
            });
  if (ranking.ranks.size() > k) {
    ranking.ranks.resize(k);
  }
  return ranking;
}

ChangeRanking FleetView::TopKByChange(size_t k, size_t frames_back) const {
  return RankByChange(k, frames_back, nullptr);
}

ChangeRanking FleetView::TopKByChange(size_t k, size_t frames_back,
                                      const SeriesSelector& selector) const {
  return RankByChange(k, frames_back, &selector);
}

size_t FleetView::series_count() const { return catalog()->size(); }

}  // namespace stream
}  // namespace asap
