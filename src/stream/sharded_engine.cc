#include "stream/sharded_engine.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "storage/store.h"
#include "stream/sequencer.h"
#include "window/panes.h"

namespace asap {
namespace stream {

RecordBatch ConflatePanePartials(RecordBatch batch, size_t pane_size,
                                 int64_t pane_epoch,
                                 int64_t pane_width_ticks) {
  const bool timed = pane_width_ticks > 0;
  if (batch.size() <= 1 || (!timed && pane_size <= 1)) {
    return batch;
  }
  // Stable group by series id. Ids are catalog-dense and shards see
  // a hashed subset, so a sort keyed on (id, original index) is
  // simplest; batches here are bounded by batch_size + one merge.
  std::stable_sort(batch.begin(), batch.end(),
                   [](const Record& a, const Record& b) {
                     return a.series_id < b.series_id;
                   });
  RecordBatch out;
  out.reserve(timed ? batch.size() / 2 + 16
                    : batch.size() / pane_size + 16);
  size_t i = 0;
  while (i < batch.size()) {
    const SeriesId id = batch[i].series_id;
    size_t j = i;
    while (j < batch.size() && batch[j].series_id == id) {
      ++j;
    }
    if (timed) {
      // Pane-aware: collapse consecutive records of one series that
      // share a time bucket. A group carries the bucket's mean and
      // its first timestamp — it re-enters the same pane its records
      // came from, never a neighbor's.
      while (i < j) {
        const int64_t pane = window::PaneIndexForTs(batch[i].ts, pane_epoch,
                                                    pane_width_ticks);
        size_t g = i + 1;
        double sum = batch[i].value;
        while (g < j && window::PaneIndexForTs(batch[g].ts, pane_epoch,
                                               pane_width_ticks) == pane) {
          sum += batch[g].value;
          ++g;
        }
        if (g - i >= 2) {
          out.push_back(
              Record{id, sum / static_cast<double>(g - i), batch[i].ts});
        } else {
          out.push_back(batch[i]);
        }
        i = g;
      }
      continue;
    }
    // Count-based (arrival mode): complete pane-sized groups collapse
    // to their mean.
    while (j - i >= pane_size) {
      double sum = 0.0;
      for (size_t k = i; k < i + pane_size; ++k) {
        sum += batch[k].value;
      }
      out.push_back(Record{id, sum / static_cast<double>(pane_size),
                           batch[i].ts});
      i += pane_size;
    }
    // Trailing short group: raw.
    for (; i < j; ++i) {
      out.push_back(batch[i]);
    }
  }
  return out;
}

// One worker shard: a slice of the fleet's series table plus the
// bounded batch queue that feeds it. Queue state is guarded by `mu`;
// `registry_mu` serializes the worker's batch consumption against
// concurrent Snapshot lookups (the frame read itself is lock-free —
// the map lookup is what needs the lock). Worker-side counters are
// written by the worker thread only and read after join.
struct ShardedEngine::Shard {
  /// Records the newest queued batch may hold under kConflate, in
  /// units of the engine's nominal batch size. Under sustained
  /// overflow collapse shrinks batches ~pane_size×, so this headroom
  /// is rarely reached; it exists so a fully stalled consumer bounds
  /// queued memory instead of growing the merge batch forever.
  static constexpr size_t kConflateBackstopBatches = 8;

  Shard(const StreamingOptions& series_options, size_t index,
        telemetry::MetricsRegistry* metrics, SeriesCatalog* catalog,
        storage::DurableStore* storage, int64_t sequencer_horizon)
      : registry(series_options),
        catalog(catalog),
        storage(storage),
        timed(series_options.pane_width_ticks > 0),
        pane_epoch(series_options.pane_epoch),
        pane_width(series_options.pane_width_ticks),
        seq_horizon(sequencer_horizon) {
    const std::string shard_label = std::to_string(index);
    using Labels = std::vector<std::pair<std::string, std::string>>;
    const Labels labels = {{"shard", shard_label}};
    queue_depth = metrics->GetGauge(
        {"asap_shard_queue_depth", "Batches queued for the shard worker",
         labels});
    push_nanos = metrics->GetHistogram(
        {"asap_shard_push_seconds", "Producer enqueue latency per batch",
         labels, 1e-9});
    drain_nanos = metrics->GetHistogram(
        {"asap_shard_drain_seconds", "Worker consume latency per batch",
         labels, 1e-9});
    records_total = metrics->GetCounter(
        {"asap_shard_records_total", "Records consumed by the shard worker",
         labels});
    dropped_total = metrics->GetCounter(
        {"asap_shard_dropped_total", "Records dropped at the full queue",
         labels});
    conflated_total = metrics->GetCounter(
        {"asap_shard_conflated_total",
         "Records collapsed into pane partials at the full queue", labels});
    // asap_seq_*: registered unconditionally (a scrape sees the family
    // at 0 even when sequencing is off, so dashboards and the CI greps
    // need no horizon-dependent wiring).
    seq_emitted_total = metrics->GetCounter(
        {"asap_seq_emitted_total",
         "Records the shard sequencer released in timestamp order", labels});
    seq_late_total = metrics->GetCounter(
        {"asap_seq_late_total",
         "Records dropped as late (behind the released floor or more than "
         "the horizon behind the watermark)",
         labels});
    seq_buffered = metrics->GetGauge(
        {"asap_seq_buffered",
         "Records staged in the shard sequencer's reordering window",
         labels});
    seq_floor_lag = metrics->GetGauge(
        {"asap_seq_floor_lag_ticks",
         "Watermark minus the sequencer's released floor (the horizon "
         "while it governs release, the collector lag while low marks do)",
         labels});
  }

  SeriesRegistry registry;
  SeriesCatalog* catalog = nullptr;          // for name-keyed registration
  storage::DurableStore* storage = nullptr;  // null = memory-only

  // Timed pane mode (series options' pane grid; see StreamingOptions).
  bool timed = false;
  int64_t pane_epoch = 0;
  int64_t pane_width = 0;
  // Reordering horizon; > 0 activates the per-run sequencer below.
  int64_t seq_horizon = 0;
  /// The shard's reordering stage (stream/sequencer.h), recreated at
  /// each run start so run reports count one run. Null when
  /// seq_horizon == 0. Worker-thread only during a run; read after
  /// join.
  std::unique_ptr<Sequencer> sequencer;
  /// sequencer->late_dropped() already folded into seq_late_total.
  uint64_t late_folded = 0;

  // Durable-tier scratch, touched by the worker thread only. Each
  // drained batch accumulates completed-pane means per series run in
  // `flat_panes` (one flat buffer, no per-run allocation) and flushes
  // them in a single AppendPanes call.
  std::unordered_map<SeriesId, uint32_t> storage_sids;  // engine -> store id
  std::vector<double> run_values;    // per-run value scratch
  std::vector<int64_t> run_ts;       // per-run timestamp scratch (timed)
  std::vector<double> flat_panes;    // pane sink target, per batch
  struct PaneRunMeta {
    uint32_t sid;
    size_t offset;
    size_t count;
  };
  std::vector<PaneRunMeta> run_meta;
  bool storage_ok = true;  // latches false on the first append error

  static void PaneSinkThunk(void* ctx, double mean) {
    static_cast<std::vector<double>*>(ctx)->push_back(mean);
  }

  // asap_shard_* instruments (labelled shard="i") in the engine's
  // registry. Writes are batch-granular: one gauge store + histogram
  // record per Enqueue/Dequeue, never per record.
  std::shared_ptr<telemetry::Gauge> queue_depth;
  std::shared_ptr<telemetry::LatencyHistogram> push_nanos;
  std::shared_ptr<telemetry::LatencyHistogram> drain_nanos;
  std::shared_ptr<telemetry::Counter> records_total;
  std::shared_ptr<telemetry::Counter> dropped_total;
  std::shared_ptr<telemetry::Counter> conflated_total;
  std::shared_ptr<telemetry::Counter> seq_emitted_total;
  std::shared_ptr<telemetry::Counter> seq_late_total;
  std::shared_ptr<telemetry::Gauge> seq_buffered;
  std::shared_ptr<telemetry::Gauge> seq_floor_lag;
  mutable std::mutex registry_mu;

  /// One queue element: a routed batch and the source's low mark that
  /// followed it (kNoLowMark if none), so the mark reaches the shard's
  /// sequencer in FIFO order, after every record it covers.
  struct Element {
    RecordBatch records;
    int64_t low_mark = kNoLowMark;
  };

  std::mutex mu;
  std::condition_variable not_empty;
  std::condition_variable not_full;
  std::deque<Element> queue;
  bool closed = false;
  size_t peak_queue_depth = 0;  // producer-side, under mu
  uint64_t dropped = 0;         // producer-side, under mu
  uint64_t conflated = 0;       // producer-side, under mu

  // Worker-side per-run counters.
  uint64_t points = 0;
  uint64_t batches = 0;
  double busy_seconds = 0.0;

  /// Hands a batch to the worker. Under kBlock, waits for queue room
  /// (lossless backpressure); under kDropNewest, a full queue discards
  /// the batch and counts its records instead of stalling the
  /// producer; under kConflate, a full queue collapses the batch into
  /// per-series pane partials (mean of each pane_size-sized group)
  /// merged into the newest queued batch — the shard still sees every
  /// series' shape, at ~pane_size× reduced time resolution. The merged
  /// batch is itself bounded (kConflateBackstopBatches nominal batches
  /// of records): a consumer stalled so long that even collapsed
  /// records pile past the bound degrades to dropping the overflow
  /// (counted), keeping queued memory finite. Returns the records
  /// dropped (0, batch.size(), or the collapsed overflow). A dropped
  /// element's low mark is lost with it (the next one carries a newer
  /// mark); a conflated one's raises the newest queued element's.
  size_t Enqueue(RecordBatch batch, int64_t low_mark, size_t capacity,
                 OverflowPolicy policy, size_t pane_size,
                 size_t nominal_batch_size) {
    telemetry::ScopedTimer push_timer(push_nanos.get());
    std::unique_lock<std::mutex> lock(mu);
    if (policy == OverflowPolicy::kDropNewest) {
      if (queue.size() >= capacity) {
        const size_t n = batch.size();
        dropped += n;
        dropped_total->Add(n);
        peak_queue_depth = std::max(peak_queue_depth, queue.size());
        return n;
      }
    } else if (policy == OverflowPolicy::kConflate) {
      if (queue.size() >= capacity) {
        const size_t before = batch.size();
        RecordBatch collapsed = ConflatePanePartials(std::move(batch),
                                                     pane_size, pane_epoch,
                                                     pane_width);
        conflated += before - collapsed.size();
        conflated_total->Add(before - collapsed.size());
        RecordBatch& back = queue.back().records;
        queue.back().low_mark = std::max(queue.back().low_mark, low_mark);
        const size_t room_cap = kConflateBackstopBatches * nominal_batch_size;
        size_t keep = collapsed.size();
        if (back.size() >= room_cap) {
          keep = 0;
        } else if (back.size() + keep > room_cap) {
          keep = room_cap - back.size();
        }
        back.insert(back.end(), collapsed.begin(),
                    collapsed.begin() + static_cast<ptrdiff_t>(keep));
        const size_t overflow = collapsed.size() - keep;
        dropped += overflow;
        dropped_total->Add(overflow);
        peak_queue_depth = std::max(peak_queue_depth, queue.size());
        not_empty.notify_one();
        return overflow;
      }
    } else {
      not_full.wait(lock, [&] { return queue.size() < capacity; });
    }
    queue.push_back(Element{std::move(batch), low_mark});
    peak_queue_depth = std::max(peak_queue_depth, queue.size());
    queue_depth->Set(static_cast<double>(queue.size()));
    not_empty.notify_one();
    return 0;
  }

  /// Hands a low mark to a shard with no records in this pull. A
  /// queued element takes it without a wake-up (it holds the shard's
  /// newest records, so the mark still follows every record it
  /// covers); only an idle shard gets a mark-only element, since the
  /// mark may release what it already holds. Never blocks or drops.
  void PassMark(int64_t low_mark) {
    std::lock_guard<std::mutex> lock(mu);
    if (!queue.empty()) {
      queue.back().low_mark = std::max(queue.back().low_mark, low_mark);
      return;
    }
    queue.push_back(Element{RecordBatch{}, low_mark});
    peak_queue_depth = std::max<size_t>(peak_queue_depth, 1);
    queue_depth->Set(1.0);
    not_empty.notify_one();
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
    not_empty.notify_all();
  }

  /// Returns false when the queue is closed and drained.
  bool Dequeue(Element* out) {
    std::unique_lock<std::mutex> lock(mu);
    not_empty.wait(lock, [&] { return closed || !queue.empty(); });
    if (queue.empty()) {
      return false;
    }
    *out = std::move(queue.front());
    queue.pop_front();
    queue_depth->Set(static_cast<double>(queue.size()));
    not_full.notify_one();
    return true;
  }

  /// Feeds one ordered batch into the shard's operators. Records of
  /// one series are contiguous runs within a batch only by accident;
  /// the loop groups whatever runs exist so each run takes
  /// StreamingAsap's bulk-append path (in timed mode with the run's
  /// timestamps). registry_mu is held only around the map
  /// lookup/insert — never across PushTimed — so a concurrent
  /// Snapshot waits for a pointer chase, not a window search. The
  /// operator pointer stays valid outside the lock: unordered_map
  /// never invalidates references on insert, and this worker is the
  /// shard's only mutator.
  void ProcessRecords(const RecordBatch& batch) {
    size_t i = 0;
    flat_panes.clear();
    run_meta.clear();
    while (i < batch.size()) {
      const SeriesId id = batch[i].series_id;
      size_t j = i + 1;
      while (j < batch.size() && batch[j].series_id == id) {
        ++j;
      }
      run_values.clear();
      run_values.reserve(j - i);
      for (size_t k = i; k < j; ++k) {
        run_values.push_back(batch[k].value);
      }
      if (timed) {
        run_ts.clear();
        run_ts.reserve(j - i);
        for (size_t k = i; k < j; ++k) {
          run_ts.push_back(batch[k].ts);
        }
      }
      StreamingAsap* op = nullptr;
      {
        std::lock_guard<std::mutex> lock(registry_mu);
        op = &registry.GetOrCreate(id);
      }
      if (storage != nullptr && storage_ok) {
        // Catch the panes this run completes: the sink appends them
        // to the batch's flat buffer, flushed once per batch below.
        // (Setting the sink each run is two pointer stores — cheap,
        // and it also covers operators created by recovery's
        // RestoreSeries.)
        const size_t offset = flat_panes.size();
        op->set_pane_sink(&PaneSinkThunk, &flat_panes);
        PushRun(op);
        op->set_pane_sink(nullptr, nullptr);
        const size_t count = flat_panes.size() - offset;
        if (count > 0) {
          const uint32_t sid = StoreSidFor(id);
          if (storage_ok) {
            run_meta.push_back(PaneRunMeta{sid, offset, count});
          }
        }
      } else {
        PushRun(op);
      }
      i = j;
    }
    if (!run_meta.empty() && storage_ok) {
      // One durable append per drained batch: all series' completed
      // panes ride one WAL frame (batch-granular durability).
      std::vector<storage::PaneRun> runs;
      runs.reserve(run_meta.size());
      for (const PaneRunMeta& m : run_meta) {
        storage::PaneRun run;
        run.sid = m.sid;
        run.values = flat_panes.data() + m.offset;
        run.count = static_cast<uint32_t>(m.count);
        runs.push_back(run);
      }
      if (!storage->AppendPanes(runs.data(), runs.size()).ok()) {
        // The store poisons itself on the first IO error; stop
        // paying the append cost and keep the engine serving reads.
        storage_ok = false;
      }
    }
  }

  /// One series run into its operator, on the clock the engine runs.
  void PushRun(StreamingAsap* op) {
    op->PushTimed(run_values.data(), timed ? run_ts.data() : nullptr,
                  run_values.size());
  }

  /// Consumes queued batches until the queue closes and drains. With
  /// a sequencer active, every dequeued batch is staged and only the
  /// records released in timestamp order reach the operators; the
  /// reordering tail is flushed after the queue closes (end of
  /// stream), so `points` counts exactly the records operators
  /// consumed and the run-report identity
  /// pulled == consumed + dropped + conflated + late holds.
  void WorkerLoop() {
    Element element;
    RecordBatch ordered;
    while (Dequeue(&element)) {
      Stopwatch busy;
      const RecordBatch& batch = element.records;
      const RecordBatch* work = &batch;
      if (sequencer != nullptr) {
        ordered.clear();
        sequencer->Push(batch.data(), batch.size(), &ordered,
                        element.low_mark);
        FoldSequencerCounters(ordered.size());
        work = &ordered;
      }
      ProcessRecords(*work);
      points += work->size();
      batches += 1;
      records_total->Add(work->size());
      const uint64_t busy_nanos = busy.ElapsedNanos();
      drain_nanos->Record(busy_nanos);
      busy_seconds += static_cast<double>(busy_nanos) * 1e-9;
    }
    if (sequencer != nullptr) {
      Stopwatch busy;
      ordered.clear();
      sequencer->Flush(&ordered);
      FoldSequencerCounters(ordered.size());
      if (!ordered.empty()) {
        ProcessRecords(ordered);
        points += ordered.size();
        records_total->Add(ordered.size());
      }
      const uint64_t busy_nanos = busy.ElapsedNanos();
      drain_nanos->Record(busy_nanos);
      busy_seconds += static_cast<double>(busy_nanos) * 1e-9;
    }
  }

  /// Folds the sequencer's since-last-call deltas into the asap_seq_*
  /// instruments (batch-granular, like every other hot-path write).
  void FoldSequencerCounters(size_t emitted_now) {
    seq_emitted_total->Add(emitted_now);
    const uint64_t late_now = sequencer->late_dropped();
    seq_late_total->Add(late_now - late_folded);
    late_folded = late_now;
    seq_buffered->Set(static_cast<double>(sequencer->buffered()));
    const int64_t floor = sequencer->released_floor();
    seq_floor_lag->Set(
        floor == std::numeric_limits<int64_t>::min()
            ? 0.0
            : static_cast<double>(sequencer->watermark()) -
                  static_cast<double>(floor));
  }

  /// Store id for an engine series id, registering by name on first
  /// sight. Worker-thread only (the map is unsynchronized).
  uint32_t StoreSidFor(SeriesId id) {
    auto it = storage_sids.find(id);
    if (it != storage_sids.end()) {
      return it->second;
    }
    auto sid = storage->RegisterSeries(catalog->NameOf(id));
    if (!sid.ok()) {
      storage_ok = false;
      storage_sids.emplace(id, 0);
      return 0;
    }
    storage_sids.emplace(id, sid.ValueOrDie());
    return sid.ValueOrDie();
  }

  void ResetRunCounters() {
    std::lock_guard<std::mutex> lock(mu);
    ASAP_CHECK(queue.empty());
    closed = false;
    peak_queue_depth = 0;
    dropped = 0;
    conflated = 0;
    points = 0;
    batches = 0;
    busy_seconds = 0.0;
    // Fresh sequencer per run: the watermark and late counts in the
    // run report cover exactly this run (registry instruments stay
    // lifetime-cumulative, as everywhere else).
    sequencer = seq_horizon > 0 ? std::make_unique<Sequencer>(seq_horizon)
                                : nullptr;
    late_folded = 0;
  }
};

Result<ShardedEngine> ShardedEngine::Create(
    const StreamingOptions& series_options,
    const ShardedEngineOptions& engine_options) {
  if (engine_options.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (engine_options.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (engine_options.queue_capacity < 1) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if (engine_options.sequencer_horizon_ticks < 0) {
    return Status::InvalidArgument("sequencer_horizon_ticks must be >= 0");
  }
  // Probe the per-series factory configuration once so invalid options
  // fail here instead of aborting inside a worker thread at first use.
  // The probe also resolves the pane size kConflate groups by.
  Result<StreamingAsap> probe = StreamingAsap::Create(series_options);
  if (!probe.ok()) {
    return probe.status();
  }
  ShardedEngine engine(series_options, engine_options);
  engine.pane_size_ = probe->pane_size();
  return engine;
}

ShardedEngine::ShardedEngine(const StreamingOptions& series_options,
                             const ShardedEngineOptions& engine_options)
    : series_options_(series_options),
      options_(engine_options),
      catalog_(std::make_shared<SeriesCatalog>()),
      run_in_flight_(std::make_shared<std::atomic<bool>>(false)) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_shared<telemetry::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        series_options_, i, metrics_, catalog_.get(), options_.storage,
        options_.sequencer_horizon_ticks));
  }
}

ShardedEngine::ShardedEngine(ShardedEngine&&) noexcept = default;
ShardedEngine& ShardedEngine::operator=(ShardedEngine&&) noexcept = default;
ShardedEngine::~ShardedEngine() = default;

size_t ShardedEngine::shards() const { return shards_.size(); }

size_t ShardedEngine::ShardOf(SeriesId id, size_t shard_count) {
  ASAP_CHECK_GE(shard_count, 1u);
  // splitmix64 finalizer: cheap, and spreads the dense sequential ids
  // fleets typically assign (host 0..N) instead of striping them.
  uint64_t h = id;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<size_t>(h % shard_count);
}

std::shared_ptr<const StreamingAsap::Frame> ShardedEngine::Snapshot(
    std::string_view name) const {
  const std::optional<SeriesId> id = catalog_->FindId(name);
  return id.has_value() ? SnapshotById(*id) : nullptr;
}

std::shared_ptr<const StreamingAsap::Frame> ShardedEngine::SnapshotById(
    SeriesId id) const {
  const Shard& shard = *shards_[ShardOf(id, shards_.size())];
  std::lock_guard<std::mutex> lock(shard.registry_mu);
  const StreamingAsap* op = shard.registry.Find(id);
  return op == nullptr ? nullptr : op->frame_snapshot();
}

std::vector<std::shared_ptr<const StreamingAsap::Frame>>
ShardedEngine::FrameHistoryById(SeriesId id) const {
  const Shard& shard = *shards_[ShardOf(id, shards_.size())];
  std::lock_guard<std::mutex> lock(shard.registry_mu);
  const StreamingAsap* op = shard.registry.Find(id);
  return op == nullptr
             ? std::vector<std::shared_ptr<const StreamingAsap::Frame>>{}
             : op->FrameHistory();
}

Status ShardedEngine::RestoreSeries(std::string_view name,
                                    const double* pane_means, size_t n) {
  if (!IsValidSeriesName(name)) {
    return Status::InvalidArgument("RestoreSeries: invalid series name");
  }
  if (run_in_flight_->load(std::memory_order_acquire)) {
    return Status::Internal("RestoreSeries: run in flight");
  }
  const SeriesId id = catalog_->Intern(name);
  Shard& shard = *shards_[ShardOf(id, shards_.size())];
  StreamingAsap* op = nullptr;
  {
    std::lock_guard<std::mutex> lock(shard.registry_mu);
    op = &shard.registry.GetOrCreate(id);
  }
  if (op->points_consumed() != 0) {
    return Status::AlreadyExists("RestoreSeries: series already has points");
  }
  // No sink: these panes are already durable (restore must never echo
  // them back into the store).
  op->RestorePanes(pane_means, n);
  return Status::OK();
}

const SeriesRegistry& ShardedEngine::shard_registry(size_t shard) const {
  ASAP_CHECK_LT(shard, shards_.size());
  // Contract (see header): deep registry reads race the shard worker,
  // so they are only legal between runs. Debug builds catch misuse.
  ASAP_DCHECK(!run_in_flight_->load(std::memory_order_acquire));
  return shards_[shard]->registry;
}

FleetReport ShardedEngine::RunToCompletion(MultiSource* source) {
  return Run(source, /*budget_seconds=*/0.0);
}

FleetReport ShardedEngine::RunForBudget(MultiSource* source,
                                        double budget_seconds) {
  ASAP_CHECK_GT(budget_seconds, 0.0);
  return Run(source, budget_seconds);
}

FleetReport ShardedEngine::Run(MultiSource* source, double budget_seconds) {
  ASAP_CHECK(source != nullptr);
  const size_t num_shards = shards_.size();
  for (auto& shard : shards_) {
    shard->ResetRunCounters();
  }
  run_in_flight_->store(true, std::memory_order_release);

  Stopwatch watch;
  std::vector<std::thread> workers;
  workers.reserve(num_shards);
  for (auto& shard : shards_) {
    workers.emplace_back([s = shard.get()] { s->WorkerLoop(); });
  }

  // Producer: pull tagged batches, partition by shard, enqueue. An
  // enqueue donates its buffer to the queue and replaces it with a
  // fresh pre-reserved one, so the partition path never re-grows a
  // split vector mid-pump. The pull buffer has room for the source's
  // optional low-mark control record after a full batch.
  const bool sequenced = options_.sequencer_horizon_ticks > 0;
  FleetReport report;
  RecordBatch pull;
  pull.reserve(options_.batch_size + 1);
  std::vector<RecordBatch> split(num_shards);
  for (RecordBatch& buffer : split) {
    buffer.reserve(options_.batch_size);
  }
  for (;;) {
    if (budget_seconds > 0.0 && watch.ElapsedSeconds() >= budget_seconds) {
      break;
    }
    pull.clear();
    const size_t n = source->NextBatch(options_.batch_size, &pull);
    if (n == 0) {
      break;
    }
    report.points += n;
    // Strip the in-band low mark (MultiSource contract) before routing:
    // it never reaches a registry, a store or a count. Only a
    // sequencer has a use for it.
    int64_t low_mark = kNoLowMark;
    if (pull.size() == n + 1 && pull.back().series_id == kLowMarkId) {
      low_mark = sequenced ? pull.back().ts : kNoLowMark;
      pull.pop_back();
    }
    if (num_shards == 1) {
      report.dropped += shards_[0]->Enqueue(
          std::move(pull), low_mark, options_.queue_capacity,
          options_.overflow_policy, pane_size_, options_.batch_size);
      pull = RecordBatch{};
      pull.reserve(options_.batch_size + 1);
      continue;
    }
    for (const Record& r : pull) {
      split[ShardOf(r.series_id, num_shards)].push_back(r);
    }
    for (size_t i = 0; i < num_shards; ++i) {
      if (split[i].empty()) {
        if (low_mark != kNoLowMark) {
          shards_[i]->PassMark(low_mark);
        }
        continue;
      }
      report.dropped += shards_[i]->Enqueue(
          std::move(split[i]), low_mark, options_.queue_capacity,
          options_.overflow_policy, pane_size_, options_.batch_size);
      split[i] = RecordBatch{};
      split[i].reserve(options_.batch_size);
    }
  }

  for (auto& shard : shards_) {
    shard->Close();
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  run_in_flight_->store(false, std::memory_order_release);
  report.seconds = watch.ElapsedSeconds();
  report.points_per_second =
      report.seconds > 0.0
          ? static_cast<double>(report.points) / report.seconds
          : 0.0;

  for (size_t i = 0; i < num_shards; ++i) {
    const Shard& shard = *shards_[i];
    ShardReport sr;
    sr.shard = i;
    sr.points = shard.points;
    sr.batches = shard.batches;
    sr.series = shard.registry.size();
    sr.peak_queue_depth = shard.peak_queue_depth;
    sr.dropped = shard.dropped;
    sr.conflated = shard.conflated;
    sr.late = shard.sequencer != nullptr ? shard.sequencer->late_dropped()
                                         : 0;
    sr.busy_seconds = shard.busy_seconds;
    shard.registry.ForEach([&sr](SeriesId, const StreamingAsap& op) {
      sr.refreshes += op.frame().refreshes;
    });
    report.refreshes += sr.refreshes;
    report.series += sr.series;
    report.conflated += sr.conflated;
    report.late += sr.late;
    report.shards.push_back(sr);

    for (SeriesId id : shard.registry.Ids()) {
      const StreamingAsap& op = *shard.registry.Find(id);
      SeriesReport series_report;
      series_report.name = std::string(catalog_->NameOf(id));
      series_report.points = op.points_consumed();
      series_report.refreshes = op.frame().refreshes;
      series_report.window = op.frame().window;
      if (shard.sequencer != nullptr) {
        const auto& late_map = shard.sequencer->late_by_series();
        const auto it = late_map.find(id);
        series_report.late = it != late_map.end() ? it->second : 0;
      }
      report.per_series.push_back(std::move(series_report));
    }
  }
  std::sort(report.per_series.begin(), report.per_series.end(),
            [](const SeriesReport& a, const SeriesReport& b) {
              return a.name < b.name;
            });
  return report;
}

}  // namespace stream
}  // namespace asap
