#include "storage/store.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/macros.h"
#include "storage/byte_order.h"
#include "storage/posix_file.h"
#include "telemetry/metrics.h"

namespace asap {
namespace storage {

namespace {

// WAL payload record kinds (first payload byte).
constexpr uint8_t kRecRegistration = 1;
constexpr uint8_t kRecPaneBatch = 2;

constexpr size_t kMaxSeriesNameBytes = 65535;

// Background compaction runs once this many sealed WAL segments are
// waiting (CompactOnce(true) runs unconditionally).
constexpr size_t kCompactAfterSealedSegments = 1;

}  // namespace

DurableStore::DurableStore(std::string dir, StoreOptions options)
    : dir_(std::move(dir)), options_(options) {}

DurableStore::~DurableStore() {
  if (maintenance_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(maint_mu_);
      stopping_ = true;
    }
    maint_cv_.notify_all();
    maintenance_.join();
  }
  if (wal_ != nullptr) {
    wal_->Sync();  // best effort: make the final frames durable
  }
}

void DurableStore::RegisterMetrics() {
  telemetry::MetricsRegistry* m = options_.metrics;
  if (m == nullptr) {
    return;
  }
  append_nanos_ = m->GetHistogram(
      {"asap_store_wal_append_seconds", "WAL append latency per batch frame",
       {}, 1e-9});
  fsync_nanos_ = m->GetHistogram(
      {"asap_store_fsync_seconds",
       "WAL fsync latency (batch syncs, segment seals and creation)", {},
       1e-9});
  compaction_nanos_ = m->GetHistogram(
      {"asap_store_compaction_seconds",
       "Latency of one compaction pass (chunk write + manifest publish)",
       {}, 1e-9});
  wal_bytes_total_ = m->GetCounter(
      {"asap_store_wal_bytes_total", "Bytes appended to the WAL"});
  fsync_total_ =
      m->GetCounter({"asap_store_fsync_total", "WAL fsync calls"});
  segments_sealed_total_ = m->GetCounter(
      {"asap_store_wal_segments_sealed_total", "WAL segments sealed"});
  panes_total_ = m->GetCounter(
      {"asap_store_panes_total", "Pane pre-aggregates appended"});
  batches_total_ = m->GetCounter(
      {"asap_store_batches_total", "Pane batches appended"});
  compactions_total_ = m->GetCounter(
      {"asap_store_compactions_total", "Compaction passes completed"});
  chunks_written_total_ = m->GetCounter(
      {"asap_store_chunks_written_total", "Chunk files written"});
  chunk_bytes_total_ = m->GetCounter(
      {"asap_store_chunk_bytes_total", "Bytes written to chunk files"});
  recovery_frames_total_ = m->GetCounter(
      {"asap_store_recovery_frames_total", "Valid WAL frames replayed at open"});
  recovery_panes_total_ = m->GetCounter(
      {"asap_store_recovery_panes_total", "Panes recovered from WAL replay"});
  recovery_truncated_bytes_total_ = m->GetCounter(
      {"asap_store_recovery_truncated_bytes_total",
       "Torn/corrupt WAL tail bytes discarded at open"});
  series_gauge_ =
      m->GetGauge({"asap_store_series", "Series registered in the store"});
  tail_panes_gauge_ = m->GetGauge(
      {"asap_store_tail_panes", "Panes in the in-memory tail (not yet "
                                "compacted into chunks)"});
}

Result<std::unique_ptr<DurableStore>> DurableStore::Open(std::string dir,
                                                         StoreOptions options) {
  std::unique_ptr<DurableStore> store(
      new DurableStore(std::move(dir), options));
  ASAP_RETURN_NOT_OK(store->OpenInternal());
  return store;
}

Status DurableStore::OpenInternal() {
  RegisterMetrics();
  ASAP_RETURN_NOT_OK(MakeDirs(dir_ + "/wal"));

  ChunkStore::Options chunk_options;
  chunk_options.chunks_written_total = chunks_written_total_.get();
  chunk_options.chunk_bytes_total = chunk_bytes_total_.get();
  auto chunks = ChunkStore::Open(dir_ + "/chunks", chunk_options);
  ASAP_RETURN_NOT_OK(chunks.status());
  chunks_ = std::move(chunks).ValueOrDie();

  // Seed identity + per-series chunk coverage from the manifest.
  const ManifestData manifest = chunks_->Manifest();
  names_ = manifest.names;
  series_.resize(names_.size());
  for (uint32_t sid = 0; sid < names_.size(); ++sid) {
    name_to_sid_.emplace(names_[sid], sid);
    series_[sid].tail_base = chunks_->PaneCountFor(sid);
    recovery_.chunk_panes += series_[sid].tail_base;
  }
  recovery_.chunk_series = names_.size();

  const std::string wal_dir = dir_ + "/wal";
  const uint32_t floor = manifest.wal_floor_seq;

  // Delete segments compaction already covered but a crash kept
  // around (manifest published, segment deletion interrupted).
  std::vector<std::string> wal_files;
  ASAP_RETURN_NOT_OK(ListDir(wal_dir, &wal_files));
  for (const std::string& name : wal_files) {
    const uint32_t seq = Wal::ParseSegmentFileName(name);
    if (seq > 0 && seq < floor) {
      RemoveFile(wal_dir + "/" + name);
    }
  }

  // Replay the WAL tail. The scan stops cleanly at the first invalid
  // frame; everything before it is applied, everything after is cut.
  WalScanStats stats;
  ASAP_RETURN_NOT_OK(ScanWal(
      wal_dir, floor,
      [this](uint32_t /*seq*/, const char* payload, size_t len) {
        return ReplayWalFrame(payload, len);
      },
      &stats));
  recovery_.wal_segments = stats.segments;
  recovery_.wal_frames = stats.frames;
  recovery_.wal_bytes = stats.bytes;
  recovery_.tail_truncated = stats.tail_truncated;
  recovery_.truncated_bytes = stats.truncated_bytes;

  if (stats.tail_truncated) {
    // Cut the torn tail so the garbage can never be re-read, and drop
    // any segments past it wholesale.
    const std::string torn = Wal::SegmentPath(wal_dir, stats.last_seq);
    if (stats.valid_end_offset <= kWalSegmentHeaderBytes) {
      RemoveFile(torn);
    } else {
      ASAP_RETURN_NOT_OK(TruncateFile(torn, stats.valid_end_offset));
    }
    ASAP_RETURN_NOT_OK(ListDir(wal_dir, &wal_files));
    for (const std::string& name : wal_files) {
      const uint32_t seq = Wal::ParseSegmentFileName(name);
      if (seq > stats.last_seq) {
        RemoveFile(wal_dir + "/" + name);
      }
    }
  }

  // Appends resume on a fresh segment — never inside a replayed one.
  const uint32_t live_seq =
      std::max({floor, stats.last_seq + 1, uint32_t{1}});
  WalOptions wal_options;
  wal_options.sync = options_.sync;
  wal_options.sync_interval_seconds = options_.sync_interval_seconds;
  wal_options.segment_bytes = options_.wal_segment_bytes;
  wal_options.append_nanos = append_nanos_.get();
  wal_options.fsync_nanos = fsync_nanos_.get();
  wal_options.appended_bytes = wal_bytes_total_.get();
  wal_options.fsync_total = fsync_total_.get();
  wal_options.segments_sealed_total = segments_sealed_total_.get();
  auto wal = Wal::Open(wal_dir, live_seq, wal_options);
  ASAP_RETURN_NOT_OK(wal.status());
  wal_ = std::move(wal).ValueOrDie();

  if (recovery_frames_total_ != nullptr) {
    recovery_frames_total_->Add(recovery_.wal_frames);
    recovery_panes_total_->Add(recovery_.replayed_panes);
    recovery_truncated_bytes_total_->Add(recovery_.truncated_bytes);
    series_gauge_->Set(static_cast<double>(names_.size()));
  }

  if (options_.background_maintenance) {
    maintenance_ = std::thread(&DurableStore::MaintenanceLoop, this);
  }
  return Status::OK();
}

Status DurableStore::ReplayWalFrame(const char* payload, size_t len) {
  // Replay runs single-threaded before wal_/maintenance exist, so mu_
  // is not needed; take it anyway for clarity with TSan.
  std::lock_guard<std::mutex> lock(mu_);
  if (len < 1) {
    return Status::IOError("wal replay: empty payload");
  }
  const uint8_t kind = static_cast<uint8_t>(payload[0]);
  if (kind == kRecRegistration) {
    if (len < 1 + 4 + 2) {
      return Status::IOError("wal replay: short registration");
    }
    const uint32_t sid = GetU32(payload + 1);
    const uint16_t name_len = GetU16(payload + 5);
    if (len != 1 + 4 + 2 + static_cast<size_t>(name_len)) {
      return Status::IOError("wal replay: registration size mismatch");
    }
    const std::string name(payload + 7, name_len);
    if (sid < names_.size()) {
      if (names_[sid] != name) {
        return Status::Internal("wal replay: sid " + std::to_string(sid) +
                                " name mismatch");
      }
      return Status::OK();  // duplicate of a manifest-covered entry
    }
    if (sid != names_.size()) {
      return Status::Internal("wal replay: non-dense sid " +
                              std::to_string(sid));
    }
    names_.push_back(name);
    name_to_sid_.emplace(name, sid);
    series_.emplace_back();
    ++recovery_.replayed_registrations;
    return Status::OK();
  }
  if (kind == kRecPaneBatch) {
    if (len < 1 + 4) {
      return Status::IOError("wal replay: short pane batch");
    }
    const uint32_t run_count = GetU32(payload + 1);
    size_t off = 5;
    for (uint32_t r = 0; r < run_count; ++r) {
      if (len - off < 4 + 8 + 4) {
        return Status::IOError("wal replay: short pane run header");
      }
      const uint32_t sid = GetU32(payload + off);
      const uint64_t first = GetU64(payload + off + 4);
      const uint32_t count = GetU32(payload + off + 12);
      off += 16;
      if (count > (len - off) / 8) {
        return Status::IOError("wal replay: short pane run values");
      }
      if (sid >= series_.size()) {
        // Unknown series: tolerated (counted), never fatal.
        ++recovery_.orphan_pane_batches;
        off += static_cast<size_t>(count) * 8;
        continue;
      }
      SeriesState& st = series_[sid];
      const uint64_t cur = st.tail_base + st.tail.size();
      if (first + count <= cur) {
        // Entirely covered by chunks already: the compaction that
        // chunked it raced the WAL append past the roll boundary.
        ++recovery_.duplicate_pane_batches;
        off += static_cast<size_t>(count) * 8;
        continue;
      }
      if (first > cur) {
        // A hole would reorder panes; skip rather than guess.
        ++recovery_.gap_pane_batches;
        off += static_cast<size_t>(count) * 8;
        continue;
      }
      const uint64_t skip = cur - first;  // partially covered prefix
      if (skip > 0) {
        ++recovery_.duplicate_pane_batches;
      }
      st.tail.reserve(st.tail.size() + count - skip);
      for (uint64_t i = skip; i < count; ++i) {
        uint64_t bits = GetU64(payload + off + i * 8);
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        st.tail.push_back(v);
      }
      recovery_.replayed_panes += count - skip;
      off += static_cast<size_t>(count) * 8;
      ++recovery_.replayed_pane_batches;
    }
    if (off != len) {
      return Status::IOError("wal replay: trailing bytes in pane batch");
    }
    return Status::OK();
  }
  return Status::IOError("wal replay: unknown record kind " +
                         std::to_string(kind));
}

Result<uint32_t> DurableStore::RegisterSeries(std::string_view name) {
  if (name.empty() || name.size() > kMaxSeriesNameBytes) {
    return Status::InvalidArgument("RegisterSeries: bad name size");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = name_to_sid_.find(std::string(name));
  if (it != name_to_sid_.end()) {
    return it->second;
  }
  const uint32_t sid = static_cast<uint32_t>(names_.size());
  // Log BEFORE the sid can escape: holding mu_ across the append
  // guarantees no pane batch for this sid precedes its registration
  // in WAL order. Registration is cold, so the serialization is fine.
  std::string payload;
  payload.push_back(static_cast<char>(kRecRegistration));
  PutU32(sid, &payload);
  PutU16(static_cast<uint16_t>(name.size()), &payload);
  payload.append(name);
  ASAP_RETURN_NOT_OK(wal_->Append(payload.data(), payload.size()));
  names_.emplace_back(name);
  name_to_sid_.emplace(names_.back(), sid);
  series_.emplace_back();
  if (series_gauge_ != nullptr) {
    series_gauge_->Set(static_cast<double>(names_.size()));
  }
  return sid;
}

Result<uint32_t> DurableStore::FindSeries(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = name_to_sid_.find(std::string(name));
  if (it == name_to_sid_.end()) {
    return Status::NotFound("no such series");
  }
  return it->second;
}

std::string DurableStore::NameOf(uint32_t sid) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sid < names_.size() ? names_[sid] : std::string();
}

size_t DurableStore::series_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_.size();
}

void DurableStore::EncodePaneBatch(const PaneRun* runs, const uint64_t* firsts,
                                   size_t run_count, std::string* out) {
  out->push_back(static_cast<char>(kRecPaneBatch));
  PutU32(static_cast<uint32_t>(run_count), out);
  for (size_t r = 0; r < run_count; ++r) {
    PutU32(runs[r].sid, out);
    PutU64(firsts[r], out);
    PutU32(runs[r].count, out);
    for (uint32_t i = 0; i < runs[r].count; ++i) {
      uint64_t bits;
      std::memcpy(&bits, &runs[r].values[i], sizeof(bits));
      PutU64(bits, out);
    }
  }
}

Status DurableStore::AppendPanes(const PaneRun* runs, size_t run_count) {
  if (run_count == 0) {
    return Status::OK();
  }
  std::vector<uint64_t> firsts(run_count);
  uint64_t total = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t r = 0; r < run_count; ++r) {
      if (runs[r].sid >= series_.size()) {
        return Status::InvalidArgument("AppendPanes: unregistered sid");
      }
    }
    for (size_t r = 0; r < run_count; ++r) {
      SeriesState& st = series_[runs[r].sid];
      firsts[r] = st.tail_base + st.tail.size();
      st.tail.insert(st.tail.end(), runs[r].values,
                     runs[r].values + runs[r].count);
      total += runs[r].count;
    }
  }
  // The WAL append runs outside mu_ so appenders group-commit instead
  // of serializing behind the store lock. A compaction boundary can
  // slip between the tail insert and this append; replay handles the
  // resulting duplicate (see ReplayWalFrame).
  std::string payload;
  EncodePaneBatch(runs, firsts.data(), run_count, &payload);
  ASAP_RETURN_NOT_OK(wal_->Append(payload.data(), payload.size()));
  if (panes_total_ != nullptr) {
    panes_total_->Add(total);
    batches_total_->Increment();
  }
  return Status::OK();
}

Status DurableStore::Sync() { return wal_->Sync(); }

Status DurableStore::CompactOnce(bool force) {
  std::lock_guard<std::mutex> compact_lock(compact_mu_);
  if (!force &&
      wal_->SealedSeqs().size() < kCompactAfterSealedSegments) {
    return Status::OK();
  }
  telemetry::ScopedTimer timer(compaction_nanos_.get());

  // Boundary: roll the WAL and snapshot the tail under the store
  // lock. Every pane visible in the snapshot has its WAL bytes at or
  // below the roll (or is salvaged by replay dedup — see AppendPanes).
  std::vector<SeriesSlice> slices;
  std::vector<std::vector<double>> bufs;
  std::vector<std::string> names_copy;
  uint32_t new_floor = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto roll = wal_->Roll();
    if (!roll.ok()) {
      return roll.status();
    }
    new_floor = roll.ValueOrDie();
    bufs.reserve(series_.size());
    for (uint32_t sid = 0; sid < series_.size(); ++sid) {
      SeriesState& st = series_[sid];
      if (st.tail.empty()) {
        continue;
      }
      bufs.push_back(st.tail);
      SeriesSlice slice;
      slice.sid = sid;
      slice.first_pane = st.tail_base;
      slice.values = bufs.back().data();
      slice.count = bufs.back().size();
      slices.push_back(slice);
    }
    names_copy = names_;
  }
  if (slices.empty() && new_floor <= chunks_->wal_floor_seq() &&
      names_copy.size() == chunks_->Manifest().names.size()) {
    return Status::OK();  // nothing new to publish
  }

  auto chunk_id = chunks_->WriteChunk(slices, names_copy, new_floor);
  ASAP_RETURN_NOT_OK(chunk_id.status());

  uint64_t remaining_tail = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SeriesSlice& slice : slices) {
      SeriesState& st = series_[slice.sid];
      // The tail may have grown since the snapshot; trim exactly the
      // chunked prefix.
      st.tail.erase(st.tail.begin(),
                    st.tail.begin() + static_cast<ptrdiff_t>(slice.count));
      st.tail_base += slice.count;
    }
    for (const SeriesState& st : series_) {
      remaining_tail += st.tail.size();
    }
  }

  // The manifest no longer needs anything below the floor: drop
  // sealed segments and sweep replay leftovers from before this run.
  ASAP_RETURN_NOT_OK(wal_->DropSealedThrough(new_floor - 1));
  std::vector<std::string> wal_files;
  ASAP_RETURN_NOT_OK(ListDir(dir_ + "/wal", &wal_files));
  for (const std::string& name : wal_files) {
    const uint32_t seq = Wal::ParseSegmentFileName(name);
    if (seq > 0 && seq < new_floor) {
      RemoveFile(dir_ + "/wal/" + name);
    }
  }

  if (compactions_total_ != nullptr) {
    compactions_total_->Increment();
    tail_panes_gauge_->Set(static_cast<double>(remaining_tail));
  }
  return Status::OK();
}

uint64_t DurableStore::PaneCount(uint32_t sid) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (sid >= series_.size()) {
    return 0;
  }
  return series_[sid].tail_base + series_[sid].tail.size();
}

Status DurableStore::ReadPanes(uint32_t sid, uint64_t first, uint64_t count,
                               std::vector<double>* out) const {
  out->clear();
  if (count == 0) {
    return Status::OK();
  }
  uint64_t tail_base = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sid >= series_.size()) {
      return Status::NotFound("ReadPanes: no such sid");
    }
    const SeriesState& st = series_[sid];
    const uint64_t total = st.tail_base + st.tail.size();
    if (first + count > total || first + count < first) {
      return Status::OutOfRange("ReadPanes: range past end of series");
    }
    tail_base = st.tail_base;
    out->assign(count, 0.0);
    // Tail part now, while it cannot shift under us.
    const uint64_t lo = std::max(first, st.tail_base);
    for (uint64_t p = lo; p < first + count; ++p) {
      (*out)[p - first] = st.tail[p - st.tail_base];
    }
  }
  if (first >= tail_base) {
    return Status::OK();
  }
  // Chunk part: entries are immutable once published, so no lock is
  // held across file IO.
  const uint64_t chunk_hi = std::min(first + count, tail_base);
  uint64_t filled = 0;
  for (const ChunkEntry& e : chunks_->EntriesFor(sid)) {
    const uint64_t e_end = e.first_pane + e.pane_count;
    if (e_end <= first || e.first_pane >= chunk_hi) {
      continue;
    }
    std::vector<uint64_t> indices;
    std::vector<double> values;
    ASAP_RETURN_NOT_OK(chunks_->ReadSeriesBlock(e, &indices, &values));
    for (size_t i = 0; i < indices.size(); ++i) {
      if (indices[i] >= first && indices[i] < chunk_hi) {
        (*out)[indices[i] - first] = values[i];
        ++filled;
      }
    }
  }
  if (filled != chunk_hi - first) {
    return Status::Internal("ReadPanes: chunk coverage hole for sid " +
                            std::to_string(sid));
  }
  return Status::OK();
}

void DurableStore::MaintenanceLoop() {
  const auto interval = std::chrono::duration<double>(
      std::max(options_.maintenance_interval_seconds, 0.01));
  std::unique_lock<std::mutex> lock(maint_mu_);
  while (!stopping_) {
    maint_cv_.wait_for(lock, interval, [this] { return stopping_; });
    if (stopping_) {
      return;
    }
    lock.unlock();
    // Enforce the sync deadline through idle periods (the append path
    // only syncs when appends arrive) and fold sealed segments away.
    if (options_.sync == SyncPolicy::kInterval) {
      wal_->Sync();
    }
    CompactOnce(false);
    lock.lock();
  }
}

}  // namespace storage
}  // namespace asap
