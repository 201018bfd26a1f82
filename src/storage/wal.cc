#include "storage/wal.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "storage/byte_order.h"
#include "storage/crc32c.h"
#include "telemetry/metrics.h"

namespace asap {
namespace storage {

namespace {

/// Runs one fsync under the WAL's fsync instruments. Every WAL fsync —
/// group-commit syncs, segment seals, segment creation and its
/// directory entry — goes through here, so asap_store_fsync_seconds
/// and asap_store_fsync_total count them all.
template <typename SyncFn>
Status TimedSync(const WalOptions& options, SyncFn sync) {
  Status s = Status::OK();
  {
    telemetry::ScopedTimer timer(options.fsync_nanos);
    s = sync();
  }
  if (s.ok() && options.fsync_total != nullptr) {
    options.fsync_total->Increment();
  }
  return s;
}

}  // namespace

const char* SyncPolicyName(SyncPolicy policy) {
  switch (policy) {
    case SyncPolicy::kNone:
      return "none";
    case SyncPolicy::kInterval:
      return "interval";
    case SyncPolicy::kEveryBatch:
      return "every_batch";
  }
  return "unknown";
}

std::string Wal::SegmentFileName(uint32_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%08u.wal", seq);
  return buf;
}

std::string Wal::SegmentPath(const std::string& dir, uint32_t seq) {
  return dir + "/" + SegmentFileName(seq);
}

uint32_t Wal::ParseSegmentFileName(const std::string& name) {
  if (name.size() != 12 || name.compare(8, 4, ".wal") != 0) {
    return 0;
  }
  uint32_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    const char c = name[static_cast<size_t>(i)];
    if (c < '0' || c > '9') {
      return 0;
    }
    seq = seq * 10 + static_cast<uint32_t>(c - '0');
  }
  return seq;
}

void Wal::AppendSegmentHeader(uint32_t seq, std::string* out) {
  PutU64(kWalMagic, out);
  PutU32(kWalFormatVersion, out);
  PutU32(seq, out);
}

void Wal::AppendFrame(const void* payload, size_t n, std::string* out) {
  PutU32(static_cast<uint32_t>(n), out);
  PutU32(Crc32cMask(Crc32c(payload, n)), out);
  out->append(static_cast<const char*>(payload), n);
}

Wal::Wal(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {}

Result<std::unique_ptr<Wal>> Wal::Open(std::string dir, uint32_t live_seq,
                                       WalOptions options) {
  if (live_seq == 0) {
    return Status::InvalidArgument("Wal: segment seq must be >= 1");
  }
  std::unique_ptr<Wal> wal(new Wal(std::move(dir), options));
  ASAP_RETURN_NOT_OK(wal->OpenLiveSegment(live_seq));
  return wal;
}

Status Wal::OpenLiveSegment(uint32_t seq) {
  const std::string path = SegmentPath(dir_, seq);
  FileHandle f;
  ASAP_RETURN_NOT_OK(OpenForWrite(path, &f));
  std::string header;
  AppendSegmentHeader(seq, &header);
  ASAP_RETURN_NOT_OK(WriteFull(f.fd(), header.data(), header.size()));
  // Make the segment's existence durable before anything relies on it.
  ASAP_RETURN_NOT_OK(TimedSync(options_, [&] { return SyncFd(f.fd()); }));
  ASAP_RETURN_NOT_OK(TimedSync(options_, [&] { return SyncDir(dir_); }));
  live_ = std::move(f);
  live_seq_ = seq;
  live_bytes_ = header.size();
  return Status::OK();
}

Status Wal::Append(const void* payload, size_t n) {
  if (n == 0 || n > kWalMaxFrameBytes) {
    return Status::InvalidArgument("Wal::Append: bad payload size");
  }
  telemetry::ScopedTimer timer(options_.append_nanos);
  std::string frame;
  frame.reserve(kWalFrameHeaderBytes + n);
  AppendFrame(payload, n, &frame);
  if (options_.appended_bytes != nullptr) {
    options_.appended_bytes->Add(frame.size());
  }

  std::unique_lock<std::mutex> lock(mu_);
  if (!io_status_.ok()) {
    return io_status_;
  }
  pending_.append(frame);
  appended_end_ += frame.size();
  const uint64_t target = appended_end_;

  bool need_sync = false;
  if (options_.sync == SyncPolicy::kEveryBatch) {
    need_sync = true;
  } else if (options_.sync == SyncPolicy::kInterval &&
             sync_watch_.ElapsedSeconds() >= options_.sync_interval_seconds) {
    need_sync = true;
    sync_watch_.Reset();
  }
  if (need_sync) {
    sync_wanted_ = std::max(sync_wanted_, target);
  }
  FlushUntilLocked(lock, target, need_sync);
  return io_status_;
}

Status Wal::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!io_status_.ok()) {
    return io_status_;
  }
  const uint64_t target = appended_end_;
  sync_wanted_ = std::max(sync_wanted_, target);
  FlushUntilLocked(lock, target, /*need_sync=*/true);
  return io_status_;
}

void Wal::FlushUntilLocked(std::unique_lock<std::mutex>& lock, uint64_t target,
                           bool need_sync) {
  while (io_status_.ok() &&
         (need_sync ? synced_end_ : written_end_) < target) {
    if (flush_active_) {
      // Another leader owns the fd; its completion may cover us.
      cv_.wait(lock);
      continue;
    }
    // Become the leader: take everything buffered so far (our frame
    // plus any that piled up behind the previous flush).
    flush_active_ = true;
    std::string buf;
    buf.swap(pending_);
    const uint64_t write_to = appended_end_;
    const bool do_sync = sync_wanted_ > synced_end_;
    lock.unlock();

    Status s = Status::OK();
    if (!buf.empty()) {
      s = WriteToLiveSegment(buf);
    }
    bool synced = false;
    if (s.ok() && do_sync) {
      s = TimedSync(options_, [&] { return SyncFd(live_.fd()); });
      synced = s.ok();
    }

    lock.lock();
    written_end_ = std::max(written_end_, write_to);
    if (synced) {
      // The fsync covered every byte written before it started.
      synced_end_ = std::max(synced_end_, write_to);
    }
    if (!s.ok() && io_status_.ok()) {
      io_status_ = s;
    }
    flush_active_ = false;
    cv_.notify_all();
  }
}

Status Wal::WriteToLiveSegment(const std::string& buf) {
  if (live_bytes_ > kWalSegmentHeaderBytes &&
      live_bytes_ + buf.size() > options_.segment_bytes) {
    ASAP_RETURN_NOT_OK(RollInternal());
  }
  ASAP_RETURN_NOT_OK(WriteFull(live_.fd(), buf.data(), buf.size()));
  live_bytes_ += buf.size();
  return Status::OK();
}

Status Wal::RollInternal() {
  // Sealed content must be durable: compaction reads it back and then
  // deletes the file, so its bytes cannot be weaker than the chunk
  // that replaces them.
  ASAP_RETURN_NOT_OK(TimedSync(options_, [&] { return SyncFd(live_.fd()); }));
  const uint32_t sealed_seq = live_seq_;
  live_.Close();
  ASAP_RETURN_NOT_OK(OpenLiveSegment(sealed_seq + 1));
  {
    std::lock_guard<std::mutex> lock(mu_);
    sealed_.push_back(sealed_seq);
  }
  if (options_.segments_sealed_total != nullptr) {
    options_.segments_sealed_total->Increment();
  }
  return Status::OK();
}

Result<uint32_t> Wal::Roll() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !flush_active_; });
  if (!io_status_.ok()) {
    return io_status_;
  }
  // Flush buffered frames into the old segment so every byte appended
  // before this call lands below the roll boundary.
  if (!pending_.empty()) {
    std::string buf;
    buf.swap(pending_);
    const uint64_t write_to = appended_end_;
    Status s = WriteFull(live_.fd(), buf.data(), buf.size());
    if (s.ok()) {
      live_bytes_ += buf.size();
      written_end_ = std::max(written_end_, write_to);
    } else {
      io_status_ = s;
      return io_status_;
    }
  }
  if (live_bytes_ <= kWalSegmentHeaderBytes) {
    return live_seq_;  // empty live segment: nothing to seal
  }
  // RollInternal reacquires mu_ to push the sealed seq; drop it here.
  // flush_active_ keeps the fd exclusively ours meanwhile.
  flush_active_ = true;
  lock.unlock();
  Status s = RollInternal();
  lock.lock();
  if (s.ok()) {
    // Everything written is now synced (seal fsyncs the old segment;
    // the new one holds no frames yet).
    synced_end_ = std::max(synced_end_, written_end_);
  } else if (io_status_.ok()) {
    io_status_ = s;
  }
  flush_active_ = false;
  cv_.notify_all();
  if (!s.ok()) {
    return s;
  }
  return live_seq_;
}

uint32_t Wal::live_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_seq_;
}

std::vector<uint32_t> Wal::SealedSeqs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_;
}

Status Wal::DropSealedThrough(uint32_t seq) {
  std::vector<uint32_t> drop;
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t keep = 0;
    for (uint32_t s : sealed_) {
      if (s <= seq) {
        drop.push_back(s);
      } else {
        sealed_[keep++] = s;
      }
    }
    sealed_.resize(keep);
  }
  for (uint32_t s : drop) {
    Status st = RemoveFile(SegmentPath(dir_, s));
    if (!st.ok() && st.code() != StatusCode::kNotFound) {
      return st;
    }
  }
  return Status::OK();
}

uint64_t Wal::appended_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_end_;
}

Status ScanWal(
    const std::string& dir, uint32_t floor_seq,
    const std::function<Status(uint32_t seq, const char* payload, size_t len)>&
        fn,
    WalScanStats* stats) {
  *stats = WalScanStats{};
  std::vector<std::string> names;
  ASAP_RETURN_NOT_OK(ListDir(dir, &names));
  std::vector<uint32_t> seqs;
  for (const std::string& name : names) {
    const uint32_t seq = Wal::ParseSegmentFileName(name);
    if (seq >= floor_seq && seq > 0) {
      seqs.push_back(seq);
    }
  }
  // ListDir sorts lexicographically == numerically for zero-padded
  // names, but don't rely on it.
  std::sort(seqs.begin(), seqs.end());

  for (size_t i = 0; i < seqs.size(); ++i) {
    const uint32_t seq = seqs[i];
    const std::string path = Wal::SegmentPath(dir, seq);
    std::string data;
    ASAP_RETURN_NOT_OK(ReadFile(path, &data));
    ++stats->segments;

    auto invalid_at = [&](uint64_t offset) {
      // Everything from `offset` in this segment plus all later
      // segments is garbage past the valid prefix.
      stats->tail_truncated = true;
      stats->truncated_bytes += data.size() - offset;
      stats->last_seq = seq;
      stats->valid_end_offset = offset;
      for (size_t j = i + 1; j < seqs.size(); ++j) {
        uint64_t sz = 0;
        if (FileSize(Wal::SegmentPath(dir, seqs[j]), &sz).ok()) {
          stats->truncated_bytes += sz;
        }
      }
    };

    // Validate the segment header.
    if (data.size() < kWalSegmentHeaderBytes ||
        GetU64(data.data()) != kWalMagic ||
        GetU32(data.data() + 8) != kWalFormatVersion ||
        GetU32(data.data() + 12) != seq) {
      invalid_at(0);
      return Status::OK();
    }

    uint64_t off = kWalSegmentHeaderBytes;
    for (;;) {
      if (off == data.size()) {
        break;  // clean end of segment
      }
      if (data.size() - off < kWalFrameHeaderBytes) {
        invalid_at(off);
        return Status::OK();
      }
      const uint32_t len = GetU32(data.data() + off);
      const uint32_t stored_crc = GetU32(data.data() + off + 4);
      if (len == 0 || len > kWalMaxFrameBytes ||
          len > data.size() - off - kWalFrameHeaderBytes) {
        invalid_at(off);
        return Status::OK();
      }
      const char* payload = data.data() + off + kWalFrameHeaderBytes;
      if (Crc32cMask(Crc32c(payload, len)) != stored_crc) {
        invalid_at(off);
        return Status::OK();
      }
      ASAP_RETURN_NOT_OK(fn(seq, payload, len));
      ++stats->frames;
      stats->bytes += len;
      off += kWalFrameHeaderBytes + len;
      stats->last_seq = seq;
      stats->valid_end_offset = off;
    }
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace asap
