#include "storage/chunk_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "storage/byte_order.h"
#include "storage/chunk_codec.h"
#include "storage/crc32c.h"
#include "storage/posix_file.h"
#include "telemetry/metrics.h"

namespace asap {
namespace storage {

namespace {

/// Bounds-checked cursor over a decoded byte buffer.
struct Cursor {
  const char* p;
  const char* end;

  bool Need(size_t n) const { return static_cast<size_t>(end - p) >= n; }
  uint16_t U16() {
    const uint16_t v = GetU16(p);
    p += 2;
    return v;
  }
  uint32_t U32() {
    const uint32_t v = GetU32(p);
    p += 4;
    return v;
  }
  uint64_t U64() {
    const uint64_t v = GetU64(p);
    p += 8;
    return v;
  }
};

}  // namespace

std::string ChunkStore::ChunkFileName(uint32_t chunk_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%08u.chunk", chunk_id);
  return buf;
}

uint32_t ChunkStore::ParseChunkFileName(const std::string& name) {
  if (name.size() != 14 || name.compare(8, 6, ".chunk") != 0) {
    return 0;
  }
  uint32_t id = 0;
  for (int i = 0; i < 8; ++i) {
    const char c = name[static_cast<size_t>(i)];
    if (c < '0' || c > '9') {
      return 0;
    }
    id = id * 10 + static_cast<uint32_t>(c - '0');
  }
  return id;
}

std::string ChunkStore::EncodeManifest(const ManifestData& m) {
  std::string out;
  PutU64(kManifestMagic, &out);
  PutU32(kChunkFormatVersion, &out);
  PutU32(m.wal_floor_seq, &out);
  PutU32(m.next_chunk_id, &out);
  PutU32(static_cast<uint32_t>(m.names.size()), &out);
  for (const std::string& name : m.names) {
    PutU16(static_cast<uint16_t>(name.size()), &out);
    out.append(name);
  }
  PutU32(static_cast<uint32_t>(m.entries.size()), &out);
  for (const ChunkEntry& e : m.entries) {
    PutU32(e.chunk_id, &out);
    PutU32(e.sid, &out);
    PutU64(e.first_pane, &out);
    PutU32(e.pane_count, &out);
    PutU64(e.offset, &out);
    PutU32(e.block_len, &out);
    PutU32(e.block_crc, &out);
  }
  PutU32(Crc32cMask(Crc32c(out.data(), out.size())), &out);
  return out;
}

Status ChunkStore::DecodeManifest(const std::string& data, ManifestData* out) {
  *out = ManifestData{};
  if (data.size() < 24 + 4) {
    return Status::IOError("manifest: too short");
  }
  const uint32_t stored_crc = GetU32(data.data() + data.size() - 4);
  if (Crc32cMask(Crc32c(data.data(), data.size() - 4)) != stored_crc) {
    return Status::IOError("manifest: checksum mismatch");
  }
  Cursor c{data.data(), data.data() + data.size() - 4};
  if (c.U64() != kManifestMagic || c.U32() != kChunkFormatVersion) {
    return Status::IOError("manifest: bad magic or version");
  }
  out->wal_floor_seq = c.U32();
  out->next_chunk_id = c.U32();
  if (!c.Need(4)) {
    return Status::IOError("manifest: truncated");
  }
  const uint32_t name_count = c.U32();
  out->names.reserve(name_count);
  for (uint32_t i = 0; i < name_count; ++i) {
    if (!c.Need(2)) {
      return Status::IOError("manifest: truncated name table");
    }
    const uint16_t len = c.U16();
    if (!c.Need(len)) {
      return Status::IOError("manifest: truncated name");
    }
    out->names.emplace_back(c.p, len);
    c.p += len;
  }
  if (!c.Need(4)) {
    return Status::IOError("manifest: truncated");
  }
  const uint32_t entry_count = c.U32();
  constexpr size_t kEntryBytes = 4 + 4 + 8 + 4 + 8 + 4 + 4;
  if (!c.Need(static_cast<size_t>(entry_count) * kEntryBytes)) {
    return Status::IOError("manifest: truncated entries");
  }
  out->entries.reserve(entry_count);
  for (uint32_t i = 0; i < entry_count; ++i) {
    ChunkEntry e;
    e.chunk_id = c.U32();
    e.sid = c.U32();
    e.first_pane = c.U64();
    e.pane_count = c.U32();
    e.offset = c.U64();
    e.block_len = c.U32();
    e.block_crc = c.U32();
    out->entries.push_back(e);
  }
  if (c.p != c.end) {
    return Status::IOError("manifest: trailing bytes");
  }
  return Status::OK();
}

ChunkStore::ChunkStore(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {}

std::string ChunkStore::ChunkPath(uint32_t chunk_id) const {
  return dir_ + "/" + ChunkFileName(chunk_id);
}

std::string ChunkStore::ManifestPath() const { return dir_ + "/MANIFEST"; }

Result<std::unique_ptr<ChunkStore>> ChunkStore::Open(std::string dir,
                                                     Options options) {
  ASAP_RETURN_NOT_OK(MakeDirs(dir));
  std::unique_ptr<ChunkStore> store(new ChunkStore(std::move(dir), options));
  if (PathExists(store->ManifestPath())) {
    std::string raw;
    ASAP_RETURN_NOT_OK(ReadFile(store->ManifestPath(), &raw));
    ASAP_RETURN_NOT_OK(DecodeManifest(raw, &store->manifest_));
  }
  // Sweep crash leftovers: chunk files the manifest does not
  // reference (written but never published) and stale rename temps.
  std::vector<std::string> names;
  ASAP_RETURN_NOT_OK(ListDir(store->dir_, &names));
  for (const std::string& name : names) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      RemoveFile(store->dir_ + "/" + name);
      continue;
    }
    const uint32_t id = ParseChunkFileName(name);
    if (id == 0) {
      continue;
    }
    bool referenced = false;
    for (const ChunkEntry& e : store->manifest_.entries) {
      if (e.chunk_id == id) {
        referenced = true;
        break;
      }
    }
    if (!referenced) {
      RemoveFile(store->dir_ + "/" + name);
    }
  }
  return store;
}

Result<uint32_t> ChunkStore::WriteChunk(const std::vector<SeriesSlice>& slices,
                                        const std::vector<std::string>& names,
                                        uint32_t wal_floor_seq) {
  ManifestData next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    next = manifest_;
  }
  next.names = names;
  next.wal_floor_seq = std::max(next.wal_floor_seq, wal_floor_seq);

  uint32_t chunk_id = 0;
  size_t live_slices = 0;
  for (const SeriesSlice& s : slices) {
    if (s.count > 0) {
      ++live_slices;
    }
  }
  if (live_slices > 0) {
    chunk_id = next.next_chunk_id++;
    std::string file;
    PutU64(kChunkMagic, &file);
    PutU32(kChunkFormatVersion, &file);
    PutU32(chunk_id, &file);
    PutU32(static_cast<uint32_t>(live_slices), &file);
    for (const SeriesSlice& s : slices) {
      if (s.count == 0) {
        continue;
      }
      std::string block;
      EncodeContiguousPaneBlock(s.first_pane, s.values, s.count, &block);
      ChunkEntry e;
      e.chunk_id = chunk_id;
      e.sid = s.sid;
      e.first_pane = s.first_pane;
      e.pane_count = static_cast<uint32_t>(s.count);
      e.block_len = static_cast<uint32_t>(block.size());
      e.block_crc = Crc32cMask(Crc32c(block.data(), block.size()));
      PutU32(s.sid, &file);
      PutU32(e.block_len, &file);
      PutU32(e.block_crc, &file);
      e.offset = file.size();
      file.append(block);
      next.entries.push_back(e);
    }
    // The chunk must be durable before the manifest points at it.
    ASAP_RETURN_NOT_OK(AtomicWriteFile(ChunkPath(chunk_id), file));
    if (options_.chunks_written_total != nullptr) {
      options_.chunks_written_total->Increment();
    }
    if (options_.chunk_bytes_total != nullptr) {
      options_.chunk_bytes_total->Add(file.size());
    }
  }

  ASAP_RETURN_NOT_OK(AtomicWriteFile(ManifestPath(), EncodeManifest(next)));
  {
    std::lock_guard<std::mutex> lock(mu_);
    manifest_ = std::move(next);
  }
  return chunk_id;
}

Status ChunkStore::ReadSeriesBlock(const ChunkEntry& entry,
                                   std::vector<uint64_t>* indices,
                                   std::vector<double>* values) const {
  FileHandle f;
  ASAP_RETURN_NOT_OK(OpenForRead(ChunkPath(entry.chunk_id), &f));
  std::string block(entry.block_len, '\0');
  ASAP_RETURN_NOT_OK(ReadExactAt(f.fd(), entry.offset, block.data(),
                                 block.size()));
  if (Crc32cMask(Crc32c(block.data(), block.size())) != entry.block_crc) {
    return Status::IOError("chunk " + ChunkFileName(entry.chunk_id) +
                           ": block checksum mismatch");
  }
  return DecodePaneBlock(block.data(), block.size(), indices, values);
}

std::vector<ChunkEntry> ChunkStore::EntriesFor(uint32_t sid) const {
  std::vector<ChunkEntry> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const ChunkEntry& e : manifest_.entries) {
      if (e.sid == sid) {
        out.push_back(e);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ChunkEntry& a, const ChunkEntry& b) {
              return a.first_pane < b.first_pane;
            });
  return out;
}

uint64_t ChunkStore::PaneCountFor(uint32_t sid) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t max_end = 0;
  for (const ChunkEntry& e : manifest_.entries) {
    if (e.sid == sid) {
      max_end = std::max(max_end, e.first_pane + e.pane_count);
    }
  }
  return max_end;
}

ManifestData ChunkStore::Manifest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return manifest_;
}

uint32_t ChunkStore::wal_floor_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return manifest_.wal_floor_seq;
}

}  // namespace storage
}  // namespace asap
