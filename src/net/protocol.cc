#include "net/protocol.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/macros.h"

namespace asap {
namespace net {

namespace {

// Little-endian wire order. All supported targets are little-endian,
// so encode/decode are straight memcpys; a big-endian port would swap
// here and nowhere else.
void PutU32(uint32_t v, std::string* out) {
  char raw[4];
  std::memcpy(raw, &v, 4);
  out->append(raw, 4);
}

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

void PutI64(int64_t v, std::string* out) {
  char raw[8];
  std::memcpy(raw, &v, 8);
  out->append(raw, 8);
}

int64_t GetI64(const char* p) {
  int64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

bool IsLineSpace(char c) { return c == ' ' || c == '\t'; }

}  // namespace

const char* WireEncodingName(WireEncoding encoding) {
  return encoding == WireEncoding::kText ? "text" : "binary";
}

void AppendTextRecord(std::string_view name, double value, std::string* out) {
  ASAP_DCHECK(stream::IsValidSeriesName(name));
  out->append(name.data(), name.size());
  out->push_back(' ');
  // std::to_chars: locale-independent (a comma-decimal LC_NUMERIC in
  // the host process must not corrupt the wire format) and shortest
  // round-trip, so the receiver's from_chars recovers the exact bits.
  char digits[32];
  const std::to_chars_result r =
      std::to_chars(digits, digits + sizeof(digits), value);
  ASAP_DCHECK(r.ec == std::errc());
  out->append(digits, static_cast<size_t>(r.ptr - digits));
  out->push_back('\n');
}

void AppendTextRecord(std::string_view name, double value, int64_t ts,
                      std::string* out) {
  AppendTextRecord(name, value, out);
  // Splice the timestamp token in before the newline the two-token
  // form just appended.
  out->back() = ' ';
  char digits[24];
  const std::to_chars_result r =
      std::to_chars(digits, digits + sizeof(digits), ts);
  ASAP_DCHECK(r.ec == std::errc());
  out->append(digits, static_cast<size_t>(r.ptr - digits));
  out->push_back('\n');
}

void AppendNameFrame(uint32_t wire_id, std::string_view name,
                     std::string* out) {
  ASAP_CHECK(stream::IsValidSeriesName(name));
  out->push_back(static_cast<char>(kNameMagic));
  PutU32(static_cast<uint32_t>(sizeof(uint32_t) + name.size()), out);
  PutU32(wire_id, out);
  out->append(name.data(), name.size());
}

void AppendBinaryFrame(const stream::Record* records, size_t n,
                       std::string* out) {
  if (n == 0) {
    // A zero-length frame is corrupt framing on the wire (the decoder
    // poisons the stream on payload == 0), so encode nothing instead.
    return;
  }
  const size_t payload = n * kBinaryRecordBytes;
  ASAP_CHECK_LE(payload, std::numeric_limits<uint32_t>::max());
  out->push_back(static_cast<char>(kBinaryMagic));
  PutU32(static_cast<uint32_t>(payload), out);
  for (size_t i = 0; i < n; ++i) {
    PutU32(records[i].series_id, out);
    char raw[8];
    std::memcpy(raw, &records[i].value, 8);
    out->append(raw, 8);
  }
}

void AppendTimedFrame(const stream::Record* records, size_t n,
                      std::string* out) {
  if (n == 0) {
    return;  // see AppendBinaryFrame: empty frames are corrupt framing
  }
  const size_t payload = n * kTimedRecordBytes;
  ASAP_CHECK_LE(payload, std::numeric_limits<uint32_t>::max());
  out->push_back(static_cast<char>(kTimedMagic));
  PutU32(static_cast<uint32_t>(payload), out);
  for (size_t i = 0; i < n; ++i) {
    PutU32(records[i].series_id, out);
    char raw[8];
    std::memcpy(raw, &records[i].value, 8);
    out->append(raw, 8);
    PutI64(records[i].ts, out);
  }
}

WireEncoder::WireEncoder(const stream::SeriesCatalog* catalog,
                         WireEncoding encoding, size_t frame_records,
                         bool timestamped)
    : catalog_(catalog),
      encoding_(encoding),
      frame_records_(frame_records),
      timestamped_(timestamped) {
  ASAP_CHECK(catalog_ != nullptr);
  ASAP_CHECK_GE(frame_records_, 1u);
}

void WireEncoder::Encode(const stream::Record* records, size_t n,
                         std::string* out) {
  if (encoding_ == WireEncoding::kText) {
    for (size_t i = 0; i < n; ++i) {
      if (timestamped_) {
        AppendTextRecord(catalog_->NameOf(records[i].series_id),
                         records[i].value, records[i].ts, out);
      } else {
        AppendTextRecord(catalog_->NameOf(records[i].series_id),
                         records[i].value, out);
      }
    }
    return;
  }
  // Announce every not-yet-registered id up front so each 0xA6 frame
  // precedes the first 0xA5/0xA7 record that references it.
  for (size_t i = 0; i < n; ++i) {
    const stream::SeriesId id = records[i].series_id;
    if (id >= announced_.size()) {
      announced_.resize(std::max<size_t>(id + 1, catalog_->size()), false);
    }
    if (!announced_[id]) {
      AppendNameFrame(id, catalog_->NameOf(id), out);
      announced_[id] = true;
    }
  }
  for (size_t i = 0; i < n; i += frame_records_) {
    const size_t chunk = std::min(frame_records_, n - i);
    if (timestamped_) {
      AppendTimedFrame(records + i, chunk, out);
    } else {
      AppendBinaryFrame(records + i, chunk, out);
    }
  }
}

FrameDecoder::FrameDecoder(stream::SeriesCatalog* catalog,
                           size_t max_frame_bytes)
    : catalog_(catalog), max_frame_bytes_(max_frame_bytes) {
  ASAP_CHECK(catalog_ != nullptr);
  ASAP_CHECK_GE(max_frame_bytes_, kBinaryHeaderBytes + kBinaryRecordBytes);
}

bool FrameDecoder::Feed(const char* data, size_t n, stream::RecordBatch* out) {
  if (poisoned_) {
    return false;
  }
  stats_.bytes += n;
  if (buffer_.empty()) {
    // Common case: no carry-over — decode straight from the caller's
    // slice and stash only the unconsumed tail.
    const size_t consumed = DecodeSome(data, n, out);
    if (consumed < n) {
      buffer_.assign(data + consumed, data + n);
    }
    return !poisoned_;
  }
  buffer_.insert(buffer_.end(), data, data + n);
  const size_t consumed = DecodeSome(buffer_.data(), buffer_.size(), out);
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<ptrdiff_t>(consumed));
  return !poisoned_;
}

void FrameDecoder::FinishEof(stream::RecordBatch* out) {
  // While discarding an oversized line the buffer is always empty
  // (DecodeSome consumed everything), and the line was already counted
  // malformed — nothing further to account at EOF.
  if (poisoned_ || buffer_.empty()) {
    buffer_.clear();
    line_scan_offset_ = 0;
    return;
  }
  const unsigned char first = static_cast<unsigned char>(buffer_.front());
  if (first == kBinaryMagic || first == kNameMagic || first == kTimedMagic) {
    // A binary frame cut off mid-stream.
    stats_.malformed_frames += 1;
  } else {
    size_t len = buffer_.size();
    if (buffer_[len - 1] == '\r') {
      --len;  // a CRLF sender that lost its LF at close
    }
    DecodeLine(buffer_.data(), len, out);
  }
  buffer_.clear();
  line_scan_offset_ = 0;
}

void FrameDecoder::AbandonEof() {
  if (!poisoned_ && !buffer_.empty()) {
    const unsigned char first = static_cast<unsigned char>(buffer_.front());
    if (first == kBinaryMagic || first == kNameMagic ||
        first == kTimedMagic) {
      stats_.malformed_frames += 1;
    } else {
      stats_.malformed_lines += 1;
    }
  }
  buffer_.clear();
  line_scan_offset_ = 0;
}

size_t FrameDecoder::DecodeSome(const char* data, size_t size,
                                stream::RecordBatch* out) {
  size_t pos = 0;
  while (pos < size) {
    if (discarding_line_) {
      const char* nl = static_cast<const char*>(
          std::memchr(data + pos, '\n', size - pos));
      if (nl == nullptr) {
        return size;  // still inside the oversized line
      }
      discarding_line_ = false;
      pos = static_cast<size_t>(nl - data) + 1;
      continue;
    }
    const unsigned char first = static_cast<unsigned char>(data[pos]);
    if (first == kBinaryMagic || first == kNameMagic ||
        first == kTimedMagic) {
      if (size - pos < kBinaryHeaderBytes) {
        return pos;  // partial header
      }
      const size_t record_bytes =
          first == kTimedMagic ? kTimedRecordBytes : kBinaryRecordBytes;
      const uint32_t payload = GetU32(data + pos + 1);
      const bool bad_length =
          payload == 0 || payload > max_frame_bytes_ ||
          (first != kNameMagic && payload % record_bytes != 0);
      if (bad_length) {
        // Corrupt framing: no resync point exists inside the frame,
        // so poison the stream instead of mis-parsing garbage.
        stats_.malformed_frames += 1;
        poisoned_ = true;
        return size;
      }
      if (size - pos < kBinaryHeaderBytes + payload) {
        return pos;  // partial payload
      }
      const char* p = data + pos + kBinaryHeaderBytes;
      if (first == kNameMagic) {
        ApplyNameFrame(p, payload);
      } else {
        const bool timed = first == kTimedMagic;
        const size_t count = payload / record_bytes;
        for (size_t i = 0; i < count; ++i) {
          const uint32_t wire_id = GetU32(p);
          const auto it = wire_ids_.find(wire_id);
          if (it == wire_ids_.end()) {
            // Never seen a 0xA6 for this id on this stream: skipping
            // (and counting) beats guessing which series it meant.
            stats_.unknown_series_records += 1;
          } else {
            stream::Record r;
            r.series_id = it->second;
            std::memcpy(&r.value, p + 4, 8);
            if (timed) {
              r.ts = GetI64(p + 12);
              timed_in_order_ &= r.ts >= last_timed_ts_;
              last_timed_ts_ = r.ts;
              stats_.timed_records += 1;
            } else {
              r.ts = stamp_clock_ != nullptr ? stamp_clock_(stamp_ctx_) : 0;
              stats_.stamped_records += 1;
            }
            out->push_back(r);
            stats_.records += 1;
            stats_.binary_records += 1;
          }
          p += record_bytes;
        }
        stats_.binary_frames += 1;
      }
      pos += kBinaryHeaderBytes + payload;
      continue;
    }
    // Resume the newline search past bytes a previous Feed already
    // scanned (nonzero only right after a partial-text-line carry).
    const size_t search_from = pos + line_scan_offset_;
    const char* nl =
        search_from < size
            ? static_cast<const char*>(
                  std::memchr(data + search_from, '\n', size - search_from))
            : nullptr;
    if (nl == nullptr) {
      line_scan_offset_ = size - pos;
      if (size - pos > max_frame_bytes_) {
        // Oversized line: skip it (count once) without buffering it.
        stats_.malformed_lines += 1;
        discarding_line_ = true;
        line_scan_offset_ = 0;
        return size;
      }
      return pos;  // partial line
    }
    line_scan_offset_ = 0;
    size_t len = static_cast<size_t>(nl - (data + pos));
    if (len > max_frame_bytes_) {
      stats_.malformed_lines += 1;
    } else {
      if (len > 0 && data[pos + len - 1] == '\r') {
        --len;  // CRLF
      }
      DecodeLine(data + pos, len, out);
    }
    pos = static_cast<size_t>(nl - data) + 1;
  }
  return size;
}

void FrameDecoder::ApplyNameFrame(const char* payload, size_t payload_bytes) {
  if (payload_bytes < kMinNamePayloadBytes ||
      payload_bytes > kMaxNamePayloadBytes) {
    // The length prefix itself was sane (DecodeSome vetted it), so the
    // stream resyncs after this frame — skip and count, don't poison.
    stats_.malformed_registrations += 1;
    return;
  }
  const uint32_t wire_id = GetU32(payload);
  const std::string_view name(payload + sizeof(uint32_t),
                              payload_bytes - sizeof(uint32_t));
  if (!stream::IsValidSeriesName(name)) {
    stats_.malformed_registrations += 1;
    return;
  }
  // Last registration wins: a sender may remap its own wire id.
  wire_ids_[wire_id] = catalog_->Intern(name);
  stats_.name_registrations += 1;
}

void FrameDecoder::DecodeLine(const char* line, size_t len,
                              stream::RecordBatch* out) {
  const char* p = line;
  const char* end = line + len;
  while (p < end && IsLineSpace(*p)) {
    ++p;
  }
  while (end > p && IsLineSpace(end[-1])) {
    --end;
  }
  if (p == end) {
    return;  // blank line: ignored, not an error
  }
  // <series-name>: the token up to the next space. Validation happens
  // before the value parse, but nothing interns until the whole line
  // is known good — a garbage line must not pollute the catalog.
  const char* name_end = p;
  while (name_end < end && !IsLineSpace(*name_end)) {
    ++name_end;
  }
  const std::string_view name(p, static_cast<size_t>(name_end - p));
  if (name_end == end || !stream::IsValidSeriesName(name)) {
    stats_.malformed_lines += 1;  // no value token, or bad name
    return;
  }
  p = name_end;
  while (p < end && IsLineSpace(*p)) {
    ++p;
  }
  // <value>: the token up to the next space (the line may carry a
  // timestamp token after it).
  const char* value_end = p;
  while (value_end < end && !IsLineSpace(*value_end)) {
    ++value_end;
  }
  double value = 0.0;
  // std::from_chars: locale-independent, range-checked (no strtod
  // ERANGE-to-HUGE_VAL), and needs no null-terminated scratch copy.
  const std::from_chars_result value_result =
      std::from_chars(p, value_end, value);
  // Non-finite values (nan/inf literals, out-of-range magnitudes) are
  // rejected like any malformed line: one NaN would otherwise poison
  // a series' pane sums and moments for a whole visible window.
  if (value_result.ec != std::errc() || value_result.ptr != value_end ||
      !std::isfinite(value)) {
    stats_.malformed_lines += 1;
    return;
  }
  // Optional <timestamp>: a full int64 token, and nothing after it.
  // Its absence is the pre-timestamp two-token grammar (the record is
  // server-stamped); a token that is present but unparsable, or a
  // fourth token, makes the whole line malformed — exactly one unit
  // is counted either way.
  p = value_end;
  while (p < end && IsLineSpace(*p)) {
    ++p;
  }
  int64_t ts = 0;
  bool timed = false;
  if (p < end) {
    const char* ts_end = p;
    while (ts_end < end && !IsLineSpace(*ts_end)) {
      ++ts_end;
    }
    const std::from_chars_result ts_result = std::from_chars(p, ts_end, ts);
    if (ts_result.ec != std::errc() || ts_result.ptr != ts_end) {
      stats_.malformed_lines += 1;
      return;
    }
    p = ts_end;
    while (p < end && IsLineSpace(*p)) {
      ++p;
    }
    if (p != end) {
      stats_.malformed_lines += 1;  // a fourth token
      return;
    }
    timed = true;
  }
  stream::SeriesId id;
  const auto it = text_ids_.find(name);
  if (it != text_ids_.end()) {
    id = it->second;
  } else {
    id = catalog_->Intern(name);
    // Key by the catalog's arena-stable view, not the transient line
    // buffer the probe pointed into.
    text_ids_.emplace(catalog_->NameOf(id), id);
  }
  if (timed) {
    timed_in_order_ &= ts >= last_timed_ts_;
    last_timed_ts_ = ts;
    stats_.timed_records += 1;
  } else {
    ts = stamp_clock_ != nullptr ? stamp_clock_(stamp_ctx_) : 0;
    stats_.stamped_records += 1;
  }
  out->push_back(stream::Record{id, value, ts});
  stats_.records += 1;
  stats_.text_records += 1;
}

}  // namespace net
}  // namespace asap
