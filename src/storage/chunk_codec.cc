#include "storage/chunk_codec.h"

#include <cstring>

#include "common/macros.h"
#include "storage/byte_order.h"

namespace asap {
namespace storage {

namespace {

// --------------------------------------------------------------------
// varints + zigzag

void PutVarint64(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint64(const char** p, const char* end, uint64_t* out) {
  uint64_t v = 0;
  unsigned shift = 0;
  while (*p < end && shift < 64) {
    const uint8_t byte = static_cast<uint8_t>(**p);
    ++*p;
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// --------------------------------------------------------------------
// bit IO (MSB-first within each byte)

class BitWriter {
 public:
  explicit BitWriter(std::string* out) : out_(out) {}

  void WriteBit(uint32_t bit) { WriteBits(bit & 1u, 1); }

  /// Writes the low `nbits` of `v`, most-significant first.
  void WriteBits(uint64_t v, unsigned nbits) {
    while (nbits > 0) {
      if (free_ == 0) {
        out_->push_back(static_cast<char>(cur_));
        cur_ = 0;
        free_ = 8;
      }
      const unsigned take = nbits < free_ ? nbits : free_;
      const uint64_t chunk = (v >> (nbits - take)) & ((1ull << take) - 1);
      cur_ |= static_cast<uint8_t>(chunk << (free_ - take));
      free_ -= take;
      nbits -= take;
    }
  }

  void Flush() {
    if (free_ < 8) {
      out_->push_back(static_cast<char>(cur_));
      cur_ = 0;
      free_ = 8;
    }
  }

 private:
  std::string* out_;
  uint8_t cur_ = 0;
  unsigned free_ = 8;
};

class BitReader {
 public:
  BitReader(const char* data, size_t len) : data_(data), len_(len) {}

  /// Reads `nbits` into *out (MSB-first). False past end of input.
  bool ReadBits(unsigned nbits, uint64_t* out) {
    uint64_t v = 0;
    while (nbits > 0) {
      if (avail_ == 0) {
        if (byte_ >= len_) {
          return false;
        }
        cur_ = static_cast<uint8_t>(data_[byte_++]);
        avail_ = 8;
      }
      const unsigned take = nbits < avail_ ? nbits : avail_;
      v = (v << take) |
          ((cur_ >> (avail_ - take)) & ((1u << take) - 1));
      avail_ -= take;
      nbits -= take;
    }
    *out = v;
    return true;
  }

 private:
  const char* data_;
  size_t len_;
  size_t byte_ = 0;
  uint8_t cur_ = 0;
  unsigned avail_ = 0;
};

uint64_t DoubleBits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

double BitsToDouble(uint64_t b) {
  double d;
  std::memcpy(&d, &b, sizeof(d));
  return d;
}

// Encodes the index column: varint(first), then delta-of-delta zigzag
// varints for the rest, with zero runs collapsed to 0x00 + varint(run).
// The previous delta is seeded to 1 so contiguous indices are a zero
// run from the very first pair.
void EncodeIndexColumn(const uint64_t* indices, size_t n, std::string* out) {
  if (n == 0) {
    return;
  }
  PutVarint64(indices[0], out);
  int64_t prev_delta = 1;
  uint64_t zero_run = 0;
  auto flush_run = [&] {
    if (zero_run > 0) {
      out->push_back('\0');
      PutVarint64(zero_run, out);
      zero_run = 0;
    }
  };
  for (size_t i = 1; i < n; ++i) {
    const int64_t delta =
        static_cast<int64_t>(indices[i]) - static_cast<int64_t>(indices[i - 1]);
    const int64_t dod = delta - prev_delta;
    prev_delta = delta;
    if (dod == 0) {
      ++zero_run;
      continue;
    }
    flush_run();
    PutVarint64(ZigzagEncode(dod), out);
  }
  flush_run();
}

Status DecodeIndexColumn(const char* data, size_t len, size_t n,
                         std::vector<uint64_t>* out) {
  const char* p = data;
  const char* end = data + len;
  uint64_t first;
  if (!GetVarint64(&p, end, &first)) {
    return Status::IOError("pane block: truncated index column");
  }
  out->push_back(first);
  uint64_t prev = first;
  int64_t prev_delta = 1;
  size_t produced = 1;
  uint64_t pending_zeros = 0;
  while (produced < n) {
    int64_t dod;
    if (pending_zeros > 0) {
      --pending_zeros;
      dod = 0;
    } else {
      if (p >= end) {
        return Status::IOError("pane block: truncated index column");
      }
      if (*p == '\0') {
        ++p;
        if (!GetVarint64(&p, end, &pending_zeros) || pending_zeros == 0) {
          return Status::IOError("pane block: bad zero run");
        }
        continue;
      }
      uint64_t z;
      if (!GetVarint64(&p, end, &z)) {
        return Status::IOError("pane block: truncated index column");
      }
      dod = ZigzagDecode(z);
    }
    const int64_t delta = prev_delta + dod;
    prev_delta = delta;
    prev = static_cast<uint64_t>(static_cast<int64_t>(prev) + delta);
    out->push_back(prev);
    ++produced;
  }
  if (pending_zeros > 0 || p != end) {
    return Status::IOError("pane block: trailing bytes in index column");
  }
  return Status::OK();
}

void EncodeValueColumn(const double* values, size_t n, std::string* out) {
  BitWriter bw(out);
  uint64_t prev = 0;
  unsigned prev_leading = 65;  // sentinel: no window established
  unsigned prev_meaningful = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bits = DoubleBits(values[i]);
    if (i == 0) {
      bw.WriteBits(bits, 64);
      prev = bits;
      continue;
    }
    const uint64_t x = bits ^ prev;
    prev = bits;
    if (x == 0) {
      bw.WriteBit(0);
      continue;
    }
    unsigned leading = static_cast<unsigned>(__builtin_clzll(x));
    const unsigned trailing = static_cast<unsigned>(__builtin_ctzll(x));
    if (leading > 31) {
      leading = 31;  // only 5 bits to store it
    }
    const unsigned meaningful = 64 - leading - trailing;
    bw.WriteBit(1);
    if (prev_leading <= 64 && leading >= prev_leading &&
        trailing >= 64 - prev_leading - prev_meaningful) {
      // Fits the previous window: reuse it.
      bw.WriteBit(0);
      bw.WriteBits(x >> (64 - prev_leading - prev_meaningful),
                   prev_meaningful);
    } else {
      bw.WriteBit(1);
      bw.WriteBits(leading, 5);
      bw.WriteBits(meaningful - 1, 6);  // 1..64 stored as 0..63
      bw.WriteBits(x >> trailing, meaningful);
      prev_leading = leading;
      prev_meaningful = meaningful;
    }
  }
  bw.Flush();
}

Status DecodeValueColumn(const char* data, size_t len, size_t n,
                         std::vector<double>* out) {
  BitReader br(data, len);
  uint64_t prev = 0;
  unsigned prev_leading = 0;
  unsigned prev_meaningful = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0) {
      if (!br.ReadBits(64, &prev)) {
        return Status::IOError("pane block: truncated value column");
      }
      out->push_back(BitsToDouble(prev));
      continue;
    }
    uint64_t bit;
    if (!br.ReadBits(1, &bit)) {
      return Status::IOError("pane block: truncated value column");
    }
    if (bit == 0) {
      out->push_back(BitsToDouble(prev));
      continue;
    }
    if (!br.ReadBits(1, &bit)) {
      return Status::IOError("pane block: truncated value column");
    }
    if (bit == 1) {
      uint64_t leading, mlen;
      if (!br.ReadBits(5, &leading) || !br.ReadBits(6, &mlen)) {
        return Status::IOError("pane block: truncated value column");
      }
      prev_leading = static_cast<unsigned>(leading);
      prev_meaningful = static_cast<unsigned>(mlen) + 1;
      if (prev_leading + prev_meaningful > 64) {
        return Status::IOError("pane block: bad XOR window");
      }
    } else if (prev_meaningful == 0) {
      return Status::IOError("pane block: XOR window reused before set");
    }
    uint64_t m;
    if (!br.ReadBits(prev_meaningful, &m)) {
      return Status::IOError("pane block: truncated value column");
    }
    prev ^= m << (64 - prev_leading - prev_meaningful);
    out->push_back(BitsToDouble(prev));
  }
  return Status::OK();
}

}  // namespace

void EncodePaneBlock(const uint64_t* indices, const double* values, size_t n,
                     std::string* out) {
  PutU32(static_cast<uint32_t>(n), out);
  std::string index_col;
  EncodeIndexColumn(indices, n, &index_col);
  PutU32(static_cast<uint32_t>(index_col.size()), out);
  out->append(index_col);
  EncodeValueColumn(values, n, out);
}

void EncodeContiguousPaneBlock(uint64_t first_index, const double* values,
                               size_t n, std::string* out) {
  std::vector<uint64_t> indices(n);
  for (size_t i = 0; i < n; ++i) {
    indices[i] = first_index + i;
  }
  EncodePaneBlock(indices.data(), values, n, out);
}

Status DecodePaneBlock(const char* data, size_t len,
                       std::vector<uint64_t>* indices,
                       std::vector<double>* values) {
  if (len < 8) {
    return Status::IOError("pane block: short header");
  }
  const uint32_t n = GetU32(data);
  const uint32_t index_bytes = GetU32(data + 4);
  if (index_bytes > len - 8) {
    return Status::IOError("pane block: bad index column size");
  }
  if (n == 0) {
    return index_bytes == 0 && len == 8
               ? Status::OK()
               : Status::IOError("pane block: empty block with data");
  }
  indices->reserve(indices->size() + n);
  values->reserve(values->size() + n);
  ASAP_RETURN_NOT_OK(DecodeIndexColumn(data + 8, index_bytes, n, indices));
  return DecodeValueColumn(data + 8 + index_bytes, len - 8 - index_bytes, n,
                           values);
}

}  // namespace storage
}  // namespace asap
