// Little-endian integer codec for every on-disk format of the durable
// tier: WAL frames, WAL payload records, chunk blocks, chunk files and
// the manifest. Shift-based, so the bytes are the same on any host
// byte order and the readers need no alignment.

#ifndef ASAP_STORAGE_BYTE_ORDER_H_
#define ASAP_STORAGE_BYTE_ORDER_H_

#include <cstdint>
#include <string>

namespace asap {
namespace storage {

inline void PutU16(uint16_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
}

inline void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xFF);
  buf[1] = static_cast<char>((v >> 8) & 0xFF);
  buf[2] = static_cast<char>((v >> 16) & 0xFF);
  buf[3] = static_cast<char>((v >> 24) & 0xFF);
  out->append(buf, 4);
}

inline void PutU64(uint64_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v), out);
  PutU32(static_cast<uint32_t>(v >> 32), out);
}

inline uint16_t GetU16(const char* p) {
  return static_cast<uint16_t>(static_cast<unsigned char>(p[0]) |
                               static_cast<unsigned char>(p[1]) << 8);
}

inline uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

inline uint64_t GetU64(const char* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

}  // namespace storage
}  // namespace asap

#endif  // ASAP_STORAGE_BYTE_ORDER_H_
