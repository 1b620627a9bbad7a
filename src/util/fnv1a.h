// 32-bit FNV-1a: the one checksum behind every checksummed byte format in
// the library — serialization envelopes (and through them RPC bodies and
// cache snapshots), channel frames, segment records and seal trailers, and
// the kReattach graph identity. The per-byte step (xor, then multiply by an
// odd prime) is invertible, so any single-byte difference between two
// equal-length inputs always changes the digest.

#ifndef DCS_UTIL_FNV1A_H_
#define DCS_UTIL_FNV1A_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dcs {

inline uint32_t Fnv1a(const uint8_t* bytes, size_t size) {
  uint32_t hash = 2166136261u;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 16777619u;
  }
  return hash;
}

inline uint32_t Fnv1a(const std::vector<uint8_t>& bytes) {
  return Fnv1a(bytes.data(), bytes.size());
}

}  // namespace dcs

#endif  // DCS_UTIL_FNV1A_H_
