// Copyright 2026 The MinoanER Authors.
// Binary (de)serialization primitives for session checkpoints.
//
// Checkpoint/restore must reproduce a run byte-for-byte, so doubles are
// round-tripped through their IEEE-754 bit patterns and integers are written
// in a fixed (little-endian) byte order, independent of the host. Readers
// return false on a truncated stream instead of leaving values
// half-initialized — callers turn that into a Status.

#ifndef MINOAN_UTIL_SERDE_H_
#define MINOAN_UTIL_SERDE_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

namespace minoan {
namespace serde {

inline void WriteU8(std::ostream& out, uint8_t v) {
  out.put(static_cast<char>(v));
}

inline void WriteU16(std::ostream& out, uint16_t v) {
  char buf[2];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  out.write(buf, 2);
}

inline void WriteU32(std::ostream& out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(buf, 4);
}

inline void WriteU64(std::ostream& out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(buf, 8);
}

inline void WriteDouble(std::ostream& out, double v) {
  WriteU64(out, std::bit_cast<uint64_t>(v));
}

inline void WriteString(std::ostream& out, std::string_view s) {
  WriteU64(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline bool ReadU8(std::istream& in, uint8_t& v) {
  char c;
  if (!in.get(c)) return false;
  v = static_cast<uint8_t>(c);
  return true;
}

inline bool ReadU16(std::istream& in, uint16_t& v) {
  char buf[2];
  if (!in.read(buf, 2)) return false;
  v = static_cast<uint16_t>(
      static_cast<unsigned char>(buf[0]) |
      (static_cast<uint16_t>(static_cast<unsigned char>(buf[1])) << 8));
  return true;
}

inline bool ReadU32(std::istream& in, uint32_t& v) {
  char buf[4];
  if (!in.read(buf, 4)) return false;
  v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(buf[i])) << (8 * i);
  }
  return true;
}

inline bool ReadU64(std::istream& in, uint64_t& v) {
  char buf[8];
  if (!in.read(buf, 8)) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(buf[i])) << (8 * i);
  }
  return true;
}

inline bool ReadDouble(std::istream& in, double& v) {
  uint64_t bits;
  if (!ReadU64(in, bits)) return false;
  v = std::bit_cast<double>(bits);
  return true;
}

/// Reads a length-prefixed string; rejects lengths above `max_len` (corrupt
/// or hostile input must not trigger a giant allocation).
inline bool ReadString(std::istream& in, std::string& s,
                       uint64_t max_len = 1 << 20) {
  uint64_t len;
  if (!ReadU64(in, len) || len > max_len) return false;
  s.resize(len);
  if (len == 0) return true;
  return static_cast<bool>(
      in.read(s.data(), static_cast<std::streamsize>(len)));
}

/// Reserve clamp for count fields read from an untrusted checkpoint: a
/// corrupt 64-bit count must not trigger a giant upfront allocation. Never
/// reject the count itself — clamp the reserve and let the element-read
/// loop fail fast at the real end of the stream, so legitimately large
/// states stay restorable. Shared by every restore path (batch resolver,
/// online engine, incremental index).
inline constexpr uint64_t kMaxUpfrontReserve = 1 << 20;

/// Clamped reserve size for an untrusted element count.
inline uint64_t ClampedReserve(uint64_t count) {
  return count < kMaxUpfrontReserve ? count : kMaxUpfrontReserve;
}

/// `pair` must decode to two entity ids below `num_entities`; anything else
/// is a corrupt or hostile checkpoint and would index out of bounds once
/// stepped on. (Matches util/hash.h PairKey packing.)
inline bool ValidPairKey(uint64_t pair, uint32_t num_entities) {
  return static_cast<uint32_t>(pair >> 32) < num_entities &&
         static_cast<uint32_t>(pair & 0xffffffffULL) < num_entities;
}

/// Reads a count-prefixed list of (pair, double) entries in the canonical
/// form every SaveState writes: valid pair keys in strictly ascending order,
/// finite values. Calls accept(pair, value) per entry; returns false on a
/// short read, a non-canonical entry, or an entry accept() rejects.
template <typename Accept>
bool ReadAscendingPairDoubles(std::istream& in, uint32_t num_entities,
                              Accept&& accept) {
  uint64_t n;
  if (!ReadU64(in, n)) return false;
  uint64_t prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t pair;
    double value;
    if (!ReadU64(in, pair) || !ReadDouble(in, value) ||
        !ValidPairKey(pair, num_entities) || (i > 0 && pair <= prev) ||
        !std::isfinite(value) || !accept(pair, value)) {
      return false;
    }
    prev = pair;
  }
  return true;
}

}  // namespace serde
}  // namespace minoan

#endif  // MINOAN_UTIL_SERDE_H_
