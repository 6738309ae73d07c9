// Copyright 2026 The MinoanER Authors.
// The record types of the pipeline's shuffles, each with its one total order
// and its one byte codec.
//
// A shard (extmem/shuffle.h) sorts its records by operator<, and a spilled
// run stores them as [u32 LE key_len][key bytes][payload bytes] (the layout
// extmem/run_codec.h compresses). Every codec writes key bytes whose
// lexicographic order IS operator< — big-endian integers, complemented bits
// for a descending weight, escaped strings — so merging runs by key bytes
// yields exactly the in-memory sort. The orders are total and two records
// that compare equal are identical, so a shard's output does not depend on
// arrival order, spill timing or thread count.
//
// A record type R provides:
//   bool operator<(const R&) const;       the total order
//   void Encode(std::string& out) const;  appends one framed record
//   static R Decode(std::string_view);    inverse of Encode; throws
//                                         SpillError on a malformed record
//   size_t HeapBytes() const;             bytes it holds outside the shard's
//                                         buffer (a string key's characters)

#ifndef MINOAN_EXTMEM_RECORDS_H_
#define MINOAN_EXTMEM_RECORDS_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "extmem/run_codec.h"

namespace minoan {
namespace extmem {

namespace codec {

inline void AppendU32Be(std::string& out, uint32_t v) {
  for (int i = 3; i >= 0; --i) out.push_back(static_cast<char>(v >> (8 * i)));
}

inline void AppendU64Be(std::string& out, uint64_t v) {
  for (int i = 7; i >= 0; --i) out.push_back(static_cast<char>(v >> (8 * i)));
}

inline uint64_t ReadBe(std::string_view bytes, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[i]);
  }
  return v;
}

/// Appends `s` so that byte order equals string order even when one string
/// is a prefix of another: each NUL becomes NUL 0x01, and NUL NUL ends it.
inline void AppendOrderedString(std::string& out, std::string_view s) {
  for (const char c : s) {
    out.push_back(c);
    if (c == '\0') out.push_back('\x01');
  }
  out.append(2, '\0');
}

/// The key bytes of a framed record, which must be exactly `size` long.
inline std::string_view CheckedKey(std::string_view record, size_t size) {
  const std::string_view key = RecordKey(record);
  if (key.size() != size) throw SpillError("malformed spill record key");
  return key;
}

}  // namespace codec

/// One blocking emission: `entity` emitted `key`. Ordered by (key, entity),
/// so a shard's output groups each key's entities in ascending id order —
/// the sequential scan order. Keys are u32, u64 or std::string.
template <typename Key>
struct KeyedEntity {
  Key key;
  uint32_t entity;

  bool operator<(const KeyedEntity& o) const {
    if (key != o.key) return key < o.key;
    return entity < o.entity;
  }

  void Encode(std::string& out) const {
    const size_t frame = out.size();
    AppendU32Le(out, 0);
    if constexpr (std::is_same_v<Key, std::string>) {
      codec::AppendOrderedString(out, key);
    } else {
      codec::AppendU64Be(out, key);
    }
    codec::AppendU32Be(out, entity);
    const uint32_t key_len = static_cast<uint32_t>(out.size() - frame - 4);
    for (int i = 0; i < 4; ++i) {
      out[frame + i] = static_cast<char>(key_len >> (8 * i));
    }
  }

  static KeyedEntity Decode(std::string_view record) {
    KeyedEntity r;
    if constexpr (std::is_same_v<Key, std::string>) {
      const std::string_view key = RecordKey(record);
      size_t i = 0;
      for (;; ++i) {
        if (i + 1 >= key.size()) {
          throw SpillError("malformed spill record key");
        }
        if (key[i] != '\0') {
          r.key.push_back(key[i]);
        } else if (key[++i] == '\x01') {
          r.key.push_back('\0');
        } else {
          break;
        }
      }
      if (key.size() != i + 5) throw SpillError("malformed spill record key");
      r.entity = static_cast<uint32_t>(codec::ReadBe(key.substr(i + 1), 4));
    } else {
      const std::string_view key = codec::CheckedKey(record, 12);
      r.key = static_cast<Key>(codec::ReadBe(key, 8));
      r.entity = static_cast<uint32_t>(codec::ReadBe(key.substr(8), 4));
    }
    return r;
  }

  size_t HeapBytes() const {
    if constexpr (std::is_same_v<Key, std::string>) {
      return key.size();
    } else {
      return 0;
    }
  }
};

/// One node-centric pruning vote: `nominator` kept its edge `pair` (a
/// PairKey) at `weight`. Ordered by (pair, nominator): a pair's votes end
/// with the larger endpoint's, the one whose weight the pair keeps.
struct Vote {
  uint64_t pair;
  uint32_t nominator;
  double weight;

  bool operator<(const Vote& o) const {
    if (pair != o.pair) return pair < o.pair;
    return nominator < o.nominator;
  }

  void Encode(std::string& out) const {
    AppendU32Le(out, 12);
    codec::AppendU64Be(out, pair);
    codec::AppendU32Be(out, nominator);
    const uint64_t bits = std::bit_cast<uint64_t>(weight);
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>(bits >> (8 * i)));
    }
  }

  static Vote Decode(std::string_view record) {
    const std::string_view key = codec::CheckedKey(record, 12);
    const std::string_view payload = RecordPayload(record);
    if (payload.size() != 8) throw SpillError("malformed spill record");
    uint64_t bits = 0;
    for (int i = 7; i >= 0; --i) {
      bits = (bits << 8) | static_cast<unsigned char>(payload[i]);
    }
    return Vote{codec::ReadBe(key, 8),
                static_cast<uint32_t>(codec::ReadBe(key.substr(8), 4)),
                std::bit_cast<double>(bits)};
  }

  size_t HeapBytes() const { return 0; }
};

/// One edge-centric pruning survivor: edge `pair` (a PairKey) at `weight`.
/// Ordered by weight descending, then pair ascending — the canonical order
/// of SortByWeightDescending. Weights are finite and >= 0 (never -0.0), so
/// the complemented bit pattern orders bytes by descending weight.
struct RankedPair {
  double weight;
  uint64_t pair;

  bool operator<(const RankedPair& o) const {
    if (weight != o.weight) return weight > o.weight;
    return pair < o.pair;
  }

  void Encode(std::string& out) const {
    AppendU32Le(out, 16);
    codec::AppendU64Be(out, ~std::bit_cast<uint64_t>(weight));
    codec::AppendU64Be(out, pair);
  }

  static RankedPair Decode(std::string_view record) {
    const std::string_view key = codec::CheckedKey(record, 16);
    return RankedPair{std::bit_cast<double>(~codec::ReadBe(key, 8)),
                      codec::ReadBe(key.substr(8), 8)};
  }

  size_t HeapBytes() const { return 0; }
};

}  // namespace extmem
}  // namespace minoan

#endif  // MINOAN_EXTMEM_RECORDS_H_
