// Copyright 2026 The MinoanER Authors.
// Compressed spill-run files: varint frames with front-coded (prefix-delta)
// keys.
//
// Spill runs are sorted by key, so consecutive records usually share a long
// key prefix — for big-endian integer keys the shared prefix IS the
// high-order delta, for string keys it is the common stem. Each record is
// stored as
//
//   [varint shared_key_prefix_len][varint key_suffix_len]
//   [varint payload_len][key suffix bytes][payload bytes]
//
// after an 8-byte file magic. The codec is lossless: readers reconstruct the
// exact [u32 LE key_len][key][payload] record bytes the writer was given, so
// the spill engine's byte-identity contract is untouched while runs shrink
// on disk (typically 2-4x for postings shards).
//
// Robustness contract (exercised by the corruption fuzz tests): a reader
// over a truncated or bit-flipped run either returns records or throws
// SpillError — never crashes, hangs, or makes unbounded allocations. Every
// varint is bounds-checked, every length is capped, and a shared-prefix
// length can never exceed the previous key.

#ifndef MINOAN_EXTMEM_RUN_CODEC_H_
#define MINOAN_EXTMEM_RUN_CODEC_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>

#include "extmem/spill_file.h"

namespace minoan {
namespace extmem {

// A shuffle record is [u32 LE key_len][key bytes][payload bytes]. Runs are
// sorted by the lexicographic order of the key bytes (extmem/records.h
// writes keys whose byte order is the record order); payload bytes are
// opaque to the run format and the merge.

inline void AppendU32Le(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

inline uint32_t ReadU32Le(std::string_view bytes) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[i]);
  }
  return v;
}

/// Key span of a framed record.
inline std::string_view RecordKey(std::string_view record) {
  return record.substr(4, ReadU32Le(record));
}

/// Payload span of a framed record.
inline std::string_view RecordPayload(std::string_view record) {
  return record.substr(4 + RecordKey(record).size());
}

/// First bytes of every compressed run file.
inline constexpr std::string_view kRunMagic = "MNRUNZ1\n";

/// Cap on any single decoded length field (key or payload). A corrupt
/// varint can claim at most this much, bounding reader allocations.
inline constexpr uint64_t kMaxRunFieldBytes = 1ull << 30;

/// Appends `v` to `out` as an LEB128 varint (7 bits per byte, high bit =
/// continuation).
void PutVarint(std::string& out, uint64_t v);

/// Decodes a varint at `pos` in `bytes`, advancing `pos`. Returns false on
/// truncation or an overlong (> 10 byte) encoding.
bool GetVarint(std::string_view bytes, size_t& pos, uint64_t& v);

/// Sequential writer of one compressed run file. Records must be appended
/// in sorted key order (the spill sink sorts a run before writing) — front
/// coding relies on it for compression, not for correctness.
class CompressedRunWriter {
 public:
  /// Opens `path` (truncating) and writes the magic. Throws SpillError on
  /// failure.
  explicit CompressedRunWriter(std::string path);

  /// Appends one record ([u32 LE key_len][key][payload] bytes, the shuffle
  /// record layout). Errors are detected (and thrown) in Close.
  void Append(std::string_view record);

  /// Flushes and closes; throws SpillError if any write failed. Returns the
  /// total compressed bytes written (magic included).
  uint64_t Close();

  uint64_t records() const { return records_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::string prev_key_;
  std::string frame_;  // per-record scratch
  uint64_t bytes_ = 0;
  uint64_t records_ = 0;
};

/// Sequential reader of one compressed run file.
class CompressedRunReader {
 public:
  /// Opens `path` and validates the magic. Throws SpillError on failure.
  explicit CompressedRunReader(std::string path);

  /// Reconstructs the next record ([u32 LE key_len][key][payload], exactly
  /// the bytes given to the writer) into an internal buffer; `record` stays
  /// valid until the next call. Returns false at a clean end of file;
  /// throws SpillError on truncation or corruption.
  bool Next(std::string_view& record);

 private:
  std::string path_;
  std::ifstream in_;
  std::string prev_key_;
  std::string record_;
};

}  // namespace extmem
}  // namespace minoan

#endif  // MINOAN_EXTMEM_RUN_CODEC_H_
