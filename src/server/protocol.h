// Copyright 2026 The MinoanER Authors.
// Wire protocol of the resolution service (`minoan serve`).
//
// Every message — request or response — travels as one length-prefixed
// frame over a byte stream (TCP):
//
//   u32  payload length (little-endian; kMaxFrameBytes cap)
//   u8   protocol version (kProtocolVersion)
//   u16  message id (little-endian; MessageId below)
//   ...  body (util/serde.h primitives, same fixed little-endian format
//        as the checkpoint files)
//
// The length counts everything after the prefix (version byte + id + body).
// Responses echo the request's message id; their body always starts with
//
//   u8   status code (util/status.h StatusCode)
//   str  status message (empty on OK)
//
// followed by the result fields only when the code is OK. A frame the
// server cannot parse at all (bad version, unknown id, truncated body,
// oversized length) is answered with an error response when a frame
// boundary is still intact, and by closing the connection otherwise —
// never by crashing; every body read is bounds-checked exactly like a
// hostile checkpoint.
//
// Request bodies (str = length-prefixed string, as serde::WriteString):
//
//   kCreateSession  str tenant, u8 kind (0 batch / 1 online), str source,
//                   f64 threshold, u8 use_same_as_seeds, u32 num_threads
//                   -> u64 session id
//       `source` names the corpus: "dir:<path>" loads the .nt/.ttl files
//       of a server-local directory; "synthetic:<seed>:<entities>:<kbs>:
//       <center>" generates the datagen LOD cloud (tests, smoke runs).
//       Batch sessions require a source; online sessions may start empty.
//   kStep           u64 session, u64 budget  (0 = run to finished)
//   kResolveBudget  u64 session, u64 budget  (online counterpart of kStep)
//                   -> u64 comparisons, u64 matches (this call),
//                      u8 finished, u8 exhausted,
//                      u64 total comparisons, u64 total matches
//   kMatches        u64 session, u64 since
//                   -> u32 count, count x {u32 a, u32 b,
//                      u64 comparisons_done, f64 similarity}
//       The cumulative match log from index `since` on — a client that
//       remembers its high-water mark streams deltas.
//   kCheckpoint     u64 session -> u64 bytes written
//       Forces the session's state to its server-side checkpoint file
//       (the same file eviction writes); the session stays live.
//   kClose          u64 session -> (empty)
//   kIngest         u64 session, str kb name, str n-triples document
//                   -> u32 count, count x u32 entity id
//       Online sessions only; the document is grouped by subject and
//       ingested one entity per subject, first appearance first.
//   kQuery          u64 session, u32 entity, u32 k
//                   -> u32 count, count x {u32 id, f64 similarity,
//                      u8 matched}
//   kLinks          u64 session -> str n-triples text
//       The owl:sameAs links of UniqueMappingClustering over the matches
//       so far — byte-identical to the file `minoan resolve` writes for
//       the same corpus, options, and spent budget.
//   kStats          u8 kStatsBodyV2
//                   -> u8 kStatsBodyV2, u64 live sessions,
//                      u64 total sessions,
//                      u32 nc, nc x {str name, u64 value},
//                      u32 ng, ng x {str name, u64 value
//                                    (int64 two's complement)},
//                      u32 nh, nh x {str name, u64 count, u64 sum,
//                                    u64 min, u64 max,
//                                    f64 p50, f64 p95, f64 p99},
//                      u32 nt, nt x {str tenant, u64 sessions,
//                                    u64 requests, u64 comparisons,
//                                    u64 matches, u64 spill_bytes,
//                                    f64 p50/p95/p99 request micros}
//       The whole metrics-registry snapshot (counters, gauges, histogram
//       summaries with log2-bucket quantiles) plus the per-tenant breakdown
//       the server attributes via scoped registries. Tenant counter sums
//       never exceed the matching process totals. An empty body is a
//       truncated request (kParseError), like any other short body.
//   kPing           (empty) -> (empty)
//
// Compatibility: adding a message id is backward compatible; changing a
// body layout requires bumping kProtocolVersion (the server rejects
// versions it does not speak with kFailedPrecondition).

#ifndef MINOAN_SERVER_PROTOCOL_H_
#define MINOAN_SERVER_PROTOCOL_H_

#include <cstdint>

namespace minoan {
namespace server {

inline constexpr uint8_t kProtocolVersion = 1;

/// Frames above this payload size are rejected as hostile before any
/// allocation happens (the largest legitimate body is an Ingest document).
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

enum class MessageId : uint16_t {
  kCreateSession = 1,
  kStep = 2,
  kMatches = 3,
  kCheckpoint = 4,
  kClose = 5,
  kIngest = 6,
  kResolveBudget = 7,
  kQuery = 8,
  kLinks = 9,
  kStats = 10,
  kPing = 11,
};

/// Leading byte of the kStats request body and of its reply (see the
/// layout above); other values are rejected.
inline constexpr uint8_t kStatsBodyV2 = 2;

/// Session kind carried by kCreateSession.
enum class SessionKind : uint8_t {
  kBatch = 0,   // ResolutionSession over a frozen corpus
  kOnline = 1,  // OnlineResolver: ingest/resolve/query
};

}  // namespace server
}  // namespace minoan

#endif  // MINOAN_SERVER_PROTOCOL_H_
