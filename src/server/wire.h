// Copyright 2026 The MinoanER Authors.
// Frame I/O for the resolution service: length-prefixed messages over a
// POSIX byte stream (see protocol.h for the layout).
//
// Reads are hostile-input hardened: the length prefix is capped before any
// allocation, short reads and truncated frames surface as a Status instead
// of half-initialized state, and a clean EOF exactly at a frame boundary is
// distinguishable (kNotFound) from a connection torn mid-frame (kIoError).

#ifndef MINOAN_SERVER_WIRE_H_
#define MINOAN_SERVER_WIRE_H_

#include <cstdint>
#include <istream>
#include <string>
#include <string_view>

#include "util/status.h"

namespace minoan {
namespace server {

/// One decoded frame: protocol version, message id, and the raw body.
struct Frame {
  uint8_t version = 0;
  uint16_t id = 0;
  std::string body;
};

/// Reads exactly `len` bytes from `fd` (retrying on EINTR / short reads).
/// kNotFound when the stream ends before the FIRST byte (clean close),
/// kIoError when it ends mid-buffer or the read fails.
Status ReadExact(int fd, char* buf, size_t len);

/// Writes all of `data` to socket `fd`, retrying on EINTR / short writes.
/// A peer that hung up is an IoError, never a SIGPIPE.
Status WriteAll(int fd, std::string_view data);

/// Reads one whole frame. kNotFound = clean EOF at a frame boundary;
/// kParseError = oversized length prefix (the connection must be dropped —
/// the stream position is unrecoverable); kIoError = torn connection.
Status ReadFrame(int fd, Frame& frame);

/// Writes one frame: length prefix, version, id, body.
Status WriteFrame(int fd, uint16_t id, std::string_view body);

/// Serializes the leading status of a response body (u8 code + message).
void WriteStatusPrefix(std::ostream& out, const Status& status);

/// Parses the leading status of a response body.
Status ReadStatusPrefix(std::istream& in);

/// Whole error-response body for `status` (no result fields follow).
std::string ErrorBody(const Status& status);

}  // namespace server
}  // namespace minoan

#endif  // MINOAN_SERVER_WIRE_H_
