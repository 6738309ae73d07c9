#include "server/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "server/protocol.h"
#include "util/serde.h"

namespace minoan {
namespace server {

Status ReadExact(int fd, char* buf, size_t len) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::read(fd, buf + done, len - done);
    if (n == 0) {
      return done == 0 ? Status::NotFound("connection closed")
                       : Status::IoError("connection closed mid-frame");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("read: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status WriteAll(int fd, std::string_view data) {
  size_t done = 0;
  while (done < data.size()) {
    // MSG_NOSIGNAL: a peer that hung up mid-reply is an EPIPE for this
    // connection, not a SIGPIPE that kills the whole daemon.
    const ssize_t n =
        ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status ReadFrame(int fd, Frame& frame) {
  char prefix[4];
  MINOAN_RETURN_IF_ERROR(ReadExact(fd, prefix, 4));
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<unsigned char>(prefix[i]))
           << (8 * i);
  }
  // Version byte + message id are part of the payload; anything shorter
  // cannot be a frame, anything above the cap is hostile — both leave the
  // stream position meaningless, so the caller must drop the connection.
  if (len < 3 || len > kMaxFrameBytes) {
    return Status::ParseError("invalid frame length");
  }
  std::string payload(len, '\0');
  if (Status st = ReadExact(fd, payload.data(), len); !st.ok()) {
    // EOF after a length prefix is a torn frame, not a clean close.
    return st.code() == StatusCode::kNotFound
               ? Status::IoError("connection closed mid-frame")
               : st;
  }
  frame.version = static_cast<uint8_t>(payload[0]);
  frame.id = static_cast<uint16_t>(
      static_cast<unsigned char>(payload[1]) |
      (static_cast<uint16_t>(static_cast<unsigned char>(payload[2])) << 8));
  frame.body.assign(payload, 3, payload.size() - 3);
  return Status::Ok();
}

Status WriteFrame(int fd, uint16_t id, std::string_view body) {
  if (body.size() > kMaxFrameBytes - 3) {
    return Status::InvalidArgument("frame body too large");
  }
  std::ostringstream out;
  serde::WriteU32(out, static_cast<uint32_t>(body.size() + 3));
  serde::WriteU8(out, kProtocolVersion);
  serde::WriteU16(out, id);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  return WriteAll(fd, out.str());
}

void WriteStatusPrefix(std::ostream& out, const Status& status) {
  serde::WriteU8(out, static_cast<uint8_t>(status.code()));
  serde::WriteString(out, status.ok() ? std::string_view{}
                                      : std::string_view(status.message()));
}

Status ReadStatusPrefix(std::istream& in) {
  uint8_t code = 0;
  std::string message;
  if (!serde::ReadU8(in, code) || !serde::ReadString(in, message)) {
    return Status::ParseError("truncated response status");
  }
  if (code == 0) return Status::Ok();
  return Status(static_cast<StatusCode>(code), std::move(message));
}

std::string ErrorBody(const Status& status) {
  std::ostringstream out;
  WriteStatusPrefix(out, status);
  return out.str();
}

}  // namespace server
}  // namespace minoan
