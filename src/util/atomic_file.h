// Copyright 2026 The MinoanER Authors.
// WriteFileAtomic: the one writer of every state and telemetry file.

#ifndef MINOAN_UTIL_ATOMIC_FILE_H_
#define MINOAN_UTIL_ATOMIC_FILE_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

#include "util/status.h"

namespace minoan {

/// Replaces `path` with what `write` puts into the stream and returns the
/// bytes written. The bytes go to a sibling temp file that is renamed over
/// `path` once all of them landed (atomic on POSIX), so a reader sees the
/// old file or the new one, never a torn mix. On any failure the temp file
/// is removed and `path` is untouched. A `path` that names a device, FIFO
/// or socket is refused. No fsync: not durable on power loss.
Result<uint64_t> WriteFileAtomic(
    const std::string& path, const std::function<Status(std::ostream&)>& write);

}  // namespace minoan

#endif  // MINOAN_UTIL_ATOMIC_FILE_H_
