// Copyright 2026 The MinoanER Authors.
// The error type of the external-memory shuffle and the RAII directory that
// owns every run file of one shuffle.
//
// Temp files live inside a ScopedSpillDir, a uniquely named directory that
// is created when the first run is written and removed recursively when the
// shuffle ends — on success AND when an exception unwinds through it, so no
// run file ever outlives its shuffle. A shuffle that never spills creates
// nothing.
//
// I/O failures throw SpillError (the library is otherwise exception-free;
// the pipeline drivers catch SpillError at the phase boundary and surface a
// Status — see core/session.cc).

#ifndef MINOAN_EXTMEM_SPILL_FILE_H_
#define MINOAN_EXTMEM_SPILL_FILE_H_

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>

namespace minoan {
namespace extmem {

/// Thrown on any spill I/O failure (unwritable temp dir, full disk,
/// truncated run file). Carries a path-specific message.
class SpillError : public std::runtime_error {
 public:
  explicit SpillError(const std::string& what) : std::runtime_error(what) {}
};

/// A uniquely named temp directory holding the run files of one shuffle.
/// Created on the first NextRunPath; removed recursively (best effort) on
/// destruction. NextRunPath() is safe to call from concurrent shard tasks.
class ScopedSpillDir {
 public:
  /// The directory will be `<base>/minoan-spill-<pid>-<seq>/`. Empty
  /// `base` = the system temp directory.
  explicit ScopedSpillDir(std::string base);
  ~ScopedSpillDir();

  ScopedSpillDir(const ScopedSpillDir&) = delete;
  ScopedSpillDir& operator=(const ScopedSpillDir&) = delete;

  /// A fresh unique path for the next run file (not yet created). Creates
  /// the directory on the first call; throws SpillError when it cannot.
  std::string NextRunPath();

  /// The directory; empty until the first NextRunPath.
  std::filesystem::path path();

 private:
  std::string base_;
  std::mutex mu_;
  std::filesystem::path dir_;
  uint64_t next_run_ = 0;
};

}  // namespace extmem
}  // namespace minoan

#endif  // MINOAN_EXTMEM_SPILL_FILE_H_
