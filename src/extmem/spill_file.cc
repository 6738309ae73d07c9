#include "extmem/spill_file.h"

#include <atomic>
#include <system_error>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace minoan {
namespace extmem {

namespace {

/// Process-wide uniquifier: two shuffles of the same process (or the same
/// session's blocking and pruning phases) must never collide on a dir name.
std::atomic<uint64_t>& SpillDirCounter() {
  static std::atomic<uint64_t> counter{0};
  return counter;
}

uint64_t ProcessId() {
#ifdef _WIN32
  return 0;  // getpid is POSIX; the counter alone still uniquifies.
#else
  return static_cast<uint64_t>(::getpid());
#endif
}

}  // namespace

ScopedSpillDir::ScopedSpillDir(std::string base) : base_(std::move(base)) {}

ScopedSpillDir::~ScopedSpillDir() {
  // Best effort: never throw from a destructor (it may run during unwind).
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

std::string ScopedSpillDir::NextRunPath() {
  std::lock_guard<std::mutex> lock(mu_);
  if (dir_.empty()) {
    std::error_code ec;
    const std::filesystem::path root =
        base_.empty() ? std::filesystem::temp_directory_path(ec)
                      : std::filesystem::path(base_);
    if (ec) {
      throw SpillError("spill: cannot resolve the system temp directory: " +
                       ec.message());
    }
    const std::filesystem::path dir =
        root / ("minoan-spill-" + std::to_string(ProcessId()) + "-" +
                std::to_string(SpillDirCounter().fetch_add(1)));
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      throw SpillError("spill: cannot create temp directory " + dir.string() +
                       ": " + ec.message());
    }
    dir_ = dir;
  }
  return (dir_ / ("run-" + std::to_string(next_run_++) + ".spill")).string();
}

std::filesystem::path ScopedSpillDir::path() {
  std::lock_guard<std::mutex> lock(mu_);
  return dir_;
}

}  // namespace extmem
}  // namespace minoan
