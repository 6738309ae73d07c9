// Copyright 2026 The MinoanER Authors.
// ScratchDir: the one scratch-directory helper of the test suites. Every
// test that writes files (state dirs, spill dirs, generated corpora, RDF
// round trips) writes them inside one, so a test run leaves the temp dir
// as it found it.

#ifndef MINOAN_TESTS_SCRATCH_DIR_H_
#define MINOAN_TESTS_SCRATCH_DIR_H_

#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <string>
#include <system_error>

namespace minoan {
namespace testutil {

/// A fresh, empty directory `<temp>/minoan-<tag>-<pid>` — under
/// std::filesystem::temp_directory_path(), i.e. $TMPDIR — removed with
/// everything in it when the object goes out of scope. The pid keeps test
/// processes that run at once apart; `tag` keeps the directories of one
/// process apart.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("minoan-" + tag + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  std::string str() const { return path_.string(); }

  /// Entries directly inside the directory (a leaked spill artifact shows
  /// up here).
  size_t NumEntries() const {
    size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator(path_)) {
      ++n;
    }
    return n;
  }

 private:
  std::filesystem::path path_;
};

}  // namespace testutil
}  // namespace minoan

#endif  // MINOAN_TESTS_SCRATCH_DIR_H_
