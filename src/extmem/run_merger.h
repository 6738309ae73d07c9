// Copyright 2026 The MinoanER Authors.
// RunMerger: the k-way merge reader over sorted shuffle runs.
//
// Each input run is a ShuffleSource whose records are already sorted by key
// (lexicographic over the order-preserving key bytes). The merger emits the
// union sorted by key, breaking key ties by run index (lower first). The
// record codecs (extmem/records.h) put a record's whole order into its key
// bytes, so ties are identical records and the merge equals the in-memory
// sort of all of them.

#ifndef MINOAN_EXTMEM_RUN_MERGER_H_
#define MINOAN_EXTMEM_RUN_MERGER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "extmem/run_codec.h"

namespace minoan {
namespace extmem {

/// A stream of framed shuffle records. Views returned by Next stay valid
/// until the next call only.
class ShuffleSource {
 public:
  virtual ~ShuffleSource() = default;
  /// Advances to the next record; false at end of stream.
  virtual bool Next(std::string_view& record) = 0;
};

class RunMerger : public ShuffleSource {
 public:
  /// Takes ownership of the runs. Each must yield records in sorted key
  /// order; `runs` must be in arrival order (earliest batch first).
  explicit RunMerger(std::vector<std::unique_ptr<ShuffleSource>> runs);
  ~RunMerger() override;

  bool Next(std::string_view& record) override;

 private:
  struct Head {
    std::string_view record;  // current record of runs_[run]
    size_t run;
  };

  /// Restores the min-heap property for heap_[i] downward.
  void SiftDown(size_t i);
  /// True when heap_[a] orders before heap_[b]: (key, run) ascending.
  bool Before(const Head& a, const Head& b) const;

  std::vector<std::unique_ptr<ShuffleSource>> runs_;
  std::vector<Head> heap_;
  bool primed_ = false;
};

}  // namespace extmem
}  // namespace minoan

#endif  // MINOAN_EXTMEM_RUN_MERGER_H_
