#include "progressive/scheduler.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace minoan {

uint32_t ComparisonScheduler::FindOrAdd(uint64_t pair, bool* created) {
  bool inserted = false;
  uint32_t& id = index_.FindOrInsert(pair, &inserted);
  if (inserted) {
    assert(slots_.size() < kNoSlot);
    id = static_cast<uint32_t>(slots_.size());
    slots_.push_back(ScheduleSlot{.pair = pair});
  }
  if (created != nullptr) *created = inserted;
  return id;
}

void ComparisonScheduler::Reserve(size_t n) {
  slots_.reserve(n + n / kDiscoveredHeadroom);
  index_.Reserve(n);
}

std::vector<uint32_t> ComparisonScheduler::SlotsByPair() const {
  std::vector<std::pair<uint64_t, uint32_t>> keyed;
  keyed.reserve(slots_.size());
  for (uint32_t id = 0; id < slots_.size(); ++id) {
    keyed.emplace_back(slots_[id].pair, id);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<uint32_t> ids;
  ids.reserve(keyed.size());
  for (const auto& [pair, id] : keyed) ids.push_back(id);
  return ids;
}

void ComparisonScheduler::Prime(std::vector<uint32_t> ids,
                                const std::vector<double>& priorities) {
  assert(empty() && heap_.empty());
  assert(ids.size() == priorities.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ScheduleSlot& s = slots_[ids[i]];
    if (!s.live) ++live_;
    s.live = true;
    s.version = 0;
    s.priority = priorities[i];
  }
  total_pushes_ += ids.size();
  run_ = std::move(ids);
  cursor_ = 0;
  SortRun();
}

void ComparisonScheduler::SortRun() {
  // Meta-blocking emits candidates by (weight desc, pair asc), and under the
  // default benefit model a pristine priority is monotone in the weight: only
  // distinct weights that round to one priority come out of order. Insertion
  // sort repairs those few in one pass; past a small move budget the input is
  // not nearly sorted, and a full sort over (priority, pair) keys takes over.
  size_t budget = run_.size() / 16 + 64;
  bool nearly_sorted = true;
  for (size_t i = 1; i < run_.size() && nearly_sorted; ++i) {
    const uint32_t x = run_[i];
    size_t j = i;
    while (j > 0 && RunBefore(x, run_[j - 1])) {
      run_[j] = run_[j - 1];
      --j;
      if (--budget == 0) {
        nearly_sorted = false;
        break;
      }
    }
    run_[j] = x;
  }
  if (nearly_sorted) return;

  struct Keyed {
    double priority;
    uint64_t pair;
    uint32_t slot;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(run_.size());
  for (const uint32_t id : run_) {
    keyed.push_back(Keyed{slots_[id].priority, slots_[id].pair, id});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    return PopsBefore(a.priority, a.pair, b.priority, b.pair);
  });
  for (size_t i = 0; i < keyed.size(); ++i) run_[i] = keyed[i].slot;
}

void ComparisonScheduler::Push(uint32_t id, double priority) {
  ScheduleSlot& s = slots_[id];
  if (!s.live) ++live_;
  s.live = true;
  ++s.version;
  s.priority = priority;
  heap_.push(Entry{priority, s.pair, id, s.version});
  ++total_pushes_;
}

bool ComparisonScheduler::Pop(uint32_t& id, double& priority) {
  while (cursor_ < run_.size()) {
    const ScheduleSlot& s = slots_[run_[cursor_]];
    if (s.live && s.version == 0) break;
    ++cursor_;  // popped, erased, or re-pushed since priming
  }
  if (cursor_ == run_.size() && !run_.empty()) {
    run_ = {};  // consumed: release it
    cursor_ = 0;
  }
  while (!heap_.empty()) {
    const Entry& top = heap_.top();
    const ScheduleSlot& s = slots_[top.slot];
    if (s.live && s.version == top.version) break;
    heap_.pop();  // stale entry
  }
  const bool have_run = cursor_ < run_.size();
  if (!have_run && heap_.empty()) return false;
  // The two heads are distinct pairs: a live slot's version matches either
  // its run entry (0) or one heap entry (>= 1), never both.
  bool from_run = have_run;
  if (have_run && !heap_.empty()) {
    const ScheduleSlot& r = slots_[run_[cursor_]];
    const Entry& h = heap_.top();
    from_run = PopsBefore(r.priority, r.pair, h.priority, h.pair);
  }
  if (from_run) {
    id = run_[cursor_++];
  } else {
    id = heap_.top().slot;
    heap_.pop();
  }
  ScheduleSlot& s = slots_[id];
  priority = s.priority;
  s.live = false;
  --live_;
  return true;
}

}  // namespace minoan
