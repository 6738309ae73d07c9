#include "progressive/scheduler.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <utility>

namespace minoan {

uint32_t ComparisonScheduler::FindOrAdd(uint64_t pair, bool* created) {
  const uint32_t candidate = FindCandidate(pair);
  if (candidate != kNoSlot) {
    if (created != nullptr) *created = false;
    return candidate;
  }
  bool inserted = false;
  uint32_t& id = later_.FindOrInsert(pair, &inserted);
  if (inserted) {
    assert(slots_.size() < kNoSlot);
    id = static_cast<uint32_t>(slots_.size());
    slots_.push_back(ScheduleSlot{.pair = pair});
  }
  if (created != nullptr) *created = inserted;
  return id;
}

NoInitVector<uint32_t> ComparisonScheduler::InstallCandidates(
    std::span<const WeightedComparison> candidates, uint32_t num_entities,
    double scale, ThreadPool* pool) {
  assert(slots_.empty());
  const size_t n = candidates.size();
  assert(n < kNoSlot);
  // The list is dealt into contiguous parts, one per worker; each counts
  // and then scatters its part's listings in list order, so each row holds
  // its listings in list order whatever the number of parts.
  const size_t parts =
      pool == nullptr
          ? 1
          : std::clamp<size_t>(n / kParallelGrain, 1, pool->num_threads());
  const auto part_range = [&](size_t p) {
    return std::pair<size_t, size_t>(n * p / parts, n * (p + 1) / parts);
  };
  std::vector<std::vector<uint32_t>> cursor(
      parts, std::vector<uint32_t>(num_entities, 0));
  RunPoolTasks(pool, parts, [&](size_t p) {
    std::vector<uint32_t>& count = cursor[p];
    const auto [begin, end] = part_range(p);
    for (size_t i = begin; i < end; ++i) {
      ++count[std::min(candidates[i].a, candidates[i].b)];
    }
  });
  // Row e's listings start at listed_begin[e]; part p writes its own from
  // cursor[p][e] on.
  std::vector<uint32_t> listed_begin(num_entities + size_t{1});
  uint32_t total = 0;
  for (uint32_t e = 0; e < num_entities; ++e) {
    listed_begin[e] = total;
    for (std::vector<uint32_t>& next : cursor) {
      total += std::exchange(next[e], total);
    }
  }
  listed_begin[num_entities] = total;

  // A listing's sort key: its second entity, then its list position.
  NoInitVector<uint64_t> keys(n);
  RunPoolTasks(pool, parts, [&](size_t p) {
    std::vector<uint32_t>& next = cursor[p];
    const auto [begin, end] = part_range(p);
    for (size_t i = begin; i < end; ++i) {
      const uint64_t pair = PairKey(candidates[i].a, candidates[i].b);
      keys[next[PairKeyFirst(pair)]++] =
          (uint64_t{PairKeySecond(pair)} << 32) | i;
    }
  });
  cursor = {};

  // Sort each row and keep the last listing of each pair.
  constexpr size_t kRowsPerTask = 256;
  NoInitVector<uint32_t> listed_slot(n);
  std::vector<uint32_t> row_begin(num_entities + size_t{1});
  RunChunkedTasks(pool, num_entities, kRowsPerTask,
                  [&](size_t, size_t first_row, size_t last_row) {
    for (size_t e = first_row; e < last_row; ++e) {
      uint64_t* const row = keys.data() + listed_begin[e];
      uint64_t* const row_end = keys.data() + listed_begin[e + 1];
      std::sort(row, row_end);
      uint64_t* kept = row;
      for (uint64_t* k = row; k != row_end; ++k) {
        if (k + 1 != row_end && (k[1] >> 32) == (*k >> 32)) {
          listed_slot[static_cast<uint32_t>(*k)] = kNoSlot;
          continue;
        }
        *kept++ = *k;
      }
      row_begin[e + 1] = static_cast<uint32_t>(kept - row);
    }
  });
  for (uint32_t e = 0; e < num_entities; ++e) row_begin[e + 1] += row_begin[e];

  const uint32_t k = row_begin[num_entities];
  slots_.reserve(k + k / kDiscoveredHeadroom);
  slots_.resize(k);
  seconds_.resize(k);
  RunChunkedTasks(pool, num_entities, kRowsPerTask,
                  [&](size_t, size_t first_row, size_t last_row) {
    for (size_t e = first_row; e < last_row; ++e) {
      const uint64_t* key = keys.data() + listed_begin[e];
      for (uint32_t id = row_begin[e]; id < row_begin[e + 1]; ++id, ++key) {
        const uint32_t second = static_cast<uint32_t>(*key >> 32);
        const uint32_t listing = static_cast<uint32_t>(*key);
        seconds_[id] = second;
        slots_[id] = ScheduleSlot{
            .pair = PairKey(static_cast<uint32_t>(e), second),
            .likelihood = candidates[listing].weight * scale,
            .candidate = true};
        listed_slot[listing] = id;
      }
    }
  });
  row_begin_ = std::move(row_begin);
  return listed_slot;
}

void ComparisonScheduler::Reserve(size_t n) {
  slots_.reserve(slots_.size() + n + n / kDiscoveredHeadroom);
  later_.Reserve(later_.size() + n);
}

std::vector<uint32_t> ComparisonScheduler::SlotsByPair() const {
  const uint32_t k = static_cast<uint32_t>(seconds_.size());
  std::vector<std::pair<uint64_t, uint32_t>> later;
  later.reserve(slots_.size() - k);
  for (uint32_t id = k; id < slots_.size(); ++id) {
    later.emplace_back(slots_[id].pair, id);
  }
  std::sort(later.begin(), later.end());
  std::vector<uint32_t> ids;
  ids.reserve(slots_.size());
  uint32_t candidate = 0;
  for (const auto& [pair, id] : later) {
    while (candidate < k && slots_[candidate].pair < pair) {
      ids.push_back(candidate++);
    }
    ids.push_back(id);
  }
  while (candidate < k) ids.push_back(candidate++);
  return ids;
}

void ComparisonScheduler::Prime(std::span<PrimeEntry> entries,
                                ThreadPool* pool) {
  assert(empty() && heap_.empty());
  total_pushes_ += entries.size();
  // Make the listed slots live, in parallel: the listing that raises a
  // slot's live flag sets its priority. When a slot is listed twice the
  // last listing must win instead, so then the flags are dropped and a
  // serial pass, newest listing first, decides and unlists the others.
  std::atomic<bool> listed_twice{false};
  RunChunkedTasks(pool, entries.size(), kParallelGrain,
                  [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ScheduleSlot& s = slots_[entries[i].slot];
      if (std::atomic_ref<bool>(s.live).exchange(true,
                                                 std::memory_order_relaxed)) {
        listed_twice.store(true, std::memory_order_relaxed);
        continue;
      }
      s.version = 0;
      s.priority = entries[i].priority;
    }
  });
  if (listed_twice.load(std::memory_order_relaxed)) {
    for (const PrimeEntry& e : entries) slots_[e.slot].live = false;
    size_t kept = entries.size();
    for (size_t i = entries.size(); i-- > 0;) {
      ScheduleSlot& s = slots_[entries[i].slot];
      if (s.live) continue;
      s.live = true;
      s.version = 0;
      s.priority = entries[i].priority;
      entries[--kept] = entries[i];
    }
    entries = entries.subspan(kept);
  }
  live_ = entries.size();

  // Begin lists candidates in meta-blocking's (weight desc, pair asc) order,
  // and under the default benefit model a pristine priority is monotone in
  // the weight: only distinct weights that round to one priority come out
  // of order. Insertion sort over the entries' own keys, read in list
  // order, repairs those few in one pass; past a small move budget the list
  // is not nearly sorted, and a full sort takes over.
  size_t budget = entries.size() / 16 + 64;
  bool nearly_sorted = true;
  for (size_t i = 1; i < entries.size() && nearly_sorted; ++i) {
    if (!EntryBefore(entries[i], entries[i - 1])) continue;
    const PrimeEntry x = entries[i];
    size_t j = i;
    while (j > 0 && EntryBefore(x, entries[j - 1])) {
      entries[j] = entries[j - 1];
      --j;
      if (--budget == 0) {
        nearly_sorted = false;
        break;
      }
    }
    entries[j] = x;
  }
  if (!nearly_sorted) {
    ParallelSort(pool, entries, [](const PrimeEntry& x, const PrimeEntry& y) {
      return EntryBefore(x, y);
    });
  }
  run_.resize(entries.size());
  RunChunkedTasks(pool, entries.size(), kParallelGrain,
                  [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) run_[i] = entries[i].slot;
  });
  cursor_ = 0;
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
    // The run is consumed in order, but its slots (in pair order) lie
    // anywhere in the table: fetch the slot a few entries ahead, so it is
    // cached when its turn comes.
    if (cursor_ + kRunLookahead < run_.size()) {
      const char* ahead =
          reinterpret_cast<const char*>(&slots_[run_[cursor_ + kRunLookahead]]);
      __builtin_prefetch(ahead);
      __builtin_prefetch(ahead + sizeof(ScheduleSlot) - 1);
    }
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
