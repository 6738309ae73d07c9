#include "matching/union_find.h"

#include <algorithm>
#include <unordered_map>

namespace minoan {

std::vector<std::vector<uint32_t>> UnionFind::Clusters(uint32_t min_size) {
  std::unordered_map<uint32_t, std::vector<uint32_t>> by_root;
  for (uint32_t i = 0; i < parent_.size(); ++i) {
    by_root[Find(i)].push_back(i);
  }
  std::vector<std::vector<uint32_t>> out;
  for (auto& [root, members] : by_root) {
    if (members.size() < min_size) continue;
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  return out;
}

}  // namespace minoan
