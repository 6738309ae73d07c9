#include "blocking/block.h"

#include <unordered_set>
#include <utility>

#include "util/hash.h"

namespace minoan {

void BlockCollection::AddBlock(const std::vector<EntityId>& entities) {
  const size_t start = entities_.size();
  entities_.insert(entities_.end(), entities.begin(), entities.end());
  const auto first = entities_.begin() + start;
  std::sort(first, entities_.end());
  entities_.erase(std::unique(first, entities_.end()), entities_.end());
  if (entities_.size() - start < 2) {
    entities_.resize(start);
    return;
  }
  offsets_.push_back(entities_.size());
  index_offsets_.clear();
  index_blocks_.clear();
}

uint64_t BlockCollection::NumComparisons(uint32_t bi,
                                         const EntityCollection& collection,
                                         ResolutionMode mode) const {
  const std::span<const EntityId> block = entities(bi);
  const uint64_t n = block.size();
  if (mode == ResolutionMode::kDirty) return n * (n - 1) / 2;
  // Clean-clean: pairs from different KBs. Count per-KB membership.
  // sum over kb pairs = (n^2 - sum n_k^2) / 2.
  std::vector<std::pair<uint32_t, uint64_t>> kb_counts;
  for (EntityId e : block) {
    const uint32_t kb = collection.entity(e).kb;
    bool found = false;
    for (auto& [k, c] : kb_counts) {
      if (k == kb) {
        ++c;
        found = true;
        break;
      }
    }
    if (!found) kb_counts.emplace_back(kb, 1);
  }
  uint64_t sum_sq = 0;
  for (const auto& [k, c] : kb_counts) sum_sq += c * c;
  return (n * n - sum_sq) / 2;
}

uint64_t BlockCollection::AggregateComparisons(
    const EntityCollection& collection, ResolutionMode mode) const {
  uint64_t total = 0;
  for (uint32_t bi = 0; bi < num_blocks(); ++bi) {
    total += NumComparisons(bi, collection, mode);
  }
  return total;
}

std::vector<Comparison> BlockCollection::DistinctComparisons(
    const EntityCollection& collection, ResolutionMode mode) const {
  std::unordered_set<uint64_t> seen;
  std::vector<Comparison> out;
  for (uint32_t bi = 0; bi < num_blocks(); ++bi) {
    const std::span<const EntityId> block = entities(bi);
    for (size_t i = 0; i < block.size(); ++i) {
      for (size_t j = i + 1; j < block.size(); ++j) {
        const EntityId x = block[i], y = block[j];
        if (mode == ResolutionMode::kCleanClean && !collection.CrossKb(x, y)) {
          continue;
        }
        if (seen.insert(PairKey(x, y)).second) {
          out.emplace_back(x, y);
        }
      }
    }
  }
  return out;
}

void BlockCollection::BuildEntityIndex(uint32_t num_entities) {
  index_offsets_.assign(static_cast<size_t>(num_entities) + 1, 0);
  for (const EntityId e : entities_) ++index_offsets_[e + 1];
  for (size_t i = 1; i < index_offsets_.size(); ++i) {
    index_offsets_[i] += index_offsets_[i - 1];
  }
  index_blocks_.resize(index_offsets_.back());
  std::vector<uint64_t> cursor(index_offsets_.begin(),
                               index_offsets_.end() - 1);
  for (uint32_t bi = 0; bi < num_blocks(); ++bi) {
    for (EntityId e : entities(bi)) {
      index_blocks_[cursor[e]++] = bi;
    }
  }
}

void BlockCollection::Replace(std::vector<uint64_t> offsets,
                              std::vector<EntityId> entities) {
  offsets_ = std::move(offsets);
  entities_ = std::move(entities);
  index_offsets_.clear();
  index_blocks_.clear();
}

}  // namespace minoan
