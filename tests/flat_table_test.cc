// Tests for util/flat_table.h: FlatPairMap parity against the std container
// it replaced, across randomized insert/find/erase
// workloads that cross multiple rehash boundaries, plus targeted checks of
// the backward-shift erase (the one operation with real room for subtle
// probe-chain bugs).

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "util/flat_table.h"
#include "util/hash.h"

namespace minoan {
namespace {

TEST(FlatPairMapTest, EmptyLookups) {
  FlatPairMap<double> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(7), nullptr);
  EXPECT_FALSE(map.Contains(7));
  EXPECT_FALSE(map.Erase(7));
  EXPECT_TRUE(map.empty());
}

TEST(FlatPairMapTest, InsertFindEraseBasics) {
  FlatPairMap<double> map;
  bool created = false;
  map.FindOrInsert(10, &created) = 1.5;
  EXPECT_TRUE(created);
  map.FindOrInsert(10, &created) = 2.5;
  EXPECT_FALSE(created);
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.Find(10), nullptr);
  EXPECT_EQ(*map.Find(10), 2.5);

  map.InsertOrAssign(11, 3.0);
  map.InsertOrAssign(11, 4.0);  // overwrite
  EXPECT_EQ(*map.Find(11), 4.0);
  EXPECT_EQ(map.size(), 2u);

  EXPECT_TRUE(map.Erase(10));
  EXPECT_FALSE(map.Erase(10));
  EXPECT_EQ(map.Find(10), nullptr);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatPairMapTest, FindOrInsertValueInitializes) {
  // The resolver's first-sighting logic relies on operator[]-style zero
  // initialization: a fresh entry must read as exactly 0.0.
  FlatPairMap<double> map;
  double& v = map.FindOrInsert(42);
  EXPECT_EQ(v, 0.0);
  v = 7.0;
  EXPECT_EQ(map.FindOrInsert(42), 7.0);
}

TEST(FlatPairMapTest, ReserveAvoidsRehash) {
  FlatPairMap<uint64_t> map;
  map.Reserve(1000);
  const size_t capacity = map.capacity();
  EXPECT_GE(capacity * 7, 1000u * 10);  // 1000 entries fit under 0.7 load
  for (uint64_t k = 0; k < 1000; ++k) map.InsertOrAssign(k, k * 3);
  EXPECT_EQ(map.capacity(), capacity);  // no growth mid-fill
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_NE(map.Find(k), nullptr);
    EXPECT_EQ(*map.Find(k), k * 3);
  }
}

// The load-bearing test: a long randomized workload where every operation
// is mirrored into std::unordered_map and full contents are compared at
// checkpoints. Keys are drawn from a small universe so erase hits often and
// collision runs form; the table grows through several rehashes.
TEST(FlatPairMapTest, RandomizedParityWithUnorderedMap) {
  std::mt19937_64 rng(0xF1A7F1A7u);
  FlatPairMap<uint64_t> flat;
  std::unordered_map<uint64_t, uint64_t> ref;
  std::uniform_int_distribution<uint64_t> key_dist(0, 4095);
  std::uniform_int_distribution<int> op_dist(0, 99);

  // Equal sizes and every reference entry found with its value: the two
  // hold the same entries.
  const auto expect_equal = [&] {
    ASSERT_EQ(flat.size(), ref.size());
    for (const auto& [key, value] : ref) {
      const uint64_t* got = flat.Find(key);
      ASSERT_NE(got, nullptr) << "key " << key;
      EXPECT_EQ(*got, value) << "key " << key;
    }
  };

  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 20000; ++i) {
      const uint64_t key = key_dist(rng);
      const int op = op_dist(rng);
      if (op < 45) {  // insert-or-assign
        const uint64_t value = rng();
        flat.InsertOrAssign(key, value);
        ref[key] = value;
      } else if (op < 70) {  // find-or-insert, then mutate through the ref
        bool created = false;
        uint64_t& fv = flat.FindOrInsert(key, &created);
        const auto [it, inserted] = ref.try_emplace(key, 0);
        ASSERT_EQ(created, inserted) << "key " << key;
        fv += key + 1;
        it->second += key + 1;
      } else if (op < 95) {  // erase
        ASSERT_EQ(flat.Erase(key), ref.erase(key) > 0) << "key " << key;
      } else {  // point lookup
        const uint64_t* fv = flat.Find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(fv != nullptr, it != ref.end()) << "key " << key;
        if (fv != nullptr) {
          EXPECT_EQ(*fv, it->second);
        }
      }
    }
    expect_equal();
    if (round == 1) {  // empty the table, then grow it again
      for (const auto& [key, value] : ref) ASSERT_TRUE(flat.Erase(key));
      ref.clear();
      ASSERT_TRUE(flat.empty());
    }
  }
}

// Erase keys in a cluster that collides into one probe run, in every order,
// verifying the backward shift never strands a key behind an empty slot.
TEST(FlatPairMapTest, BackwardShiftEraseKeepsRunsReachable) {
  // Find keys that share a home slot at capacity 16.
  std::vector<uint64_t> colliders;
  for (uint64_t k = 0; colliders.size() < 5 && k < 1'000'000; ++k) {
    if ((Mix64(k) & 15) == 3) colliders.push_back(k);
  }
  ASSERT_EQ(colliders.size(), 5u);
  std::vector<size_t> order{0, 1, 2, 3, 4};
  do {
    FlatPairMap<uint64_t> map;  // capacity starts at 16, 5 entries fit
    for (const uint64_t k : colliders) map.InsertOrAssign(k, k + 1);
    ASSERT_EQ(map.capacity(), 16u);
    std::vector<bool> erased(colliders.size(), false);
    for (const size_t idx : order) {
      EXPECT_TRUE(map.Erase(colliders[idx]));
      erased[idx] = true;
      for (size_t i = 0; i < colliders.size(); ++i) {
        const uint64_t* v = map.Find(colliders[i]);
        if (erased[i]) {
          EXPECT_EQ(v, nullptr);
        } else {
          ASSERT_NE(v, nullptr) << "stranded key after erase";
          EXPECT_EQ(*v, colliders[i] + 1);
        }
      }
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

// PairKey packs two dense u32 entity ids, so the all-ones sentinel can
// never be produced by a valid pair — the premise of the reserved key.
TEST(FlatPairTableTest, SentinelIsNoValidPairKey) {
  const uint64_t max_valid =
      PairKey(0xFFFFFFFEu, 0xFFFFFFFFu);  // largest packable pair
  EXPECT_NE(max_valid, FlatPairMap<uint32_t>::kEmptyKey);
  EXPECT_NE(PairKey(0, 0), FlatPairMap<uint32_t>::kEmptyKey);
}

}  // namespace
}  // namespace minoan
