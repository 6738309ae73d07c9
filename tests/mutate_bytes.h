// Copyright 2026 The MinoanER Authors.
// MutateBytes: the seeded byte mutations the checkpoint-loader fuzz tests
// apply, in the style of rdf_test's ParserFuzzTest.

#ifndef MINOAN_TESTS_MUTATE_BYTES_H_
#define MINOAN_TESTS_MUTATE_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/rng.h"

namespace minoan {
namespace testutil {

/// Applies 1-3 mutations to `bytes`, drawn from `rng`: single-bit flips
/// (half of them), truncations, and inserted random bytes. Three of four
/// mutations land in [hot_begin, size), the part of the format the caller
/// wants exercised most; the rest anywhere.
inline std::string MutateBytes(std::string bytes, Rng& rng,
                               size_t hot_begin = 0) {
  const uint64_t mutations = 1 + rng.Below(3);
  for (uint64_t m = 0; m < mutations && !bytes.empty(); ++m) {
    const size_t from =
        rng.Below(4) == 0 || hot_begin >= bytes.size() ? 0 : hot_begin;
    const size_t at = from + rng.Below(bytes.size() - from);
    switch (rng.Below(4)) {
      case 0:
      case 1:
        bytes[at] = static_cast<char>(bytes[at] ^ (1u << rng.Below(8)));
        break;
      case 2:
        bytes.resize(at);
        break;
      default:
        bytes.insert(at, 1, static_cast<char>(rng.Below(256)));
    }
  }
  return bytes;
}

}  // namespace testutil
}  // namespace minoan

#endif  // MINOAN_TESTS_MUTATE_BYTES_H_
