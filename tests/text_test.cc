// Unit tests for the text module: tokenization and the token-set similarity
// kernels (exact known values plus metric properties).

#include "gtest/gtest.h"
#include "text/similarity.h"
#include "text/tokenizer.h"
#include "util/interner.h"

namespace minoan {
namespace {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

std::vector<std::string> Toks(std::string_view text,
                              TokenizerOptions opts = {}) {
  Tokenizer tokenizer(opts);
  std::vector<std::string> out;
  tokenizer.Tokenize(text, out);
  return out;
}

TEST(TokenizerTest, SplitsOnNonAlnum) {
  EXPECT_EQ(Toks("the-Minoan palace, Knossos"),
            (std::vector<std::string>{"the", "minoan", "palace", "knossos"}));
}

TEST(TokenizerTest, MinLengthFilters) {
  TokenizerOptions opts;
  opts.min_token_length = 3;
  EXPECT_EQ(Toks("a bb ccc dddd", opts),
            (std::vector<std::string>{"ccc", "dddd"}));
}

TEST(TokenizerTest, NumericTokensToggle) {
  TokenizerOptions keep;
  EXPECT_EQ(Toks("born 1984", keep),
            (std::vector<std::string>{"born", "1984"}));
  TokenizerOptions drop;
  drop.keep_numeric = false;
  EXPECT_EQ(Toks("born 1984", drop), (std::vector<std::string>{"born"}));
}

TEST(TokenizerTest, DuplicatesPreserved) {
  EXPECT_EQ(Toks("ab ab ab"), (std::vector<std::string>{"ab", "ab", "ab"}));
}

TEST(TokenizerTest, TokenizeIntoInternsIds) {
  Tokenizer tokenizer;
  StringInterner dict;
  std::vector<uint32_t> ids;
  tokenizer.TokenizeInto("alpha beta alpha", dict, ids);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], ids[2]);
  EXPECT_NE(ids[0], ids[1]);
  EXPECT_EQ(dict.View(ids[1]), "beta");
}

TEST(TokenizerTest, SortUniqueDedupes) {
  std::vector<uint32_t> ids{5, 3, 5, 1, 3};
  SortUnique(ids);
  EXPECT_EQ(ids, (std::vector<uint32_t>{1, 3, 5}));
}

TEST(TokenizerTest, NoNormalizeKeepsCase) {
  TokenizerOptions opts;
  opts.normalize = false;
  EXPECT_EQ(Toks("MixedCase", opts), (std::vector<std::string>{"MixedCase"}));
}

// ---------------------------------------------------------------------------
// Set-kernel exact values
// ---------------------------------------------------------------------------

TEST(SetSimilarityTest, IntersectionSizeBasics) {
  EXPECT_EQ(IntersectionSize({1, 2, 3}, {2, 3, 4}), 2u);
  EXPECT_EQ(IntersectionSize({}, {1}), 0u);
  EXPECT_EQ(IntersectionSize({1, 2}, {3, 4}), 0u);
  EXPECT_EQ(IntersectionSize({1, 2, 3}, {1, 2, 3}), 3u);
}

TEST(SetSimilarityTest, JaccardKnownValues) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 2, 3}, {2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1}, {1}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1}, {2}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 0.0);
}

TEST(WeightedSimilarityTest, CosineKnownValues) {
  std::vector<WeightedToken> a{{1, 1.0}, {2, 2.0}};
  std::vector<WeightedToken> b{{1, 1.0}, {2, 2.0}};
  EXPECT_NEAR(WeightedCosineSimilarity(a, b), 1.0, 1e-12);
  std::vector<WeightedToken> c{{3, 5.0}};
  EXPECT_DOUBLE_EQ(WeightedCosineSimilarity(a, c), 0.0);
}

// ---------------------------------------------------------------------------
// Metric properties: the Jaccard kernel obeys range, symmetry, and identity
// axioms on a grid of inputs.
// ---------------------------------------------------------------------------

TEST(SetSimilarityTest, JaccardRangeSymmetryIdentity) {
  const std::vector<std::vector<uint32_t>> sets = {
      {},           {1},         {1, 2},     {1, 2, 3},
      {4, 5, 6},    {1, 3, 5},   {2, 4, 6},  {1, 2, 3, 4, 5, 6},
      {10, 20, 30}, {1, 10, 20}, {7},        {7, 8},
  };
  for (const auto& a : sets) {
    for (const auto& b : sets) {
      const double ab = JaccardSimilarity(a, b);
      const double ba = JaccardSimilarity(b, a);
      EXPECT_DOUBLE_EQ(ab, ba) << "symmetry violated";
      EXPECT_GE(ab, 0.0);
      EXPECT_LE(ab, 1.0);
    }
    if (!a.empty()) {
      EXPECT_DOUBLE_EQ(JaccardSimilarity(a, a), 1.0) << "identity violated";
    }
  }
}

}  // namespace
}  // namespace minoan
