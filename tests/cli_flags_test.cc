// Tests for the shared CLI flag parser: grammar, numeric accessors'
// exit(2)-on-garbage contract, and unknown-flag detection.

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/cli_flags.h"

namespace minoan {
namespace cli {
namespace {

Flags Parse(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  std::vector<char*> argv = {const_cast<char*>("minoan"),
                             const_cast<char*>("verb")};
  for (std::string& arg : storage) argv.push_back(arg.data());
  return Flags(static_cast<int>(argv.size()), argv.data(), 2);
}

TEST(CliFlagsTest, ParsesValuesBoolsAndPositionals) {
  const Flags flags = Parse({"corpus", "--threshold", "0.4", "--stream",
                             "--out=links.nt", "--budget", "-5", "extra"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "corpus");
  EXPECT_EQ(flags.positional()[1], "extra");
  EXPECT_EQ(flags.Get("threshold", ""), "0.4");
  EXPECT_DOUBLE_EQ(flags.GetDouble("threshold", 0), 0.4);
  EXPECT_TRUE(flags.Has("stream"));
  EXPECT_EQ(flags.Get("stream", ""), "true");
  EXPECT_EQ(flags.Get("out", ""), "links.nt");
  // A single leading dash is a value, not a flag.
  EXPECT_EQ(flags.Get("budget", ""), "-5");
  EXPECT_EQ(flags.Get("absent", "fallback"), "fallback");
  EXPECT_EQ(flags.GetInt("absent", 7), 7u);
}

TEST(CliFlagsTest, ByteSizeSuffixes) {
  const Flags flags = Parse({"--a", "64k", "--b=2MB", "--c", "1g", "--d",
                             "4096"});
  EXPECT_EQ(flags.GetByteSize("a", 0), 64u << 10);
  EXPECT_EQ(flags.GetByteSize("b", 0), 2u << 20);
  EXPECT_EQ(flags.GetByteSize("c", 0), 1u << 30);
  EXPECT_EQ(flags.GetByteSize("d", 0), 4096u);
}

TEST(CliFlagsTest, MalformedNumbersExitWithCodeTwo) {
  EXPECT_EXIT(Parse({"--threshold", "high"}).GetDouble("threshold", 0),
              ::testing::ExitedWithCode(2), "expects a number");
  EXPECT_EXIT(Parse({"--budget", "12x"}).GetInt("budget", 0),
              ::testing::ExitedWithCode(2), "non-negative integer");
  EXPECT_EXIT(Parse({"--mem", "64q"}).GetByteSize("mem", 0),
              ::testing::ExitedWithCode(2), "byte size");
}

TEST(CliFlagsTest, ParseUintIsWholeStringAndRangeChecked) {
  EXPECT_EQ(*ParseUint("n", "0"), 0u);
  EXPECT_EQ(*ParseUint("n", "1024", 1024), 1024u);
  EXPECT_EQ(*ParseUint("n", "18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "abc", "12x", "-5", "+5", " 5", "5 ", "0x10",
                          "1.5", "18446744073709551616"}) {
    const Result<uint64_t> v = ParseUint("step budget", bad);
    ASSERT_FALSE(v.ok()) << bad;
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(v.status().message().find("step budget"), std::string::npos);
  }
  EXPECT_FALSE(ParseUint("port", "65536", 65535).ok());
  EXPECT_FALSE(ParseUint("entities", "4294967301", UINT32_MAX).ok());
}

TEST(CliFlagsTest, ParseDoubleIsWholeStringAndRangeChecked) {
  EXPECT_DOUBLE_EQ(*ParseDouble("t", "0.35", 0, 1), 0.35);
  EXPECT_DOUBLE_EQ(*ParseDouble("t", "1", 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("t", "-2.5e3"), -2500.0);
  for (const char* bad : {"", "abc", "0.5x", " 0.5", "nan", "1.5", "-0.1"}) {
    EXPECT_FALSE(ParseDouble("threshold", bad, 0, 1).ok()) << bad;
  }
  EXPECT_FALSE(ParseDouble("t", "nan").ok());
}

TEST(CliFlagsTest, UnknownFlagsAreReportedSorted) {
  const Flags flags =
      Parse({"--theshold", "0.4", "--out", "x", "--bogus", "--seeds"});
  const std::vector<std::string> unknown =
      flags.UnknownFlags({"out", "seeds", "threshold"});
  ASSERT_EQ(unknown.size(), 2u);
  EXPECT_EQ(unknown[0], "bogus");
  EXPECT_EQ(unknown[1], "theshold");
  EXPECT_TRUE(flags.UnknownFlags({"bogus", "out", "seeds", "theshold"})
                  .empty());
}

TEST(CliFlagsTest, EmptyAllowListFlagsEverything) {
  const Flags flags = Parse({"--anything", "1"});
  const std::vector<std::string> unknown = flags.UnknownFlags({});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "anything");
}

}  // namespace
}  // namespace cli
}  // namespace minoan
