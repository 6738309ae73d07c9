// Copyright 2026 The MinoanER Authors.
// Flags: the `minoan` CLI's flag parser, extracted so every verb shares one
// grammar and tests can pin it.
//
// Grammar: `--name value` and `--name=value`; a bare `--name` followed by
// another flag (or nothing) is boolean true. A single leading dash is
// allowed in values so negative numbers parse. Everything that does not
// start with `--` is positional.
//
// Numeric accessors treat malformed input as a usage error: they print a
// specific message to stderr and exit(2) — a CLI contract, which is why
// they never throw. Verbs reject flags they do not understand through
// UnknownFlags(): a typo like `--theshold` must exit 2 with a message, not
// be silently ignored while the run proceeds with defaults.
//
// ParseUint / ParseDouble are the strict number parsers underneath, shared
// with every untrusted operand (script commands, corpus source strings):
// the whole string must be the number and the number must be in range, or
// the caller gets an InvalidArgument — never a silent 0, wrap or clamp.

#ifndef MINOAN_UTIL_CLI_FLAGS_H_
#define MINOAN_UTIL_CLI_FLAGS_H_

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace minoan {
namespace cli {

/// A decimal integer in [0, max]: digits only — no sign, no whitespace, no
/// trailing bytes. `what` names the value in the error message.
Result<uint64_t> ParseUint(std::string_view what, std::string_view text,
                           uint64_t max = std::numeric_limits<uint64_t>::max());

/// A decimal floating-point number in [min, max] (NaN never is), with no
/// leading or trailing bytes.
Result<double> ParseDouble(std::string_view what, std::string_view text,
                           double min = -HUGE_VAL, double max = HUGE_VAL);

class Flags {
 public:
  /// Parses argv[first..argc).
  Flags(int argc, char** argv, int first);

  /// The flag's value, or `fallback` when absent.
  std::string Get(const std::string& name, const std::string& fallback) const;

  /// Floating-point flag; exits 2 with a message on malformed input.
  double GetDouble(const std::string& name, double fallback) const;

  /// Non-negative integer flag; exits 2 with a message on malformed input.
  uint64_t GetInt(const std::string& name, uint64_t fallback) const;

  /// Byte size: integer with optional k/m/g (or kb/mb/gb, case-insensitive)
  /// binary suffix — "65536", "64k", "1G". Exits 2 on malformed input.
  uint64_t GetByteSize(const std::string& name, uint64_t fallback) const;

  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  const std::vector<std::string>& positional() const { return positional_; }

  /// Every parsed flag name NOT in `allowed`, in parse-stable (sorted)
  /// order. Verbs turn a non-empty result into exit code 2.
  std::vector<std::string> UnknownFlags(
      std::initializer_list<std::string_view> allowed) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace cli
}  // namespace minoan

#endif  // MINOAN_UTIL_CLI_FLAGS_H_
